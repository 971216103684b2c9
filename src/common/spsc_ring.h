// SpscRing: a bounded lock-free single-producer / single-consumer ring.
//
// The per-shard NIB-event channel of the stage pipeline (PR 8): the NIB
// publishes a shard's events into that shard's ring and the shard's NIB
// Event Handler drains it. In the controller both ends run on the simulator
// thread (the lock-free discipline is then trivially correct); queue_test
// exercises the concurrent case directly with a real producer/consumer
// thread pair under TSan.
//
// Capacity is a power of two and grows on demand — but grow() is only legal
// when no concurrent access is possible (in practice: the simulator thread,
// which is both producer and consumer).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace zenith {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity = 1024)
      : buffer_(round_up_pow2(capacity)), mask_(buffer_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full (caller may grow()
  /// if it can rule out concurrent access, or retry later).
  bool try_push(T item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= buffer_.size()) return false;
    buffer_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  std::optional<T> try_pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return std::nullopt;
    std::optional<T> out(std::move(buffer_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    return out;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    // Snapshot head BEFORE tail: the two loads are not atomic together, and
    // a consumer pop between them would make `tail - head` underflow to
    // ~2^64 if tail were read first. With head read first the difference
    // never goes negative (tail only grows, and tail >= head held when head
    // was read) — but a pop+push pair landing between the loads can still
    // push the later tail read past head+capacity, so clamp to capacity:
    // every snapshot is then a plausible occupancy.
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t diff = tail - head;
    return diff < buffer_.size() ? diff : buffer_.size();
  }

  std::size_t capacity() const { return buffer_.size(); }

  /// Doubles the capacity, preserving FIFO order. NOT thread-safe: callable
  /// only when producer and consumer are the same thread (the simulator
  /// thread).
  void grow() {
    std::vector<T> bigger(buffer_.size() * 2);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t count = 0;
    for (std::size_t i = head; i != tail; ++i) {
      bigger[count++] = std::move(buffer_[i & mask_]);
    }
    buffer_ = std::move(bigger);
    mask_ = buffer_.size() - 1;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(count, std::memory_order_relaxed);
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<T> buffer_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace zenith
