// MpscQueue: an unbounded lock-free multi-producer / single-consumer queue
// (Vyukov's intrusive algorithm: producers contend only on one atomic
// exchange of the tail, the consumer walks the linked list).
//
// The ACK-commit stage queue of the stage pipeline (PR 8): each NIB shard has
// one, fed by that shard's Monitoring Server instance and drained by the
// CommitPump. On the simulator thread both ends are sequential, so the
// lock-free path is exercised for real only by queue_test's producer-swarm
// stress under TSan — but the structure is the honest production shape: a
// socket-per-switch deployment would have many reply threads feeding one
// committer.
//
// Progress note (inherent to the algorithm): between a producer's tail
// exchange and its next-pointer store, try_pop on the partially linked node
// reports empty. Producers are never blocked; the consumer simply retries.
// With a single thread on both ends the window cannot be observed.
#pragma once

#include <atomic>
#include <optional>
#include <utility>

namespace zenith {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    Node* stub = new Node();
    head_ = stub;
    tail_.store(stub, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    clear();
    delete head_;  // the remaining stub
  }

  /// Any thread.
  void push(T value) {
    Node* node = new Node(std::move(value));
    Node* prev = tail_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Consumer thread only.
  std::optional<T> try_pop() {
    Node* head = head_;
    Node* next = head->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    std::optional<T> out(std::move(next->value));
    head_ = next;
    delete head;
    return out;
  }

  /// Consumer-side emptiness check (racy across threads by nature; exact
  /// when both ends run on one thread, as in the simulator).
  bool empty() const {
    return head_->next.load(std::memory_order_acquire) == nullptr;
  }

  /// Consumer thread only: drops everything currently linked (used when an
  /// OFC instance dies — its pending commit jobs are volatile state).
  void clear() {
    while (try_pop()) {
    }
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  Node* head_;  // consumer end (always points at a consumed stub)
  alignas(64) std::atomic<Node*> tail_;
};

}  // namespace zenith
