// Shared fork-join machinery: the one-shot parallel_for used by the chaos
// campaign runner, the model checker and the bench grids (moved here from
// src/chaos/parallel.* so lower layers can use it without a dependency on
// chaos; chaos::parallel_for delegates).
#pragma once

#include <cstddef>
#include <functional>

namespace zenith {

/// Worker-thread count for bench/test harnesses: $ZENITH_BENCH_THREADS when
/// set (clamped to [1, 64]), else min(4, hardware_concurrency), else 1.
std::size_t default_bench_threads();

/// Runs body(0) .. body(n-1) on up to `threads` OS threads. Indexes are
/// claimed from an atomic counter, so each runs exactly once; the call
/// returns after all complete. With threads <= 1 (or n <= 1) the bodies run
/// inline in the calling thread — no pool, identical observable behavior.
/// The first exception thrown by any body is rethrown in the caller after
/// the pool drains.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace zenith
