#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace femu {

/// Deterministic index-range fan-out for one-time work outside the campaign
/// sharder (engine construction itself is serial and does not use it).
///
/// Splits [0, n) into at most `num_threads` contiguous ranges and runs
/// `fn(begin, end)` on each, the first range on the calling thread. Callers
/// guarantee every range writes a disjoint slice of the output, so the
/// result is bit-identical to the serial loop for any thread count.
///
/// `num_threads == 0` means std::thread::hardware_concurrency(); 1 runs the
/// plain loop with no thread spawned. The first exception thrown by any
/// range is rethrown on the calling thread after all ranges join.
template <typename Fn>
void parallel_for_ranges(std::size_t n, unsigned num_threads, const Fn& fn) {
  if (n == 0) {
    return;
  }
  std::size_t threads =
      num_threads == 0 ? std::thread::hardware_concurrency() : num_threads;
  threads = std::clamp<std::size_t>(threads, 1, n);
  if (threads == 1) {
    fn(std::size_t{0}, n);
    return;
  }
  const std::size_t chunk = (n + threads - 1) / threads;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto guarded = [&](std::size_t begin, std::size_t end) {
    try {
      fn(begin, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back([&guarded, begin, end] { guarded(begin, end); });
  }
  guarded(0, std::min(chunk, n));
  for (std::thread& worker : pool) {
    worker.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace femu
