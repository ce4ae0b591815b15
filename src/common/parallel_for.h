// Partitioned parallel-for over the process-wide worker pool.
//
// parallel_for(n, grain, body) splits the index range [0, n) into
// contiguous blocks of at least `grain` indices and runs
// body(begin, end) for each block, using the shared pool returned by
// global_pool(). It is the one data-parallel primitive the hot paths
// use: the CalibratedModel::score_batch record split, and
// anything later whose per-index work is heavy enough to pay for a pool
// hop — all drawing from the same pool as the serving engine and
// MuffinSearch, so components never compete with per-call threads.
// (GEMMs do not split: at Muffin's head shapes a row is far cheaper than
// waking a worker, so tensor/ops.cpp runs each kernel on the caller.)
//
// Guarantees:
//  * Every index in [0, n) is covered by exactly one body(begin, end)
//    call with begin < end; blocks are contiguous and ascending per call
//    site. Work that makes each output element entirely inside one block
//    (e.g. one record's scores) is therefore bit-identical to a serial run.
//  * The calling thread participates: one block always runs inline, so a
//    one-worker pool (or an empty queue slot) never deadlocks a caller.
//  * Nested use is safe and serial: when the caller is already a pool
//    worker — an engine backlog job or a MuffinSearch episode evaluating
//    a kernel — or holds a ThreadPool::SerialScope — the engine's
//    dispatcher thread — the whole range runs inline on that thread
//    instead of re-entering the pool, which would risk worker-starvation
//    deadlock (and, for the dispatcher, fan a one-batch kernel out).
//  * Exceptions from body propagate: the first block exception is
//    rethrown to the caller after all blocks finished (no detached work
//    left touching caller state).
//
// Serial fallbacks (n <= grain, single-worker pool, nested calls,
// MUFFIN_THREADS=1) run body(0, n) in one call on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace muffin::common {

/// The process-wide worker pool, created on first use. Sized by the
/// MUFFIN_THREADS environment variable when set (minimum 1), otherwise
/// std::thread::hardware_concurrency(). The serving engine, MuffinSearch
/// and parallel_for all share this instance.
[[nodiscard]] ThreadPool& global_pool();

/// Number of workers global_pool() has (or would have): reads the
/// configuration without forcing pool creation on the first call.
[[nodiscard]] std::size_t global_pool_size();

namespace detail {
/// Out-of-line parallel path; requires a partition of at least 2 blocks.
void parallel_for_impl(std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>&
                           body);
}  // namespace detail

/// Run body(begin, end) over a partition of [0, n) as described above.
/// `grain` is the minimum block size (0 is treated as 1). The serial
/// fallbacks (serial context, single-worker pool, range below two grains)
/// are decided inline before any allocation, so kernels called from pool
/// workers or the engine dispatcher — every engine batch and search
/// episode — pay a few thread-local/static reads and no std::function or
/// partition vector.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  if (n / g < 2 || global_pool_size() <= 1 || ThreadPool::serial_context()) {
    body(std::size_t{0}, n);
    return;
  }
  detail::parallel_for_impl(
      n, g, std::function<void(std::size_t, std::size_t)>(
                std::forward<Body>(body)));
}

/// The partition parallel_for would use for `n` indices at `grain` with
/// `workers` pool threads: contiguous ascending [begin, end) blocks, every
/// index exactly once, each block at least `grain` indices (never more
/// blocks than workers; a single block means "run inline"). Exposed so the
/// partition rules are testable without depending on the machine's pool.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
partition_blocks(std::size_t n, std::size_t grain, std::size_t workers);

}  // namespace muffin::common

namespace muffin {
using common::global_pool;
using common::parallel_for;
}  // namespace muffin
