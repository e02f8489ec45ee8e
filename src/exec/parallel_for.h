#pragma once
// Deterministic data parallelism over a ThreadPool.
//
// Scheduling is static: `count` indices are cut into at most
// `chunks_hint` contiguous chunks (sizes differing by at most one,
// larger chunks first), and every chunk is submitted up front. Which
// worker runs which chunk -- and in what order chunks finish -- is
// scheduler noise; determinism comes from the contract that chunk
// bodies only write state indexed by their own range, and per-chunk
// results are collected in chunk-index order. Under that contract the
// result of parallel_for/map is bit-identical to running the chunks
// serially in order, at any worker count, which is exactly what
// tests/test_exec.cpp pins.
//
// The serial path IS the parallel path: with a null pool, one worker,
// a single chunk, or when called from inside a pool worker (nested
// parallelism), the same chunk loop runs inline on the calling thread.
// There is no separate serial implementation to drift out of sync.
//
// Exceptions thrown by a body are caught in the worker, and the first
// one (in chunk-index order, not completion order -- again for
// determinism) is rethrown on the calling thread after the barrier.

#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace fd::exec {

struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;  // half-open
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

// The static chunk plan: min(count, max(1, chunks_hint)) contiguous
// ranges covering [0, count), remainder spread over the leading chunks.
[[nodiscard]] std::vector<ChunkRange> static_chunks(std::size_t count,
                                                    std::size_t chunks_hint);

// Runs `body(range, chunk_index)` for every chunk of the plan; blocks
// until all chunks finish (barrier). chunks_hint == 0 selects one chunk
// per pool worker (or 1 chunk with a null pool).
void parallel_for_chunks(ThreadPool* pool, std::size_t count, std::size_t chunks_hint,
                         const std::function<void(ChunkRange, std::size_t)>& body);

// Element-wise convenience: body(i) for i in [0, count).
void parallel_for(ThreadPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

// body(i) -> out[i]. T must be default-constructible (the results
// vector is pre-sized so workers write disjoint slots); wrap
// non-default-constructible types in std::optional at the call site.
template <typename T, typename BodyFn>
[[nodiscard]] std::vector<T> parallel_map(ThreadPool* pool, std::size_t count, BodyFn&& body) {
  std::vector<T> out(count);
  parallel_for_chunks(pool, count, 0, [&](ChunkRange r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) out[i] = body(i);
  });
  return out;
}

}  // namespace fd::exec
