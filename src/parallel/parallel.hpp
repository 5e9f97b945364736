// Deterministic parallel execution layer.
//
// A small dependency-free worker pool behind a parallel_for / parallel_map
// API for the embarrassingly parallel offline loops (tuner sweep, Random
// Forest fitting, bench trials). The contract every caller relies on:
//
//   * Result ordering is deterministic: parallel_map's results land in index
//     order regardless of worker interleaving, so merged output is
//     bit-identical across runs and across thread counts.
//   * Randomness never crosses work items: every caller draws its RNG
//     state serially before it fans out (the tuner and the forest do), so
//     no item's draws depend on which worker ran it or in what order.
//   * threads=1 takes a pure inline path — no pool, no queue, no atomics —
//     byte-identical in behaviour and output to a hand-written serial loop.
//   * Nested parallel_for is legal: a work item may fan out again (the tuner
//     parallelises over samples and over the bound grid within a sample).
//     Idle workers join whichever loop has unclaimed indices; a nested call
//     never deadlocks because a thread only blocks once every index of its
//     own loop has been claimed by a running thread.
//
// Pool size comes from set_threads() (benches wire --threads to it) or the
// MICCO_THREADS environment variable; the default is 1 (serial) so existing
// tools and tests behave exactly as before unless parallelism is requested.
// The pool silently caps its lane count at the hardware concurrency —
// oversubscribing cores only adds context-switch overhead for these
// CPU-bound loops (it showed up as sub-1.0 tuner speedups on small hosts).
// configured_threads() still reports the requested width, and setting
// MICCO_THREADS_OVERSUBSCRIBE=1 lifts the cap (the TSan CI stage does, to
// keep its forced 8-lane interleavings on any runner).
//
// The pool's locking (thread_pool.cpp) is written against the annotated
// micco::Mutex primitives from common/mutex.hpp, so Clang's thread-safety
// analysis (-Werror=thread-safety, DESIGN.md §5e) statically checks every
// guarded field; micco_lint additionally bans raw std::mutex and unmarked
// atomics throughout src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace micco::parallel {

/// Sets the pool size used by subsequent parallel_for calls. 0 means "auto"
/// (hardware concurrency); any other value is the exact lane count
/// (including the calling thread). Must not race an in-flight parallel_for:
/// callers configure threading up front (CLI parse time).
void set_threads(int n);

/// The resolved lane count (>= 1). First call latches MICCO_THREADS from the
/// environment when set_threads was never called.
int configured_threads();

/// The lane count parallel_for actually runs: configured_threads() capped at
/// the hardware concurrency (unless MICCO_THREADS_OVERSUBSCRIBE=1). Callers
/// that use parallel_for as a *thread-spawn* primitive for loops that block
/// (the daemon's I/O lanes) must size against this, not the configured
/// width: lanes beyond it never run concurrently, so a blocking lane 0
/// would starve the rest forever.
int effective_threads();

/// Invokes body(i) exactly once for every i in [0, n), spread across the
/// configured lanes; returns after all n invocations completed. The first
/// exception thrown by any item is rethrown on the caller after the loop
/// drains. With threads=1 this is exactly `for (i...) body(i)`.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// parallel_for that collects return values in index order. T needs only a
/// move constructor (results are staged in optionals, then unwrapped).
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using T = decltype(fn(std::size_t{0}));
  std::vector<std::optional<T>> staged(n);
  parallel_for(n, [&](std::size_t i) { staged[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& slot : staged) {
    MICCO_ASSERT(slot.has_value());
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace micco::parallel
