// The simulator's one parallel primitive: a closed loop over `n` independent
// items. Workers share one atomic cursor and each takes the next index as
// soon as it has finished the last, so a slow item delays only the worker
// running it. Items are grid points of 0.1-2.5 s each, so the cursor costs
// nothing measurable; a caller that cares which items start first lays out
// its index space in that order (the orchestrator hands out its largest
// points first).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>

namespace mcm::exec {

/// A thread count as a user typed it: a positive decimal integer that fits
/// `unsigned`, with no sign, space or suffix. nullopt for anything else,
/// including 0.
[[nodiscard]] std::optional<unsigned> parse_thread_count(std::string_view text);

/// The worker count for `requested`: the request when non-zero, else
/// MCM_THREADS, else std::thread::hardware_concurrency(); at least 1. A set
/// but malformed MCM_THREADS logs one warning naming the value and is
/// otherwise ignored.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Calls fn(i) once for every i in [0, n) on min(threads, n) workers: the
/// calling thread plus min(threads, n) - 1 started threads (`threads` 0
/// counts as 1; n = 0 starts none). The first exception fn throws stops
/// the handout of further indices; every worker is joined, then that
/// exception is rethrown.
void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn);

}  // namespace mcm::exec
