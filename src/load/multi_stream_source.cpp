#include "load/multi_stream_source.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mcm::load {
namespace {

std::uint64_t round_up(std::uint64_t v, std::uint64_t a) { return (v + a - 1) / a * a; }

}  // namespace

MultiStreamSource::MultiStreamSource(std::string name, std::vector<StreamSpec> streams,
                                     std::uint32_t chunk_bytes,
                                     std::uint32_t burst_bytes)
    : name_(std::move(name)), chunk_(chunk_bytes), burst_(burst_bytes) {
  if (burst_ == 0 || chunk_ == 0) throw std::invalid_argument("zero granularity");
  chunk_ = static_cast<std::uint32_t>(round_up(chunk_, burst_));
  streams_.reserve(streams.size());
  for (auto& s : streams) {
    if (s.bytes == 0) continue;
    s.bytes = round_up(s.bytes, burst_);
    if (s.window == 0) s.window = s.bytes;
    s.window = round_up(s.window, burst_);
    total_ += s.bytes;
    streams_.push_back(StreamState{s, 0});
  }
  remaining_ = total_;
  if (remaining_ > 0) select_stream();
}

void MultiStreamSource::select_stream() {
  // Pick the stream with the lowest progress fraction so interleaving stays
  // proportional to each stream's volume.
  double best_frac = 2.0;
  std::size_t best = streams_.size();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& st = streams_[i];
    if (st.cursor >= st.spec.bytes) continue;
    const double frac =
        static_cast<double>(st.cursor) / static_cast<double>(st.spec.bytes);
    if (frac < best_frac) {
      best_frac = frac;
      best = i;
    }
  }
  assert(best < streams_.size());
  current_ = best;
  const auto& st = streams_[current_];
  chunk_left_ = std::min<std::uint64_t>(chunk_, st.spec.bytes - st.cursor);
}

ctrl::Request MultiStreamSource::head() const {
  assert(!done());
  const auto& st = streams_[current_];
  ctrl::Request r;
  r.addr = st.spec.base + st.cursor % st.spec.window;
  r.is_write = st.spec.is_write;
  r.source = st.spec.source_id;
  r.arrival = start_;
  if (pace_duration_ > Time::zero() && total_ > 0) {
    const double frac = static_cast<double>(issued_) / static_cast<double>(total_);
    r.arrival = start_ + Time{static_cast<std::int64_t>(
                             frac * static_cast<double>(pace_duration_.ps()))};
  }
  return r;
}

void MultiStreamSource::advance() {
  assert(!done());
  auto& st = streams_[current_];
  const std::uint64_t step = std::min<std::uint64_t>(burst_, st.spec.bytes - st.cursor);
  st.cursor += step;
  issued_ += step;
  remaining_ -= step;
  chunk_left_ = chunk_left_ > step ? chunk_left_ - step : 0;
  if (remaining_ == 0) return;
  if (chunk_left_ == 0 || st.cursor >= st.spec.bytes) select_stream();
}

void MultiStreamSource::append_packed(PackedRuns& out) {
  // Volumes, windows and chunk_left_ are whole bursts, so every advance()
  // steps exactly one burst and a chunk never runs past its stream's end:
  // each iteration below is one chunk of advance() calls followed by the
  // same select_stream() they end with. Inside a chunk the address only
  // steps by a burst or wraps to the window base, so the chunk is one run
  // per window pass; out merges it with the previous run when it continues.
  while (remaining_ > 0) {
    auto& st = streams_[current_];
    const std::uint64_t window = st.spec.window;
    const std::uint64_t write_bit = st.spec.is_write ? kPackedWriteBit : 0;
    std::uint64_t offset = st.cursor % window;
    std::uint64_t n = chunk_left_ / burst_;
    while (n > 0) {
      const std::uint64_t m = std::min(n, (window - offset) / burst_);
      out.append_run((st.spec.base + offset) | write_bit, m);
      offset = (offset + m * burst_) % window;
      n -= m;
    }
    st.cursor += chunk_left_;
    issued_ += chunk_left_;
    remaining_ -= chunk_left_;
    chunk_left_ = 0;
    if (remaining_ > 0) select_stream();
  }
}

}  // namespace mcm::load
