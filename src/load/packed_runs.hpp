// Packed request words and their run-length container.
//
// A request packs into one word: global byte address | (is_write << 63).
// Every Fig. 1 stage walks its frame surfaces in raster order, so a stage's
// stream is long runs of requests that continue one another: same
// direction, next address one device burst on. PackedRuns stores a stage
// as those runs — the first word of each run and its length — and replays
// the words in stream order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

namespace mcm::load {

/// A request packed into one word: byte address | (is_write << 63).
inline constexpr std::uint64_t kPackedWriteBit = std::uint64_t{1} << 63;
[[nodiscard]] inline std::uint64_t pack_request(std::uint64_t addr,
                                                bool is_write) {
  return addr | (is_write ? kPackedWriteBit : 0);
}

/// A stream of packed words stored as runs: a run is a word w followed by
/// w + step, w + 2*step, ... in the same direction. Each run costs one
/// 8-byte head and a 1-byte length, so a stream where no request continues
/// the previous one costs 9 bytes per request and a raster walk about one
/// byte. Lossless for every address below 2^63, aligned or not.
class PackedRuns {
 public:
  /// Longest run one length byte holds (stored as length - 1).
  static constexpr std::uint32_t kMaxRun = 256;

  /// `step` is the address distance between consecutive requests of a run:
  /// the burst size of the device the stream was cut for.
  explicit PackedRuns(std::uint32_t step) : step_(step) {}

  /// Append one packed word, extending the last run when it continues it.
  void append(std::uint64_t packed) { append_run(packed, 1); }

  /// Append `count` words: packed, packed + step, ... Their addresses must
  /// stay below 2^63 (a run never changes direction).
  void append_run(std::uint64_t packed, std::uint64_t count) {
    if (count == 0) return;
    assert((packed & ~kPackedWriteBit) + (count - 1) * step_ <
           kPackedWriteBit);
    size_ += count;
    if (!heads_.empty()) {
      const std::uint64_t len = std::uint64_t{lens_.back()} + 1;
      const std::uint64_t last = heads_.back() + (len - 1) * step_;
      const bool same_dir = ((last ^ packed) & kPackedWriteBit) == 0;
      if (same_dir && (packed & ~kPackedWriteBit) ==
                          (last & ~kPackedWriteBit) + step_) {
        const std::uint64_t take = std::min<std::uint64_t>(count, kMaxRun - len);
        lens_.back() = static_cast<std::uint8_t>(len + take - 1);
        packed += take * step_;
        count -= take;
      }
    }
    while (count > 0) {
      const std::uint64_t take = std::min<std::uint64_t>(count, kMaxRun);
      heads_.push_back(packed);
      lens_.push_back(static_cast<std::uint8_t>(take - 1));
      packed += take * step_;
      count -= take;
    }
  }

  /// Number of requests (not runs).
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::size_t run_count() const { return heads_.size(); }

  /// Heap bytes held (capacity, not just the runs in use).
  [[nodiscard]] std::uint64_t bytes() const {
    return heads_.capacity() * sizeof(std::uint64_t) +
           lens_.capacity() * sizeof(std::uint8_t);
  }

  /// Release growth slack once the stream is complete.
  void shrink_to_fit() {
    heads_.shrink_to_fit();
    lens_.shrink_to_fit();
  }

  /// Forward iteration over the packed words, in stream order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::uint64_t;

    const_iterator() = default;

    std::uint64_t operator*() const { return *head_ + k_ * step_; }
    const_iterator& operator++() {
      if (k_ == *len_) {
        ++head_;
        ++len_;
        k_ = 0;
      } else {
        ++k_;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.head_ == b.head_ && a.k_ == b.k_;
    }

   private:
    friend class PackedRuns;
    const_iterator(const std::uint64_t* head, const std::uint8_t* len,
                   std::uint64_t step)
        : head_(head), len_(len), step_(step) {}

    const std::uint64_t* head_ = nullptr;
    const std::uint8_t* len_ = nullptr;
    std::uint64_t step_ = 0;
    std::uint64_t k_ = 0;  // position inside the current run
  };

  [[nodiscard]] const_iterator begin() const {
    return {heads_.data(), lens_.data(), step_};
  }
  [[nodiscard]] const_iterator end() const {
    return {heads_.data() + heads_.size(), lens_.data() + lens_.size(), step_};
  }

  /// Decode the words from `from` on into `out`, run by run, up to
  /// out.size() of them; `from` moves past them. Returns how many were
  /// written: fewer than out.size() only at the end of the stream.
  std::size_t decode(const_iterator& from, std::span<std::uint64_t> out) const {
    const std::uint64_t* const end = heads_.data() + heads_.size();
    std::size_t n = 0;
    while (n < out.size() && from.head_ != end) {
      const std::uint64_t left = std::uint64_t{*from.len_} + 1 - from.k_;
      const std::uint64_t take = std::min<std::uint64_t>(left, out.size() - n);
      const std::uint64_t first = *from.head_ + from.k_ * step_;
      for (std::uint64_t i = 0; i < take; ++i) out[n + i] = first + i * step_;
      n += take;
      if (take == left) {
        ++from.head_;
        ++from.len_;
        from.k_ = 0;
      } else {
        from.k_ += take;
      }
    }
    return n;
  }

  /// Same words in the same order (the step is not compared).
  friend bool operator==(const PackedRuns& a, const PackedRuns& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::vector<std::uint64_t> heads_;  // first packed word of each run
  std::vector<std::uint8_t> lens_;    // run length - 1
  std::uint64_t size_ = 0;
  std::uint32_t step_ = 0;
};

}  // namespace mcm::load
