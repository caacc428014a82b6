// Dynamic bitset tuned for transitive-closure rows.
//
// Closure rows are the memory-critical structure in HOPI's build pipeline:
// the new partitioner (paper Sec 4.3) grows a partition while its closure
// still fits the memory budget, so rows must support cheap union + popcount.
#pragma once

#include <cstddef>
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace hopi {

/// Fixed-universe bitset; grows on demand in whole 64-bit words.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t bits) : words_((bits + 63) / 64, 0) {}

  void Resize(size_t bits) { words_.resize((bits + 63) / 64, 0); }

  bool Test(size_t i) const {
    size_t w = i / 64;
    if (w >= words_.size()) return false;
    return (words_[w] >> (i % 64)) & 1u;
  }

  /// Sets bit i; returns true if it was previously clear.
  bool Set(size_t i) {
    size_t w = i / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    uint64_t mask = uint64_t{1} << (i % 64);
    bool was_clear = (words_[w] & mask) == 0;
    words_[w] |= mask;
    return was_clear;
  }

  /// Clears bit i; returns true if it was previously set.
  bool Clear(size_t i) {
    size_t w = i / 64;
    if (w >= words_.size()) return false;
    uint64_t mask = uint64_t{1} << (i % 64);
    bool was_set = (words_[w] & mask) != 0;
    words_[w] &= ~mask;
    return was_set;
  }

  /// this |= other. Returns the number of newly set bits.
  size_t UnionWith(const DynamicBitset& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    size_t added = 0;
    for (size_t w = 0; w < other.words_.size(); ++w) {
      uint64_t nw = words_[w] | other.words_[w];
      added += static_cast<size_t>(std::popcount(nw ^ words_[w]));
      words_[w] = nw;
    }
    return added;
  }

  /// this &= ~other. Returns the number of cleared bits.
  size_t SubtractWith(const DynamicBitset& other) {
    size_t removed = 0;
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) {
      uint64_t nw = words_[w] & ~other.words_[w];
      removed += static_cast<size_t>(std::popcount(words_[w] ^ nw));
      words_[w] = nw;
    }
    return removed;
  }

  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  /// True iff this and other share a set bit.
  bool Intersects(const DynamicBitset& other) const {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) {
      if (words_[w] & other.words_[w]) return true;
    }
    return false;
  }

  /// Calls fn(i) for every bit set in both this and `other`, ascending.
  template <typename Fn>
  void ForEachIntersection(const DynamicBitset& other, Fn&& fn) const {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t w = 0; w < n; ++w) {
      uint64_t bits = words_[w] & other.words_[w];
      while (bits) {
        int b = std::countr_zero(bits);
        fn(w * 64 + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Calls fn(i) for every set bit, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits) {
        int b = std::countr_zero(bits);
        fn(w * 64 + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Set bits as a sorted vector.
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    out.reserve(Count());
    ForEach([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
    return out;
  }

  /// Approximate heap bytes used.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace hopi
