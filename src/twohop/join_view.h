// The structure-of-arrays label shape the vectorized join kernels run
// over, plus the 8-byte per-label summary checked before any kernel
// does.
//
// This header is deliberately tiny and dependency-free (it is included
// by twohop/cover.h, storage/compress.h and engine/backend.h alike):
// it defines the *currency* — JoinView and LabelSummary — while the
// kernels themselves live in twohop/join_kernel.h.
//
// A JoinView is a borrowed, read-only view: whoever produced it owns
// the arrays (a cover's label columns, a decoded block's packed
// columns) and the view must not outlive them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace hopi::twohop {

/// One label entry as a value: a center node plus the shortest distance
/// between the labeled node and the center (0 when distances are not
/// tracked). Labels are stored column-wise and read through JoinView;
/// this pair is what walking a view yields, the v4 encoder's input,
/// and the scratch shape of label maintenance.
struct LabelEntry {
  uint32_t center;
  uint32_t dist;

  friend bool operator==(const LabelEntry& a, const LabelEntry& b) {
    return a.center == b.center && a.dist == b.dist;
  }
};

/// An 8-byte summary of one label's center set, built for O(1)
/// "definitely disjoint" rejection on the probe hot path:
///
///   bits  0..47  Bloom filter over the centers (2 probes per center),
///   bits 48..55  smallest top byte (center >> 24) in the set,
///   bits 56..63  largest top byte in the set.
///
/// Semantics are strictly one-sided: MightContain/MightIntersect may
/// return true for a center/label that is not really there (a Bloom
/// false positive — the kernel then runs and answers exactly), but
/// never false for one that is. Two sentinels bound the lattice: an
/// Empty() summary (no centers) rejects everything, and an Unknown()
/// summary (the default of a view built without one) rejects nothing.
/// The min/max bytes only discriminate once center ids exceed 2^24;
/// below that they are 0 on both sides and the Bloom word carries the
/// filter alone.
struct LabelSummary {
  static constexpr uint64_t kBloomMask = (uint64_t{1} << 48) - 1;
  /// Bloom empty, min byte 0xFF > max byte 0: intersects nothing.
  static constexpr uint64_t kEmptyWord = uint64_t{0xFF} << 48;
  /// Bloom saturated, min byte 0, max byte 0xFF: rejects nothing.
  static constexpr uint64_t kUnknownWord =
      kBloomMask | (uint64_t{0xFF} << 56);

  uint64_t word = kUnknownWord;

  static LabelSummary Empty() { return LabelSummary{kEmptyWord}; }
  static LabelSummary Unknown() { return LabelSummary{kUnknownWord}; }

  /// The two Bloom bits of one center. Both shifted hashes fit 32
  /// bits, so the `% 48` runs in 32-bit arithmetic (a cheaper
  /// multiply-high than the 64-bit form, same bits).
  static uint64_t BloomBits(uint32_t center) {
    uint64_t h = center * uint64_t{0x9E3779B97F4A7C15};
    uint32_t a = static_cast<uint32_t>(h >> 32) % 48;
    uint32_t b = static_cast<uint32_t>(h >> 52) % 48;
    return (uint64_t{1} << a) | (uint64_t{1} << b);
  }

  uint32_t min_byte() const { return (word >> 48) & 0xFF; }
  uint32_t max_byte() const { return word >> 56; }

  /// Folds one center in (monotone: summaries only ever widen).
  void Add(uint32_t center) {
    uint64_t lo = std::min<uint64_t>(min_byte(), center >> 24);
    uint64_t hi = std::max<uint64_t>(max_byte(), center >> 24);
    word = (word & kBloomMask) | BloomBits(center) | (lo << 48) | (hi << 56);
  }

  /// Folds in `n` centers sorted ascending: the same word as Add on
  /// each in turn, but the run's min and max bytes come from its ends,
  /// leaving only the Bloom bits to OR together per center.
  void AddAscending(const uint32_t* centers, size_t n) {
    if (n == 0) return;
    uint64_t bloom = word & kBloomMask;
    for (size_t i = 0; i < n; ++i) bloom |= BloomBits(centers[i]);
    uint64_t lo = std::min<uint64_t>(min_byte(), centers[0] >> 24);
    uint64_t hi = std::max<uint64_t>(max_byte(), centers[n - 1] >> 24);
    word = bloom | (lo << 48) | (hi << 56);
  }

  /// False only when `center` is definitely not in the set.
  bool MightContain(uint32_t center) const {
    uint32_t b = center >> 24;
    uint64_t bits = BloomBits(center);
    return b >= min_byte() && b <= max_byte() && (word & bits) == bits;
  }

  /// False only when the two center sets are definitely disjoint.
  static bool MightIntersect(LabelSummary a, LabelSummary b) {
    if (((a.word & b.word) & kBloomMask) == 0) return false;
    return a.min_byte() <= b.max_byte() && b.min_byte() <= a.max_byte();
  }
};

/// One label as the kernels see it: `n` centers sorted ascending and
/// unique in one packed column, their distances in a parallel column,
/// and the label's summary. Every producer (a cover's labels, a
/// DecodedBlock's rows) lends packed structure-of-arrays columns, the
/// layout the SIMD kernels require.
///
/// `dists == nullptr` means every distance is 0 (backward rows) —
/// center(i)/dist_at(i), or walking the view as LabelEntry values, are
/// the only sanctioned accessors.
struct JoinView {
  const uint32_t* centers = nullptr;
  const uint32_t* dists = nullptr;
  size_t n = 0;
  LabelSummary summary = LabelSummary::Unknown();

  uint32_t center(size_t i) const { return centers[i]; }
  uint32_t dist_at(size_t i) const {
    return dists == nullptr ? 0 : dists[i];
  }

  /// A label with no centers, whose summary rejects every probe.
  static JoinView Empty() {
    JoinView v;
    v.summary = LabelSummary::Empty();
    return v;
  }

  /// Walks the view as LabelEntry values (input iterator: each step
  /// reads one center and one distance).
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = LabelEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = LabelEntry;

    Iterator() = default;
    Iterator(const JoinView& view, size_t i)
        : centers_(view.centers), dists_(view.dists), i_(i) {}

    LabelEntry operator*() const {
      return {centers_[i_], dists_ == nullptr ? 0 : dists_[i_]};
    }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const uint32_t* centers_ = nullptr;
    const uint32_t* dists_ = nullptr;
    size_t i_ = 0;
  };

  Iterator begin() const { return Iterator(*this, 0); }
  Iterator end() const { return Iterator(*this, n); }
};

}  // namespace hopi::twohop
