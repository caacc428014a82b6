// Property suite for the vectorized join kernels (twohop/join_kernel.h):
// every kernel, with and without a label summary, must be bit-identical
// to the scalar reference JoinLabelRanges (kept here as the golden model)
// on randomized and adversarial label shapes — empties, singletons,
// all-shared sets, interleaved disjoint sets, UINT32_MAX boundary
// centers, wrapping distance sums, want_distance on and off. Plus the
// dispatch rules, the forced-kernel degradation ladder, the
// LabelSummary one-sidedness contract, the IntersectSorted helper, and
// the cover's packed labels under mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "test_util.h"
#include "twohop/cover.h"
#include "twohop/join_kernel.h"
#include "twohop/join_view.h"
#include "util/cpu.h"

namespace hopi::twohop {
namespace {

using hopi::testing::ToEntries;

using Entries = std::vector<LabelEntry>;

/// The golden 2-hop join: a plain two-pointer merge over sorted
/// array-of-structs ranges, written for obviousness rather than speed.
/// (u, v) with u != v is connected when Lout(u) and Lin(v) share a
/// center, u appears as a center in Lin(v), or v appears as a center
/// in Lout(u); the distance is the minimum witness sum.
template <typename Entry>
LabelJoinResult JoinLabelRanges(NodeId u, NodeId v, const Entry* lout,
                                size_t lout_n, const Entry* lin, size_t lin_n,
                                bool want_distance) {
  LabelJoinResult result;
  auto consider = [&result](uint32_t d) {
    if (!result.distance || d < *result.distance) result.distance = d;
  };
  auto find = [](const Entry* entries, size_t n, NodeId c) -> const Entry* {
    const Entry* it = std::lower_bound(
        entries, entries + n, c,
        [](const Entry& e, NodeId cc) { return e.center < cc; });
    return it != entries + n && it->center == c ? it : nullptr;
  };
  // Implicit self entries: u ∈ Lout(u) at distance 0 (center u requires
  // u ∈ Lin(v)), v ∈ Lin(v) at distance 0 (center v requires
  // v ∈ Lout(u)).
  if (const Entry* e = find(lin, lin_n, u)) {
    result.connected = true;
    if (want_distance) consider(e->dist);
  }
  if (const Entry* e = find(lout, lout_n, v)) {
    result.connected = true;
    if (want_distance) consider(e->dist);
  }
  if (result.connected && !want_distance) return result;
  size_t i = 0, j = 0;
  while (i < lout_n && j < lin_n) {
    if (lout[i].center < lin[j].center) {
      ++i;
    } else if (lout[i].center > lin[j].center) {
      ++j;
    } else {
      result.connected = true;
      if (!want_distance) return result;
      consider(lout[i].dist + lin[j].dist);
      ++i;
      ++j;
    }
  }
  return result;
}

LabelJoinResult ReferenceJoin(NodeId u, NodeId v, const Entries& lout,
                              const Entries& lin, bool want_distance) {
  return JoinLabelRanges(u, v, lout.data(), lout.size(), lin.data(),
                         lin.size(), want_distance);
}

LabelSummary SummaryOf(const Entries& entries) {
  LabelSummary s = LabelSummary::Empty();
  for (const LabelEntry& e : entries) s.Add(e.center);
  return s;
}

/// Packs entries into SoA columns; the arrays must outlive the view.
struct Packed {
  std::vector<uint32_t> centers, dists;
  LabelSummary summary;

  explicit Packed(const Entries& entries) : summary(SummaryOf(entries)) {
    for (const LabelEntry& e : entries) {
      centers.push_back(e.center);
      dists.push_back(e.dist);
    }
  }
  JoinView View() const {
    JoinView v;
    v.centers = centers.data();
    v.dists = dists.data();
    v.n = centers.size();
    v.summary = summary;
    return v;
  }
};

/// The same columns without a summary: the prefilter rejects nothing,
/// so every probe reaches the self-entry searches and the kernels.
JoinView Unsummarized(JoinView v) {
  v.summary = LabelSummary::Unknown();
  return v;
}

/// Asserts every supported kernel, with and without summaries, matches
/// the scalar reference for this probe.
void ExpectAllKernelsMatch(NodeId u, NodeId v, const Entries& lout,
                           const Entries& lin, bool want_distance) {
  LabelJoinResult golden = ReferenceJoin(u, v, lout, lin, want_distance);
  Packed pout(lout), pin(lin);
  for (JoinKernel k : SupportedJoinKernels()) {
    for (auto [o, i, layout] :
         {std::tuple{pout.View(), pin.View(), "summarized"},
          std::tuple{Unsummarized(pout.View()), Unsummarized(pin.View()),
                     "unsummarized"}}) {
      LabelJoinResult got = JoinViews(u, v, o, i, want_distance, k);
      EXPECT_EQ(golden.connected, got.connected)
          << JoinKernelName(k) << " " << layout << " u=" << u << " v=" << v
          << " want_distance=" << want_distance;
      if (want_distance) {
        EXPECT_EQ(golden.distance, got.distance)
            << JoinKernelName(k) << " " << layout << " u=" << u << " v=" << v;
      }
    }
  }
}

Entries MakeLabel(const std::vector<uint32_t>& centers, uint32_t dist = 0) {
  Entries out;
  for (uint32_t c : centers) out.push_back({c, dist});
  return out;
}

TEST(JoinKernelTest, EmptyAndSingletonShapes) {
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, {}, {}, wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), {}, wd);
    ExpectAllKernelsMatch(1, 2, {}, MakeLabel({5}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), MakeLabel({5}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), MakeLabel({6}), wd);
    // Self entries: u in Lin(v), v in Lout(u), both.
    ExpectAllKernelsMatch(1, 2, MakeLabel({9}), MakeLabel({1}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({2}), MakeLabel({9}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({2}), MakeLabel({1}), wd);
  }
}

TEST(JoinKernelTest, AllSharedAndInterleaved) {
  std::vector<uint32_t> shared, evens, odds;
  for (uint32_t i = 0; i < 64; ++i) {
    shared.push_back(i * 3 + 10);
    evens.push_back(i * 2 + 10);
    odds.push_back(i * 2 + 11);
  }
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, MakeLabel(shared, 1), MakeLabel(shared, 2),
                          wd);
    // Perfectly interleaved, zero overlap: the SIMD block compares must
    // not invent matches.
    ExpectAllKernelsMatch(1, 2, MakeLabel(evens), MakeLabel(odds), wd);
  }
}

TEST(JoinKernelTest, Uint32BoundaryCenters) {
  std::vector<uint32_t> hi;
  for (uint32_t i = 0; i < 16; ++i) hi.push_back(UINT32_MAX - 2 * i);
  std::sort(hi.begin(), hi.end());
  std::vector<uint32_t> hi_shifted = hi;
  for (uint32_t& c : hi_shifted) c -= 1;
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, MakeLabel(hi), MakeLabel(hi), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel(hi), MakeLabel(hi_shifted), wd);
    // UINT32_MAX as a probed node id (self-entry binary searches).
    ExpectAllKernelsMatch(UINT32_MAX, 2, MakeLabel(hi), MakeLabel(hi), wd);
    ExpectAllKernelsMatch(1, UINT32_MAX, MakeLabel(hi), MakeLabel(hi), wd);
  }
}

TEST(JoinKernelTest, DistanceSaturationWrapsLikeScalar) {
  // The scalar reference adds dists as uint32 and wraps; the kernels
  // must reproduce that bit-for-bit, not saturate.
  Entries lout = {{100, UINT32_MAX}, {200, UINT32_MAX - 1}};
  Entries lin = {{100, 2}, {200, 1}};
  ExpectAllKernelsMatch(1, 2, lout, lin, /*want_distance=*/true);
  ExpectAllKernelsMatch(1, 2, lout, lin, /*want_distance=*/false);
}

TEST(JoinKernelTest, RandomizedAgainstScalarReference) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 300; ++iter) {
    // Mixed sizes with heavy skew every few iterations, so the gallop
    // and SIMD paths both see real work.
    // Mostly small universes (frequent overlap), with a skewed big-set
    // round every fifth iteration so gallop and SIMD see real work.
    bool skewed = iter % 5 == 0;
    size_t n1 = rng() % 50;
    size_t n2 = skewed ? rng() % 400 : rng() % 50;
    uint32_t universe = skewed ? 1000 + rng() % 1000 : 1 + rng() % 120;
    auto make = [&](size_t n) {
      n = std::min<size_t>(n, universe / 2 + 1);  // must fit the universe
      std::set<uint32_t> centers;
      while (centers.size() < n) centers.insert(rng() % universe);
      Entries entries;
      for (uint32_t c : centers) {
        uint32_t d = rng() % 8 == 0 ? UINT32_MAX
                                    : static_cast<uint32_t>(rng() % 1000);
        entries.push_back({c, d});
      }
      return entries;
    };
    Entries lout = make(n1), lin = make(n2);
    NodeId u = rng() % universe, v = rng() % universe;
    ExpectAllKernelsMatch(u, v, lout, lin, iter % 2 == 0);
  }
}

TEST(JoinKernelTest, SummaryNeverFalseNegative) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    LabelSummary s = LabelSummary::Empty();
    std::vector<uint32_t> centers;
    size_t n = 1 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      uint32_t c = rng();
      centers.push_back(c);
      s.Add(c);
    }
    for (uint32_t c : centers) {
      EXPECT_TRUE(s.MightContain(c)) << c;
    }
    // Any summary containing a shared center must intersect.
    LabelSummary other = LabelSummary::Empty();
    other.Add(centers[rng() % centers.size()]);
    other.Add(rng());
    EXPECT_TRUE(LabelSummary::MightIntersect(s, other));
  }
  EXPECT_FALSE(LabelSummary::Empty().MightContain(0));
  EXPECT_FALSE(
      LabelSummary::MightIntersect(LabelSummary::Empty(), LabelSummary::Empty()));
  EXPECT_TRUE(LabelSummary::Unknown().MightContain(12345));
}

TEST(JoinKernelTest, PrefilterRejectsOnlyTrueNegatives) {
  // Disjoint high-entropy center sets: the summaries usually reject,
  // and when they do not the kernels still answer correctly. Either
  // way JoinViews must agree with the scalar reference.
  std::mt19937 rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    Entries lout, lin;
    std::set<uint32_t> used;
    for (int i = 0; i < 20; ++i) used.insert(rng());
    bool left = true;
    for (uint32_t c : used) {
      (left ? lout : lin).push_back({c, 0});
      left = !left;
    }
    ExpectAllKernelsMatch(rng(), rng(), lout, lin, false);
  }
}

TEST(JoinKernelTest, ParseAndNameRoundTrip) {
  for (JoinKernel k :
       {JoinKernel::kAuto, JoinKernel::kScalar, JoinKernel::kGallop,
        JoinKernel::kSSE2, JoinKernel::kAVX2}) {
    EXPECT_EQ(k, ParseJoinKernel(JoinKernelName(k)));
  }
  EXPECT_FALSE(ParseJoinKernel("avx512").has_value());
  EXPECT_FALSE(ParseJoinKernel("").has_value());
}

TEST(JoinKernelTest, DispatchHeuristics) {
  // The heuristic only decides genuine autos; a process-wide force
  // (e.g. HOPI_JOIN_KERNEL from the CI matrix) rightly preempts it.
  // Neutralize any force for the duration of these assertions.
  JoinKernel saved = ForcedJoinKernel();
  SetForcedJoinKernel(JoinKernel::kAuto);
  const bool simd = util::CpuInfo().sse2 || util::CpuInfo().avx2;
  if (simd) {
    // With a SIMD merge available the gallop crossover moves out to
    // 128x: 16x skew stays on the block merge, 128x gallops.
    EXPECT_NE(JoinKernel::kGallop,
              ResolveJoinKernel(JoinKernel::kAuto, 4, 64));
    EXPECT_EQ(JoinKernel::kGallop,
              ResolveJoinKernel(JoinKernel::kAuto, 4, 512));
  } else {
    // Without SIMD on the host (non-x86 builds), a 16x ratio gallops.
    EXPECT_EQ(JoinKernel::kGallop,
              ResolveJoinKernel(JoinKernel::kAuto, 64, 4));
  }
  // Empty side: scalar (nothing to vectorize).
  EXPECT_EQ(JoinKernel::kScalar, ResolveJoinKernel(JoinKernel::kAuto, 0, 64));
  // Balanced sets pick the widest available SIMD, and a forced AVX2
  // degrades down the same ladder on a host that lacks it.
  JoinKernel widest = util::CpuInfo().avx2   ? JoinKernel::kAVX2
                      : util::CpuInfo().sse2 ? JoinKernel::kSSE2
                                             : JoinKernel::kScalar;
  EXPECT_EQ(widest, ResolveJoinKernel(JoinKernel::kAuto, 32, 32));
  EXPECT_EQ(widest, ResolveJoinKernel(JoinKernel::kAVX2, 32, 32));
  // Forced gallop is honored regardless of shape.
  EXPECT_EQ(JoinKernel::kGallop,
            ResolveJoinKernel(JoinKernel::kGallop, 32, 32));
  SetForcedJoinKernel(saved);
}

TEST(JoinKernelTest, ForcedKernelIsProcessWide) {
  JoinKernel saved = ForcedJoinKernel();
  SetForcedJoinKernel(JoinKernel::kGallop);
  EXPECT_EQ(JoinKernel::kGallop, ForcedJoinKernel());
  EXPECT_EQ(JoinKernel::kGallop, ResolveJoinKernel(JoinKernel::kAuto, 32, 32));
  SetForcedJoinKernel(JoinKernel::kAuto);
  EXPECT_EQ(JoinKernel::kAuto, ForcedJoinKernel());
  SetForcedJoinKernel(saved);
}

TEST(JoinKernelTest, SupportedKernelsStartWithScalar) {
  std::vector<JoinKernel> kernels = SupportedJoinKernels();
  ASSERT_GE(kernels.size(), 2u);
  EXPECT_EQ(JoinKernel::kScalar, kernels[0]);
  EXPECT_EQ(JoinKernel::kGallop, kernels[1]);
  for (JoinKernel k : kernels) EXPECT_TRUE(JoinKernelSupported(k));
}

TEST(JoinKernelTest, IntersectSortedMatchesStdSetIntersection) {
  std::mt19937 rng(31337);
  for (int iter = 0; iter < 200; ++iter) {
    auto make = [&](size_t n, uint32_t universe) {
      std::set<uint32_t> s;
      while (s.size() < n) s.insert(rng() % universe);
      return std::vector<uint32_t>(s.begin(), s.end());
    };
    // Skewed sizes half the time to exercise the gallop path.
    size_t n1 = 1 + rng() % 30;
    size_t n2 = iter % 2 == 0 ? 1 + rng() % 30 : 1 + rng() % 600;
    std::vector<uint32_t> a = make(n1, 200), b = make(n2, 1000);
    std::vector<uint32_t> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    for (JoinKernel k : {JoinKernel::kAuto, JoinKernel::kScalar,
                         JoinKernel::kGallop}) {
      EXPECT_EQ(expected, IntersectSorted(a, b, k)) << JoinKernelName(k);
      EXPECT_EQ(expected, IntersectSorted(b, a, k)) << JoinKernelName(k);
    }
  }
  EXPECT_TRUE(IntersectSorted({}, {}).empty());
}

TEST(JoinKernelTest, CoverLabelsStayCoherentUnderMutation) {
  // The cover's packed labels feed the kernels directly; every mutator
  // must leave them equal to a plain reference model (sorted, min
  // distance, no self entries) with summaries that cover every center.
  using Model = std::vector<std::map<uint32_t, uint32_t>>;
  auto entries_of = [](const std::map<uint32_t, uint32_t>& label) {
    Entries out;
    for (auto [center, dist] : label) out.push_back({center, dist});
    return out;
  };
  auto add = [](std::map<uint32_t, uint32_t>* label, NodeId node,
                uint32_t center, uint32_t dist) {
    if (center == node) return;
    auto [it, inserted] = label->try_emplace(center, dist);
    if (!inserted) it->second = std::min(it->second, dist);
  };
  std::mt19937 rng(4242);
  TwoHopCover cover(64);
  Model in(64), out(64);
  for (int iter = 0; iter < 2000; ++iter) {
    NodeId node = rng() % 64;
    switch (rng() % 6) {
      case 0:
      case 1: {
        uint32_t center = rng() % 64, dist = rng() % 10;
        cover.AddIn(node, center, dist);
        add(&in[node], node, center, dist);
        break;
      }
      case 2:
      case 3: {
        uint32_t center = rng() % 64, dist = rng() % 10;
        cover.AddOut(node, center, dist);
        add(&out[node], node, center, dist);
        break;
      }
      case 4:
        cover.ClearNode(node);
        in[node].clear();
        out[node].clear();
        break;
      default: {
        Entries entries;
        uint32_t c = rng() % 8;
        for (int i = 0; i < 5; ++i, c += 1 + rng() % 8) {
          if (c != node) {
            entries.push_back({c, static_cast<uint32_t>(rng() % 10)});
          }
        }
        std::map<uint32_t, uint32_t> label;
        for (const LabelEntry& e : entries) label[e.center] = e.dist;
        if (rng() % 2) {
          cover.SetIn(node, entries);
          in[node] = std::move(label);
        } else {
          cover.SetOut(node, entries);
          out[node] = std::move(label);
        }
      }
    }
    NodeId probe = rng() % 64;
    for (auto [view, model] : {std::pair{cover.In(probe), &in[probe]},
                               std::pair{cover.Out(probe), &out[probe]}}) {
      ASSERT_EQ(ToEntries(view), entries_of(*model));
      for (LabelEntry e : view) {
        ASSERT_TRUE(view.summary.MightContain(e.center));
      }
    }
    uint64_t size = 0;
    for (NodeId v = 0; v < 64; ++v) size += in[v].size() + out[v].size();
    ASSERT_EQ(cover.Size(), size);
    // And the kernel answers must match the golden join on the model.
    NodeId u = rng() % 64, v = rng() % 64;
    LabelJoinResult golden = ReferenceJoin(
        u, v, entries_of(out[u]), entries_of(in[v]), /*want_distance=*/true);
    LabelJoinResult got = JoinViews(u, v, cover.Out(u), cover.In(v),
                                    /*want_distance=*/true);
    ASSERT_EQ(golden.connected, got.connected);
    ASSERT_EQ(golden.distance, got.distance);
  }
}

}  // namespace
}  // namespace hopi::twohop
