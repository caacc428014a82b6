#include "twohop/join_kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/cpu.h"

// The SIMD kernels are compiled with per-function target attributes so
// one binary carries every variant and util::CpuInfo() picks at
// runtime; no -m flags leak into the build. Non-x86 or non-GNU builds
// simply never compile the variants and JoinKernelSupported reports
// them absent.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HOPI_JOIN_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace hopi::twohop {

namespace {

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

inline uint32_t C(const JoinView& v, size_t i) { return v.centers[i]; }
inline uint32_t D(const JoinView& v, size_t i) {
  return v.dists == nullptr ? 0 : v.dists[i];
}

inline void Consider(LabelJoinResult* r, uint32_t d) {
  if (!r->distance || d < *r->distance) r->distance = d;
}

/// First index in [from, v.n) whose center is >= key (plain binary
/// search; the gallop kernel has its own doubling variant).
size_t LowerBound(const JoinView& v, size_t from, uint32_t key) {
  size_t lo = from, hi = v.n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (C(v, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First index in [from, v.n) whose center is >= key, found by
/// doubling from `from` — O(log distance) instead of O(log n), which
/// is what makes a pass over the smaller side with a moving cursor
/// total O(small * log(large/small)).
size_t Gallop(const JoinView& v, size_t from, uint32_t key) {
  size_t lo = from, hi = from, step = 1;
  while (hi < v.n && C(v, hi) < key) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > v.n) hi = v.n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (C(v, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Merge kernels. Every kernel intersects lout x lin starting at
// (i, j): sets connected on a shared center; without want_distance it
// stops at the first match, with it it min-pluses every match
// (uint32 wraparound on the sum, exactly like the scalar reference).
// ---------------------------------------------------------------------------

void MergeScalarFrom(const JoinView& lout, const JoinView& lin, size_t i,
                     size_t j, bool want_distance, LabelJoinResult* r) {
  while (i < lout.n && j < lin.n) {
    uint32_t a = C(lout, i), b = C(lin, j);
    if (a < b) {
      ++i;
    } else if (a > b) {
      ++j;
    } else {
      r->connected = true;
      if (!want_distance) return;
      Consider(r, D(lout, i) + D(lin, j));
      ++i;
      ++j;
    }
  }
}

void MergeGallop(const JoinView& lout, const JoinView& lin,
                 bool want_distance, LabelJoinResult* r) {
  // Walk the smaller side, gallop in the larger.
  const JoinView& small = lout.n <= lin.n ? lout : lin;
  const JoinView& large = lout.n <= lin.n ? lin : lout;
  size_t pos = 0;
  for (size_t i = 0; i < small.n && pos < large.n; ++i) {
    uint32_t key = C(small, i);
    pos = Gallop(large, pos, key);
    if (pos == large.n) return;
    if (C(large, pos) == key) {
      r->connected = true;
      if (!want_distance) return;
      Consider(r, D(small, i) + D(large, pos));
      ++pos;
    }
  }
}

#ifdef HOPI_JOIN_KERNEL_X86

/// Scalar sub-merge of one wa x wb block window — how the SIMD kernels
/// turn "this window has a match" into exact pairs (and distances).
/// Windows overlap across iterations when only one side advances;
/// Consider() is a min, so re-seeing a pair is harmless.
inline void MergeWindow(const JoinView& lout, const JoinView& lin, size_t i,
                        size_t wa, size_t j, size_t wb, bool want_distance,
                        LabelJoinResult* r) {
  size_t ii = i, jj = j;
  while (ii < i + wa && jj < j + wb) {
    uint32_t a = lout.centers[ii], b = lin.centers[jj];
    if (a < b) {
      ++ii;
    } else if (a > b) {
      ++jj;
    } else {
      r->connected = true;
      if (!want_distance) return;
      Consider(r, (lout.dists ? lout.dists[ii] : 0) +
                      (lin.dists ? lin.dists[jj] : 0));
      ++ii;
      ++jj;
    }
  }
}

/// 4-wide block-compare intersection: each round compares one 4-block
/// of lout against all four rotations of one 4-block of lin — all 16
/// pairs — then advances whichever block's max is smaller. Remainders
/// fall through to the scalar merge.
__attribute__((target("sse2"))) void MergeSSE2(const JoinView& lout,
                                               const JoinView& lin,
                                               bool want_distance,
                                               LabelJoinResult* r) {
  const uint32_t* a = lout.centers;
  const uint32_t* b = lin.centers;
  size_t i = 0, j = 0;
  while (i + 4 <= lout.n && j + 4 <= lin.n) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    if (_mm_movemask_epi8(eq) != 0) {
      r->connected = true;
      if (!want_distance) return;
      MergeWindow(lout, lin, i, 4, j, 4, want_distance, r);
    }
    uint32_t amax = a[i + 3], bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  MergeScalarFrom(lout, lin, i, j, want_distance, r);
}

/// 8-wide variant. All 64 pairs of the two 8-blocks are covered by
/// comparing va against 8 rearrangements of vb: the identity, the
/// lane-swapped copy (the one cross-lane permute), and three in-lane
/// rotations of each — a shallow, mostly-parallel dependency tree
/// rather than a serial rotate-by-one chain (which is latency-bound on
/// the cross-lane permute and measures ~1.7x slower here).
__attribute__((target("avx2"))) void MergeAVX2(const JoinView& lout,
                                               const JoinView& lin,
                                               bool want_distance,
                                               LabelJoinResult* r) {
  const uint32_t* a = lout.centers;
  const uint32_t* b = lin.centers;
  size_t i = 0, j = 0;
  while (i + 8 <= lout.n && j + 8 <= lin.n) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i b1 = _mm256_permute2x128_si256(b0, b0, 1);  // lanes swapped
    __m256i eq = _mm256_or_si256(_mm256_cmpeq_epi32(va, b0),
                                 _mm256_cmpeq_epi32(va, b1));
    eq = _mm256_or_si256(
        eq, _mm256_or_si256(
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b0, 0x39)),
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b1, 0x39))));
    eq = _mm256_or_si256(
        eq, _mm256_or_si256(
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b0, 0x4E)),
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b1, 0x4E))));
    eq = _mm256_or_si256(
        eq, _mm256_or_si256(
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b0, 0x93)),
                _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(b1, 0x93))));
    if (_mm256_movemask_epi8(eq) != 0) {
      r->connected = true;
      if (!want_distance) return;
      MergeWindow(lout, lin, i, 8, j, 8, want_distance, r);
    }
    uint32_t amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  // GCC tail-calls the non-AVX remainder merge without vzeroupper, leaving
  // dirty upper ymm state that stalls every legacy-SSE instruction afterwards
  // (~6x on negative probes, which always reach this path). Clear it here.
  _mm256_zeroupper();
  MergeScalarFrom(lout, lin, i, j, want_distance, r);
}

#endif  // HOPI_JOIN_KERNEL_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// |larger| / |smaller| at which galloping beats the scalar linear merge.
constexpr size_t kGallopRatio = 16;
/// With a SIMD merge available the crossover moves way out: the block
/// merge scans ~8 elements/cycle, so galloping only wins once
/// |larger| / |smaller| exceeds roughly 8 * log2(|larger|). Measured on
/// the sweep workload, SIMD still beats gallop at 64x skew.
constexpr size_t kGallopRatioSimd = 128;
/// Below this many elements on the larger side, SIMD setup is not
/// worth it over the scalar merge.
constexpr size_t kSimdMinLarge = 8;

bool HaveSSE2() {
#ifdef HOPI_JOIN_KERNEL_X86
  return util::CpuInfo().sse2;
#else
  return false;
#endif
}

bool HaveAVX2() {
#ifdef HOPI_JOIN_KERNEL_X86
  return util::CpuInfo().avx2;
#else
  return false;
#endif
}

/// -1 = unset (consult the environment once), else a JoinKernel.
std::atomic<int> g_forced{-1};

}  // namespace

std::optional<JoinKernel> ParseJoinKernel(std::string_view name) {
  if (name == "auto") return JoinKernel::kAuto;
  if (name == "scalar") return JoinKernel::kScalar;
  if (name == "gallop") return JoinKernel::kGallop;
  if (name == "sse2") return JoinKernel::kSSE2;
  if (name == "avx2") return JoinKernel::kAVX2;
  return std::nullopt;
}

std::string_view JoinKernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kAuto:
      return "auto";
    case JoinKernel::kScalar:
      return "scalar";
    case JoinKernel::kGallop:
      return "gallop";
    case JoinKernel::kSSE2:
      return "sse2";
    case JoinKernel::kAVX2:
      return "avx2";
  }
  return "unknown";
}

JoinKernel ForcedJoinKernel() {
  int f = g_forced.load(std::memory_order_relaxed);
  if (f >= 0) return static_cast<JoinKernel>(f);
  JoinKernel k = JoinKernel::kAuto;
  if (const char* env = std::getenv("HOPI_JOIN_KERNEL")) {
    if (std::optional<JoinKernel> parsed = ParseJoinKernel(env)) {
      k = *parsed;
    } else {
      std::fprintf(stderr,
                   "HOPI_JOIN_KERNEL=%s not recognized "
                   "(auto|scalar|gallop|sse2|avx2); using auto\n",
                   env);
    }
  }
  // Benign race: concurrent first calls parse the same environment and
  // store the same value.
  g_forced.store(static_cast<int>(k), std::memory_order_relaxed);
  return k;
}

void SetForcedJoinKernel(JoinKernel kernel) {
  g_forced.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

bool JoinKernelSupported(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kAuto:
    case JoinKernel::kScalar:
    case JoinKernel::kGallop:
      return true;
    case JoinKernel::kSSE2:
      return HaveSSE2();
    case JoinKernel::kAVX2:
      return HaveAVX2();
  }
  return false;
}

std::vector<JoinKernel> SupportedJoinKernels() {
  std::vector<JoinKernel> kernels{JoinKernel::kScalar, JoinKernel::kGallop};
  if (JoinKernelSupported(JoinKernel::kSSE2)) {
    kernels.push_back(JoinKernel::kSSE2);
  }
  if (JoinKernelSupported(JoinKernel::kAVX2)) {
    kernels.push_back(JoinKernel::kAVX2);
  }
  return kernels;
}

JoinKernel ResolveJoinKernel(JoinKernel requested, size_t lout_n,
                             size_t lin_n) {
  JoinKernel k =
      requested != JoinKernel::kAuto ? requested : ForcedJoinKernel();
  size_t small = lout_n <= lin_n ? lout_n : lin_n;
  size_t large = lout_n <= lin_n ? lin_n : lout_n;
  if (k == JoinKernel::kAuto) {
    if (small == 0) return JoinKernel::kScalar;
    size_t ratio = large / small;
    if (large >= kSimdMinLarge && (HaveAVX2() || HaveSSE2())) {
      if (ratio >= kGallopRatioSimd) return JoinKernel::kGallop;
      return HaveAVX2() ? JoinKernel::kAVX2 : JoinKernel::kSSE2;
    }
    if (ratio >= kGallopRatio) return JoinKernel::kGallop;
    return JoinKernel::kScalar;
  }
  // Forced kernels degrade to the best runnable one: a missing ISA
  // steps AVX2 -> SSE2 -> scalar.
  if (k == JoinKernel::kAVX2 && !HaveAVX2()) k = JoinKernel::kSSE2;
  if (k == JoinKernel::kSSE2 && !HaveSSE2()) k = JoinKernel::kScalar;
  return k;
}

LabelJoinResult JoinViews(NodeId u, NodeId v, const JoinView& lout,
                          const JoinView& lin, bool want_distance,
                          JoinKernel kernel) {
  LabelJoinResult result;
  // Prefilter: when the 8-byte summaries prove the center sets
  // disjoint AND rule out both implicit self entries, the probe is a
  // definite negative — no search of any kind runs.
  if (!LabelSummary::MightIntersect(lout.summary, lin.summary) &&
      !lin.summary.MightContain(u) && !lout.summary.MightContain(v)) {
    return result;
  }
  // Implicit self entries (the rule join_kernel.h documents):
  // u ∈ Lout(u) connects through u ∈ Lin(v), v ∈ Lin(v) through
  // v ∈ Lout(u). Range screens skip the binary searches outright.
  if (lin.n != 0 && C(lin, 0) <= u && u <= C(lin, lin.n - 1)) {
    size_t p = LowerBound(lin, 0, u);
    if (p < lin.n && C(lin, p) == u) {
      result.connected = true;
      if (want_distance) Consider(&result, D(lin, p));
    }
  }
  if (lout.n != 0 && C(lout, 0) <= v && v <= C(lout, lout.n - 1)) {
    size_t p = LowerBound(lout, 0, v);
    if (p < lout.n && C(lout, p) == v) {
      result.connected = true;
      if (want_distance) Consider(&result, D(lout, p));
    }
  }
  if (result.connected && !want_distance) return result;
  // Disjoint center ranges cannot share a center: skip the merge.
  if (lout.n == 0 || lin.n == 0 ||
      C(lout, lout.n - 1) < C(lin, 0) || C(lin, lin.n - 1) < C(lout, 0)) {
    return result;
  }
  switch (ResolveJoinKernel(kernel, lout.n, lin.n)) {
    case JoinKernel::kGallop:
      MergeGallop(lout, lin, want_distance, &result);
      break;
#ifdef HOPI_JOIN_KERNEL_X86
    case JoinKernel::kSSE2:
      MergeSSE2(lout, lin, want_distance, &result);
      break;
    case JoinKernel::kAVX2:
      MergeAVX2(lout, lin, want_distance, &result);
      break;
#endif
    case JoinKernel::kAuto:  // ResolveJoinKernel never returns kAuto
    default:
      MergeScalarFrom(lout, lin, 0, 0, want_distance, &result);
      break;
  }
  return result;
}

std::vector<uint32_t> IntersectSorted(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b,
                                      JoinKernel kernel) {
  std::vector<uint32_t> out;
  if (a.empty() || b.empty()) return out;
  std::span<const uint32_t> small = a.size() <= b.size() ? a : b;
  std::span<const uint32_t> large = a.size() <= b.size() ? b : a;
  out.reserve(small.size());
  JoinKernel k = kernel != JoinKernel::kAuto ? kernel : ForcedJoinKernel();
  bool gallop = k == JoinKernel::kGallop ||
                (k == JoinKernel::kAuto &&
                 large.size() / small.size() >= kGallopRatio);
  if (gallop) {
    JoinView lv;
    lv.centers = large.data();
    lv.n = large.size();
    size_t pos = 0;
    for (uint32_t key : small) {
      pos = Gallop(lv, pos, key);
      if (pos == lv.n) break;
      if (large[pos] == key) {
        out.push_back(key);
        ++pos;
      }
    }
    return out;
  }
  size_t i = 0, j = 0;
  while (i < small.size() && j < large.size()) {
    if (small[i] < large[j]) {
      ++i;
    } else if (small[i] > large[j]) {
      ++j;
    } else {
      out.push_back(small[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace hopi::twohop
