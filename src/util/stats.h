// Small statistics helpers.
//
// The distance-aware cover build (paper Sec 5.2) estimates the edge count of
// an initial center graph by sampling at most 13,600 candidate edges and
// taking the upper bound of the 98% confidence interval for the edge
// fraction. The interval arithmetic lives here.
// The serving front-end (src/net/) additionally needs cheap, wait-free
// latency tracking that many threads can feed concurrently and a /stats
// reader can quantile at any time; LatencyHistogram below is that:
// log-bucketed (16 sub-buckets per octave, quantiles that step by at
// most 1/16 of the value), fixed memory, relaxed atomics throughout.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hopi {

/// A two-sided confidence interval for a proportion.
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 1.0;
};

/// Normal-approximation (Wald) confidence interval for a binomial proportion
/// observed as `successes` out of `samples`, at confidence `confidence`
/// (e.g. 0.98). Bounds are clamped to [0,1]. With 13,600 samples at 98%
/// confidence the interval length is at most 0.02, matching the paper's
/// sizing argument.
ConfidenceInterval BinomialConfidenceInterval(uint64_t successes,
                                              uint64_t samples,
                                              double confidence);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Needed for the z-value of the interval.
double NormalQuantile(double p);

/// Summary statistics for a series of measurements.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  size_t count = 0;
};

/// Computes summary statistics. Returns a zeroed Summary for empty input.
Summary Summarize(std::vector<double> values);

/// Concurrent log-bucketed histogram for latency-like values (recorded
/// in nanoseconds; any monotone unit works).
///
/// Buckets: values 0..15 get exact buckets; beyond that each power-of-
/// two octave is split into 16 sub-buckets, so a reported quantile is
/// at most 1/16 (~6%) above the true value, and two neighbouring
/// quantile values differ by at most that much — fine enough that a
/// run-to-run change of a few percent reads as one, at 976 counters
/// of fixed memory and one relaxed fetch_add per counter per Record.
/// Record() is safe from any number of threads;
/// TakeSnapshot() is safe concurrently with recording and returns a
/// self-contained copy (counts may be torn across buckets by at most
/// the records in flight — the usual monotonic-counters caveat).
class LatencyHistogram {
 public:
  /// Sub-buckets per octave; also the number of exact buckets.
  static constexpr size_t kSubBuckets = 16;
  /// The exact buckets, then octaves 4..63 of kSubBuckets each.
  static constexpr size_t kNumBuckets = kSubBuckets + 60 * kSubBuckets;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// A point-in-time copy, quantile-able without further
  /// synchronization.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};

    /// Upper bound of the bucket containing the p-quantile (p in
    /// [0,1]), or 0 when empty. Monotone in p.
    uint64_t ValueAtQuantile(double p) const;
    /// sum / count (0 when empty).
    double Mean() const;
  };
  Snapshot TakeSnapshot() const;

  /// Bucket index for `value` (exposed for tests: the binning must stay
  /// monotone and total).
  static size_t BucketIndex(uint64_t value);
  /// Largest value mapped to bucket `index` (the quantile estimate).
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

}  // namespace hopi
