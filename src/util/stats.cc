#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace hopi {

double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

ConfidenceInterval BinomialConfidenceInterval(uint64_t successes,
                                              uint64_t samples,
                                              double confidence) {
  ConfidenceInterval ci;
  if (samples == 0) return ci;  // no information: [0, 1]
  double phat = static_cast<double>(successes) / static_cast<double>(samples);
  double alpha = 1.0 - confidence;
  double z = NormalQuantile(1.0 - alpha / 2.0);
  double half =
      z * std::sqrt(phat * (1.0 - phat) / static_cast<double>(samples));
  // Wald intervals degenerate at phat in {0,1}; widen by the worst-case
  // half-width so the upper bound stays a safe overestimate (the build
  // algorithm only needs an upper bound that rarely undershoots).
  if (successes == 0 || successes == samples) {
    half = z * 0.5 / std::sqrt(static_cast<double>(samples));
  }
  ci.lower = std::max(0.0, phat - half);
  ci.upper = std::min(1.0, phat + half);
  return ci;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.median = values.size() % 2 == 1
                 ? values[values.size() / 2]
                 : 0.5 * (values[values.size() / 2 - 1] +
                          values[values.size() / 2]);
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(var / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

size_t LatencyHistogram::BucketIndex(uint64_t value) {
  // Values below kSubBuckets are exact; from octave 4 on, the four bits
  // below the leading one select one of 16 sub-buckets.
  if (value < kSubBuckets) return static_cast<size_t>(value);
  int octave = 63 - std::countl_zero(value);  // floor(log2), >= 4
  size_t sub = static_cast<size_t>((value >> (octave - 4)) & (kSubBuckets - 1));
  return static_cast<size_t>(octave - 3) * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t index) {
  if (index < kSubBuckets) return index;
  int octave = static_cast<int>(index / kSubBuckets) + 3;
  uint64_t sub = index % kSubBuckets;
  // Lower bound of the *next* bucket, minus one (the top bucket wraps
  // to UINT64_MAX).
  return ((kSubBuckets + sub + 1) << (octave - 4)) - 1;
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

uint64_t LatencyHistogram::Snapshot::ValueAtQuantile(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the quantile sample, 1-based; ceil so p=0.999 with 1000
  // samples lands on sample 999, not 1000.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  size_t last_nonempty = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    last_nonempty = i;
    seen += buckets[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  // `count` can run ahead of the bucket sums under concurrent Record
  // (relaxed counters); answer with the largest observed bucket.
  return BucketUpperBound(last_nonempty);
}

double LatencyHistogram::Snapshot::Mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

}  // namespace hopi
