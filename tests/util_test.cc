#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/checksum.h"
#include "util/thread_pool.h"
#include "util/cli.h"
#include "util/mmap_file.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace hopi {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("thing is missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsIOError());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: thing is missing");
}

TEST(StatusTest, AllConstructorsSetMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfBudget("x").IsOutOfBudget());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Unsupported("x").IsUnsupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&fails]() -> Status {
    HOPI_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(4);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.NextZipf(100, 1.1)];
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[0], counts[99]);
  EXPECT_GT(counts[0], 20000 / 100);  // rank 0 far above uniform share
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(StatsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.99), 2.326348, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.01), -2.326348, 1e-5);
}

TEST(StatsTest, ConfidenceIntervalShrinksWithSamples) {
  auto wide = BinomialConfidenceInterval(50, 100, 0.98);
  auto narrow = BinomialConfidenceInterval(5000, 10000, 0.98);
  EXPECT_LT(narrow.upper - narrow.lower, wide.upper - wide.lower);
}

TEST(StatsTest, PaperSampleSizeGivesShortInterval) {
  // Sec 5.2: 13,600 samples at 98% confidence -> interval length <= 0.02.
  auto ci = BinomialConfidenceInterval(6800, 13600, 0.98);
  EXPECT_LE(ci.upper - ci.lower, 0.02 + 1e-9);
}

TEST(StatsTest, IntervalCoversTruth) {
  // Sample from a known p and check the 98% CI contains it almost always.
  Rng rng(77);
  const double p = 0.37;
  int covered = 0;
  const int experiments = 200;
  for (int e = 0; e < experiments; ++e) {
    uint64_t hits = 0;
    const uint64_t n = 2000;
    for (uint64_t i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
    auto ci = BinomialConfidenceInterval(hits, n, 0.98);
    if (ci.lower <= p && p <= ci.upper) ++covered;
  }
  EXPECT_GE(covered, experiments * 90 / 100);
}

TEST(StatsTest, DegenerateProportionsStayBounded) {
  auto zero = BinomialConfidenceInterval(0, 1000, 0.98);
  EXPECT_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.0);  // safe overestimate
  auto one = BinomialConfidenceInterval(1000, 1000, 0.98);
  EXPECT_EQ(one.upper, 1.0);
  EXPECT_LT(one.lower, 1.0);
  auto empty = BinomialConfidenceInterval(0, 0, 0.98);
  EXPECT_EQ(empty.lower, 0.0);
  EXPECT_EQ(empty.upper, 1.0);
}

TEST(StatsTest, SummaryBasics) {
  Summary s = Summarize({3.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean, 2.5);
  EXPECT_EQ(s.median, 2.5);
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
}

TEST(CliTest, ParsesAllForms) {
  const char* argv[] = {"prog",         "--docs=100", "--name", "dblp",
                        "--verbose",    "--no-color", "pos1"};
  CommandLine cli;
  ASSERT_TRUE(CommandLine::Parse(7, const_cast<char**>(argv),
                                 {"docs", "name", "verbose", "color"}, &cli)
                  .ok());
  EXPECT_EQ(cli.GetInt("docs", 0), 100);
  EXPECT_EQ(cli.GetString("name", ""), "dblp");
  EXPECT_TRUE(cli.GetBool("verbose", false));
  EXPECT_FALSE(cli.GetBool("color", true));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(CliTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--tpyo=1"};
  CommandLine cli;
  Status s = CommandLine::Parse(2, const_cast<char**>(argv), {"docs"}, &cli);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CommandLine cli;
  ASSERT_TRUE(CommandLine::Parse(1, const_cast<char**>(argv), {}, &cli).ok());
  EXPECT_EQ(cli.GetInt("docs", 42), 42);
  EXPECT_EQ(cli.GetDouble("ratio", 1.5), 1.5);
  EXPECT_FALSE(cli.Has("docs"));
}

TEST(TablePrinterTest, AlignsAndFormats) {
  TablePrinter t({"name", "value"});
  t.AddRow({"short", TablePrinter::FmtCount(1289930)});
  t.AddRow({"a-much-longer-name", TablePrinter::Fmt(3.14159, 2)});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("1,289,930"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
}

TEST(TablePrinterTest, FmtCountSmallNumbers) {
  EXPECT_EQ(TablePrinter::FmtCount(0), "0");
  EXPECT_EQ(TablePrinter::FmtCount(999), "999");
  EXPECT_EQ(TablePrinter::FmtCount(1000), "1,000");
}

TEST(ChecksumTest, MatchesKnownCrc32Vectors) {
  // The standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t part = Crc32(data, 10);
  part = Crc32(data + 10, sizeof(data) - 1 - 10, part);
  EXPECT_EQ(part, whole);
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  char data[] = "payload under test";
  uint32_t before = Crc32(data, sizeof(data));
  data[7] ^= 0x01;
  EXPECT_NE(Crc32(data, sizeof(data)), before);
}

/// Byte-at-a-time CRC-32 over the same reflected polynomial, one bit
/// per step: the definition Crc32's sliced tables must reproduce.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(ChecksumTest, MatchesByteAtATimeReferenceAtEveryLengthAndOffset) {
  // Every length 0..256 at every start offset 0..7 covers each split
  // of the input into 8-byte words and a tail, at each alignment; the
  // chained seeds check the incremental form on the same splits.
  std::vector<unsigned char> buf(256 + 8);
  Rng rng(3);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  uint32_t chained = 0;
  uint32_t reference_chained = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 256; ++n) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, n), ReferenceCrc32(p, n, 0))
          << "offset " << offset << " length " << n;
      chained = Crc32(p, n, chained);
      reference_chained = ReferenceCrc32(p, n, reference_chained);
      ASSERT_EQ(chained, reference_chained)
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(MappedFileTest, MapsFileContents) {
  if (!MappedFile::Supported()) GTEST_SKIP() << "no mmap on this platform";
  std::string path = ::testing::TempDir() + "hopi_mmap_test.bin";
  const char payload[] = "mapped bytes";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(payload, sizeof(payload), 1, f), 1u);
  std::fclose(f);
  {
    auto mapped = MappedFile::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    ASSERT_EQ(mapped->size(), sizeof(payload));
    EXPECT_EQ(std::memcmp(mapped->data(), payload, sizeof(payload)), 0);
    // Move keeps the view valid and empties the source.
    MappedFile moved = std::move(*mapped);
    EXPECT_EQ(moved.size(), sizeof(payload));
    EXPECT_EQ(std::memcmp(moved.data(), payload, sizeof(payload)), 0);
  }
  std::remove(path.c_str());
}

TEST(MappedFileTest, MissingFileIsIOError) {
  auto mapped = MappedFile::Open("/nonexistent/dir/f.bin");
  EXPECT_FALSE(mapped.ok());
}

TEST(MappedFileTest, EmptyFileMapsToEmptyView) {
  if (!MappedFile::Supported()) GTEST_SKIP() << "no mmap on this platform";
  std::string path = ::testing::TempDir() + "hopi_mmap_empty.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->size(), 0u);
  std::remove(path.c_str());
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumWorkers(), 4u);
  std::vector<std::atomic<int>> hits(257);
  Status s = pool.ParallelFor(0, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkerIdsIndexPerThreadScratch) {
  ThreadPool pool(3);
  std::vector<std::atomic<uint64_t>> per_worker(pool.NumWorkers());
  Status s = pool.ParallelFor(0, 100, [&](size_t, size_t worker) {
    EXPECT_LT(worker, pool.NumWorkers());
    per_worker[worker].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  uint64_t total = 0;
  for (const auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPoolTest, PoolOfOneRunsSerially) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumWorkers(), 1u);
  int sum = 0;  // no synchronization: must run on the calling thread
  Status s = pool.ParallelFor(5, 10, [&](size_t i) {
    sum += static_cast<int>(i);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(sum, 5 + 6 + 7 + 8 + 9);
}

TEST(ThreadPoolTest, EmptyRangeIsOk) {
  ThreadPool pool(2);
  Status s = pool.ParallelFor(3, 3, [&](size_t) {
    ADD_FAILURE() << "must not run";
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
}

TEST(ThreadPoolTest, PropagatesFailingStatus) {
  ThreadPool pool(4);
  Status s = pool.ParallelFor(0, 1000, [&](size_t i) {
    if (i == 37) return Status::InvalidArgument("task 37 failed");
    return Status::OK();
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.ToString().find("task 37"), std::string::npos);
}

TEST(ThreadPoolTest, FirstFailureCancelsRemainingTasks) {
  // Serial pool: deterministic claim order, so the lowest failing index
  // wins and nothing past it runs.
  ThreadPool pool(1);
  std::atomic<size_t> ran{0};
  Status s = pool.ParallelFor(0, 100, [&](size_t i) {
    ran.fetch_add(1);
    if (i >= 10) return Status::Internal("boom at " + std::to_string(i));
    return Status::OK();
  });
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.ToString().find("boom at 10"), std::string::npos);
  EXPECT_EQ(ran.load(), 11u);
}

TEST(ThreadPoolTest, ConcurrentFailuresReportOneOfThem) {
  ThreadPool pool(4);
  Status s = pool.ParallelFor(0, 64, [&](size_t i) {
    return Status::Internal("fail " + std::to_string(i));
  });
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.ToString().find("fail "), std::string::npos);
}

TEST(ThreadPoolTest, RethrowsWorkerExceptionInsteadOfTerminating) {
  ThreadPool pool(4);
  EXPECT_THROW(
      {
        Status s = pool.ParallelFor(0, 100, [&](size_t i) {
          if (i == 50) throw std::runtime_error("worker exploded");
          return Status::OK();
        });
        (void)s;
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossLoopsAndAfterErrors) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    std::atomic<uint64_t> sum{0};
    Status s = pool.ParallelFor(0, 50, [&](size_t i) {
      sum.fetch_add(i);
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(sum.load(), 49u * 50u / 2u);
    Status fail = pool.ParallelFor(0, 8, [&](size_t i) {
      return i == 3 ? Status::NotFound("gone") : Status::OK();
    });
    EXPECT_TRUE(fail.IsNotFound());
  }
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyThreadsAllComplete) {
  // Regression for the old "one loop at a time" restriction: several
  // threads race ParallelFor on one shared pool (the overlay-BFS shape —
  // every serving probe may try to drive its frontiers through the same
  // pool). At most one caller owns the workers; the rest must degrade to
  // inline serial loops, and every loop must still run every index
  // exactly once with no cross-talk between the loops' error channels.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr size_t kIndices = 300;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kIndices);
  }
  std::vector<Status> statuses(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      statuses[t] = pool.ParallelFor(0, kIndices, [&, t](size_t i) {
        hits[t][i].fetch_add(1);
        // A failing caller must not cancel or poison anyone else's loop.
        if (t == 0 && i == kIndices - 1) {
          return Status::Internal("caller 0 fails its last index");
        }
        return Status::OK();
      });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_TRUE(statuses[0].IsInternal());
  for (int t = 1; t < kCallers; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "caller " << t << ": " << statuses[t];
    for (size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hits[t][i].load(), 1) << "caller " << t << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ReentrantLoopFallsBackToInlineExecution) {
  // A task that calls ParallelFor on its own pool must not deadlock or
  // interleave with the outer loop's index space — the nested call runs
  // inline on the task's thread.
  ThreadPool pool(3);
  std::atomic<uint64_t> inner_total{0};
  Status s = pool.ParallelFor(0, 16, [&](size_t) {
    uint64_t local = 0;
    Status inner = pool.ParallelFor(0, 10, [&](size_t j) {
      local += j;
      return Status::OK();
    });
    EXPECT_TRUE(inner.ok());
    EXPECT_EQ(local, 45u);  // inline: no other thread touched `local`
    inner_total.fetch_add(local);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(inner_total.load(), 16u * 45u);
}

// ---- Rng::Fork ----

TEST(RngForkTest, SameStreamIsReproducible) {
  Rng parent(0xF0F0F0F0ULL);
  Rng a = parent.Fork(5);
  Rng b = parent.Fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngForkTest, DistinctStreamsDiffer) {
  Rng parent(0xF0F0F0F0ULL);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngForkTest, ForkDoesNotAdvanceParent) {
  Rng forked(42);
  Rng untouched(42);
  Rng child = forked.Fork(7);
  (void)child.Next();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(forked.Next(), untouched.Next());
}

TEST(RngForkTest, ForkIsOrderIndependent) {
  Rng parent(99);
  Rng first = parent.Fork(3);
  Rng other = parent.Fork(8);
  Rng again = parent.Fork(3);
  (void)other;
  for (int i = 0; i < 50; ++i) EXPECT_EQ(first.Next(), again.Next());
}

TEST(RngForkTest, ChildStreamDecorrelatedFromParent) {
  Rng parent(1234);
  Rng child = parent.Fork(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---- LatencyHistogram ----

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAndTotal) {
  size_t prev = 0;
  const uint64_t values[] = {0,     1,     2,     3,           4,
                             5,     7,     8,     100,         1000,
                             65535, 65536, 1ull << 40, UINT64_MAX};
  for (uint64_t v : values) {
    size_t index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(index, prev) << "value " << v;
    EXPECT_LT(index, LatencyHistogram::kNumBuckets);
    // The bucket's upper bound must not undershoot its members.
    EXPECT_GE(LatencyHistogram::BucketUpperBound(index), v);
    prev = index;
  }
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values 0..15 get dedicated buckets: sub-microsecond noise should
  // not blur into each other.
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
}

TEST(LatencyHistogramTest, NeighbouringBoundsDifferByAtMostOneSixteenth) {
  // A reported quantile moves by one bucket at a time, so the step
  // between neighbouring upper bounds is the histogram's resolution:
  // at most 1/16 of the value above the exact range.
  for (size_t i = LatencyHistogram::kSubBuckets;
       i < LatencyHistogram::kNumBuckets; ++i) {
    uint64_t bound = LatencyHistogram::BucketUpperBound(i);
    uint64_t previous = LatencyHistogram::BucketUpperBound(i - 1);
    ASSERT_GT(bound, previous) << "bucket " << i;
    EXPECT_LE(bound - previous, bound / 16) << "bucket " << i;
    // Each bucket's bounds round-trip through BucketIndex.
    EXPECT_EQ(LatencyHistogram::BucketIndex(bound), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(previous + 1), i);
  }
  EXPECT_EQ(LatencyHistogram::BucketUpperBound(
                LatencyHistogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(LatencyHistogramTest, QuantilesOfUniformRampAreRoughlyRight) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  auto snapshot = h.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 10000u);
  // Log-bucketed: 16 sub-buckets per octave bound the relative error
  // by 1/16 of the value; allow a loose band around each true quantile.
  uint64_t p50 = snapshot.ValueAtQuantile(0.50);
  uint64_t p99 = snapshot.ValueAtQuantile(0.99);
  EXPECT_GE(p50, 4000u);
  EXPECT_LE(p50, 7000u);
  EXPECT_GE(p99, 9000u);
  EXPECT_LE(p99, 13000u);
  EXPECT_NEAR(snapshot.Mean(), 5000.5, 1.0);
  // Monotone in p.
  EXPECT_LE(snapshot.ValueAtQuantile(0.1), p50);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, snapshot.ValueAtQuantile(1.0));
}

TEST(LatencyHistogramTest, EmptySnapshotQuantilesAreZero) {
  LatencyHistogram h;
  auto snapshot = h.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(snapshot.Mean(), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i * (t + 1) % 100000);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto snapshot = h.TakeSnapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  uint64_t total = 0;
  for (uint64_t b : snapshot.buckets) total += b;
  EXPECT_EQ(total, kThreads * kPerThread);
}

}  // namespace
}  // namespace hopi
