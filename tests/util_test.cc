// Unit tests for the small utility pieces: epoch arrays, RNG, stats,
// string utilities, status/result, and saturating arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/epoch_array.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/small_vec.h"
#include "util/string_util.h"
#include "util/types.h"
#include "util/zeroed_array.h"

namespace kpj {
namespace {

// ---------------------------------------------------------------- types

TEST(TypesTest, SatAddBasics) {
  EXPECT_EQ(SatAdd(2, 3), 5u);
  EXPECT_EQ(SatAdd(kInfLength, 3), kInfLength);
  EXPECT_EQ(SatAdd(3, kInfLength), kInfLength);
  EXPECT_EQ(SatAdd(kInfLength - 1, 5), kInfLength);  // Overflow saturates.
}

TEST(TypesTest, ClampedSub) {
  EXPECT_EQ(ClampedSub(7, 3), 4u);
  EXPECT_EQ(ClampedSub(3, 7), 0u);
  EXPECT_EQ(ClampedSub(3, 3), 0u);
}

// ----------------------------------------------------------- EpochArray

TEST(EpochArrayTest, DefaultsUntilSet) {
  EpochArray<int> arr(5, -1);
  EXPECT_EQ(arr.Get(2), -1);
  EXPECT_FALSE(arr.Stamped(2));
  arr.Set(2, 42);
  EXPECT_TRUE(arr.Stamped(2));
  EXPECT_EQ(arr.Get(2), 42);
}

TEST(EpochArrayTest, NewEpochInvalidatesAll) {
  EpochArray<int> arr(3, 0);
  arr.Set(0, 1);
  arr.Set(1, 2);
  arr.NewEpoch();
  EXPECT_EQ(arr.Get(0), 0);
  EXPECT_EQ(arr.Get(1), 0);
  arr.Set(1, 9);
  EXPECT_EQ(arr.Get(1), 9);
  EXPECT_EQ(arr.Get(0), 0);
}

TEST(EpochArrayTest, ManyEpochsStaySound) {
  EpochArray<int> arr(2, 0);
  for (int i = 0; i < 100000; ++i) {
    arr.Set(0, i);
    EXPECT_EQ(arr.Get(0), i);
    arr.NewEpoch();
    EXPECT_EQ(arr.Get(0), 0);
  }
}

TEST(EpochSetTest, InsertContainsClear) {
  EpochSet set(4);
  EXPECT_FALSE(set.Contains(1));
  set.Insert(1);
  EXPECT_TRUE(set.Contains(1));
  set.Erase(1);
  EXPECT_FALSE(set.Contains(1));
  set.Insert(2);
  set.ClearAll();
  EXPECT_FALSE(set.Contains(2));
}

TEST(EpochArrayTest, ResetDiscardsContentsAndChangesDefault) {
  EpochArray<int> arr(3, 7);
  arr.Set(1, 5);
  arr.Reset(6, -2);
  EXPECT_EQ(arr.size(), 6u);
  for (size_t i = 0; i < arr.size(); ++i) {
    EXPECT_FALSE(arr.Stamped(i));
    EXPECT_EQ(arr.Get(i), -2);
  }
}

// ---------------------------------------------------------- ZeroedArray

TEST(ZeroedArrayTest, StartsZeroedClearsAndMoves) {
  ZeroedArray<uint64_t> arr(1 << 20);  // Large enough to be mmap-backed.
  ASSERT_EQ(arr.size(), size_t{1} << 20);
  EXPECT_EQ(arr[0], 0u);
  EXPECT_EQ(arr[arr.size() - 1], 0u);
  arr[3] = 11;
  arr[arr.size() - 1] = 12;
  ZeroedArray<uint64_t> moved = std::move(arr);
  EXPECT_EQ(arr.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved[3], 11u);
  EXPECT_EQ(moved[moved.size() - 1], 12u);
  moved.Clear();
  EXPECT_EQ(moved[3], 0u);
  EXPECT_EQ(moved[moved.size() - 1], 0u);
  EXPECT_EQ(ZeroedArray<uint32_t>(0).size(), 0u);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  // Different seed should diverge quickly.
  Rng a2(7);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) diverged |= (a2.Next() != c.Next());
  EXPECT_TRUE(diverged);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SampleDistinctProducesDistinctInRange) {
  Rng rng(2);
  for (uint64_t universe : {10ull, 100ull, 1000ull}) {
    for (uint64_t count :
         std::initializer_list<uint64_t>{0, 1, universe / 2, universe}) {
      auto sample = rng.SampleDistinct(count, universe);
      EXPECT_EQ(sample.size(), count);
      std::set<uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), count);
      for (uint64_t v : sample) EXPECT_LT(v, universe);
    }
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(3);
  int buckets[10] = {0};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 10 - kDraws / 50);
    EXPECT_LT(b, kDraws / 10 + kDraws / 50);
  }
}

// ---------------------------------------------------------------- Sample

TEST(SampleTest, EmptySampleIsZero) {
  Sample s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
  EXPECT_EQ(s.StdDev(), 0.0);
}

TEST(SampleTest, SummaryStatistics) {
  Sample s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 4.0);
  EXPECT_NEAR(s.StdDev(), 1.2909944, 1e-6);
}

TEST(SampleTest, PercentilePosition) {
  std::vector<double> population = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(PercentilePosition(population, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(PercentilePosition(population, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentilePosition(population, 100.0), 1.0);
}

// ------------------------------------------------------------ StringUtil

TEST(StringUtilTest, SplitWhitespace) {
  auto fields = SplitWhitespace("  a\tbb  ccc \n");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "bb");
  EXPECT_EQ(fields[2], "ccc");
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, SplitChar) {
  auto fields = SplitChar("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ParseInt) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("1e3").has_value());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").value(), 1000.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(106337), "106,337");
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "Ok");
  Status err = Status::IoError("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kIoError);
  EXPECT_EQ(err.ToString(), "IoError: nope");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad(Status::NotFound("missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ------------------------------------------------------ latency histogram

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 0.0);
}

TEST(LatencyHistogramTest, SingleSamplePercentileIsExact) {
  LatencyHistogram h;
  h.Record(3.5);
  EXPECT_EQ(h.count(), 1u);
  // Percentiles clamp into [min, max], so one sample comes back exactly.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 3.5);
  EXPECT_DOUBLE_EQ(h.min_ms(), 3.5);
  EXPECT_DOUBLE_EQ(h.max_ms(), 3.5);
}

TEST(LatencyHistogramTest, MalformedInputsAreClampedNotCorrupting) {
  LatencyHistogram h;
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(-5.0);
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_TRUE(std::isfinite(h.sum_ms()));
  EXPECT_TRUE(std::isfinite(h.Percentile(50.0)));
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0);  // NaN and negatives recorded as 0.
}

TEST(LatencyHistogramTest, PercentileApproximatesWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  // Geometric buckets are ~19% wide (2^(1/4) ratio), so a percentile can
  // land anywhere within one bucket of the true value: check a
  // multiplicative band with slack to spare.
  EXPECT_GE(h.Percentile(50.0), 50.0 / 1.5);
  EXPECT_LE(h.Percentile(50.0), 50.0 * 1.5);
  EXPECT_GE(h.Percentile(90.0), 90.0 / 1.5);
  EXPECT_LE(h.Percentile(90.0), 90.0 * 1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 100.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 5050.0);
}

TEST(LatencyHistogramTest, EqualSamplesReportThemselvesAtEveryPercentile) {
  // Regression: the old floor-based rank picked a bucket midpoint that the
  // [min, max] clamp had to rescue; the interpolated rank must already
  // land on the sample when every observation is identical.
  LatencyHistogram h;
  h.Record(7.0);
  h.Record(7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(90.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 7.0);
}

TEST(LatencyHistogramTest, HighPercentileOfTwoSamplesIsTheHighOne) {
  // Regression: floor(0.99 * 2) = 1 used to return the *low* sample for
  // p99; ceiling nearest-rank must select the second observation.
  LatencyHistogram h;
  h.Record(1.0);
  h.Record(1000.0);
  EXPECT_GE(h.Percentile(99.0), 1000.0 / 1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1000.0);
  // p50 covers exactly the first observation.
  EXPECT_LE(h.Percentile(50.0), 1.5);
}

TEST(LatencyHistogramTest, HighTailPercentilesDoNotCollapseIntoOneBucket) {
  // Regression for the √2/64-bucket geometry: a sustained-load run whose
  // latencies cluster in one decade reported p90 == p99 == p999 because
  // all three ranks landed in the same ~41%-wide bucket. With 2^(1/4)
  // spacing the tail ranks of this distribution resolve to distinct
  // buckets and stay within one bucket ratio of the exact values.
  LatencyHistogram h;
  Sample exact;
  for (int i = 0; i < 900; ++i) {
    double ms = 3.0 + 0.002 * i;  // Bulk: 3.0 .. 4.8 ms.
    h.Record(ms);
    exact.Add(ms);
  }
  for (int i = 0; i < 95; ++i) {
    double ms = 5.0 + 0.05 * i;  // Shoulder: 5.0 .. 9.7 ms.
    h.Record(ms);
    exact.Add(ms);
  }
  for (int i = 0; i < 5; ++i) {
    double ms = 20.0 + 5.0 * i;  // Tail: 20 .. 40 ms.
    h.Record(ms);
    exact.Add(ms);
  }
  const double kRatio = 1.1892071150027210667;  // 2^(1/4) bucket width.
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    double approx = h.Percentile(p);
    double truth = exact.Percentile(p);
    EXPECT_GE(approx, truth / kRatio) << "p=" << p;
    EXPECT_LE(approx, truth * kRatio) << "p=" << p;
  }
  EXPECT_LT(h.Percentile(90.0), h.Percentile(99.0));
  EXPECT_LT(h.Percentile(99.0), h.Percentile(99.9));
}

TEST(LatencyHistogramTest, MergeAccumulatesCountsSumAndExtrema) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 50; ++i) a.Record(2.0);
  for (int i = 0; i < 50; ++i) b.Record(64.0);
  b.Record(0.5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 101u);
  EXPECT_NEAR(a.sum_ms(), 50 * 2.0 + 50 * 64.0 + 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(a.min_ms(), 0.5);
  EXPECT_DOUBLE_EQ(a.max_ms(), 64.0);
  // The merged distribution is bimodal: p25 sits in the low mode, p90 in
  // the high one.
  EXPECT_LE(a.Percentile(25.0), 2.0 * 1.2);
  EXPECT_GE(a.Percentile(90.0), 64.0 / 1.2);
  // Merging an empty histogram changes nothing.
  LatencyHistogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 101u);
  EXPECT_DOUBLE_EQ(a.min_ms(), 0.5);
}

TEST(LatencyHistogramTest, PercentileIsMonotoneInP) {
  LatencyHistogram h;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    h.Record(static_cast<double>(rng.NextInRange(1, 10'000)) / 10.0);
  }
  double prev = 0.0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

// ------------------------------------------------------------- small_vec

TEST(SmallVecTest, InlineUntilCapacityThenHeap) {
  SmallVec<uint32_t, 4> v;
  EXPECT_TRUE(v.empty());
  for (uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // Spills to the heap.
  EXPECT_EQ(v.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, ComparesAgainstStdVectorBothWays) {
  SmallVec<uint32_t, 4> v;
  std::vector<uint32_t> same = {1, 2, 3};
  v.assign(same.begin(), same.end());
  std::vector<uint32_t> different = {1, 2, 4};
  EXPECT_TRUE(v == same);
  EXPECT_TRUE(same == v);
  EXPECT_FALSE(v == different);
  EXPECT_FALSE(different == v);
}

TEST(SmallVecTest, MoveStealsHeapStorageAndCopiesInline) {
  SmallVec<uint32_t, 2> inline_vec;
  inline_vec.push_back(9);
  SmallVec<uint32_t, 2> inline_moved = std::move(inline_vec);
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], 9u);

  SmallVec<uint32_t, 2> heap_vec;
  for (uint32_t i = 0; i < 40; ++i) heap_vec.push_back(i);
  const uint32_t* heap_data = heap_vec.data();
  SmallVec<uint32_t, 2> heap_moved = std::move(heap_vec);
  ASSERT_EQ(heap_moved.size(), 40u);
  EXPECT_EQ(heap_moved.data(), heap_data);  // Pointer stolen, not copied.
  EXPECT_TRUE(heap_vec.empty());
}

TEST(SmallVecTest, AssignEraseInsertKeepOrder) {
  SmallVec<uint32_t, 4> v;
  std::vector<uint32_t> src = {5, 6, 7, 8, 9};
  v.assign(src.begin(), src.end());
  v.erase(v.begin() + 1);  // {5, 7, 8, 9}
  uint32_t one = 1;
  v.insert(v.begin(), &one, &one + 1);  // {1, 5, 7, 8, 9}
  EXPECT_TRUE(v == (std::vector<uint32_t>{1, 5, 7, 8, 9}));
}

// ----------------------------------------------------------------- arena

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(128);
  auto a = arena.AllocateArray<uint64_t>(10);
  auto b = arena.AllocateArray<uint64_t>(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % alignof(uint64_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % alignof(uint64_t), 0u);
  for (size_t i = 0; i < 10; ++i) a[i] = i;
  for (size_t i = 0; i < 10; ++i) b[i] = 100 + i;
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);  // b didn't clobber a.
  EXPECT_GE(arena.bytes_allocated(), 160u);
}

TEST(ArenaTest, ResetRecyclesWithoutShrinking) {
  Arena arena(64);
  for (int round = 0; round < 3; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    auto span = arena.AllocateArray<uint32_t>(1000);
    for (size_t i = 0; i < span.size(); ++i) span[i] = round;
    EXPECT_EQ(span[999], static_cast<uint32_t>(round));
  }
  size_t reserved = arena.bytes_reserved();
  arena.Reset();
  arena.AllocateArray<uint32_t>(1000);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // Steady state: no growth.
}

TEST(ArenaTest, ZeroByteAllocationIsValid) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
}


TEST(LatencyHistogramTest, BucketAccessorsCoverTheWholeRange) {
  LatencyHistogram h;
  h.Record(0.5);
  h.Record(2.0);
  h.Record(1e30);  // Falls into the last (absorbing) bucket.
  uint64_t total = 0;
  for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    total += h.bucket_count(b);
    if (b + 1 < LatencyHistogram::kBuckets) {
      // Upper bounds are strictly increasing over the geometric range.
      EXPECT_LT(LatencyHistogram::BucketUpperBoundMs(b),
                LatencyHistogram::BucketUpperBoundMs(b + 1));
    }
  }
  EXPECT_EQ(total, h.count());
  EXPECT_GT(
      h.bucket_count(LatencyHistogram::kBuckets - 1), 0u);
  EXPECT_TRUE(std::isinf(
      LatencyHistogram::BucketUpperBoundMs(LatencyHistogram::kBuckets - 1)));
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  LatencyHistogram h;
  h.Record(1.0);
  h.Record(7.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 0.0);
  for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(h.bucket_count(b), 0u);
  }
}

}  // namespace
}  // namespace kpj
