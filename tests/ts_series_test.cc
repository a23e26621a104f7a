// Tests for ts/series, ts/interpolate (Model G), and ts/io.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "ts/interpolate.h"
#include "ts/io.h"
#include "ts/series.h"

namespace segdiff {
namespace {

Series MakeSeries(std::vector<Sample> samples) {
  auto result = Series::FromSamples(std::move(samples));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(SeriesTest, FromSamplesValid) {
  Series series = MakeSeries({{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.front().v, 1);
  EXPECT_EQ(series.back().v, 0);
  EXPECT_DOUBLE_EQ(series.Duration(), 2.0);
}

TEST(SeriesTest, RejectsNonIncreasingTime) {
  auto result = Series::FromSamples({{0, 1}, {0, 2}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
  result = Series::FromSamples({{1, 1}, {0, 2}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SeriesTest, RejectsNonFinite) {
  auto result =
      Series::FromSamples({{0, std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
  result = Series::FromSamples(
      {{std::numeric_limits<double>::infinity(), 1.0}});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SeriesTest, AppendMaintainsOrder) {
  Series series;
  EXPECT_TRUE(series.Append({1, 5}).ok());
  EXPECT_TRUE(series.Append({2, 6}).ok());
  EXPECT_TRUE(series.Append({2, 7}).IsInvalidArgument());
  EXPECT_EQ(series.size(), 2u);
}

TEST(SeriesTest, SliceInclusive) {
  Series series = MakeSeries({{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}});
  Series slice = series.Slice(1.0, 3.0);
  ASSERT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0].t, 1.0);
  EXPECT_EQ(slice[2].t, 3.0);
  EXPECT_TRUE(series.Slice(10, 20).empty());
  EXPECT_TRUE(series.Slice(3, 1).empty());
}

TEST(SeriesTest, Stats) {
  Series series = MakeSeries({{0, 2}, {1, -1}, {3, 5}});
  SeriesStats stats = series.Stats();
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.min_v, -1);
  EXPECT_DOUBLE_EQ(stats.max_v, 5);
  EXPECT_DOUBLE_EQ(stats.mean_v, 2.0);
  EXPECT_DOUBLE_EQ(stats.min_dt, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_dt, 2.0);
}

TEST(SeriesTest, EmptyStats) {
  Series series;
  EXPECT_EQ(series.Stats().count, 0u);
  EXPECT_DOUBLE_EQ(series.Duration(), 0.0);
}

TEST(ModelGTest, InterpolatesBetweenSamples) {
  Series series = MakeSeries({{0, 0}, {10, 10}, {20, 0}});
  ModelGEvaluator eval(series);
  EXPECT_DOUBLE_EQ(eval.ValueAt(0).value(), 0.0);
  EXPECT_DOUBLE_EQ(eval.ValueAt(5).value(), 5.0);
  EXPECT_DOUBLE_EQ(eval.ValueAt(10).value(), 10.0);
  EXPECT_DOUBLE_EQ(eval.ValueAt(15).value(), 5.0);
  EXPECT_DOUBLE_EQ(eval.ValueAt(20).value(), 0.0);
}

TEST(ModelGTest, OutOfRange) {
  Series series = MakeSeries({{0, 0}, {10, 10}});
  ModelGEvaluator eval(series);
  EXPECT_TRUE(eval.ValueAt(-1).status().IsOutOfRange());
  EXPECT_TRUE(eval.ValueAt(11).status().IsOutOfRange());
}

TEST(ModelGTest, RandomAccessMatchesSequential) {
  std::vector<Sample> samples;
  for (int i = 0; i <= 100; ++i) {
    samples.push_back({static_cast<double>(i), std::sin(i * 0.3) * 10});
  }
  Series series = MakeSeries(samples);
  ModelGEvaluator seq(series);
  ModelGEvaluator rnd(series);
  // Sequential pass.
  std::vector<double> ts;
  std::vector<double> seq_values;
  for (double t = 0.0; t <= 100.0; t += 0.37) {
    ts.push_back(t);
    seq_values.push_back(seq.ValueAt(t).value());
  }
  // Reverse pass stresses the hint logic (non-sequential access).
  for (size_t i = ts.size(); i-- > 0;) {
    EXPECT_DOUBLE_EQ(rnd.ValueAt(ts[i]).value(), seq_values[i]) << ts[i];
  }
}

TEST(ModelGTest, LerpEndpoints) {
  Sample a{0, 3};
  Sample b{4, 11};
  EXPECT_DOUBLE_EQ(Lerp(a, b, 0), 3);
  EXPECT_DOUBLE_EQ(Lerp(a, b, 4), 11);
  EXPECT_DOUBLE_EQ(Lerp(a, b, 2), 7);
  EXPECT_DOUBLE_EQ(Lerp(a, a, 0), 3);  // degenerate guard
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(csv_path_.c_str());
    std::remove(bin_path_.c_str());
  }
  std::string csv_path_ = UniqueTestPath("segdiff_io", ".csv");
  std::string bin_path_ = UniqueTestPath("segdiff_io", ".bin");
};

TEST_F(IoTest, CsvRoundTrip) {
  Series series = MakeSeries({{0.5, -3.25}, {1.75, 2.0}, {3.0, 1e-9}});
  ASSERT_TRUE(WriteSeriesCsv(series, csv_path_).ok());
  auto loaded = ReadSeriesCsv(csv_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ((*loaded)[i].t, series[i].t);
    EXPECT_DOUBLE_EQ((*loaded)[i].v, series[i].v);
  }
}

TEST_F(IoTest, CsvRejectsMalformed) {
  FILE* f = std::fopen(csv_path_.c_str(), "w");
  std::fprintf(f, "# comment\n1.0,2.0\nnot,numbers,here\n");
  std::fclose(f);
  auto loaded = ReadSeriesCsv(csv_path_);
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(IoTest, CsvMissingFile) {
  auto loaded = ReadSeriesCsv(testing::TempDir() + "/does_not_exist.csv");
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST_F(IoTest, BinaryRoundTrip) {
  std::vector<Sample> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back({i * 0.1, std::cos(i * 0.01) * 100});
  }
  Series series = MakeSeries(samples);
  ASSERT_TRUE(WriteSeriesBinary(series, bin_path_).ok());
  auto loaded = ReadSeriesBinary(bin_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ((*loaded)[i].t, series[i].t);  // bit-exact
    EXPECT_EQ((*loaded)[i].v, series[i].v);
  }
}

TEST_F(IoTest, BinaryDetectsBadMagic) {
  FILE* f = std::fopen(bin_path_.c_str(), "wb");
  const char garbage[32] = {1, 2, 3};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  auto loaded = ReadSeriesBinary(bin_path_);
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(IoTest, BinaryDetectsTruncation) {
  Series series = MakeSeries({{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(WriteSeriesBinary(series, bin_path_).ok());
  ASSERT_EQ(::truncate(bin_path_.c_str(), 24), 0);
  auto loaded = ReadSeriesBinary(bin_path_);
  EXPECT_TRUE(loaded.status().IsCorruption());
}

// The header's sample count must match the body exactly. A count of
// 2^60 made the reader size its buffer as count * 16, which wraps to 0,
// and then read samples past it.
TEST_F(IoTest, BinaryCountMustMatchTheBody) {
  Series series = MakeSeries({{0, 1}, {1, 2}});
  ASSERT_TRUE(WriteSeriesBinary(series, bin_path_).ok());
  std::string bytes;
  {
    std::ifstream in(bin_path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(bytes.size(), 16 + 2 * 16u);
  auto rewrite_and_read = [&](const std::string& raw) {
    std::ofstream(bin_path_, std::ios::binary | std::ios::trunc) << raw;
    return ReadSeriesBinary(bin_path_).status();
  };
  std::string huge_count = bytes;
  const uint64_t count = uint64_t{1} << 60;
  std::memcpy(huge_count.data() + 8, &count, sizeof(count));
  EXPECT_TRUE(rewrite_and_read(huge_count).IsCorruption());
  EXPECT_TRUE(rewrite_and_read(bytes + '\0').IsCorruption());
  EXPECT_TRUE(rewrite_and_read(bytes).ok());
}

TEST_F(IoTest, EmptySeriesRoundTrips) {
  Series series;
  ASSERT_TRUE(WriteSeriesBinary(series, bin_path_).ok());
  auto loaded = ReadSeriesBinary(bin_path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  ASSERT_TRUE(WriteSeriesCsv(series, csv_path_).ok());
  auto csv = ReadSeriesCsv(csv_path_);
  ASSERT_TRUE(csv.ok());
  EXPECT_TRUE(csv->empty());
}

}  // namespace
}  // namespace segdiff
