// Tests for TransectIndex (multi-sensor SegDiff) plus extent-allocation
// and simulated-latency behaviour of the storage layer.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

#include "common/stopwatch.h"
#include "segdiff/transect_index.h"
#include "storage/extent.h"
#include "storage/pager.h"
#include "ts/generator.h"

namespace segdiff {
namespace {

class TransectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueTestPath("segdiff_transect", "");
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // catalog + shard dirs + stores
  }
  std::string dir_;
};

TEST_F(TransectTest, BuildsAndSearchesAllSensors) {
  CadGeneratorOptions gen;
  gen.num_days = 3;
  gen.cad_events_per_day = 1.0;
  auto transect_data = GenerateCadTransect(gen, 3);
  ASSERT_TRUE(transect_data.ok());

  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto transect = TransectIndex::Open(dir_, 3, TransectOptions{options});
  ASSERT_TRUE(transect.ok()) << transect.status().ToString();
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE((*transect)
                    ->IngestSensorSeries(
                        s, (*transect_data)[static_cast<size_t>(s)].series)
                    .ok());
  }

  TransectSearchStats stats;
  auto hits = (*transect)->SearchDrops(3600.0, -3.0, {}, &stats);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(stats.pairs_returned, hits->size());
  // Hits ordered by sensor, and every sensor with events contributes.
  bool sensors_seen[3] = {false, false, false};
  int last_sensor = -1;
  for (const TransectHit& hit : *hits) {
    EXPECT_GE(hit.sensor, last_sensor);
    last_sensor = hit.sensor;
    ASSERT_LT(hit.sensor, 3);
    sensors_seen[hit.sensor] = true;
  }
  EXPECT_TRUE(sensors_seen[0]);
  EXPECT_TRUE(sensors_seen[1]);
  EXPECT_TRUE(sensors_seen[2]);

  // Per-sensor results match drilling down directly.
  auto sensor0 = (*transect)->sensor(0);
  ASSERT_TRUE(sensor0.ok());
  auto direct = (*sensor0)->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(direct.ok());
  size_t from_transect = 0;
  for (const TransectHit& hit : *hits) {
    if (hit.sensor == 0) ++from_transect;
  }
  EXPECT_EQ(from_transect, direct->size());

  auto sizes = (*transect)->GetSizes();
  ASSERT_TRUE(sizes.ok());
  EXPECT_GT(sizes->feature_rows, 0u);
  EXPECT_GT(sizes->feature_bytes, 0u);
  ASSERT_TRUE((*transect)->Checkpoint().ok());
  ASSERT_TRUE((*transect)->DropCaches().ok());
  auto again = (*transect)->SearchDrops(3600.0, -3.0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), hits->size());
}

TEST_F(TransectTest, JumpSearchFansOut) {
  CadGeneratorOptions gen;
  gen.num_days = 2;
  auto transect_data = GenerateCadTransect(gen, 2);
  ASSERT_TRUE(transect_data.ok());
  SegDiffOptions options;
  options.window_s = 4 * 3600.0;
  auto transect = TransectIndex::Open(dir_, 2, TransectOptions{options});
  ASSERT_TRUE(transect.ok());
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE((*transect)
                    ->IngestSensorSeries(
                        s, (*transect_data)[static_cast<size_t>(s)].series)
                    .ok());
  }
  auto jumps = (*transect)->SearchJumps(2 * 3600.0, 2.0);
  ASSERT_TRUE(jumps.ok());
  EXPECT_FALSE(jumps->empty());  // diurnal warming produces jumps
}

TEST_F(TransectTest, Validation) {
  EXPECT_TRUE(
      TransectIndex::Open(dir_, 0, TransectOptions{}).status()
          .IsInvalidArgument());
  auto transect = TransectIndex::Open(dir_, 2, TransectOptions{});
  ASSERT_TRUE(transect.ok());
  Series empty;
  EXPECT_TRUE((*transect)->IngestSensorSeries(-1, empty).IsInvalidArgument());
  EXPECT_TRUE((*transect)->IngestSensorSeries(2, empty).IsInvalidArgument());
  EXPECT_TRUE((*transect)->sensor(-1).status().IsInvalidArgument());
  EXPECT_TRUE((*transect)->sensor(2).status().IsInvalidArgument());
  EXPECT_TRUE((*transect)->sensor(1).ok());
}

class ExtentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("segdiff_extent");
    std::remove(path_.c_str());
    auto pager = Pager::Open(path_, true);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
  }
  void TearDown() override {
    pager_.reset();
    std::remove(path_.c_str());
  }
  std::string path_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(ExtentTest, PagesWithinExtentAreContiguous) {
  ExtentAllocator allocator(pager_.get());
  PageId prev = allocator.Allocate().value();
  int contiguous = 0;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    const PageId page = allocator.Allocate().value();
    contiguous += (page == prev + 1) ? 1 : 0;
    ++total;
    prev = page;
  }
  // With geometric extents up to 64 pages, jumps are rare.
  EXPECT_GT(contiguous, total - 8);
}

TEST_F(ExtentTest, TwoAllocatorsDoNotInterleaveWithinExtents) {
  ExtentAllocator a(pager_.get());
  ExtentAllocator b(pager_.get());
  // Alternate allocations; each allocator's pages must stay ordered and
  // never collide.
  std::vector<PageId> pages_a;
  std::vector<PageId> pages_b;
  for (int i = 0; i < 100; ++i) {
    pages_a.push_back(a.Allocate().value());
    pages_b.push_back(b.Allocate().value());
  }
  for (size_t i = 1; i < pages_a.size(); ++i) {
    EXPECT_GT(pages_a[i], pages_a[i - 1]);
    EXPECT_GT(pages_b[i], pages_b[i - 1]);
  }
  for (PageId page : pages_a) {
    for (PageId other : pages_b) {
      EXPECT_NE(page, other);
    }
  }
}

TEST_F(ExtentTest, SimulatedLatencyDistinguishesAccessPatterns) {
  // Allocate 64 pages, then time sequential vs strided cold reads.
  ExtentAllocator allocator(pager_.get(), /*max_extent_pages=*/64);
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) {
    pages.push_back(allocator.Allocate().value());
  }
  pager_->SetSimulatedReadLatency(/*seq_ns=*/1000, /*random_ns=*/200000);
  char buf[kPageSize];

  // Each pattern is timed three times and the fastest pass counts: the
  // passes are wall-clock, so a single preemption must not decide.
  double seq_seconds = 0.0;
  double random_seconds = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    Stopwatch seq_watch;
    for (PageId page : pages) {
      ASSERT_TRUE(pager_->ReadPage(page, buf).ok());
    }
    const double seq = seq_watch.ElapsedSeconds();

    Stopwatch random_watch;
    for (size_t i = 0; i < pages.size(); i += 2) {
      ASSERT_TRUE(pager_->ReadPage(pages[i], buf).ok());
    }
    for (size_t i = 1; i < pages.size(); i += 2) {
      ASSERT_TRUE(pager_->ReadPage(pages[i], buf).ok());
    }
    const double random = random_watch.ElapsedSeconds();
    seq_seconds = pass == 0 ? seq : std::min(seq_seconds, seq);
    random_seconds = pass == 0 ? random : std::min(random_seconds, random);
  }
  // 64 mostly-sequential reads ~ 64us + one seek; 64 strided reads pay
  // the 200us penalty every time.
  EXPECT_GT(random_seconds, 5 * seq_seconds);
}

}  // namespace
}  // namespace segdiff
