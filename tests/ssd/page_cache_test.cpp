#include "ssd/page_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"

namespace hykv::ssd {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);  // keep modelled waits short but non-zero
  }
  void TearDown() override { sim::set_time_scale(1.0); }

  PageCacheConfig small_config() {
    PageCacheConfig cfg;
    cfg.dirty_high_watermark = 256 << 10;
    cfg.dirty_low_watermark = 128 << 10;
    cfg.memory_limit = 1 << 20;
    return cfg;
  }
};

TEST_F(PageCacheTest, WriteThenReadHitsCache) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(8192).value();
  const auto payload = make_value(1, 8192);
  ASSERT_EQ(cache.write(id, 0, payload), StatusCode::kOk);
  EXPECT_TRUE(cache.resident(id));
  std::vector<char> out(8192);
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_F(PageCacheTest, MissReadsDeviceAndPopulates) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(4096).value();
  const auto payload = make_value(2, 4096);
  ASSERT_EQ(dev.write_raw(id, 0, payload), StatusCode::kOk);  // bypass cache
  EXPECT_FALSE(cache.resident(id));
  std::vector<char> out(4096);
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(cache.resident(id));  // full-extent read populates
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(PageCacheTest, SyncDrainsDirtyBytes) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(64 << 10).value();
  ASSERT_EQ(cache.write(id, 0, make_value(3, 64 << 10)), StatusCode::kOk);
  cache.sync();
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  EXPECT_GE(cache.stats().writeback_bytes, std::uint64_t{64 << 10});
  EXPECT_GE(dev.stats().writes, 1u);  // write-back reached the device
}

TEST_F(PageCacheTest, ThrottleEngagesAboveHighWatermark) {
  SsdDevice dev(SsdProfile::sata());
  PageCacheConfig cfg = small_config();
  cfg.dirty_high_watermark = 32 << 10;
  cfg.dirty_low_watermark = 16 << 10;
  PageCache cache(dev, cfg);
  // Each write is larger than the high watermark, and write() counts its own
  // bytes and checks the watermark under one hold of the cache lock, so every
  // write sees at least 64 KiB dirty and must block until write-back brings
  // dirty bytes down to the low watermark -- however the flusher is
  // scheduled. That write-back covers the writer's own extent: the flusher
  // can pop it only once the waiting writer releases the lock, and dirty
  // bytes fall only after the device write returns, so each write waits at
  // least one full device write of 64 KiB.
  constexpr int kWrites = 8;
  constexpr std::size_t kBytes = 64 << 10;
  for (int i = 0; i < kWrites; ++i) {
    const auto id = dev.allocate(kBytes).value();
    ASSERT_EQ(cache.write(id, 0, make_value(static_cast<std::uint64_t>(i), kBytes)),
              StatusCode::kOk);
  }
  const auto floor_ns =
      kWrites * sim::scaled(SsdProfile::sata().write_time(kBytes)).count();
  EXPECT_GT(cache.stats().throttled_ns, 0u);
  EXPECT_GE(cache.stats().throttled_ns, static_cast<std::uint64_t>(floor_ns));
  // Hysteresis: a throttled writer resumes only at the low watermark.
  EXPECT_LE(cache.dirty_bytes(), cfg.dirty_low_watermark);
}

TEST_F(PageCacheTest, CachedWriteIsFasterThanDirect) {
  sim::set_time_scale(1.0);
  SsdDevice dev(SsdProfile::sata());
  PageCacheConfig cfg;
  cfg.dirty_high_watermark = 8 << 20;  // no throttling in this test
  cfg.dirty_low_watermark = 4 << 20;
  PageCache cache(dev, cfg);
  const auto payload = make_value(9, 256 << 10);

  const auto id1 = dev.allocate(256 << 10).value();
  const auto t0 = sim::now();
  ASSERT_EQ(cache.write(id1, 0, payload), StatusCode::kOk);
  const auto cached_cost = sim::now() - t0;

  const auto id2 = dev.allocate(256 << 10).value();
  const auto t1 = sim::now();
  ASSERT_EQ(dev.write(id2, 0, payload), StatusCode::kOk);
  const auto direct_cost = sim::now() - t1;

  // 256KB: direct ~ 90us + 558us; cached ~ 4us + 31us copy.
  EXPECT_LT(cached_cost * 3, direct_cost);
  cache.sync();
}

TEST_F(PageCacheTest, InvalidateDiscardsDirtyData) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(16 << 10).value();
  ASSERT_EQ(cache.write(id, 0, make_value(4, 16 << 10)), StatusCode::kOk);
  cache.invalidate(id);
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  EXPECT_FALSE(cache.resident(id));
  cache.sync();  // must not hang on discarded dirty data
}

TEST_F(PageCacheTest, CleanEntriesEvictedUnderMemoryPressure) {
  SsdDevice dev(SsdProfile::sata());
  PageCacheConfig cfg = small_config();
  cfg.memory_limit = 128 << 10;
  PageCache cache(dev, cfg);
  std::vector<ExtentId> ids;
  for (int i = 0; i < 8; ++i) {
    const auto id = dev.allocate(64 << 10).value();
    ids.push_back(id);
    ASSERT_EQ(cache.write(id, 0, make_value(static_cast<std::uint64_t>(i), 64 << 10)),
              StatusCode::kOk);
    cache.sync();  // make the entry clean so it is evictable
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // Earliest extent should have been evicted; data must still be readable
  // (from the device) and correct.
  std::vector<char> out(64 << 10);
  ASSERT_EQ(cache.read(ids.front(), 0, out), StatusCode::kOk);
  EXPECT_EQ(out, make_value(0, 64 << 10));
}

TEST_F(PageCacheTest, MmapWriteReadRoundTrip) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(8192).value();
  const auto payload = make_value(5, 8192);
  ASSERT_EQ(cache.mmap_write(id, 0, payload), StatusCode::kOk);
  std::vector<char> out(8192);
  ASSERT_EQ(cache.mmap_read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, payload);
}

TEST_F(PageCacheTest, MmapCheaperThanCachedForSmallWrites) {
  sim::set_time_scale(1.0);
  SsdDevice dev(SsdProfile::sata());
  PageCacheConfig cfg;
  cfg.dirty_high_watermark = 8 << 20;
  cfg.dirty_low_watermark = 4 << 20;
  PageCache cache(dev, cfg);
  const auto payload = make_value(6, 2048);

  const auto id1 = dev.allocate(2048).value();
  ASSERT_EQ(cache.mmap_write(id1, 0, payload), StatusCode::kOk);  // map setup
  sim::Nanos mmap_total{0}, cached_total{0};
  for (int i = 0; i < 50; ++i) {
    const auto t0 = sim::now();
    ASSERT_EQ(cache.mmap_write(id1, 0, payload), StatusCode::kOk);
    mmap_total += sim::now() - t0;
  }
  const auto id2 = dev.allocate(2048).value();
  for (int i = 0; i < 50; ++i) {
    const auto t0 = sim::now();
    ASSERT_EQ(cache.write(id2, 0, payload), StatusCode::kOk);
    cached_total += sim::now() - t0;
  }
  // 2KB: mmap ~ 0.35us page touch + 0.24us copy; cached ~ 4us syscall + copy.
  EXPECT_LT(mmap_total, cached_total);
  cache.sync();
}

TEST_F(PageCacheTest, PartialWriteDoesNotClaimResidency) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const auto id = dev.allocate(8192).value();
  ASSERT_EQ(cache.write(id, 0, make_value(7, 100)), StatusCode::kOk);
  EXPECT_FALSE(cache.resident(id));
}

TEST_F(PageCacheTest, PunchReleasesWholePagesOnly) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  // 16 whole pages plus a 100-byte partial last page.
  const std::size_t size = (64 << 10) + 100;
  const auto id = dev.allocate(size).value();
  ASSERT_EQ(cache.write(id, 0, make_value(8, size)), StatusCode::kOk);
  ASSERT_EQ(cache.resident_bytes(), size);

  cache.punch(id, 100, 4096);  // inside pages 0-1 but covers neither whole
  EXPECT_EQ(cache.stats().punched_bytes, 0u);
  cache.punch(id, 1000, 3 * 4096);  // rounds inward to pages 1 and 2
  EXPECT_EQ(cache.stats().punched_bytes, 2u * 4096);
  EXPECT_EQ(cache.resident_bytes(), size - 2 * 4096);
  cache.punch(id, 4096, 2 * 4096);  // the same pages again: nothing new
  EXPECT_EQ(cache.stats().punched_bytes, 2u * 4096);
  cache.punch(id, 60 << 10, 1 << 20);  // page 15; the partial page stays
  EXPECT_EQ(cache.stats().punched_bytes, 3u * 4096);
  EXPECT_EQ(cache.resident_bytes(), size - 3 * 4096);
  EXPECT_TRUE(cache.resident(id));
}

TEST_F(PageCacheTest, PunchedPagesReadAsZerosUntilRewritten) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const std::size_t size = 16 << 10;
  const auto id = dev.allocate(size).value();
  const auto payload = make_value(9, size);
  ASSERT_EQ(cache.mmap_write(id, 0, payload), StatusCode::kOk);
  cache.punch(id, 4096, 4096);

  std::vector<char> out(size);
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  auto expected = payload;
  std::fill(expected.begin() + 4096, expected.begin() + 8192, '\0');
  EXPECT_EQ(out, expected);
  ASSERT_EQ(cache.mmap_read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, expected);

  // A store into the hole allocates the page again, and charges it again.
  const std::span<const char> page(payload.data() + 4096, 4096);
  ASSERT_EQ(cache.write(id, 4096, page), StatusCode::kOk);
  EXPECT_EQ(cache.resident_bytes(), size);
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, payload);
}

TEST_F(PageCacheTest, PunchedSparseExtentSurvivesEviction) {
  // Three extents; `sparse` is written first, so it is the LRU victim. At
  // full size the three overflow the limit; with all but one page of
  // `sparse` punched they fit.
  const auto sparse_survives = [](bool punch) {
    SsdDevice dev(SsdProfile::sata());
    PageCacheConfig cfg;
    cfg.memory_limit = 128 << 10;
    PageCache cache(dev, cfg);
    const auto sparse = dev.allocate(64 << 10).value();
    EXPECT_EQ(cache.write(sparse, 0, make_value(1, 64 << 10)), StatusCode::kOk);
    cache.sync();  // clean, so evictable
    if (punch) cache.punch(sparse, 4096, 60 << 10);
    const auto full = dev.allocate(64 << 10).value();
    EXPECT_EQ(cache.write(full, 0, make_value(2, 64 << 10)), StatusCode::kOk);
    cache.sync();
    const auto tail = dev.allocate(56 << 10).value();
    EXPECT_EQ(cache.write(tail, 0, make_value(3, 56 << 10)), StatusCode::kOk);
    cache.sync();
    EXPECT_TRUE(cache.resident(full));
    EXPECT_TRUE(cache.resident(tail));
    return cache.resident(sparse);
  };
  EXPECT_FALSE(sparse_survives(/*punch=*/false));
  EXPECT_TRUE(sparse_survives(/*punch=*/true));
}

TEST_F(PageCacheTest, PunchThenInvalidateLeavesNothingResident) {
  SsdDevice dev(SsdProfile::sata());
  PageCacheConfig cfg = small_config();
  cfg.memory_limit = 96 << 10;  // forces an eviction among the four below
  PageCache cache(dev, cfg);
  std::vector<ExtentId> ids;
  for (int i = 0; i < 4; ++i) {
    const std::size_t size = (32 << 10) + static_cast<std::size_t>(i) * 1000;
    const auto id = dev.allocate(size).value();
    ids.push_back(id);
    ASSERT_EQ(cache.mmap_write(id, 0, make_value(static_cast<std::uint64_t>(i), size)),
              StatusCode::kOk);
    if (i != 3) cache.sync();  // the last extent stays dirty
    cache.punch(id, static_cast<std::size_t>(i) * 3000, 12 << 10);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().punched_bytes, 0u);
  cache.punch(ids.front(), 0, 32 << 10);  // punching an evicted extent
  for (const auto id : ids) cache.invalidate(id);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST_F(PageCacheTest, PunchBeforeFirstWriteAndOnUnknownIdIsSafe) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  cache.punch(12345, 0, 1 << 20);  // no such extent
  const std::size_t size = 32 << 10;
  const auto id = dev.allocate(size).value();
  cache.punch(id, 0, size);  // allocated, never written through the cache
  EXPECT_EQ(cache.stats().punched_bytes, 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);

  const auto payload = make_value(10, size);
  ASSERT_EQ(cache.write(id, 0, payload), StatusCode::kOk);
  EXPECT_EQ(cache.resident_bytes(), size);  // charged in full
  std::vector<char> out(size);
  ASSERT_EQ(cache.read(id, 0, out), StatusCode::kOk);
  EXPECT_EQ(out, payload);  // no hole was recorded
}

TEST_F(PageCacheTest, PunchLeavesDirtyAndWritebackAccountingAlone) {
  SsdDevice dev(SsdProfile::sata());
  PageCache cache(dev, small_config());
  const std::size_t size = 64 << 10;
  const auto id = dev.allocate(size).value();
  ASSERT_EQ(cache.write(id, 0, make_value(11, size)), StatusCode::kOk);
  const std::size_t dirty = cache.dirty_bytes();
  const std::uint64_t written_back = cache.stats().writeback_bytes;
  ASSERT_EQ(dirty + written_back, size);  // split depends on the flusher
  cache.punch(id, 0, size / 2);
  EXPECT_EQ(cache.dirty_bytes() + cache.stats().writeback_bytes, size);
  cache.sync();
  cache.punch(id, size / 2, size / 2);
  EXPECT_EQ(cache.dirty_bytes(), 0u);
  EXPECT_EQ(cache.stats().writeback_bytes, size);  // every written byte, once
  EXPECT_EQ(cache.stats().punched_bytes, size);
}

}  // namespace
}  // namespace hykv::ssd
