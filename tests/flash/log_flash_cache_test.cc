// Two-tier flash cache unit tests: tier routing, the ghost S->G->M path,
// deletes, resize, config round-trip, the combined device-byte accounting,
// and the Fig. 9 admission behaviours on the abstract byte-FIFO device.
#include "src/flash/log_flash_cache.h"

#include <gtest/gtest.h>

#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Request Get(uint64_t id, uint32_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

Request Set(uint64_t id, uint32_t size) {
  Request r = Get(id, size);
  r.op = OpType::kSet;
  return r;
}

Request Del(uint64_t id) {
  Request r = Get(id, 0);
  r.op = OpType::kDelete;
  return r;
}

LogFlashCacheConfig SmallConfig() {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 100;
  config.log.segment_bytes = 200;
  config.log.num_segments = 4;
  return config;
}

// The abstract §5.4 flash device: one byte FIFO over `flash_bytes`.
LogFlashCacheConfig ByteFifoConfig(DramDiscipline discipline, uint64_t flash_bytes = 8 << 20,
                                   uint64_t dram_bytes = 512 << 10) {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = dram_bytes;
  config.dram_discipline = discipline;
  config.log.segment_bytes = flash_bytes;
  config.log.num_segments = 1;
  config.log.ordering = LogOrdering::kByteFifo;
  return config;
}

Trace CdnTrace(uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 2000;
  c.num_requests = 40000;
  c.alpha = 0.9;
  c.new_object_fraction = 0.15;
  c.size_sigma = 0.8;
  c.size_mean_bytes = 8192;
  c.seed = seed;
  return GenerateZipfTrace(c);
}

struct ByteFifoRun {
  LogFlashCacheStats stats;
  uint64_t write_bytes = 0;  // bytes admitted to (= written on) the flash
};

ByteFifoRun RunByteFifo(const Trace& trace, const LogFlashCacheConfig& config,
                        std::unique_ptr<AdmissionPolicy> admission) {
  LogStructuredFlashCache cache(config, std::move(admission));
  for (const Request& r : trace.requests()) {
    cache.Get(r);
  }
  return {cache.stats(), cache.AdmittedBytes()};
}

TEST(LogFlashCacheTest, DramEvictionFlowsThroughAdmissionToLog) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  EXPECT_FALSE(cache.Get(Get(1, 50)));  // miss -> DRAM
  EXPECT_TRUE(cache.Get(Get(1, 50)));   // DRAM hit: earns the admission read
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // evicts 1 (1 read -> admitted to the log)
  EXPECT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Get(1, 50)));  // flash hit
  EXPECT_EQ(cache.stats().log_hits, 1u);
  EXPECT_EQ(cache.log_stats().admitted_bytes, 50u);
}

TEST(LogFlashCacheTest, ColdEvictionsAreRejectedByS3FifoFilter) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // evicts 1 with 0 reads: rejected, no device write
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_EQ(cache.DeviceBytesWritten(), 0u);
}

TEST(LogFlashCacheTest, GhostHitPromotesStraightToFlash) {
  LogFlashCacheConfig config = SmallConfig();
  config.dram_discipline = DramDiscipline::kSmallFifo;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // 1 evicted cold -> ghost
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_FALSE(cache.Get(Get(1, 50)));  // ghost hit: S->G->M, write to flash
  EXPECT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Get(1, 50)));
  EXPECT_EQ(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, SmallObjectsRouteToSets) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 4;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 10));   // small
  cache.Get(Get(2, 50));   // large
  cache.Get(Get(3, 60));   // push both out of DRAM
  cache.Get(Get(4, 60));
  EXPECT_TRUE(cache.sets().Contains(1));
  EXPECT_TRUE(cache.log().Contains(2));
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_FALSE(cache.sets().Contains(2));
  // Set hits and log hits are counted separately.
  cache.Get(Get(1, 10));
  cache.Get(Get(2, 50));
  EXPECT_EQ(cache.stats().set_hits, 1u);
  EXPECT_EQ(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, DeleteRemovesEveryTier) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 4;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 10));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 60));
  cache.Get(Get(4, 60));  // 1 -> sets, 2 -> log, 3/4 in DRAM
  EXPECT_FALSE(cache.Get(Del(1)));
  EXPECT_FALSE(cache.Get(Del(2)));
  EXPECT_FALSE(cache.Get(Del(4)));
  EXPECT_FALSE(cache.sets().Contains(1));
  EXPECT_FALSE(cache.log().Contains(2));
  EXPECT_EQ(cache.stats().deletes, 3u);
  // Deletes are not requests: miss ratio unaffected.
  EXPECT_EQ(cache.stats().requests, 4u);
}

TEST(LogFlashCacheTest, SetOverwritesFlashResident) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 60));
  cache.Get(Get(3, 60));  // 1 -> log
  ASSERT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Set(1, 80)));  // overwrite in place: dead-mark + re-admit
  EXPECT_EQ(cache.log().SizeOf(1), 80u);
  // 1 (50) and 2 (60) admitted on DRAM eviction, then the 80-byte overwrite.
  EXPECT_EQ(cache.log_stats().admitted_bytes, 50u + 60u + 80u);
}

TEST(LogFlashCacheTest, ResizeFlashShrinksSegmentBudget) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  for (uint64_t id = 1; id <= 20; ++id) {
    cache.Get(Get(id, 60));
  }
  const uint64_t before = cache.stats().flash_evictions;
  cache.ResizeFlash(1);
  EXPECT_LE(cache.log().segments_in_use(), 1u);
  EXPECT_GT(cache.stats().flash_evictions, before);
}

TEST(LogFlashCacheTest, ConfigFormatParseRoundTrip) {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 12345;
  config.dram_discipline = DramDiscipline::kSmallFifo;
  config.ghost_entries = 99;
  config.log.segment_bytes = 8192;
  config.log.num_segments = 7;
  config.log.ordering = LogOrdering::kRipq;
  config.log.gc_readmit = false;
  config.log.ripq_sections = 6;
  config.log.insert_priority = 2;
  config.small_object_threshold = 300;
  config.set_store.set_bytes = 512;
  config.set_store.num_sets = 33;

  const LogFlashCacheConfig parsed = ParseLogFlashConfig(FormatLogFlashConfig(config));
  EXPECT_EQ(parsed.dram_capacity_bytes, 12345u);
  EXPECT_EQ(parsed.dram_discipline, DramDiscipline::kSmallFifo);
  EXPECT_EQ(parsed.ghost_entries, 99u);
  EXPECT_EQ(parsed.log.segment_bytes, 8192u);
  EXPECT_EQ(parsed.log.num_segments, 7u);
  EXPECT_EQ(parsed.log.ordering, LogOrdering::kRipq);
  EXPECT_EQ(parsed.log.gc_readmit, false);
  EXPECT_EQ(parsed.log.ripq_sections, 6u);
  EXPECT_EQ(parsed.log.insert_priority, 2u);
  EXPECT_EQ(parsed.small_object_threshold, 300u);
  EXPECT_EQ(parsed.set_store.set_bytes, 512u);
  EXPECT_EQ(parsed.set_store.num_sets, 33u);

  config.log.ordering = LogOrdering::kByteFifo;
  EXPECT_EQ(ParseLogFlashConfig(FormatLogFlashConfig(config)).log.ordering,
            LogOrdering::kByteFifo);
}

TEST(LogFlashCacheTest, CombinedDeviceAccounting) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 2;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  for (uint64_t i = 0; i < 200; ++i) {
    cache.Get(Get(i % 23, (i % 3 == 0) ? 10 : 60));
  }
  EXPECT_EQ(cache.DeviceBytesWritten(), cache.log_stats().device_bytes_written +
                                            cache.set_stats().device_bytes_written);
  EXPECT_EQ(cache.AdmittedBytes(),
            cache.log_stats().admitted_bytes + cache.set_stats().admitted_bytes);
  EXPECT_GE(cache.WriteAmplification(), 1.0);
  // Both components saw traffic.
  EXPECT_GT(cache.log_stats().admitted_bytes, 0u);
  EXPECT_GT(cache.set_stats().page_writes, 0u);
}

TEST(LogFlashCacheTest, ByteFifoResizeEvictsOldestAtOnce) {
  LogFlashCacheConfig config = ByteFifoConfig(DramDiscipline::kLru, 100, 50);
  config.log.num_segments = 3;  // a 300-byte FIFO that ResizeFlash can shrink
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  for (uint64_t id = 1; id <= 6; ++id) {
    cache.Get(Get(id, 50));  // ids 1..5 reach the 300-byte FIFO, 6 stays in DRAM
  }
  EXPECT_EQ(cache.log().live_bytes(), 250u);
  cache.ResizeFlash(1);  // 100 bytes: the three oldest leave at once
  EXPECT_EQ(cache.last_flash_evicted(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(cache.stats().flash_evictions, 3u);
  EXPECT_EQ(cache.log().live_bytes(), 100u);
  EXPECT_EQ(cache.log().segments_in_use(), 0u);
}

TEST(LogFlashCacheTest, ByteFifoTiersStayWithinCapacity) {
  auto cache = LogStructuredFlashCache(ByteFifoConfig(DramDiscipline::kLru),
                                       std::make_unique<AdmitAll>());
  const Trace t = CdnTrace(1);
  for (const Request& r : t.requests()) {
    cache.Get(r);
    ASSERT_LE(cache.dram_occupied(), 512u << 10);
    ASSERT_LE(cache.flash_live_bytes(), 8u << 20);
  }
}

TEST(LogFlashCacheTest, ByteFifoDramHitThenFlashHit) {
  auto cache = LogStructuredFlashCache(ByteFifoConfig(DramDiscipline::kLru, 8 << 20, 16 << 10),
                                       std::make_unique<AdmitAll>());
  EXPECT_FALSE(cache.Get(Get(1, 4096)));  // miss -> DRAM
  EXPECT_TRUE(cache.Get(Get(1, 4096)));   // DRAM hit
  // Push id 1 out of the small DRAM into flash.
  for (uint64_t id = 2; id < 10; ++id) {
    cache.Get(Get(id, 4096));
  }
  EXPECT_TRUE(cache.Get(Get(1, 4096)));  // now a flash hit
  EXPECT_GE(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, ByteFifoNoAdmissionWritesEverythingEvicted) {
  const ByteFifoRun all = RunByteFifo(CdnTrace(2), ByteFifoConfig(DramDiscipline::kLru),
                                      std::make_unique<AdmitAll>());
  const ByteFifoRun prob = RunByteFifo(CdnTrace(2), ByteFifoConfig(DramDiscipline::kLru),
                                       std::make_unique<ProbabilisticAdmission>(0.2));
  EXPECT_GT(all.write_bytes, 3 * prob.write_bytes);
}

TEST(LogFlashCacheTest, ByteFifoProbabilisticTradesMissRatioForWrites) {
  // Fig. 9: probabilistic admission reduces writes but raises the miss
  // ratio relative to no admission control.
  const ByteFifoRun all = RunByteFifo(CdnTrace(3), ByteFifoConfig(DramDiscipline::kLru),
                                      std::make_unique<AdmitAll>());
  const ByteFifoRun prob = RunByteFifo(CdnTrace(3), ByteFifoConfig(DramDiscipline::kLru),
                                       std::make_unique<ProbabilisticAdmission>(0.2));
  EXPECT_LT(all.stats.MissRatio(), prob.stats.MissRatio());
  EXPECT_LT(prob.write_bytes, all.write_bytes);
}

TEST(LogFlashCacheTest, ByteFifoS3FifoFilterReducesWritesAndMissRatio) {
  // The paper's headline flash result: the small-FIFO filter cuts writes
  // versus no admission while keeping the miss ratio at least as good as
  // probabilistic admission.
  const Trace t = CdnTrace(4);
  const ByteFifoRun all =
      RunByteFifo(t, ByteFifoConfig(DramDiscipline::kLru), std::make_unique<AdmitAll>());
  const ByteFifoRun prob = RunByteFifo(t, ByteFifoConfig(DramDiscipline::kLru),
                                       std::make_unique<ProbabilisticAdmission>(0.2));
  const ByteFifoRun s3 = RunByteFifo(t, ByteFifoConfig(DramDiscipline::kSmallFifo),
                                     std::make_unique<S3FifoAdmission>(1));
  EXPECT_LT(s3.write_bytes, all.write_bytes);
  EXPECT_LT(s3.stats.MissRatio(), prob.stats.MissRatio());
}

TEST(LogFlashCacheTest, ByteFifoGhostHitWritesStraightToFlash) {
  auto cache =
      LogStructuredFlashCache(ByteFifoConfig(DramDiscipline::kSmallFifo, 8 << 20, 8 << 10),
                              std::make_unique<S3FifoAdmission>(1));
  cache.Get(Get(1, 4096));  // -> DRAM
  // Evict id 1 (no reads): rejected, remembered in the ghost.
  for (uint64_t id = 2; id < 6; ++id) {
    cache.Get(Get(id, 4096));
  }
  const uint64_t writes_before = cache.AdmittedBytes();
  EXPECT_FALSE(cache.Get(Get(1, 4096)));  // ghost hit: goes to flash, still a miss
  EXPECT_GT(cache.AdmittedBytes(), writes_before);
  EXPECT_TRUE(cache.Get(Get(1, 4096)));  // flash hit now
}

TEST(LogFlashCacheTest, ByteFifoObjectLargerThanDramGoesThroughAdmission) {
  auto cache = LogStructuredFlashCache(ByteFifoConfig(DramDiscipline::kLru, 8 << 20, 4 << 10),
                                       std::make_unique<AdmitAll>());
  EXPECT_FALSE(cache.Get(Get(9, 64 << 10)));  // larger than DRAM
  EXPECT_TRUE(cache.Get(Get(9, 64 << 10)));   // admitted directly to flash
}

TEST(LogFlashCacheTest, ByteFifoStatsAddUp) {
  const ByteFifoRun run = RunByteFifo(CdnTrace(5), ByteFifoConfig(DramDiscipline::kLru),
                                      std::make_unique<AdmitAll>());
  const LogFlashCacheStats& s = run.stats;
  EXPECT_EQ(s.dram_hits + s.log_hits + s.set_hits + s.misses, s.requests);
  EXPECT_EQ(s.set_hits, 0u);
  EXPECT_GE(s.bytes_requested, s.bytes_missed);
}

}  // namespace
}  // namespace s3fifo
