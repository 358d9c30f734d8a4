// Segment log unit tests: seal boundaries, FIFO victim order, one-extra-pass
// readmission, RIPQ promotion/decay, the byte-FIFO ordering, resize, and the
// byte-conservation invariant the differential wall also checks.
#include "src/flash/segment_log.h"

#include <gtest/gtest.h>

namespace s3fifo {
namespace {

SegmentLogConfig SmallLog(uint64_t segment_bytes = 100, uint64_t num_segments = 3) {
  SegmentLogConfig config;
  config.segment_bytes = segment_bytes;
  config.num_segments = num_segments;
  config.gc_readmit = false;  // pure FIFO unless a test opts in
  return config;
}

void ExpectConserved(const SegmentLog& log) {
  const SegmentLogStats& s = log.stats();
  EXPECT_EQ(s.device_bytes_written, s.admitted_bytes + s.gc_rewrite_bytes);
}

TEST(SegmentLogTest, FillsSegmentsBeforeSealing) {
  SegmentLog log(SmallLog());
  // Two 50-byte objects exactly fill one segment; the third forces a seal.
  EXPECT_TRUE(log.Insert(1, 50, nullptr));
  EXPECT_TRUE(log.Insert(2, 50, nullptr));
  EXPECT_EQ(log.segments_in_use(), 1u);
  EXPECT_EQ(log.stats().segments_sealed, 0u);
  EXPECT_TRUE(log.Insert(3, 50, nullptr));
  EXPECT_EQ(log.segments_in_use(), 2u);
  EXPECT_EQ(log.stats().segments_sealed, 1u);
  EXPECT_EQ(log.live_bytes(), 150u);
  EXPECT_EQ(log.live_objects(), 3u);
  ExpectConserved(log);
}

TEST(SegmentLogTest, GcEvictsOldestSegmentWholesale) {
  SegmentLog log(SmallLog(100, 2));
  std::vector<uint64_t> evicted;
  for (uint64_t id = 1; id <= 4; ++id) {
    log.Insert(id, 50, &evicted);  // ids 1,2 in seg A; 3,4 in seg B
  }
  EXPECT_TRUE(evicted.empty());
  log.Insert(5, 50, &evicted);  // opening seg C exceeds the budget: GC seg A
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(log.Contains(1));
  EXPECT_FALSE(log.Contains(2));
  EXPECT_TRUE(log.Contains(3));
  EXPECT_TRUE(log.Contains(5));
  EXPECT_EQ(log.stats().segments_gced, 1u);
  EXPECT_EQ(log.stats().dropped_objects, 2u);
  ExpectConserved(log);
}

TEST(SegmentLogTest, FifoReadmitGivesHitObjectsOneExtraPass) {
  SegmentLogConfig config = SmallLog(100, 2);
  config.gc_readmit = true;
  SegmentLog log(config);
  std::vector<uint64_t> evicted;
  log.Insert(1, 50, &evicted);
  log.Insert(2, 50, &evicted);
  EXPECT_TRUE(log.Lookup(1));  // hit bit: survives the next GC
  log.Insert(3, 50, &evicted);
  log.Insert(4, 50, &evicted);
  log.Insert(5, 50, &evicted);  // GC of {1,2}: 1 rewritten, 2 dropped
  EXPECT_EQ(evicted, (std::vector<uint64_t>{2}));
  EXPECT_TRUE(log.Contains(1));
  EXPECT_EQ(log.stats().gc_rewrite_bytes, 50u);
  EXPECT_EQ(log.stats().gc_rewrite_objects, 1u);
  // The rewrite consumed the hit bit: without another Lookup the object is
  // dropped on its second GC pass.
  ExpectConserved(log);
}

TEST(SegmentLogTest, RipqPromotionDecaysAcrossGcPasses) {
  SegmentLogConfig config = SmallLog(100, 2);
  config.ordering = LogOrdering::kRipq;
  config.ripq_sections = 4;
  config.insert_priority = 0;
  SegmentLog log(config);
  std::vector<uint64_t> evicted;
  log.Insert(1, 50, &evicted);
  log.Insert(2, 50, &evicted);
  log.Lookup(1);  // priority 0 -> 1
  log.Lookup(1);  // priority 1 -> 2
  // Two GC passes: priority decays 2 -> 1 -> 0; a third drops it.
  for (int pass = 0; pass < 2; ++pass) {
    evicted.clear();
    uint64_t filler = 100 + pass * 10;
    while (evicted.empty()) {
      log.Insert(filler++, 50, &evicted);
    }
    EXPECT_TRUE(log.Contains(1)) << "pass " << pass;
  }
  evicted.clear();
  uint64_t filler = 200;
  bool gone = false;
  while (!gone && filler < 300) {
    log.Insert(filler++, 50, &evicted);
    gone = !log.Contains(1);
  }
  EXPECT_TRUE(gone);
  ExpectConserved(log);
}

TEST(SegmentLogTest, OverwriteDeadMarksOldCopy) {
  SegmentLog log(SmallLog());
  log.Insert(1, 30, nullptr);
  log.Insert(1, 60, nullptr);
  EXPECT_EQ(log.live_objects(), 1u);
  EXPECT_EQ(log.live_bytes(), 60u);
  EXPECT_EQ(log.SizeOf(1), 60u);
  // Both copies hit the device.
  EXPECT_EQ(log.stats().device_bytes_written, 90u);
  EXPECT_EQ(log.stats().admitted_bytes, 90u);
  ExpectConserved(log);
}

TEST(SegmentLogTest, EraseIsMetadataOnly) {
  SegmentLog log(SmallLog());
  log.Insert(1, 30, nullptr);
  EXPECT_TRUE(log.Erase(1));
  EXPECT_FALSE(log.Erase(1));
  EXPECT_FALSE(log.Contains(1));
  EXPECT_EQ(log.live_bytes(), 0u);
  EXPECT_EQ(log.stats().device_bytes_written, 30u);  // no new bytes
  ExpectConserved(log);
}

TEST(SegmentLogTest, OversizeObjectsAreRejected) {
  SegmentLog log(SmallLog(100, 3));
  std::vector<uint64_t> evicted;
  EXPECT_FALSE(log.Insert(1, 101, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(log.stats().oversize_rejects, 1u);
  EXPECT_EQ(log.stats().device_bytes_written, 0u);
  EXPECT_FALSE(log.Contains(1));
}

TEST(SegmentLogTest, ShrinkingResizeGcsImmediately) {
  SegmentLog log(SmallLog(100, 4));
  std::vector<uint64_t> evicted;
  for (uint64_t id = 1; id <= 8; ++id) {
    log.Insert(id, 50, &evicted);  // 4 segments, all full or open
  }
  EXPECT_TRUE(evicted.empty());
  log.Resize(2, &evicted);
  EXPECT_EQ(log.num_segments(), 2u);
  EXPECT_LE(log.segments_in_use(), 2u);
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1, 2, 3, 4}));
  ExpectConserved(log);
}

TEST(SegmentLogTest, ByteFifoEvictsOldestObjectsNoSegments) {
  SegmentLogConfig config = SmallLog(100, 3);  // 300-byte byte FIFO
  config.ordering = LogOrdering::kByteFifo;
  SegmentLog log(config);
  std::vector<uint64_t> evicted;
  for (uint64_t id = 1; id <= 4; ++id) {
    EXPECT_TRUE(log.Insert(id, 70, &evicted));  // objects may straddle "segments"
  }
  EXPECT_TRUE(evicted.empty());
  EXPECT_TRUE(log.Lookup(1));  // a hit updates no ordering state
  EXPECT_TRUE(log.Insert(5, 90, &evicted));  // 280 + 90 > 300: drop 1 only
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1}));
  EXPECT_FALSE(log.Insert(6, 301, &evicted));  // larger than the whole device
  EXPECT_EQ(log.stats().oversize_rejects, 1u);
  EXPECT_TRUE(log.Insert(7, 300, &evicted));  // exactly the capacity: flushes all
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(log.live_bytes(), 300u);
  EXPECT_EQ(log.live_objects(), 1u);
  EXPECT_EQ(log.segments_in_use(), 0u);
  EXPECT_EQ(log.stats().segments_gced, 0u);
  EXPECT_EQ(log.stats().device_bytes_written, log.stats().admitted_bytes);
  EXPECT_EQ(log.stats().dropped_objects, 5u);
  ExpectConserved(log);

  EXPECT_TRUE(log.Erase(7));
  EXPECT_EQ(log.live_bytes(), 0u);
  for (uint64_t id = 10; id <= 12; ++id) {
    log.Insert(id, 100, &evicted);
  }
  evicted.clear();
  log.Resize(2, &evicted);  // 200 bytes: the oldest object leaves at once
  EXPECT_EQ(evicted, (std::vector<uint64_t>{10}));
  EXPECT_EQ(log.live_bytes(), 200u);
  EXPECT_EQ(log.capacity_bytes(), 200u);
}

TEST(SegmentLogTest, GcVictimSelectionIsDeterministic) {
  // Two identical op sequences must agree on every victim seal sequence and
  // every stats field — the seed-determinism hook the golden tests rely on.
  auto run = [] {
    SegmentLogConfig config = SmallLog(100, 3);
    config.gc_readmit = true;
    SegmentLog log(config);
    std::vector<uint64_t> evicted;
    std::vector<uint64_t> victim_seqs;
    for (uint64_t i = 0; i < 500; ++i) {
      const uint64_t id = (i * 7) % 40;
      if (i % 5 == 0) {
        log.Lookup(id);
      }
      log.Insert(id, 20 + (i % 4) * 15, &evicted);
      victim_seqs.push_back(log.last_gc_victim_seq());
    }
    return std::make_pair(victim_seqs, log.stats());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.device_bytes_written, b.second.device_bytes_written);
  EXPECT_EQ(a.second.gc_rewrite_bytes, b.second.gc_rewrite_bytes);
  EXPECT_EQ(a.second.segments_gced, b.second.segments_gced);
  EXPECT_EQ(a.second.dropped_objects, b.second.dropped_objects);
}

}  // namespace
}  // namespace s3fifo
