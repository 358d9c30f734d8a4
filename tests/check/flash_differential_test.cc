// Flash differential wall: LogStructuredFlashCache against the naive flat
// oracle, across DRAM disciplines, flash orderings (byte FIFO, segment FIFO,
// RIPQ), admission policies, the small-object set store, and scheduled
// mid-run segment-budget resizes. On failure the divergence string carries
// the first mismatching request; reproduce with
// check_replay --fuzz-flash --seed <seed>.
#include "src/check/flash_oracle.h"

#include <gtest/gtest.h>

#include "src/check/replay_file.h"
#include "src/check/trace_fuzzer.h"

namespace s3fifo {
namespace check {
namespace {

constexpr const char* kAdmissions[] = {"none", "probabilistic", "flashield", "s3fifo"};

std::vector<Request> FlashTrace(uint64_t seed, const LogFlashCacheConfig& config,
                                uint64_t num_requests = 20000) {
  FlashFuzzConfig fc;
  fc.seed = seed;
  fc.num_requests = num_requests;
  fc.small_object_threshold = config.small_object_threshold;
  fc.segment_bytes = config.log.segment_bytes;
  return GenerateFlashFuzzRequests(fc);
}

LogFlashCacheConfig BaseConfig() {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 4096;
  config.log.segment_bytes = 4096;
  config.log.num_segments = 8;
  return config;
}

TEST(FlashDifferentialTest, LogOnlyAllAdmissionsAndDisciplines) {
  for (const char* admission : kAdmissions) {
    for (DramDiscipline discipline : {DramDiscipline::kLru, DramDiscipline::kSmallFifo}) {
      for (LogOrdering ordering : {LogOrdering::kFifo, LogOrdering::kRipq}) {
        LogFlashCacheConfig config = BaseConfig();
        config.dram_discipline = discipline;
        config.log.ordering = ordering;
        const Divergence div =
            RunFlashDifferential(FlashTrace(3, config), config, admission,
                                 /*reuse_horizon=*/1000, /*admission_seed=*/17);
        EXPECT_FALSE(div.found)
            << admission << " discipline=" << static_cast<int>(discipline)
            << " ordering=" << static_cast<int>(ordering) << ": " << div.what;
      }
    }
  }
}

TEST(FlashDifferentialTest, SetStoreRouting) {
  for (const char* admission : kAdmissions) {
    LogFlashCacheConfig config = BaseConfig();
    config.dram_discipline = DramDiscipline::kSmallFifo;
    config.small_object_threshold = 128;
    config.set_store.set_bytes = 512;
    config.set_store.num_sets = 16;
    const Divergence div = RunFlashDifferential(FlashTrace(5, config), config, admission,
                                                /*reuse_horizon=*/500, /*admission_seed=*/23);
    EXPECT_FALSE(div.found) << admission << ": " << div.what;
  }
}

TEST(FlashDifferentialTest, RipqPromotionAndReadmission) {
  LogFlashCacheConfig config = BaseConfig();
  config.log.ordering = LogOrdering::kRipq;
  config.log.ripq_sections = 8;
  config.log.insert_priority = 2;
  config.log.num_segments = 4;  // GC fires constantly
  const Divergence div = RunFlashDifferential(FlashTrace(7, config, 30000), config, "none",
                                              /*reuse_horizon=*/100, /*admission_seed=*/1);
  EXPECT_FALSE(div.found) << div.what;
}

TEST(FlashDifferentialTest, TinyConfigsStressSealAndGcEdges) {
  // One-or-two-segment budgets with segment-sized objects: every insert sits
  // on a seal or GC boundary.
  for (uint64_t num_segments : {1, 2, 3}) {
    for (bool readmit : {true, false}) {
      LogFlashCacheConfig config;
      config.dram_capacity_bytes = 256;
      config.log.segment_bytes = 512;
      config.log.num_segments = num_segments;
      config.log.gc_readmit = readmit;
      FlashFuzzConfig fc;
      fc.seed = 40 + num_segments;
      fc.num_requests = 10000;
      fc.key_space = 64;
      fc.segment_bytes = config.log.segment_bytes;
      fc.p_near_segment = 0.2;
      fc.p_oversize = 0.05;
      const Divergence div =
          RunFlashDifferential(GenerateFlashFuzzRequests(fc), config, "s3fifo",
                               /*reuse_horizon=*/100, /*admission_seed=*/9);
      EXPECT_FALSE(div.found) << "segments=" << num_segments << " readmit=" << readmit
                              << ": " << div.what;
    }
  }
}

TEST(FlashDifferentialTest, ScheduledResizes) {
  LogFlashCacheConfig config = BaseConfig();
  config.small_object_threshold = 64;
  config.set_store.set_bytes = 256;
  config.set_store.num_sets = 8;
  FlashResizeSchedule resizes;
  resizes.period = 500;
  resizes.seed = 99;
  resizes.min_segments = 1;
  resizes.span = 12;
  const Divergence div = RunFlashDifferential(FlashTrace(11, config, 25000), config, "s3fifo",
                                              /*reuse_horizon=*/200, /*admission_seed=*/5,
                                              resizes);
  EXPECT_FALSE(div.found) << div.what;
}

TEST(FlashDifferentialTest, ByteFifoAllAdmissionsAndDisciplines) {
  // The abstract §5.4 device, at the fuzzer's default sizes (32 KB, so
  // every object fits) and at a tiny capacity the objects crowd or exceed;
  // resizes shrink and grow the byte budget mid-run.
  for (const char* admission : kAdmissions) {
    for (DramDiscipline discipline : {DramDiscipline::kLru, DramDiscipline::kSmallFifo}) {
      LogFlashCacheConfig config = BaseConfig();
      config.dram_discipline = discipline;
      config.log.ordering = LogOrdering::kByteFifo;
      FlashResizeSchedule resizes;
      resizes.period = 700;
      resizes.seed = 31;
      const Divergence div =
          RunFlashDifferential(FlashTrace(19, config), config, admission,
                               /*reuse_horizon=*/1000, /*admission_seed=*/17, resizes);
      EXPECT_FALSE(div.found) << admission << " discipline=" << static_cast<int>(discipline)
                              << ": " << div.what;
    }
  }
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 256;
  config.log.segment_bytes = 512;
  config.log.num_segments = 1;
  config.log.ordering = LogOrdering::kByteFifo;
  FlashFuzzConfig fc;
  fc.seed = 21;
  fc.key_space = 64;
  fc.segment_bytes = config.log.segment_bytes;
  fc.p_near_segment = 0.2;
  fc.p_oversize = 0.05;
  const Divergence div = RunFlashDifferential(GenerateFlashFuzzRequests(fc), config, "s3fifo",
                                              /*reuse_horizon=*/100, /*admission_seed=*/9);
  EXPECT_FALSE(div.found) << "tiny byte FIFO: " << div.what;
}

TEST(FlashDifferentialTest, OracleDistinguishesByteFifoFromSegmentFifo) {
  // Canary: the same capacity evicted per object (byte FIFO) and per
  // segment (log FIFO) must leave different bytes live on the flash.
  LogFlashCacheConfig segment_config = BaseConfig();
  segment_config.log.num_segments = 4;
  segment_config.log.gc_readmit = false;
  LogFlashCacheConfig byte_config = segment_config;
  byte_config.log.ordering = LogOrdering::kByteFifo;

  LogStructuredFlashCache cache(byte_config, CreateAdmissionPolicy("none", 100, 1));
  NaiveFlashModel oracle(segment_config, CreateAdmissionPolicy("none", 100, 1));
  bool diverged = false;
  for (const Request& req : FlashTrace(13, segment_config, 30000)) {
    const bool cache_hit = cache.Get(req);
    const FlashStepOutcome oracle_out = oracle.Step(req);
    if (cache_hit != oracle_out.hit || cache.log().live_bytes() != oracle_out.log_live_bytes) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(FlashDifferentialTest, OracleDistinguishesOrderings) {
  // The comparator must bite: a FIFO-ordered cache walked against a RIPQ
  // oracle on a promotion-heavy trace has to diverge in victim choice.
  LogFlashCacheConfig fifo_config = BaseConfig();
  fifo_config.log.num_segments = 4;
  fifo_config.log.gc_readmit = false;
  LogFlashCacheConfig ripq_config = fifo_config;
  ripq_config.log.ordering = LogOrdering::kRipq;
  ripq_config.log.ripq_sections = 4;

  LogStructuredFlashCache cache(fifo_config, CreateAdmissionPolicy("none", 100, 1));
  NaiveFlashModel oracle(ripq_config, CreateAdmissionPolicy("none", 100, 1));
  bool diverged = false;
  for (const Request& req : FlashTrace(13, fifo_config, 30000)) {
    const bool cache_hit = cache.Get(req);
    const FlashStepOutcome oracle_out = oracle.Step(req);
    if (cache_hit != oracle_out.hit) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(FlashDifferentialTest, ReplayFileRoundTrip) {
  ReplayCase rc;
  rc.mode = "flash";
  LogFlashCacheConfig config = BaseConfig();
  config.small_object_threshold = 64;
  config.log.ordering = LogOrdering::kRipq;
  rc.flash_config = FormatLogFlashConfig(config);
  rc.admission = "flashield";
  rc.reuse_horizon = 123;
  rc.admission_seed = 7;
  rc.resize_period = 100;
  rc.resize_seed = 5;
  rc.resize_min_segments = 2;
  rc.resize_span = 4;
  rc.fuzz_seed = 9;
  Request r;
  r.id = 42;
  r.size = 17;
  r.op = OpType::kSet;
  rc.requests.push_back(r);

  const ReplayCase parsed = ParseReplay(FormatReplay(rc));
  EXPECT_EQ(parsed.mode, "flash");
  EXPECT_EQ(parsed.flash_config, rc.flash_config);
  EXPECT_EQ(parsed.admission, "flashield");
  EXPECT_EQ(parsed.reuse_horizon, 123u);
  EXPECT_EQ(parsed.admission_seed, 7u);
  EXPECT_EQ(parsed.resize_period, 100u);
  EXPECT_EQ(parsed.resize_span, 4u);
  ASSERT_EQ(parsed.requests.size(), 1u);
  EXPECT_EQ(parsed.requests[0].id, 42u);
  EXPECT_EQ(parsed.requests[0].size, 17u);
  EXPECT_EQ(parsed.requests[0].op, OpType::kSet);

  // The parsed config round-trips through the cache constructor.
  const LogFlashCacheConfig reparsed = ParseLogFlashConfig(parsed.flash_config);
  EXPECT_EQ(reparsed.small_object_threshold, 64u);
  EXPECT_EQ(reparsed.log.ordering, LogOrdering::kRipq);
}

TEST(FlashDifferentialTest, ByteConservationHoldsUnderChurn) {
  LogFlashCacheConfig config = BaseConfig();
  config.log.num_segments = 2;
  LogStructuredFlashCache cache(config, CreateAdmissionPolicy("none", 100, 1));
  for (const Request& req : FlashTrace(17, config, 20000)) {
    cache.Get(req);
    const SegmentLogStats& s = cache.log_stats();
    ASSERT_EQ(s.device_bytes_written, s.admitted_bytes + s.gc_rewrite_bytes);
  }
  EXPECT_GT(cache.log_stats().gc_rewrite_bytes, 0u);  // GC actually re-admitted
  EXPECT_GT(cache.WriteAmplification(), 1.0);
}

}  // namespace
}  // namespace check
}  // namespace s3fifo
