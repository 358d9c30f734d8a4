// Golden-trace hashes: pin the exact request streams the generators emit.
//
// Every transcendental in the generation path goes through
// src/util/det_math.h and every random draw through the in-repo xoshiro/Zipf
// samplers, so a (config, seed) pair must produce a bit-identical trace on
// every platform and standard library. These constants are the contract; if
// one changes, either the generator changed behaviour (update the constant
// deliberately) or cross-platform reproducibility broke (fix that instead).
#include <gtest/gtest.h>

#include <string>

#include "src/check/trace_fuzzer.h"
#include "src/trace/trace.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

TEST(GoldenTraceTest, PlainZipfFingerprint) {
  ZipfWorkloadConfig config;
  config.num_objects = 10000;
  config.num_requests = 50000;
  config.alpha = 1.0;
  config.seed = 3;
  const Trace trace = GenerateZipfTrace(config);
  EXPECT_EQ(trace.Fingerprint(), 0xeeb5dce6587de984ULL);
}

TEST(GoldenTraceTest, FullFeatureMixFingerprint) {
  ZipfWorkloadConfig config;
  config.num_objects = 5000;
  config.num_requests = 50000;
  config.alpha = 0.8;
  config.new_object_fraction = 0.05;
  config.scan_fraction = 0.002;
  config.scan_length = 200;
  config.loop_fraction = 0.001;
  config.loop_length = 100;
  config.loop_repeats = 3;
  config.burst_fraction = 0.2;
  config.write_fraction = 0.1;
  config.delete_fraction = 0.02;
  config.size_mean_bytes = 4096;
  config.size_sigma = 1.5;  // exercises DetLog/DetExp/DetCos via Box-Muller
  config.seed = 11;
  const Trace trace = GenerateZipfTrace(config);
  EXPECT_EQ(trace.Fingerprint(), 0xc98fc4b06662b65bULL);
}

TEST(GoldenTraceTest, FuzzerStreamFingerprint) {
  check::FuzzConfig config;
  config.seed = 5;
  config.num_requests = 20000;
  config.capacity = 256;
  config.count_based = false;
  const Trace trace(check::GenerateFuzzRequests(config), "fuzz");
  EXPECT_EQ(trace.Fingerprint(), 0xa6e43baa34315f88ULL);
}

// Every dataset profile's base config at seed 7: the streams behind the
// figure benches and the repository benchmark's offline traces. Together
// they cover sized and fixed-size objects, bursts, scans, loops, new-object
// arrivals and the op mix at the profiles' real table sizes.
TEST(GoldenTraceTest, EveryDatasetProfileFingerprint) {
  const struct {
    const char* name;
    uint64_t fingerprint;
  } kGolden[] = {
      {"msr", 0x712c7f9f86934fedULL},          {"fiu", 0x621fb4eb9f167b46ULL},
      {"cloudphysics", 0x6eedca539713947cULL}, {"cdn1", 0x3556e9eaf80d2e7cULL},
      {"tencent_photo", 0xcb131976711e9a62ULL}, {"wiki", 0xe6f5828967717e38ULL},
      {"systor", 0xcf7b28dfb1c91b79ULL},       {"tencent_cbs", 0x4524261891508d3aULL},
      {"alibaba", 0x51f25af6478dd548ULL},      {"twitter", 0x7f9cd86220849f2aULL},
      {"socialnet", 0xcaa037a0dcb482f8ULL},    {"cdn2", 0x51acbcd4b92762bdULL},
      {"meta_kv", 0x337f71867cf736caULL},      {"meta_cdn", 0x6fd96b87bb1445d9ULL},
  };
  ASSERT_EQ(std::size(kGolden), AllDatasetProfiles().size());
  for (const auto& golden : kGolden) {
    ZipfWorkloadConfig config = DatasetByName(golden.name).base;
    config.seed = 7;
    EXPECT_EQ(GenerateZipfTrace(config).Fingerprint(), golden.fingerprint) << golden.name;
  }
}

// A universe far larger than the trace: only the hottest ranks can be sized
// from a per-rank table no larger than the trace itself, so at alpha 1.0
// about a third of the draws land inside such a table and the rest outside.
// Pins both paths (and must run without allocating per object).
TEST(GoldenTraceTest, HugeUniverseSizedFingerprint) {
  ZipfWorkloadConfig config;
  config.num_objects = 1ULL << 40;
  config.num_requests = 20000;
  config.alpha = 1.0;
  config.size_sigma = 1.0;
  config.burst_fraction = 0.3;
  config.seed = 9;
  EXPECT_EQ(GenerateZipfTrace(config).Fingerprint(), 0xe7cc9fbb4aa15fdcULL);
}

TEST(GoldenTraceTest, SameSeedSameTraceDifferentSeedDifferentTrace) {
  ZipfWorkloadConfig config;
  config.num_objects = 1000;
  config.num_requests = 10000;
  config.size_sigma = 1.0;
  config.seed = 21;
  const uint64_t first = GenerateZipfTrace(config).Fingerprint();
  const uint64_t again = GenerateZipfTrace(config).Fingerprint();
  EXPECT_EQ(first, again);
  config.seed = 22;
  EXPECT_NE(GenerateZipfTrace(config).Fingerprint(), first);
}

}  // namespace
}  // namespace s3fifo
