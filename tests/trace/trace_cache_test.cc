#include "src/trace/trace_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/trace/trace_format.h"
#include "src/trace/trace_io.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

class TraceCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "s3fifo_trace_cache_test").string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Trace MakeTrace(uint64_t seed = 5, bool annotate = false) {
    ZipfWorkloadConfig cfg;
    cfg.num_objects = 500;
    cfg.num_requests = 6000;
    cfg.write_fraction = 0.1;
    cfg.delete_fraction = 0.03;
    cfg.size_sigma = 0.8;
    cfg.seed = seed;
    Trace t = GenerateZipfTrace(cfg);
    t.set_name("cache-test/" + std::to_string(seed));
    if (annotate) {
      uint64_t i = 0;
      for (Request& r : t.mutable_requests()) {
        r.tenant = static_cast<uint32_t>(i % 5);
        r.next_access = i % 4 == 0 ? kNeverAccessed : i + 2;
        ++i;
      }
      t.set_annotated(true);
    }
    return t;
  }

  static TraceSpec Spec(const std::string& detail) { return TraceSpec{"unit", detail}; }

  // The on-disk path GetOrGenerate(spec) resolves to.
  std::string FileFor(const TraceSpec& spec) const {
    return dir_ + "/" + spec.CacheKey() + ".s3ft";
  }

  static void ExpectViewMatchesTrace(const TraceView& view, const Trace& trace) {
    ASSERT_EQ(view.size(), trace.size());
    EXPECT_EQ(view.name(), trace.name());
    EXPECT_EQ(view.annotated(), trace.annotated());
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(view.id(i), trace[i].id) << i;
      EXPECT_EQ(view.object_size(i), trace[i].size) << i;
      EXPECT_EQ(view.op(i), trace[i].op) << i;
      EXPECT_EQ(view.tenant(i), trace[i].tenant) << i;
      EXPECT_EQ(view.time(i), trace[i].time) << i;
      EXPECT_EQ(view.next_access(i), trace[i].next_access) << i;
      const Request r = view.At(i);
      EXPECT_EQ(r.id, trace[i].id) << i;
      EXPECT_EQ(r.next_access, trace[i].next_access) << i;
    }
  }

  std::string dir_;
};

TEST_F(TraceCacheTest, MmapViewMatchesHeapTracePerRequest) {
  for (const bool annotate : {false, true}) {
    const Trace trace = MakeTrace(7, annotate);
    TraceCache cache(dir_);
    const TraceView view =
        cache.GetOrGenerate(Spec(annotate ? "annotated" : "plain"), [&] { return MakeTrace(7, annotate); });
    ASSERT_EQ(view.AsRequests(), nullptr);  // really mmap-backed, not heap
    ExpectViewMatchesTrace(view, trace);
    EXPECT_EQ(view.ComputeFingerprint(), trace.Fingerprint());
    EXPECT_EQ(view.file_fingerprint(), trace.Fingerprint());
  }
}

TEST_F(TraceCacheTest, HeaderStatsMatchComputedStats) {
  const Trace trace = MakeTrace();
  TraceCache cache(dir_);
  const TraceView view = cache.GetOrGenerate(Spec("stats"), [] { return MakeTrace(); });
  const TraceStats& expected = trace.Stats();
  const TraceStats& got = view.stats();
  EXPECT_EQ(got.num_requests, expected.num_requests);
  EXPECT_EQ(got.num_objects, expected.num_objects);
  EXPECT_EQ(got.total_bytes_requested, expected.total_bytes_requested);
  EXPECT_EQ(got.footprint_bytes, expected.footprint_bytes);
  EXPECT_EQ(got.num_gets, expected.num_gets);
  EXPECT_EQ(got.num_sets, expected.num_sets);
  EXPECT_EQ(got.num_deletes, expected.num_deletes);
  EXPECT_DOUBLE_EQ(got.one_hit_wonder_ratio, expected.one_hit_wonder_ratio);
}

TEST_F(TraceCacheTest, WarmProcessMapsWithoutGenerating) {
  {
    TraceCache cold(dir_);
    cold.GetOrGenerate(Spec("warm"), [] { return MakeTrace(); });
    EXPECT_EQ(cold.misses(), 1u);
  }
  // A fresh TraceCache stands in for a new process: same dir, empty mapping
  // table.
  TraceCache warm(dir_);
  const TraceView view = warm.GetOrGenerate(Spec("warm"), []() -> Trace {
    ADD_FAILURE() << "warm hit must not regenerate";
    return MakeTrace();
  });
  EXPECT_EQ(warm.hits(), 1u);
  EXPECT_EQ(warm.misses(), 0u);
  ExpectViewMatchesTrace(view, MakeTrace());
  ASSERT_EQ(warm.events().size(), 1u);
  EXPECT_TRUE(warm.events()[0].warm);
  EXPECT_EQ(warm.events()[0].spec.CacheKey(), Spec("warm").CacheKey());
}

TEST_F(TraceCacheTest, RepeatAcquisitionSharesTheMapping) {
  TraceCache cache(dir_);
  const TraceView a = cache.GetOrGenerate(Spec("share"), [] { return MakeTrace(); });
  const TraceView b = cache.GetOrGenerate(Spec("share"), []() -> Trace {
    ADD_FAILURE() << "in-process hit must not regenerate";
    return MakeTrace();
  });
  EXPECT_EQ(a.ComputeFingerprint(), b.ComputeFingerprint());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(TraceCacheTest, FingerprintMismatchIsRejectedAndRegenerated) {
  const TraceSpec spec = Spec("corrupt-id");
  {
    TraceCache cache(dir_);
    cache.GetOrGenerate(spec, [] { return MakeTrace(); });
  }
  // Flip a byte inside the id column: structurally valid, wrong content.
  const std::string path = FileFor(spec);
  {
    Trace t = MakeTrace();
    const TraceFileLayout layout =
        TraceFileLayout::For(t.size(), t.annotated(), static_cast<uint32_t>(t.name().size()));
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(layout.id_offset + 8));
    const char garbage = '\x5a';
    f.write(&garbage, 1);
  }
  EXPECT_THROW(MapTraceFile(path), std::runtime_error);

  TraceCache fresh(dir_);
  std::atomic<int> generations{0};
  const TraceView view = fresh.GetOrGenerate(spec, [&] {
    ++generations;
    return MakeTrace();
  });
  EXPECT_EQ(generations.load(), 1);  // corrupt file discarded, rebuilt
  ExpectViewMatchesTrace(view, MakeTrace());
  // The rebuilt file is valid again for the next process.
  EXPECT_EQ(MapTraceFile(path).ComputeFingerprint(), MakeTrace().Fingerprint());
}

TEST_F(TraceCacheTest, TruncatedFileIsRejectedAndRegenerated) {
  const TraceSpec spec = Spec("truncated");
  {
    TraceCache cache(dir_);
    cache.GetOrGenerate(spec, [] { return MakeTrace(); });
  }
  const std::string path = FileFor(spec);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 9);
  EXPECT_THROW(MapTraceFile(path), std::runtime_error);

  TraceCache fresh(dir_);
  const TraceView view = fresh.GetOrGenerate(spec, [] { return MakeTrace(); });
  EXPECT_EQ(fresh.misses(), 1u);
  ExpectViewMatchesTrace(view, MakeTrace());
}

TEST_F(TraceCacheTest, CorruptOpByteIsRejected) {
  const TraceSpec spec = Spec("corrupt-op");
  {
    TraceCache cache(dir_);
    cache.GetOrGenerate(spec, [] { return MakeTrace(); });
  }
  const Trace t = MakeTrace();
  const TraceFileLayout layout =
      TraceFileLayout::For(t.size(), t.annotated(), static_cast<uint32_t>(t.name().size()));
  const std::string path = FileFor(spec);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(layout.op_offset + 3));
    const char bad_op = 7;
    f.write(&bad_op, 1);
  }
  EXPECT_THROW(MapTraceFile(path), std::runtime_error);
  // Unverified mapping accepts the bytes (structure is intact) — that is the
  // knob's documented tradeoff.
  EXPECT_NO_THROW(MapTraceFile(path, /*verify=*/false));
}

TEST_F(TraceCacheTest, MapTraceFileRejectsLegacyV1) {
  // v1 is AoS with misaligned u64s at stride 24 — it must be read through
  // ReadBinaryTrace, never mmap'd.
  const std::string path = dir_ + "/legacy.s3ft";
  std::filesystem::create_directories(dir_);
  std::ofstream out(path, std::ios::binary);
  out.write("S3FT", 4);
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t n = 0;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.close();
  EXPECT_THROW(MapTraceFile(path), std::runtime_error);
  EXPECT_EQ(ReadBinaryTrace(path).size(), 0u);  // ...but stays readable
}

TEST_F(TraceCacheTest, ConcurrentFirstUseGeneratesOnceAndAgrees) {
  TraceCache cache(dir_);
  std::atomic<int> generations{0};
  std::vector<std::thread> threads;
  std::vector<TraceView> views(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      views[i] = cache.GetOrGenerate(Spec("race"), [&] {
        ++generations;
        return MakeTrace();
      });
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(generations.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
  const uint64_t expected = MakeTrace().Fingerprint();
  for (const TraceView& v : views) {
    EXPECT_EQ(v.ComputeFingerprint(), expected);
  }
  // Exactly one published file (no leftover temp files).
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files += entry.path().extension() == ".s3ft" ? 1 : 0;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(TraceCacheTest, MaterializeTraceRoundTrips) {
  const Trace original = MakeTrace(11, /*annotate=*/true);
  TraceCache cache(dir_);
  const TraceView view = cache.GetOrGenerate(Spec("mat"), [] { return MakeTrace(11, true); });
  const Trace copy = MaterializeTrace(view);
  ASSERT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.name(), original.name());
  EXPECT_TRUE(copy.annotated());
  EXPECT_EQ(copy.Fingerprint(), original.Fingerprint());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(copy[i].tenant, original[i].tenant);
    EXPECT_EQ(copy[i].next_access, original[i].next_access);
    EXPECT_EQ(copy[i].time, original[i].time);
  }
}

TEST_F(TraceCacheTest, BorrowedHeapViewMatchesTrace) {
  const Trace trace = MakeTrace(13, /*annotate=*/true);
  const TraceView view = TraceView::Borrow(trace);
  ASSERT_NE(view.AsRequests(), nullptr);
  ExpectViewMatchesTrace(view, trace);
  EXPECT_EQ(view.ComputeFingerprint(), trace.Fingerprint());
}

TEST_F(TraceCacheTest, CacheKeysAreStableSanitizedAndDistinct) {
  const TraceSpec a{"msr", "seed=1"};
  EXPECT_EQ(a.CacheKey(), (TraceSpec{"msr", "seed=1"}.CacheKey()));
  EXPECT_NE(a.CacheKey(), (TraceSpec{"msr", "seed=2"}.CacheKey()));
  EXPECT_NE(a.CacheKey(), (TraceSpec{"twitter", "seed=1"}.CacheKey()));
  TraceSpec versioned = a;
  versioned.generator_version = a.generator_version + 1;
  EXPECT_NE(a.CacheKey(), versioned.CacheKey());  // version bump invalidates

  const std::string weird = (TraceSpec{"a/b c!", "x"}).CacheKey();
  for (const char c : weird) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_') << weird;
  }
}

TEST_F(TraceCacheTest, SpecHelpersDistinguishEveryParameter) {
  const DatasetProfile& msr = DatasetByName("msr");
  const TraceSpec base = DatasetTraceSpec(msr, 0, 0.1);
  EXPECT_EQ(base.group, "msr");
  EXPECT_EQ(base.CacheKey(), DatasetTraceSpec(msr, 0, 0.1).CacheKey());
  EXPECT_NE(base.CacheKey(), DatasetTraceSpec(msr, 1, 0.1).CacheKey());
  EXPECT_NE(base.CacheKey(), DatasetTraceSpec(msr, 0, 0.2).CacheKey());
  EXPECT_NE(base.CacheKey(), DatasetTraceSpec(DatasetByName("twitter"), 0, 0.1).CacheKey());

  ZipfWorkloadConfig cfg;
  const TraceSpec z = ZipfTraceSpec(cfg);
  EXPECT_EQ(z.group, "zipf");
  ZipfWorkloadConfig cfg2 = cfg;
  cfg2.seed = cfg.seed + 1;
  EXPECT_NE(z.CacheKey(), ZipfTraceSpec(cfg2).CacheKey());
  ZipfWorkloadConfig cfg3 = cfg;
  cfg3.alpha += 1e-9;  // doubles serialize at full precision
  EXPECT_NE(z.CacheKey(), ZipfTraceSpec(cfg3).CacheKey());
}

TEST_F(TraceCacheTest, CachedDatasetTraceEqualsGeneratedOne) {
  const DatasetProfile& profile = DatasetByName("msr");
  const Trace generated = GenerateDatasetTrace(profile, 0, 0.05);
  TraceCache cache(dir_);
  const TraceView view = cache.GetOrGenerate(DatasetTraceSpec(profile, 0, 0.05),
                                             [&] { return GenerateDatasetTrace(profile, 0, 0.05); });
  ExpectViewMatchesTrace(view, generated);
}

}  // namespace
}  // namespace s3fifo
