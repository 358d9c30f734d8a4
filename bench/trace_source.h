// BenchTraceSource: the one place bench binaries get their traces from.
//
// Without --trace-cache-dir it simply calls the generators. With a cache dir
// every generated trace is persisted in the v2 columnar format on first use
// and mmap'd (zero-copy) on every later use — across runs and processes — so
// warm figure regeneration skips the generation cost entirely.
//
// WriteReport() emits BENCH_trace_cache.json: per trace group, the cold
// (generate + persist) and warm (mmap) cost of resolving one of its traces,
// over interleaved reps with median, min and quartiles.
#ifndef BENCH_TRACE_SOURCE_H_
#define BENCH_TRACE_SOURCE_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/trace/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {

// The generator config behind a zipf or dataset TraceSpec detail: the
// inverse of ZipfConfigSpecString (a dataset detail appends ";name=...",
// which is skipped). The trace-cache report regenerates traces from it and
// checks each against its cache file's fingerprint.
inline ZipfWorkloadConfig ZipfConfigFromSpecDetail(const std::string& detail) {
  std::map<std::string, std::string> fields;
  for (size_t at = 0; at < detail.size();) {
    const size_t end = std::min(detail.find(';', at), detail.size());
    const std::string item = detail.substr(at, end - at);
    const size_t eq = item.find('=');
    if (eq != std::string::npos) {
      fields[item.substr(0, eq)] = item.substr(eq + 1);
    }
    at = end + 1;
  }
  const auto u64 = [&](const char* key) { return std::strtoull(fields[key].c_str(), nullptr, 10); };
  const auto real = [&](const char* key) { return std::strtod(fields[key].c_str(), nullptr); };
  ZipfWorkloadConfig c;
  c.num_objects = u64("objects");
  c.num_requests = u64("requests");
  c.alpha = real("alpha");
  c.new_object_fraction = real("new");
  c.scan_fraction = real("scan");
  c.scan_length = u64("scan_len");
  c.loop_fraction = real("loop");
  c.loop_length = u64("loop_len");
  c.loop_repeats = static_cast<uint32_t>(u64("loop_rep"));
  c.burst_fraction = real("burst");
  c.burst_gap_max = static_cast<uint32_t>(u64("burst_gap"));
  c.write_fraction = real("write");
  c.delete_fraction = real("delete");
  c.size_mean_bytes = static_cast<uint32_t>(u64("size_mean"));
  c.size_sigma = real("size_sigma");
  c.size_min_bytes = static_cast<uint32_t>(u64("size_min"));
  c.size_max_bytes = static_cast<uint32_t>(u64("size_max"));
  c.seed = u64("seed");
  c.scramble_ids = u64("scramble") != 0;
  return c;
}

class BenchTraceSource {
 public:
  explicit BenchTraceSource(const BenchOptions& opts)
      : timing_reps_(opts.trace_cache_timing ? 5 : 0) {
    if (!opts.trace_cache_dir.empty()) {
      cache_.emplace(opts.trace_cache_dir);
      std::fprintf(stderr, "  [trace-cache] dir: %s\n", cache_->dir().c_str());
    }
  }

  // nullptr when caching is disabled — pass straight to the sweep drivers.
  TraceCache* cache() { return cache_.has_value() ? &*cache_ : nullptr; }

  // A dataset trace instance as a view (mmap-backed when cached).
  TraceView Dataset(const DatasetProfile& profile, uint32_t trace_index, double scale) {
    if (!cache_.has_value()) {
      auto trace = std::make_shared<Trace>(GenerateDatasetTrace(profile, trace_index, scale));
      trace->Stats();
      return TraceView::FromTrace(std::move(trace));
    }
    return cache_->GetOrGenerate(
        DatasetTraceSpec(profile, trace_index, scale),
        [&] { return GenerateDatasetTrace(profile, trace_index, scale); });
  }

  // Heap Trace variants for benches that need AoS requests or mutate the
  // trace (e.g. AnnotateNextAccess). Warm runs still skip generation: the
  // cached bytes are materialized, which is far cheaper than generating.
  Trace DatasetTrace(const DatasetProfile& profile, uint32_t trace_index, double scale) {
    if (!cache_.has_value()) {
      return GenerateDatasetTrace(profile, trace_index, scale);
    }
    return MaterializeTrace(Dataset(profile, trace_index, scale));
  }

  Trace ZipfTrace(const ZipfWorkloadConfig& config) {
    if (!cache_.has_value()) {
      return GenerateZipfTrace(config);
    }
    return MaterializeTrace(
        cache_->GetOrGenerate(ZipfTraceSpec(config), [&] { return GenerateZipfTrace(config); }));
  }

  // Emits BENCH_trace_cache.json (no-op when caching is disabled): one row
  // per trace group this run resolved, with the run's hit/miss counts. With
  // --trace-cache-timing each row also gives the cost of one of the group's
  // traces cold (generate, write the v2 file, map it with verification: a
  // cache miss) and warm (map the cache file with verification: a hit).
  // Each time column is 5 reps, cold and warm interleaved and the groups
  // taken round-robin, so host-speed drift lands on both columns alike.
  // `cold_over_warm` is the ratio of the medians, given only where the two
  // columns' quartile ranges are apart.
  void WriteReport() const {
    if (!cache_.has_value() || cache_->events().empty()) {
      return;
    }
    struct Group {
      std::set<std::string> paths;
      uint64_t requests = 0, cold_runs = 0, warm_runs = 0;
      std::optional<TraceCacheEvent> sample;  // the group's timed trace
      std::vector<double> cold_ms, warm_ms;
    };
    std::map<std::string, Group> groups;
    for (const TraceCacheEvent& e : cache_->events()) {
      Group& g = groups[e.spec.group];
      if (!g.sample.has_value()) {
        g.sample = e;
      }
      if (g.paths.insert(e.path).second) {
        g.requests += e.requests;
      }
      ++(e.warm ? g.warm_runs : g.cold_runs);
    }
    for (int rep = 0; rep < timing_reps_; ++rep) {
      for (auto& [name, g] : groups) {
        const TraceCacheEvent& e = *g.sample;
        WallTimer warm;
        const uint64_t fingerprint = MapTraceFile(e.path, /*verify=*/true).file_fingerprint();
        g.warm_ms.push_back(warm.ElapsedMs());
        const std::string scratch = e.path + ".report";
        WallTimer cold;
        Trace trace = GenerateZipfTrace(ZipfConfigFromSpecDetail(e.spec.detail));
        trace.Stats();
        WriteBinaryTrace(trace, scratch);
        const uint64_t regenerated = MapTraceFile(scratch, /*verify=*/true).file_fingerprint();
        g.cold_ms.push_back(cold.ElapsedMs());
        std::remove(scratch.c_str());
        if (regenerated != fingerprint) {
          std::fprintf(stderr, "[trace-cache] report: %s does not regenerate its cache file\n",
                       name.c_str());
          std::exit(1);
        }
      }
    }
    double cold_total = 0, warm_total = 0;
    std::vector<JsonFields> rows;
    for (const auto& [name, g] : groups) {
      const RepSpread cold = RepSpread::Of(g.cold_ms);
      const RepSpread warm = RepSpread::Of(g.warm_ms);
      cold_total += cold.median;
      warm_total += warm.median;
      JsonFields row;
      row.Add("group", name)
          .Add("traces", static_cast<uint64_t>(g.paths.size()))
          .Add("requests", g.requests)
          .Add("cold_runs", g.cold_runs)
          .Add("warm_runs", g.warm_runs);
      if (timing_reps_ > 0) {
        row.Add("sample_requests", g.sample->requests)
            .Add("cold_ms_median", cold.median)
            .Add("cold_ms_min", cold.min)
            .Add("cold_ms_q1", cold.q1)
            .Add("cold_ms_q3", cold.q3)
            .Add("warm_ms_median", warm.median)
            .Add("warm_ms_min", warm.min)
            .Add("warm_ms_q1", warm.q1)
            .Add("warm_ms_q3", warm.q3);
        if (cold.q1 > warm.q3 && warm.median > 0) {
          row.Add("cold_over_warm", cold.median / warm.median);
        }
      }
      rows.push_back(std::move(row));
    }
    JsonFields summary;
    summary.Add("env", BenchEnvironment())
        .Add("hits", cache_->hits())
        .Add("misses", cache_->misses())
        .Add("timing_reps", timing_reps_);
    if (timing_reps_ > 0) {
      summary.Add("sample_cold_ms_median_total", cold_total)
          .Add("sample_warm_ms_median_total", warm_total);
    }
    WriteBenchJson("trace_cache", summary, rows);
  }

 private:
  int timing_reps_;
  std::optional<TraceCache> cache_;
};

}  // namespace s3fifo

#endif  // BENCH_TRACE_SOURCE_H_
