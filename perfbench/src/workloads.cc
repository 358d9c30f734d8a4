#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "kv.h"
#include "layers.h"
#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/flash/admission.h"
#include "src/sim/multi_sim.h"
#include "src/trace/trace_view.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;     // set-ups per run; setup_s is their median
constexpr uint32_t kWarmDepth = 32;
constexpr size_t kReplayRequests = 1000000;  // layer replays use this prefix
// Off-path layers are priced on this much of a workload's input: every
// traced run reports every per-layer metric, and these are the smallest
// runs that give the off-path ones a value.
constexpr size_t kOffPathRequests = 250000;
constexpr double kOffPathServeSeconds = 1.0;

// kv_mixed_depth1's offered load: about half the closed-loop depth-1
// capacity of this workload (4 connections x depth 1, one server worker:
// 116k ops/s on a 4-vCPU x86 VM), frozen so every run and every later
// commit offers the same schedule.
constexpr double kMixedRate = 58000.0;

struct ServedConfig {
  ServerSpec server;
  unsigned conns = 4;
  uint32_t depth = 32;  // closed loop
  double rate = 0.0;    // > 0: open loop at this many requests/s
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// What one measured window showed, over all of its replies.
struct WindowFigures {
  double throughput = 0;
  double p50_us = 0;
  double p99_us = 0;
  double miss_ratio = 0;
  uint64_t samples = 0;
  uint64_t completed = 0;
};

WindowFigures Summarize(Window& w) {
  WindowFigures f;
  f.samples = w.lat_ns.size();
  f.completed = w.completed;
  // An open loop completes whatever it offers, so its throughput is the
  // window's requests over the time their replies took.
  f.throughput = w.due_done > 0 ? static_cast<double>(w.due_done) / Seconds(w.last_done_ns - w.t0)
                                : static_cast<double>(w.completed) / Seconds(w.t1 - w.t0);
  f.p50_us = Quantile(w.lat_ns, 0.50) / 1000.0;
  f.p99_us = Quantile(w.lat_ns, 0.99) / 1000.0;
  f.miss_ratio = w.gets == 0 ? 0.0 : 1.0 - static_cast<double>(w.hits) / static_cast<double>(w.gets);
  return f;
}

// cmd totals, parse errors and hits as the server counted them must match
// what the client sent and saw.
void CrossCheck(const LoadClient& client, ControlConn& ctl, RunResult* res) {
  StatsMap s;
  if (!ctl.Stats(&s)) {
    res->Fail("stats query failed");
    return;
  }
  const uint64_t cmds =
      StatU64(s, "cmd_get") + StatU64(s, "cmd_set") + StatU64(s, "cmd_delete");
  if (cmds != client.sent()) {
    res->Fail("server counted " + std::to_string(cmds) + " commands, client sent " +
              std::to_string(client.sent()));
  }
  if (StatU64(s, "parse_errors") != 0) {
    res->Fail("server reported " + s["parse_errors"] + " parse errors");
  }
  if (StatU64(s, "get_hits") != client.hits()) {
    res->Fail("server counted " + s["get_hits"] + " get hits, client saw " +
              std::to_string(client.hits()));
  }
}

// Server-side deltas over an interval: /proc CPU ticks and `stats`.
struct ServerSample {
  ProcCpu cpu;
  StatsMap stats;
};

void SampleServer(const ServerProcess& server, ControlConn& ctl, ServerSample* s,
                  RunResult* res) {
  if (!ReadProcCpu(server.pid(), &s->cpu) || !ctl.Stats(&s->stats)) {
    res->Fail("could not sample the server's CPU time and stats");
  }
}

void EmitServerLayers(const ServerSample& a, const ServerSample& b, const Window& w,
                      RunResult* res) {
  auto delta = [&](const char* name) {
    return static_cast<double>(StatU64(b.stats, name) - StatU64(a.stats, name));
  };
  const double ops = std::max(1.0, delta("cmd_get") + delta("cmd_set") + delta("cmd_delete"));
  const double tick_us = 1e6 / TicksPerSecond();
  res->Set("server.user_us_per_op",
           static_cast<double>(b.cpu.utime_ticks - a.cpu.utime_ticks) * tick_us / ops, "us");
  res->Set("server.sys_us_per_op",
           static_cast<double>(b.cpu.stime_ticks - a.cpu.stime_ticks) * tick_us / ops, "us");
  res->Set("transport.syscalls_per_op", delta("transport_syscalls") / ops, "count");
  res->Set("transport.events_per_wait",
           delta("transport_events") / std::max(1.0, delta("transport_waits")), "count");
  res->Set("server.batch_width", delta("batched_gets") / std::max(1.0, delta("batches")), "count");
  res->Set("server.bytes_written_per_op", delta("bytes_written") / ops, "B");
  res->Set("client.cpu_us_per_op",
           static_cast<double>(w.client_cpu_ns) / 1000.0 / static_cast<double>(std::max<uint64_t>(w.completed, 1)),
           "us");
  std::vector<uint32_t> late = w.late_ns;
  res->Set("client.late_p99_us", Quantile(late, 0.99) / 1000.0, "us");
}

void RecordEnvServer(const ServerProcess& server, const ServedConfig& cfg, RunResult* res) {
  res->info["server_transport"] = server.transport();
  if (!server.note().empty()) {
    res->info["server_transport_note"] = server.note();
  }
  res->info["server_workers"] = std::to_string(cfg.server.workers);
  res->info["server_capacity"] = std::to_string(cfg.server.capacity);
  res->info["server_value_bytes"] = std::to_string(cfg.server.value_bytes);
  res->info["client_threads"] = "1";
  res->info["client_connections"] = std::to_string(cfg.conns);
  res->info["client_load"] = cfg.rate > 0 ? "open loop " + FormatDouble(cfg.rate) + " req/s"
                                          : "closed loop depth " + std::to_string(cfg.depth);
}

// The CPUs a serving run uses: the server on one and the client (the
// calling thread) on another, so neither migrates onto the other's CPU and
// the speed probe reads the CPU the server runs on.
struct CpuPlan {
  int server = -1;
  int client = -1;
};

CpuPlan PlanCpus() {
  const std::vector<int> cpus = AllowedCpus();
  CpuPlan p;
  if (!cpus.empty()) {
    p.server = cpus[1 % cpus.size()];
    p.client = cpus[cpus.size() >= 3 ? 2 : 0];
  }
  return p;
}

// Untraced windows of every set-up, pooled at nominal host speed.
struct Pooled {
  uint64_t ops = 0;
  double wall_s = 0;
  double server_cpu_s = 0;   // the server's CPU time in the windows
  double nominal_cpu_s = 0;  // each window's server CPU time x probe factor
  uint64_t gets = 0;
  uint64_t hits = 0;
  double peak_rss_mb = 0;
  std::vector<uint32_t> lat_ns;  // every reply, at nominal host speed
  std::string parts;             // per window: raw ops/s @ probe us

  void Add(const Window& w, double factor, double probe_us, double cpu_s, double rss_mb) {
    // An open loop completes whatever it offers, so its throughput is the
    // window's requests over the time their replies took.
    const bool open = w.due_done > 0;
    const uint64_t n = open ? w.due_done : w.completed;
    const double s = Seconds(open ? w.last_done_ns - w.t0 : w.t1 - w.t0);
    ops += n;
    wall_s += s;
    server_cpu_s += cpu_s;
    nominal_cpu_s += cpu_s * factor;
    gets += w.gets;
    hits += w.hits;
    peak_rss_mb = std::max(peak_rss_mb, rss_mb);
    for (const uint32_t v : w.lat_ns) {
      lat_ns.push_back(static_cast<uint32_t>(static_cast<double>(v) * factor));
    }
    parts += (parts.empty() ? "" : " ") + FormatDouble(static_cast<double>(n) / s).substr(0, 7) +
             "@" + FormatDouble(probe_us).substr(0, 5);
  }
};

// Serves `make_stream()` from a fresh s3fifo_server, kSetupReps times (once
// when only pricing layers): generate, start, warm until the cache is full.
// Untraced runs measure a window of seconds / kSetupReps on every set-up's
// server and pool the windows, so the figures cover five fresh servers and
// count everything each server did in its window. Traced runs measure
// only the last server: they split its window into an untraced half and a
// half sampled at its edges, then replay the stream through the protocol
// and concurrent layers. `emit_e2e` reports the end-to-end metrics.
KvStream RunServed(const Options& o, const std::function<KvStream()>& make_stream,
                   ServedConfig cfg, double seconds, bool emit_e2e, RunResult* res) {
  const CpuPlan cpus = PlanCpus();
  cfg.server.cpu = cpus.server;
  std::optional<ScopedPin> pin;
  pin.emplace(cpus.client);
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  uint64_t fingerprint = 0;
  KvStream stream;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<ControlConn> ctl;
  std::unique_ptr<LoadClient> client;
  std::map<std::string, uint64_t> errors;
  // Every server's life ends with its counters checked against the client.
  auto retire_client = [&] {
    CrossCheck(*client, *ctl, res);
    res->attempted += client->sent();
    res->failed += client->failed();
    for (const auto& [kind, count] : client->errors()) {
      errors[kind] += count;
    }
    if (client->failed() != 0) {
      res->Fail(std::to_string(client->failed()) + " responses failed verification");
    }
  };
  auto run = [&](Window* w) {
    if (cfg.rate > 0) {
      client->RunOpen(cfg.rate, w);
    } else {
      client->RunClosed(cfg.depth, w, nullptr, 0);
    }
  };
  const int setups = emit_e2e ? kSetupReps : 1;
  const bool pooled = emit_e2e && !o.traced;
  Pooled pool;
  for (int rep = 0; rep < setups; ++rep) {
    if (client != nullptr) {
      retire_client();
    }
    client.reset();
    ctl.reset();
    server.reset();
    const int64_t t0 = NowNs();
    stream = make_stream();
    gen_s.push_back(Seconds(NowNs() - t0));
    if (rep == 0) {
      fingerprint = stream.Fingerprint();
    } else if (stream.Fingerprint() != fingerprint) {
      res->Fail("request stream differs between set-ups of one seed");
    }
    std::string error;
    server = std::make_unique<ServerProcess>();
    ctl = std::make_unique<ControlConn>();
    client = std::make_unique<LoadClient>(stream, cfg.server.value_bytes, cfg.conns);
    if (!server->Start(o.server_binary, cfg.server, &error) || !ctl->Connect(server->port(), &error) ||
        !client->Connect(server->port(), &error)) {
      res->Fail("set-up: " + error);
      return stream;
    }
    // Untimed warm-up: replay the stream's prefix pipelined until the cache
    // holds (within 1%: deletes keep a few slots free) its capacity.
    const int64_t warm_deadline = NowNs() + 30LL * 1000000000;
    bool full = false;
    auto stop = [&] {
      StatsMap s;
      if (!ctl->Stats(&s)) {
        return true;
      }
      full = StatU64(s, "curr_items") * 100 >= cfg.server.capacity * 99;
      return full || NowNs() > warm_deadline;
    };
    client->RunClosed(kWarmDepth, nullptr, stop, 5 * 1000000);
    if (!full) {
      res->Fail("warm-up did not fill the cache");
      return stream;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    if (pooled) {
      SpeedProbe probe(cfg.server.cpu);
      ProcCpu cpu0;
      ProcCpu cpu1;
      const bool read0 = ReadProcCpu(server->pid(), &cpu0);
      Window w;
      w.Reset(NowNs(), static_cast<int64_t>(seconds * 1e9 / setups));
      run(&w);
      const double probe_us = probe.Take();
      if (!read0 || !ReadProcCpu(server->pid(), &cpu1)) {
        res->Fail("could not read the server's CPU time");
      }
      // utime + stime: the server's CPU time, which leaves out what the
      // hypervisor stole from its vCPU.
      const double cpu_s = static_cast<double>(cpu1.utime_ticks + cpu1.stime_ticks -
                                               cpu0.utime_ticks - cpu0.stime_ticks) /
                           TicksPerSecond();
      if (rep == 0) {
        pool.lat_ns.reserve(w.lat_ns.size() * setups * 5 / 4);
      }
      pool.Add(w, NominalFactor(probe_us, res), probe_us, cpu_s, ReadPeakRssMb(server->pid()));
    }
  }
  RecordEnvServer(*server, cfg, res);
  res->info["server_cpu"] = std::to_string(cpus.server);
  res->info["client_cpu"] = std::to_string(cpus.client);

  if (pooled) {
    retire_client();
    client.reset();
    ctl.reset();
    server.reset();
    for (const auto& [kind, count] : errors) {
      res->info["errors." + kind] = std::to_string(count);
    }
    res->info["latency_samples"] = std::to_string(pool.lat_ns.size());
    res->info["window_ops"] = std::to_string(pool.ops);
    res->info["windows"] = pool.parts;
    res->info["host_probe_us"] = FormatDouble(kProbeNominalUs * pool.server_cpu_s / pool.nominal_cpu_s);
    res->info["server_cpu_share"] = FormatDouble(pool.server_cpu_s / pool.wall_s);
    // Client-observed throughput and tail: printed, not gated. When the
    // hypervisor steals either vCPU the whole loop stalls, and neither
    // figure can tell that from a server stall; see README.md.
    res->info["raw.throughput_ops_s"] = FormatDouble(static_cast<double>(pool.ops) / pool.wall_s);
    res->info["latency_p99_norm_us"] = FormatDouble(Quantile(pool.lat_ns, 0.99) / 1000.0);
    res->Set("throughput_per_cpu_norm", static_cast<double>(pool.ops) / pool.nominal_cpu_s,
             "ops/cpu-s");
    res->Set("latency_p50_norm_us", Quantile(pool.lat_ns, 0.50) / 1000.0, "us");
    res->Set("miss_ratio",
             pool.gets == 0 ? 0.0 : 1.0 - static_cast<double>(pool.hits) / static_cast<double>(pool.gets),
             "ratio");
    res->Set("rss_mb", pool.peak_rss_mb, "MB");
    res->Set("setup_s", Median(setup_s), "s");
    return stream;
  }

  const uint64_t window_begin = client->StreamPosition() % stream.reqs.size();
  const int64_t len_ns = static_cast<int64_t>(seconds * 1e9);
  Window main_window;
  Window traced_window;
  ServerSample before;
  ServerSample after;
  if (emit_e2e) {
    // Two halves under identical load; only the second is sampled at its
    // edges, so their difference is the tracing overhead.
    main_window.Reset(NowNs(), len_ns / 2);
    run(&main_window);
    SampleServer(*server, *ctl, &before, res);
    traced_window.Reset(NowNs(), len_ns / 2);
    run(&traced_window);
    SampleServer(*server, *ctl, &after, res);
  } else {
    SampleServer(*server, *ctl, &before, res);
    main_window.Reset(NowNs(), len_ns);
    run(&main_window);
    SampleServer(*server, *ctl, &after, res);
  }
  const WindowFigures fig = Summarize(main_window);
  retire_client();
  for (const auto& [kind, count] : errors) {
    res->info["errors." + kind] = std::to_string(count);
  }
  const uint64_t batches = StatU64(after.stats, "batches") - StatU64(before.stats, "batches");
  const double width =
      batches == 0 ? 1.0
                   : static_cast<double>(StatU64(after.stats, "batched_gets") -
                                         StatU64(before.stats, "batched_gets")) /
                         static_cast<double>(batches);
  client.reset();
  ctl.reset();
  server.reset();

  res->info["latency_samples"] = std::to_string(fig.samples);
  res->info["window_completed"] = std::to_string(fig.completed);
  const WindowFigures traced_fig = emit_e2e ? Summarize(traced_window) : fig;
  EmitServerLayers(before, after, emit_e2e ? traced_window : main_window, res);
  if (emit_e2e) {
    res->Set("trace.gen_s", Median(gen_s), "s");
    // Median latency moves with load in both loop kinds (an open loop's
    // throughput is pinned to its rate).
    res->Set("tracing.overhead_pct", 100.0 * (traced_fig.p50_us - fig.p50_us) / fig.p50_us, "%");
    res->info["untraced_half.throughput_ops_s"] = FormatDouble(fig.throughput);
    res->info["untraced_half.latency_p50_us"] = FormatDouble(fig.p50_us);
    res->info["traced_half.throughput_ops_s"] = FormatDouble(traced_fig.throughput);
    res->info["traced_half.latency_p50_us"] = FormatDouble(traced_fig.p50_us);
    res->info["traced_half.latency_p99_us"] = FormatDouble(traced_fig.p99_us);
    res->info["traced_half.miss_ratio"] = FormatDouble(traced_fig.miss_ratio);
  }
  // Replay what the window sent: the stream from where the warm-up left
  // off, after the same warm-up prefix. The replays choose their own CPUs.
  pin.reset();
  const size_t replay = std::min<size_t>(kReplayRequests, std::max<uint64_t>(fig.completed, 1));
  MeasureProtocol(stream, window_begin, replay, res);
  MeasureConcurrent(stream, window_begin, replay, cfg.server.capacity, cfg.server.value_bytes,
                    static_cast<uint32_t>(width + 0.5), res);
  return stream;
}

ServedConfig GetPipelinedConfig() {
  ServedConfig c;
  c.server = {1, 32768, 64};
  c.conns = 4;
  c.depth = 32;
  return c;
}

ServedConfig MixedConfig() {
  ServedConfig c;
  c.server = {1, 65536, 512};
  c.conns = 4;
  c.rate = kMixedRate;
  return c;
}

KvStream GetPipelinedStream(uint64_t seed) {
  s3fifo::ZipfWorkloadConfig wc;
  wc.num_objects = 1 << 17;
  wc.num_requests = 2000000;
  wc.alpha = 1.0;
  wc.size_mean_bytes = 64;
  wc.scramble_ids = false;
  wc.seed = seed;
  return StreamFromTrace(s3fifo::GenerateZipfTrace(wc), 64);
}

KvStream MixedStream(uint64_t seed) {
  s3fifo::ZipfWorkloadConfig wc;
  wc.num_objects = 1 << 20;
  wc.num_requests = 1000000;
  wc.alpha = 0.8;
  wc.write_fraction = 0.15;
  wc.delete_fraction = 0.05;
  wc.size_mean_bytes = 512;
  wc.scramble_ids = false;
  wc.seed = seed;
  return StreamFromTrace(s3fifo::GenerateZipfTrace(wc), 512);
}

void RunKv(const Options& o, const ServedConfig& cfg, KvStream (*make)(uint64_t),
           RunResult* res) {
  const KvStream stream =
      RunServed(o, [&] { return make(o.seed); }, cfg, o.seconds, /*emit_e2e=*/true, res);
  if (o.traced && res->correct) {
    // The offline layers are off this workload's path; measure them on its
    // stream so every layer is priced on the same requests.
    MeasureSimLayers(TraceFromStream(stream, kOffPathRequests, cfg.server.value_bytes),
                     cfg.server.capacity, res);
  }
}

}  // namespace

void RunKvGetPipelined(const Options& o, RunResult* res) {
  RunKv(o, GetPipelinedConfig(), GetPipelinedStream, res);
}

void RunKvMixedDepth1(const Options& o, RunResult* res) {
  RunKv(o, MixedConfig(), MixedStream, res);
}

// ---------------------------------------------------------------------------
// offline_figures
// ---------------------------------------------------------------------------

namespace {

const char* const kOfflineTraces[] = {"twitter", "msr", "cdn1"};

std::vector<s3fifo::Trace> MakeOfflineTraces(uint64_t seed) {
  std::vector<s3fifo::Trace> traces;
  uint64_t salt = 0;
  for (const char* name : kOfflineTraces) {
    s3fifo::ZipfWorkloadConfig wc = s3fifo::DatasetByName(name).base;
    wc.seed = Mix(seed * 0x9e3779b97f4a7c15ULL + ++salt);
    traces.push_back(s3fifo::GenerateZipfTrace(wc));
    traces.back().set_name(name);
  }
  return traces;
}

std::vector<uint64_t> FigureSizes(const s3fifo::Trace& t) {
  std::vector<uint64_t> sizes;
  for (const double frac : {0.001, 0.01, 0.1}) {
    sizes.push_back(std::max<uint64_t>(2, static_cast<uint64_t>(frac * static_cast<double>(t.Stats().num_objects))));
  }
  return sizes;
}

// One pass of the figure job over every trace: MultiSimulate of the
// policy x size grid, the s3fifo one-pass MRC, and the flash cache.
struct Pass {
  std::vector<std::vector<s3fifo::SimResult>> multi;  // [trace][policy * 3 + size]
  std::vector<s3fifo::MrcCurve> mrc;
  std::vector<FlashRun> flash;
  std::vector<int64_t> multi_ns, mrc_ns, flash_ns;  // [trace]
  int64_t total_ns = 0;
};

// Times are this thread's CPU time: the job is single-threaded, and CPU
// time leaves out what the hypervisor stole from the vCPU and what the
// speed probe took from it.
Pass RunPass(const std::vector<s3fifo::Trace>& traces) {
  Pass p;
  const int64_t start = ThreadCpuNs();
  for (const s3fifo::Trace& t : traces) {
    std::vector<std::unique_ptr<s3fifo::Cache>> caches;
    for (const std::string& policy : FigurePolicies()) {
      for (const uint64_t size : FigureSizes(t)) {
        caches.push_back(s3fifo::CreateCache(policy, s3fifo::CacheConfig{size, true, "", 42}));
      }
    }
    const s3fifo::TraceView view = s3fifo::TraceView::Borrow(t);
    int64_t t0 = ThreadCpuNs();
    p.multi.push_back(s3fifo::MultiSimulate(view, caches));
    int64_t t1 = ThreadCpuNs();
    p.multi_ns.push_back(t1 - t0);
    p.mrc.push_back(s3fifo::OnePassMrc(view, "s3fifo", MrcGrid(t.Stats().num_objects)));
    t0 = ThreadCpuNs();
    p.mrc_ns.push_back(t0 - t1);
    p.flash.push_back(RunFlash(t));
    p.flash_ns.push_back(ThreadCpuNs() - t0);
  }
  p.total_ns = ThreadCpuNs() - start;
  return p;
}

bool SameResult(const s3fifo::SimResult& a, const s3fifo::SimResult& b) {
  return a.requests == b.requests && a.hits == b.hits && a.misses == b.misses &&
         a.bytes_requested == b.bytes_requested && a.bytes_missed == b.bytes_missed;
}

bool SamePass(const Pass& a, const Pass& b) {
  for (size_t t = 0; t < a.multi.size(); ++t) {
    for (size_t i = 0; i < a.multi[t].size(); ++i) {
      if (!SameResult(a.multi[t][i], b.multi[t][i])) {
        return false;
      }
    }
    for (size_t i = 0; i < a.mrc[t].results.size(); ++i) {
      if (!SameResult(a.mrc[t].results[i], b.mrc[t].results[i])) {
        return false;
      }
    }
    if (a.flash[t].device_bytes != b.flash[t].device_bytes ||
        a.flash[t].stats.misses != b.flash[t].stats.misses) {
      return false;
    }
  }
  return true;
}

// Checks the first pass against the reference paths and times the
// per-policy Simulate calls (the sim layer ledger).
void VerifyOffline(const std::vector<s3fifo::Trace>& traces, const Pass& p, RunResult* res,
                   std::vector<double>* sim_ns_per_req) {
  const auto& policies = FigurePolicies();
  sim_ns_per_req->assign(policies.size(), 0.0);
  uint64_t requests = 0;
  for (size_t ti = 0; ti < traces.size(); ++ti) {
    const s3fifo::Trace& t = traces[ti];
    const std::vector<uint64_t> sizes = FigureSizes(t);
    requests += t.size() * sizes.size();
    for (size_t pi = 0; pi < policies.size(); ++pi) {
      for (size_t si = 0; si < sizes.size(); ++si) {
        auto cache = s3fifo::CreateCache(policies[pi], s3fifo::CacheConfig{sizes[si], true, "", 42});
        const int64_t t0 = NowNs();
        const s3fifo::SimResult r = s3fifo::Simulate(t, *cache);
        (*sim_ns_per_req)[pi] += static_cast<double>(NowNs() - t0);
        if (!SameResult(r, p.multi[ti][pi * sizes.size() + si])) {
          res->Fail(std::string("MultiSimulate != Simulate for ") + policies[pi] + " on " + t.name());
        }
      }
    }
    const s3fifo::MrcCurve& curve = p.mrc[ti];
    for (const size_t gi : {size_t{0}, size_t{10}, size_t{21}, size_t{31}}) {
      auto cache = s3fifo::CreateCache("s3fifo", s3fifo::CacheConfig{curve.sizes[gi], true, "", 42});
      if (!SameResult(s3fifo::Simulate(t, *cache), curve.results[gi])) {
        res->Fail("OnePassMrc != Simulate at grid point " + std::to_string(gi) + " on " + t.name());
      }
    }
    const FlashRun& f = p.flash[ti];
    if (f.device_bytes != f.admitted_bytes + f.gc_rewrite_bytes) {
      res->Fail("flash log conservation broken on " + t.name());
    }
    const s3fifo::LogFlashCacheStats ref = s3fifo::SimulateLogFlashCache(
        t, FlashConfigFor(t), s3fifo::CreateAdmissionPolicy("s3fifo", t.size() / 10, 11));
    if (ref.misses != f.stats.misses || ref.requests != f.stats.requests) {
      res->Fail("SimulateLogFlashCache disagrees with the flash pass on " + t.name());
    }
  }
  for (double& ns : *sim_ns_per_req) {
    ns /= static_cast<double>(requests);
  }
}

}  // namespace

void RunOfflineFigures(const Options& o, RunResult* res) {
  res->info["server_transport"] = "none: no server on this workload's path";
  std::vector<double> setup_s;
  std::vector<s3fifo::Trace> traces;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    traces = MakeOfflineTraces(o.seed);
    setup_s.push_back(Seconds(NowNs() - t0));
    uint64_t fp = 0;
    for (const s3fifo::Trace& t : traces) {
      fp = Mix(fp ^ t.Fingerprint());
    }
    if (rep == 0) {
      fingerprint = fp;
    } else if (fp != fingerprint) {
      res->Fail("offline traces differ between set-ups of one seed");
    }
  }
  uint64_t trace_requests = 0;
  for (const s3fifo::Trace& t : traces) {
    trace_requests += t.size();
  }

  // An untimed first pass takes the allocator's first-touch page faults
  // (it ran 5-15% slower than later passes); then the window: whole passes
  // until the time is spent (at least two). The job runs on one CPU with
  // the speed probe beside it, and each pass is rescaled to nominal host
  // speed by the probe's mean over that pass.
  const int job_cpu = PlanCpus().server;
  std::vector<Pass> passes;
  std::vector<double> factors;
  std::string probe_list;
  Pass warm;
  {
    const ScopedPin pin(job_cpu);
    warm = RunPass(traces);
    SpeedProbe probe(job_cpu);
    const int64_t deadline = NowNs() + static_cast<int64_t>(o.seconds * 1e9);
    while (passes.size() < 2 || NowNs() < deadline) {
      probe.Take();
      passes.push_back(RunPass(traces));
      const double probe_us = probe.Take();
      factors.push_back(NominalFactor(probe_us, res));
      probe_list += (probe_list.empty() ? "" : " ") + FormatDouble(probe_us).substr(0, 5);
    }
  }
  res->info["job_cpu"] = std::to_string(job_cpu);
  res->info["job_pass_probe_us"] = probe_list;
  std::vector<double> job_s;
  for (const Pass& p : passes) {
    job_s.push_back(Seconds(p.total_ns));
    if (!SamePass(warm, p)) {
      res->Fail("figure job passes disagree");
    }
  }
  std::vector<double> sim_ns;
  VerifyOffline(traces, passes.front(), res, &sim_ns);
  res->attempted = passes.size() * trace_requests;
  res->failed = res->correct ? 0 : res->attempted;
  std::string pass_list;
  for (const double s : job_s) {
    pass_list += (pass_list.empty() ? "" : " ") + FormatDouble(s).substr(0, 6);
  }
  res->info["job_pass_s"] = pass_list;
  res->info["latency_samples"] = std::to_string(passes.size()) + " job passes";
  res->info["trace_requests"] = std::to_string(trace_requests);

  if (!o.traced) {
    // Each public call takes its median over the passes, at nominal host
    // speed, and the job is their sum.
    double job = 0;
    double raw_job = 0;
    for (size_t t = 0; t < traces.size(); ++t) {
      for (auto stage : {&Pass::multi_ns, &Pass::mrc_ns, &Pass::flash_ns}) {
        std::vector<double> ns;
        std::vector<double> raw_ns;
        for (size_t i = 0; i < passes.size(); ++i) {
          raw_ns.push_back(static_cast<double>((passes[i].*stage)[t]));
          ns.push_back(raw_ns.back() * factors[i]);
        }
        job += Median(ns) / 1e9;
        raw_job += Median(raw_ns) / 1e9;
      }
    }
    double slowest = 0;
    for (size_t i = 0; i < passes.size(); ++i) {
      slowest = std::max(slowest, job_s[i] * factors[i]);
    }
    double s3fifo_miss = 0;
    const auto& policies = FigurePolicies();
    // s3fifo at the largest figure size (10% of the footprint).
    const size_t s3fifo_index =
        static_cast<size_t>(std::find(policies.begin(), policies.end(), "s3fifo") - policies.begin()) * 3 + 2;
    for (const auto& m : passes.front().multi) {
      s3fifo_miss += m[s3fifo_index].MissRatio() / static_cast<double>(traces.size());
    }
    res->info["raw.job_s"] = FormatDouble(raw_job);
    res->info["job_norm_s"] = FormatDouble(job);
    res->info["host_probe_us"] = FormatDouble(kProbeNominalUs * raw_job / job);
    res->info["slowest_pass_norm_s"] = FormatDouble(slowest);
    res->Set("throughput_per_cpu_norm", static_cast<double>(trace_requests) / job, "ops/cpu-s");
    // The user of a figure job waits for whole passes: the job time above.
    res->Set("latency_p50_norm_us", job * 1e6, "us");
    res->Set("miss_ratio", s3fifo_miss, "ratio");
    res->Set("rss_mb", ReadPeakRssMb(0), "MB");
    res->Set("setup_s", Median(setup_s), "s");
    return;
  }

  // Per-layer ledger. The offline layers are on this workload's path...
  res->Set("trace.gen_s", Median(setup_s), "s");
  const auto& policies = FigurePolicies();
  for (size_t i = 0; i < policies.size(); ++i) {
    res->Set("sim.ns_per_req." + policies[i], sim_ns[i], "ns");
  }
  std::vector<double> mrc_ns;
  std::vector<double> flash_ns;
  for (const Pass& p : passes) {
    int64_t m = 0;
    int64_t f = 0;
    for (size_t t = 0; t < traces.size(); ++t) {
      m += p.mrc_ns[t];
      f += p.flash_ns[t];
    }
    mrc_ns.push_back(static_cast<double>(m) / static_cast<double>(trace_requests));
    flash_ns.push_back(static_cast<double>(f) / static_cast<double>(trace_requests));
  }
  res->Set("analysis.mrc_ns_per_req", Median(mrc_ns), "ns");
  res->Set("flash.ns_per_req", Median(flash_ns), "ns");
  uint64_t device = 0;
  uint64_t admitted = 0;
  for (const FlashRun& f : passes.front().flash) {
    device += f.device_bytes;
    admitted += f.admitted_bytes;
  }
  res->Set("flash.write_amplification", static_cast<double>(device) / static_cast<double>(std::max<uint64_t>(admitted, 1)), "ratio");
  res->Set("flash.device_mb", static_cast<double>(device) / 1048576.0, "MB");
  // Tracing adds nothing inside this window: compare the two halves.
  std::vector<double> first(job_s.begin(), job_s.begin() + static_cast<ptrdiff_t>(job_s.size() / 2));
  std::vector<double> second(job_s.begin() + static_cast<ptrdiff_t>(job_s.size() / 2), job_s.end());
  res->Set("tracing.overhead_pct", 100.0 * (Median(second) - Median(first)) / Median(first), "%");

  // ...the serving layers are not: price them off-path on the kv trace
  // (twitter), one server serving it closed-loop for a short window.
  const s3fifo::Trace& twitter = traces.front();
  ServedConfig cfg;
  cfg.server = {1, std::max<uint64_t>(FigureSizes(twitter)[2], 64),
                static_cast<uint32_t>(std::max<uint64_t>(
                    twitter.Stats().total_bytes_requested / std::max<size_t>(twitter.size(), 1), 16))};
  cfg.conns = 4;
  cfg.depth = 32;
  RunResult served_res;
  RunServed(o, [&] { return StreamFromTrace(twitter, 0); }, cfg, kOffPathServeSeconds,
            /*emit_e2e=*/false, &served_res);
  for (auto& m : served_res.metrics) {
    res->metrics.push_back(m);
  }
  for (const std::string& p : served_res.problems) {
    res->Fail("served twitter phase: " + p);
  }
  res->attempted += served_res.attempted;
  res->failed += served_res.failed;
  for (const auto& [k, v] : served_res.info) {
    res->info["served_twitter." + k] = v;
  }
}

}  // namespace perfbench
