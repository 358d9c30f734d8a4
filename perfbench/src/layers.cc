#include "layers.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "src/analysis/mrc_engine.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/cache_factory.h"
#include "src/flash/admission.h"
#include "src/server/protocol.h"
#include "src/trace/trace_view.h"

namespace perfbench {

const std::vector<std::string>& FigurePolicies() {
  static const std::vector<std::string> kPolicies = {"fifo",    "lru",    "clock",   "sieve",
                                                     "arc",     "tinylfu", "s3fifo", "s3fifo-d"};
  return kPolicies;
}

namespace {

// Cost of one NowNs() pair, subtracted from individually timed calls.
int64_t ClockPairNs() {
  const int kReps = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kReps; ++i) {
    NowNs();
    NowNs();
  }
  return (NowNs() - t0) / kReps;
}

// Copies hit values out like the server's per-connection arena.
class CopySink : public s3fifo::ValueSink {
 public:
  void OnValue(uint32_t, const char* data, uint32_t size) override {
    arena.insert(arena.end(), data, data + size);
  }
  std::vector<char> arena;
};

struct ReplayCost {
  int64_t get_ns = 0;
  uint64_t gets = 0;
  uint64_t misses = 0;
  int64_t set_ns = 0;
  uint64_t sets = 0;
  int64_t delete_ns = 0;
  uint64_t deletes = 0;
};

ReplayCost Replay(s3fifo::ConcurrentCache& cache, const KvStream& stream,
                  const std::vector<uint32_t>& order, uint32_t width, int64_t clock_pair) {
  ReplayCost cost;
  std::vector<uint64_t> ids;
  std::vector<uint8_t> hits(width);
  std::vector<char> body(1 << 16, 'x');
  CopySink sink;
  auto flush = [&] {
    if (ids.empty()) {
      return;
    }
    sink.arena.clear();
    cache.GetBatch(ids.data(), static_cast<uint32_t>(ids.size()), hits.data(), &sink);
    for (size_t i = 0; i < ids.size(); ++i) {
      cost.misses += hits[i] == 0 ? 1 : 0;
    }
    cost.gets += ids.size();
    ids.clear();
  };
  int64_t writes_raw = 0;
  const int64_t start = NowNs();
  for (const uint32_t i : order) {
    const KvRequest& r = stream.reqs[i];
    if (r.op == KvOp::kGet) {
      ids.push_back(r.key);
      if (ids.size() == width) {
        flush();
      }
      continue;
    }
    flush();
    const int64_t t = NowNs();
    if (r.op == KvOp::kSet) {
      cache.Set(r.key, body.data(), std::min<uint32_t>(r.set_len, 1 << 16));
    } else {
      cache.Delete(r.key);
    }
    const int64_t dt = NowNs() - t;
    writes_raw += dt;
    if (r.op == KvOp::kSet) {
      cost.set_ns += dt - clock_pair;
      ++cost.sets;
    } else {
      cost.delete_ns += dt - clock_pair;
      ++cost.deletes;
    }
  }
  flush();
  cost.get_ns = NowNs() - start - writes_raw;
  return cost;
}

// Set then delete every key of `order` once, timed per call: the write
// path cost on streams that carry no writes of their own.
void WritePass(s3fifo::ConcurrentCache& cache, const KvStream& stream,
               const std::vector<uint32_t>& order, uint32_t len, int64_t clock_pair,
               ReplayCost* cost) {
  std::vector<char> body(len, 'y');
  for (const bool del : {false, true}) {
    for (const uint32_t i : order) {
      const uint32_t key = stream.reqs[i].key;
      const int64_t t = NowNs();
      if (del) {
        cache.Delete(key);
      } else {
        cache.Set(key, body.data(), len);
      }
      const int64_t dt = NowNs() - t - clock_pair;
      if (del) {
        cost->delete_ns += dt;
        ++cost->deletes;
      } else {
        cost->set_ns += dt;
        ++cost->sets;
      }
    }
  }
}

double PerCall(int64_t ns, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

}  // namespace

namespace {

// Stream indices [begin, begin + n), wrapping around the stream.
std::vector<uint32_t> Slice(const KvStream& stream, size_t begin, size_t n) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = static_cast<uint32_t>((begin + i) % stream.reqs.size());
  }
  return order;
}

}  // namespace

void MeasureProtocol(const KvStream& stream, size_t begin, size_t n, RunResult* res) {
  const std::vector<uint32_t> order = Slice(stream, begin, n);
  std::vector<char> bytes;
  for (size_t i = 0; i < n; ++i) {
    RenderRequest(stream.reqs[order[i]], static_cast<uint32_t>(i), &bytes);
  }
  std::vector<uint64_t> ids;
  std::vector<s3fifo::CmdType> types;
  ids.reserve(n);
  types.reserve(n);
  s3fifo::ParseOutput out;
  std::string_view rest(bytes.data(), bytes.size());
  const int64_t t0 = NowNs();
  while (!rest.empty()) {
    if (out.ops.size() >= 64) {
      out.Clear();
    }
    const size_t at = out.ops.size();
    const s3fifo::ParseResult r = s3fifo::ParseCommand(rest, out);
    if (r.status != s3fifo::ParseStatus::kOk) {
      break;
    }
    rest.remove_prefix(r.consumed);
    const s3fifo::ParsedOp& op = out.ops[at];
    types.push_back(op.type);
    ids.push_back(s3fifo::KeyToId(out.keys[op.key_begin]));
  }
  const int64_t elapsed = NowNs() - t0;
  bool same = ids.size() == n && rest.empty();
  for (size_t i = 0; same && i < n; ++i) {
    const KvRequest& r = stream.reqs[order[i]];
    const s3fifo::CmdType want = r.op == KvOp::kGet   ? s3fifo::CmdType::kGet
                                 : r.op == KvOp::kSet ? s3fifo::CmdType::kSet
                                                      : s3fifo::CmdType::kDelete;
    same = ids[i] == r.key && types[i] == want;
  }
  if (!same) {
    res->Fail("protocol replay: ParseCommand/KeyToId disagree with the rendered requests");
  }
  res->Set("protocol.parse_ns_per_cmd", PerCall(elapsed, n), "ns");
}

void MeasureConcurrent(const KvStream& stream, size_t begin, size_t n, uint64_t capacity,
                       uint32_t value_bytes, uint32_t width, RunResult* res) {
  width = std::max<uint32_t>(width, 1);
  const int64_t clock_pair = ClockPairNs();
  s3fifo::ConcurrentCacheConfig config;
  config.capacity_objects = capacity;
  config.value_size = value_bytes;

  const std::vector<uint32_t> warm = Slice(stream, 0, begin);
  const std::vector<uint32_t> all = Slice(stream, begin, n);
  std::vector<uint32_t> halves[2];
  for (const uint32_t i : all) {
    halves[Mix(stream.reqs[i].key) & 1].push_back(i);
  }

  // One thread: the warm-up prefix, then the timed requests.
  ReplayCost one;
  {
    s3fifo::ConcurrentS3Fifo cache(config);
    Replay(cache, stream, warm, width, clock_pair);
    one = Replay(cache, stream, all, width, clock_pair);
    if (one.sets + one.deletes < 1000) {
      // Stream without writes: time a set and a delete of its first keys.
      const std::vector<uint32_t> head(all.begin(), all.begin() + std::min<size_t>(n, 100000));
      WritePass(cache, stream, head, value_bytes, clock_pair, &one);
    }
  }
  // Two threads, each replaying the requests of its own keys concurrently.
  double two_ns = 0.0;
  {
    s3fifo::ConcurrentS3Fifo cache(config);
    Replay(cache, stream, warm, width, clock_pair);
    ReplayCost cost[2];
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        cost[t] = Replay(cache, stream, halves[t], width, clock_pair);
      });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    two_ns = (PerCall(cost[0].get_ns, cost[0].gets) + PerCall(cost[1].get_ns, cost[1].gets)) / 2;
  }
  res->Set("concurrent.getbatch_ns_per_key.t1", PerCall(one.get_ns, one.gets), "ns");
  res->Set("concurrent.getbatch_ns_per_key.t2", two_ns, "ns");
  res->Set("concurrent.set_ns", PerCall(one.set_ns, one.sets), "ns");
  res->Set("concurrent.delete_ns", PerCall(one.delete_ns, one.deletes), "ns");
  res->Set("concurrent.miss_ratio",
           one.gets == 0 ? 0.0 : static_cast<double>(one.misses) / static_cast<double>(one.gets),
           "ratio");
  res->info["concurrent.batch_width_replayed"] = std::to_string(width);
}

s3fifo::Trace TraceFromStream(const KvStream& stream, size_t n, uint32_t value_bytes) {
  n = std::min(n, stream.reqs.size());
  std::vector<s3fifo::Request> reqs(n);
  for (size_t i = 0; i < n; ++i) {
    const KvRequest& k = stream.reqs[i];
    reqs[i].id = k.key;
    reqs[i].op = k.op == KvOp::kGet   ? s3fifo::OpType::kGet
                 : k.op == KvOp::kSet ? s3fifo::OpType::kSet
                                      : s3fifo::OpType::kDelete;
    reqs[i].size = k.op == KvOp::kSet ? k.set_len : value_bytes;
    reqs[i].time = i;
  }
  return s3fifo::Trace(std::move(reqs), "stream");
}

std::vector<uint64_t> MrcGrid(uint64_t objects) {
  std::vector<uint64_t> grid;
  const int kPoints = 32;
  for (int i = 0; i < kPoints; ++i) {
    const double frac = 0.001 * std::pow(500.0, static_cast<double>(i) / (kPoints - 1));
    grid.push_back(std::max<uint64_t>(1, static_cast<uint64_t>(frac * static_cast<double>(objects))));
  }
  return grid;
}

s3fifo::LogFlashCacheConfig FlashConfigFor(const s3fifo::Trace& trace) {
  const uint64_t flash = std::max<uint64_t>(trace.Stats().footprint_bytes / 10, 1 << 20);
  s3fifo::LogFlashCacheConfig config;
  config.dram_capacity_bytes = std::max<uint64_t>(flash / 100, 64 << 10);
  config.dram_discipline = s3fifo::DramDiscipline::kSmallFifo;
  config.log.segment_bytes = std::max<uint64_t>(flash / 64, 64 << 10);
  config.log.num_segments = std::max<uint64_t>(flash / config.log.segment_bytes, 4);
  config.log.ordering = s3fifo::LogOrdering::kFifo;
  config.log.gc_readmit = true;
  return config;
}

FlashRun RunFlash(const s3fifo::Trace& trace) {
  s3fifo::LogStructuredFlashCache cache(
      FlashConfigFor(trace), s3fifo::CreateAdmissionPolicy("s3fifo", trace.size() / 10, 11));
  for (const s3fifo::Request& r : trace.requests()) {
    cache.Get(r);
  }
  FlashRun run;
  run.stats = cache.stats();
  run.admitted_bytes = cache.log_stats().admitted_bytes;
  run.gc_rewrite_bytes = cache.log_stats().gc_rewrite_bytes;
  run.device_bytes = cache.log_stats().device_bytes_written;
  return run;
}

void MeasureSimLayers(const s3fifo::Trace& trace, uint64_t capacity, RunResult* res) {
  const double n = static_cast<double>(trace.size());
  for (const std::string& policy : FigurePolicies()) {
    auto cache = s3fifo::CreateCache(policy, s3fifo::CacheConfig{capacity, true, "", 42});
    const int64_t t0 = NowNs();
    s3fifo::Simulate(trace, *cache);
    res->Set("sim.ns_per_req." + policy, static_cast<double>(NowNs() - t0) / n, "ns");
  }
  const s3fifo::TraceView view = s3fifo::TraceView::Borrow(trace);
  int64_t t0 = NowNs();
  s3fifo::OnePassMrc(view, "s3fifo", MrcGrid(trace.Stats().num_objects));
  res->Set("analysis.mrc_ns_per_req", static_cast<double>(NowNs() - t0) / n, "ns");
  t0 = NowNs();
  const FlashRun flash = RunFlash(trace);
  res->Set("flash.ns_per_req", static_cast<double>(NowNs() - t0) / n, "ns");
  res->Set("flash.write_amplification",
           static_cast<double>(flash.device_bytes) / static_cast<double>(std::max<uint64_t>(flash.admitted_bytes, 1)),
           "ratio");
  res->Set("flash.device_mb", static_cast<double>(flash.device_bytes) / 1048576.0, "MB");
  if (flash.device_bytes != flash.admitted_bytes + flash.gc_rewrite_bytes) {
    res->Fail("flash conservation broken on the stream trace");
  }
}

}  // namespace perfbench
