#include "src/workload/zipf_workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>

#include "src/util/det_math.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace {

// Id-space layout: Zipf ranks map into [0, num_objects); new objects, scans
// and loops draw from disjoint high ranges so they never collide with the
// popularity-ranked universe.
constexpr uint64_t kNewObjectBase = 1ULL << 40;
constexpr uint64_t kScanBase = 1ULL << 41;
constexpr uint64_t kLoopBase = 1ULL << 42;

class SizeSampler {
 public:
  explicit SizeSampler(const ZipfWorkloadConfig& config) : config_(config) {
    if (config_.size_sigma > 0.0) {
      mu_ = DetLog(static_cast<double>(config_.size_mean_bytes)) -
            config_.size_sigma * config_.size_sigma / 2.0;
    }
  }

  // Sizes are a deterministic function of the id, so every request to an
  // object sees the same size (as in real traces). Box-Muller through
  // det_math (std::sqrt is IEEE-correctly-rounded, so it is already
  // portable) keeps the sampled bytes bit-identical across platforms.
  uint32_t SizeOf(uint64_t id) const {
    if (config_.size_sigma <= 0.0) {
      return config_.size_mean_bytes;
    }
    // Box-Muller on two id-derived uniforms.
    const double u1 =
        (static_cast<double>(Mix64(id ^ 0x6a09e667f3bcc909ULL) >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(Mix64(id ^ 0xbb67ae8584caa73bULL) >> 11) * 0x1.0p-53;
    const double z = std::sqrt(-2.0 * DetLog(u1)) * DetCos(6.283185307179586 * u2);
    const double size = DetExp(mu_ + config_.size_sigma * z);
    return static_cast<uint32_t>(
        std::clamp(size, static_cast<double>(config_.size_min_bytes),
                   static_cast<double>(config_.size_max_bytes)));
  }

 private:
  const ZipfWorkloadConfig& config_;
  double mu_ = 0.0;
};

// Sizes of the Zipf ranks, each computed on its rank's first draw: the hot
// ranks recur thousands of times, and SizeOf's Box-Muller costs more than
// the rest of a request. The table holds min(num_objects, num_requests)
// ranks, so at most 4 bytes per request of the trace; larger ranks, and ids
// outside the Zipf universe (kUnranked), are sized directly. A 0 entry means
// "not computed yet" (a genuine 0-byte size is simply recomputed). The
// table is empty when sizes are fixed, since SizeOf is then free.
class RankSizes {
 public:
  static constexpr uint64_t kUnranked = ~uint64_t{0};

  RankSizes(const ZipfWorkloadConfig& config, const SizeSampler& sampler)
      : sampler_(sampler),
        table_(config.size_sigma > 0.0 ? std::min(config.num_objects, config.num_requests) : 0) {}

  // Size of `id`, the object at 0-based Zipf rank `rank` (or kUnranked).
  uint32_t Of(uint64_t rank, uint64_t id) {
    if (rank >= table_.size()) {
      return sampler_.SizeOf(id);
    }
    uint32_t& size = table_[rank];
    if (size == 0) {
      size = sampler_.SizeOf(id);
    }
    return size;
  }

 private:
  const SizeSampler& sampler_;
  std::vector<uint32_t> table_;
};

// A burst re-emission of `id` (with its size), due at request index `due`.
// Pops in (due, id) order; a size is a function of its id, so two entries
// that tie on (due, id) are identical.
struct PendingBurst {
  uint64_t due;
  uint64_t id;
  uint32_t size;
  bool operator>(const PendingBurst& o) const { return due != o.due ? due > o.due : id > o.id; }
};

}  // namespace

Trace GenerateZipfTrace(const ZipfWorkloadConfig& config) {
  Rng rng(config.seed);
  ZipfDistribution zipf(config.num_objects, config.alpha);
  SizeSampler sizes(config);
  RankSizes rank_sizes(config, sizes);

  std::vector<Request> reqs;
  reqs.reserve(config.num_requests);

  uint64_t next_new_object = kNewObjectBase + (config.seed << 20);
  uint64_t next_scan_id = kScanBase + (config.seed << 20);
  uint64_t next_loop_region = kLoopBase + (config.seed << 20);

  // Pending burst re-emissions, soonest first.
  std::priority_queue<PendingBurst, std::vector<PendingBurst>, std::greater<PendingBurst>> bursts;

  // Residual state for in-progress scan / loop bursts.
  uint64_t scan_remaining = 0;
  uint64_t scan_cursor = 0;
  uint64_t loop_remaining = 0;
  uint64_t loop_cursor = 0;
  uint64_t loop_region_start = 0;
  const uint64_t loop_total =
      config.loop_length * std::max<uint32_t>(config.loop_repeats, 1);

  auto scrambled = [&](uint64_t raw) {
    if (!config.scramble_ids) {
      return raw;
    }
    // A fixed bijective-enough scramble: ids stay unique with overwhelming
    // probability given the sparse 64-bit space.
    return Mix64(raw ^ (config.seed * 0x9e3779b97f4a7c15ULL));
  };

  while (reqs.size() < config.num_requests) {
    Request r;
    r.time = reqs.size();

    if (!bursts.empty() && bursts.top().due <= reqs.size()) {
      r.id = bursts.top().id;
      r.size = bursts.top().size;
      bursts.pop();
      reqs.push_back(r);
      continue;
    }
    uint64_t rank = RankSizes::kUnranked;
    uint64_t burst_gap = 0;
    if (scan_remaining > 0) {
      r.id = scrambled(scan_cursor++);
      --scan_remaining;
    } else if (loop_remaining > 0) {
      r.id = scrambled(loop_region_start + (loop_cursor % config.loop_length));
      ++loop_cursor;
      --loop_remaining;
    } else {
      const double dice = rng.NextDouble();
      if (dice < config.scan_fraction && config.scan_length > 0) {
        scan_cursor = next_scan_id;
        next_scan_id += config.scan_length;
        scan_remaining = config.scan_length;
        r.id = scrambled(scan_cursor++);
        --scan_remaining;
      } else if (dice < config.scan_fraction + config.loop_fraction && config.loop_length > 0) {
        loop_region_start = next_loop_region;
        next_loop_region += config.loop_length;
        loop_cursor = 0;
        loop_remaining = loop_total;
        r.id = scrambled(loop_region_start);
        ++loop_cursor;
        --loop_remaining;
      } else if (dice <
                 config.scan_fraction + config.loop_fraction + config.new_object_fraction) {
        r.id = scrambled(next_new_object++);
      } else {
        // Zipf rank 1..n mapped into [0, n).
        rank = zipf.Sample(rng) - 1;
        r.id = scrambled(rank);
        const double op_dice = rng.NextDouble();
        if (op_dice < config.delete_fraction) {
          r.op = OpType::kDelete;
        } else if (op_dice < config.delete_fraction + config.write_fraction) {
          r.op = OpType::kSet;
        }
        if (r.op != OpType::kDelete && config.burst_fraction > 0.0 &&
            rng.NextBool(config.burst_fraction)) {
          burst_gap = 1 + rng.NextBounded(std::max<uint32_t>(config.burst_gap_max, 1));
        }
      }
    }
    r.size = rank_sizes.Of(rank, r.id);
    if (burst_gap > 0) {
      bursts.push({reqs.size() + burst_gap, r.id, r.size});
    }
    reqs.push_back(r);
  }

  return Trace(std::move(reqs));
}

std::string ZipfConfigSpecString(const ZipfWorkloadConfig& c) {
  // %.17g round-trips any double exactly; every generator-visible field is
  // serialized so equal strings imply byte-identical GenerateZipfTrace output.
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "objects=%llu;requests=%llu;alpha=%.17g;new=%.17g;"
      "scan=%.17g;scan_len=%llu;loop=%.17g;loop_len=%llu;loop_rep=%lu;"
      "burst=%.17g;burst_gap=%lu;write=%.17g;delete=%.17g;"
      "size_mean=%lu;size_sigma=%.17g;size_min=%lu;size_max=%lu;"
      "seed=%llu;scramble=%d",
      static_cast<unsigned long long>(c.num_objects),
      static_cast<unsigned long long>(c.num_requests), c.alpha, c.new_object_fraction,
      c.scan_fraction, static_cast<unsigned long long>(c.scan_length), c.loop_fraction,
      static_cast<unsigned long long>(c.loop_length), static_cast<unsigned long>(c.loop_repeats),
      c.burst_fraction, static_cast<unsigned long>(c.burst_gap_max), c.write_fraction,
      c.delete_fraction, static_cast<unsigned long>(c.size_mean_bytes), c.size_sigma,
      static_cast<unsigned long>(c.size_min_bytes), static_cast<unsigned long>(c.size_max_bytes),
      static_cast<unsigned long long>(c.seed), c.scramble_ids ? 1 : 0);
  return std::string(buf);
}

TraceSpec ZipfTraceSpec(const ZipfWorkloadConfig& config) {
  return TraceSpec{"zipf", ZipfConfigSpecString(config), kTraceGeneratorVersion};
}

}  // namespace s3fifo
