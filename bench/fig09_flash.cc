// Fig. 9: flash cache admission — write bytes (normalised to the trace's
// unique bytes) and miss ratio for: no admission (FIFO), probabilistic 20%,
// Flashield-like learned admission, and the S3-FIFO small-queue filter, on
// Wikimedia-CDN-like and Tencent-Photo-like traces, at DRAM sizes of 0.1%,
// 1%, and 10% of the flash cache.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/trace_source.h"
#include "src/flash/log_flash_cache.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

void Run(const BenchOptions& opts) {
  PrintHeader("Fig. 9: flash write bytes and miss ratio by admission policy",
              "Fig. 9 (left: wiki-like, right: tencent-photo-like)");
  const double scale = BenchScale();
  BenchTraceSource source(opts);

  for (const char* dataset : {"wiki", "tencent_photo"}) {
    // Use the dataset's access pattern with the paper's ~4KB reference
    // object size: production flash caches are orders of magnitude larger
    // than our scaled traces, so keeping the original large CDN objects
    // would leave the "0.1% DRAM" tier smaller than a single object.
    ZipfWorkloadConfig wc = DatasetByName(dataset).base;
    wc.num_objects = static_cast<uint64_t>(wc.num_objects * scale * 4);
    wc.num_requests = static_cast<uint64_t>(wc.num_requests * scale * 4);
    wc.size_mean_bytes = 4096;
    wc.size_sigma = 0.6;
    wc.seed = 11;
    Trace t = source.ZipfTrace(wc);
    const uint64_t footprint_bytes = t.Stats().footprint_bytes;
    const uint64_t flash_bytes = footprint_bytes / 10;  // 10% of footprint (paper)
    std::printf("\n--- %s-like trace: %lu requests, footprint %.1f MB, flash %.1f MB ---\n",
                dataset, (unsigned long)t.size(), footprint_bytes / 1048576.0,
                flash_bytes / 1048576.0);
    // Per scheme, two flash models: the abstract byte FIFO (write-bytes,
    // miss-ratio — the original fig09 columns) and the segment log with GC,
    // which adds the WA axis: device bytes actually absorbed by the flash
    // and device/admitted write amplification.
    std::printf("%-22s %9s %12s %10s | %12s %7s %10s\n", "scheme", "dram", "write-bytes",
                "miss-ratio", "device-bytes", "WA", "log-missr");

    const uint64_t segment_bytes = 256 * 1024;
    for (const double dram_frac : {0.001, 0.01, 0.10}) {
      const uint64_t dram_bytes =
          std::max<uint64_t>(static_cast<uint64_t>(flash_bytes * dram_frac), 16 << 10);
      for (const char* scheme : {"none", "probabilistic", "flashield", "s3fifo"}) {
        const DramDiscipline discipline = std::string(scheme) == "s3fifo"
                                              ? DramDiscipline::kSmallFifo
                                              : DramDiscipline::kLru;
        LogFlashCacheConfig config;
        config.dram_capacity_bytes = dram_bytes;
        config.dram_discipline = discipline;
        config.log.segment_bytes = flash_bytes;
        config.log.num_segments = 1;
        config.log.ordering = LogOrdering::kByteFifo;
        LogStructuredFlashCache cache(
            config, CreateAdmissionPolicy(scheme, /*reuse_horizon=*/t.size() / 10, /*seed=*/11));
        for (const Request& r : t.requests()) {
          cache.Get(r);
        }

        LogFlashCacheConfig log_config = config;
        log_config.log = SegmentLogConfig();
        log_config.log.segment_bytes = segment_bytes;
        log_config.log.num_segments = std::max<uint64_t>(flash_bytes / segment_bytes, 1);
        LogStructuredFlashCache log_cache(
            log_config, CreateAdmissionPolicy(scheme, /*reuse_horizon=*/t.size() / 10,
                                              /*seed=*/11));
        for (const Request& r : t.requests()) {
          log_cache.Get(r);
        }
        std::printf("%-22s %8.1f%% %12.3f %10.4f | %12.3f %7.3f %10.4f\n", scheme,
                    dram_frac * 100,
                    static_cast<double>(cache.AdmittedBytes()) /
                        static_cast<double>(footprint_bytes),
                    cache.stats().MissRatio(),
                    static_cast<double>(log_cache.DeviceBytesWritten()) /
                        static_cast<double>(footprint_bytes),
                    log_cache.WriteAmplification(), log_cache.stats().MissRatio());
      }
      std::printf("\n");
    }
  }
  std::printf("paper shape (Fig. 9): 'none' writes the most bytes with the lowest miss\n"
              "ratio; probabilistic cuts writes but raises the miss ratio regardless of\n"
              "DRAM size; flashield approaches s3fifo only at 10%% DRAM and degrades as\n"
              "DRAM shrinks; the s3fifo filter gets BOTH fewer writes and a miss ratio\n"
              "at or below the alternatives even at 0.1%% DRAM.\n");
  source.WriteReport();
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::Run(s3fifo::ParseBenchArgs(argc, argv));
  return 0;
}
