// The benchmark's named workloads. Each fills a RunResult with the
// end-to-end metrics (traced = false) or the per-layer metrics (traced =
// true) and records every failed correctness check in it.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string server_binary;
};

void RunKvGetPipelined(const Options& o, RunResult* res);
void RunKvMixedDepth1(const Options& o, RunResult* res);
void RunOfflineFigures(const Options& o, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
