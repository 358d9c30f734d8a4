// perfbench: the repository benchmark's binary (see
// perfbench/README.md). perfbench/run.py builds it with s3fifo_server and
// runs it; it prints an environment line, one line per metric, and as its
// last line the result object:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server-bin PATH [--git-sha SHA] [--source-digest HEX]
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>

#include "src/server/transport.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv_get_pipelined|kv_mixed_depth1|offline_figures "
               "--seed N --seconds S --trace 0|1 --server-bin PATH [--git-sha SHA] "
               "[--source-digest HEX]\n");
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

// Steal and total jiffies from the first line of /proc/stat.
std::pair<uint64_t, uint64_t> HostCpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t v = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    steal = i == 7 ? v : steal;
  }
  return {steal, total};
}

void RecordEnvironment(const std::string& git_sha, const std::string& digest, RunResult* res) {
  utsname u{};
  uname(&u);
  std::string why;
  const bool uring = s3fifo::IoUringAvailable(&why);
  res->info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  res->info["cpu_model"] = CpuModel();
  res->info["kernel"] = std::string(u.sysname) + " " + u.release;
  res->info["compiler"] = std::string("gcc-compatible ") + __VERSION__;
  res->info["git_sha"] = git_sha;
  res->info["source_digest"] = digest;
  res->info["io_uring"] = uring ? "available" : "unavailable: " + why;
}

void Print(const RunResult& res) {
  std::printf("env: {");
  bool first = true;
  for (const auto& [k, v] : res.info) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", JsonEscape(k).c_str(),
                JsonEscape(v).c_str());
    first = false;
  }
  std::printf("}\n");
  for (const auto& [name, m] : res.metrics) {
    std::printf("metric %-38s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("metric %-38s %16.6g %s (failed %llu / attempted %llu)\n", "error_rate",
              res.attempted == 0 ? 0.0
                                 : static_cast<double>(res.failed) / static_cast<double>(res.attempted),
              "ratio", static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  for (const std::string& p : res.problems) {
    std::printf("FAILED CHECK: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  first = true;
  for (const auto& [name, m] : res.metrics) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                JsonEscape(name).c_str(), FormatDouble(m.value).c_str(), JsonEscape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options o;
  std::string git_sha = "unknown";
  std::string digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.traced = next() == "1";
      have_trace = true;
    } else if (arg == "--server-bin") {
      o.server_binary = next();
    } else if (arg == "--git-sha") {
      git_sha = next();
    } else if (arg == "--source-digest") {
      digest = next();
    } else {
      Usage();
    }
  }
  if (o.workload.empty() || o.server_binary.empty() || !have_trace || o.seconds <= 0) {
    Usage();
  }
  // Microsecond-exact open-loop pacing needs a tight timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL);

  RunResult res;
  res.info["workload"] = o.workload;
  res.info["seed"] = std::to_string(o.seed);
  res.info["seconds"] = FormatDouble(o.seconds);
  res.info["traced"] = std::to_string(o.traced ? 1 : 0);
  RecordEnvironment(git_sha, digest, &res);
  const auto [steal0, total0] = HostCpuTicks();
  if (o.workload == "kv_get_pipelined") {
    RunKvGetPipelined(o, &res);
  } else if (o.workload == "kv_mixed_depth1") {
    RunKvMixedDepth1(o, &res);
  } else if (o.workload == "offline_figures") {
    RunOfflineFigures(o, &res);
  } else {
    Usage();
  }
  // Time the hypervisor gave this VM's CPUs to others: explains outliers.
  const auto [steal1, total1] = HostCpuTicks();
  res.info["host_steal_pct"] =
      FormatDouble(100.0 * static_cast<double>(steal1 - steal0) /
                   static_cast<double>(std::max<uint64_t>(total1 - total0, 1)));
  if (res.attempted == 0) {
    res.Fail("no requests attempted");
  }
  Print(res);
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
