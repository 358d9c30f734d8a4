// Small helpers shared by the perfbench binary: clocks, quantiles, /proc
// readers, and the result record every workload fills in.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Nearest-rank quantile (q in [0,1]) of `v`; reorders `v`. 0 when empty.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size()));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct ProcCpu {
  uint64_t utime_ticks = 0;
  uint64_t stime_ticks = 0;
};
// utime/stime of a process from /proc/<pid>/stat (pid 0 = self).
bool ReadProcCpu(int pid, ProcCpu* out);
// Peak resident set (VmHWM) of a process in MiB (pid 0 = self); 0 on error.
double ReadPeakRssMb(int pid);
// Clock ticks per second for ProcCpu values.
double TicksPerSecond();

// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one invocation measured. `metrics` holds the end-to-end metrics
// (tracing off) or the per-layer metrics (tracing on); `info` carries extra
// human-readable facts (sample counts, error breakdown, environment).
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::string> problems;  // every failed correctness check
  std::map<std::string, std::string> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

std::string JsonEscape(const std::string& s);
std::string FormatDouble(double v);

// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

// Pins the calling thread to `cpu` for its lifetime and restores the
// thread's previous CPU set on destruction. A negative `cpu` pins nothing.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
};

// How fast one CPU runs right now. On a shared host a vCPU's speed moves
// with what the hardware's other tenants do (its SMT sibling above all),
// in periods that last from seconds to minutes and can change the
// measured program's speed by 2x. A thread pinned to the measured CPU
// wakes every 2 ms and times a fixed register-only kernel (four
// independent xorshift chains, about 20 us) by its own CPU time, so the
// probe neither waits for nor counts the CPU time of the program it
// shares the CPU with; it takes about 1% of that CPU, in stalls short
// against the served latencies. The probe's mean over a window, against
// the fixed kProbeNominalUs, rescales that window's times to a nominal
// host speed.
class SpeedProbe {
 public:
  explicit SpeedProbe(int cpu);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Mean CPU time of one probe, in us, over the probes since the last
  // call; 0 when none ran.
  double Take();

 private:
  void Loop(int cpu);

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> probe_ns_{0};
  std::atomic<int64_t> probes_{0};
  std::thread thread_;
};

// The probe's CPU time at nominal speed: close to its median on an
// uncontended core of a 4-vCPU Intel Xeon (Sapphire Rapids) KVM guest.
// Only a unit: both sides of a comparison divide by the same constant.
constexpr double kProbeNominalUs = 20.0;

// A window's scale to nominal host speed: a time measured while the probe
// read `probe_us` becomes time * factor. Fails the run when no probe ran.
double NominalFactor(double probe_us, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
