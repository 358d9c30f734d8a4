#include "util.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

bool ReadProcCpu(int pid, ProcCpu* out) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/stat") : "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line)) {
    return false;
  }
  // Fields after the parenthesised command name; utime/stime are fields 14
  // and 15 of the whole line, i.e. the 12th and 13th after ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  for (int i = 0; i < 11 && rest >> field; ++i) {
  }
  return static_cast<bool>(rest >> out->utime_ticks >> out->stime_ticks);
}

double ReadPeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

double TicksPerSecond() { return static_cast<double>(sysconf(_SC_CLK_TCK)); }

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

ScopedPin::ScopedPin(int cpu) {
  if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

ScopedPin::~ScopedPin() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(saved_), &saved_);
  }
}

SpeedProbe::SpeedProbe(int cpu) : thread_([this, cpu] { Loop(cpu); }) {}

SpeedProbe::~SpeedProbe() {
  stop_ = true;
  thread_.join();
}

double SpeedProbe::Take() {
  const int64_t ns = probe_ns_.exchange(0);
  const int64_t n = probes_.exchange(0);
  return n == 0 ? 0.0 : static_cast<double>(ns) / 1000.0 / static_cast<double>(n);
}

void SpeedProbe::Loop(int cpu) {
  ScopedPin pin(cpu);
  constexpr int64_t kPeriodNs = 2 * 1000000;
  int64_t next = NowNs();
  uint64_t sink = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    // A probe held up past its slot waits a whole period, never catches up.
    next = std::max(next + kPeriodNs, NowNs());
    const timespec at{static_cast<time_t>(next / 1000000000), static_cast<long>(next % 1000000000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
    const int64_t t0 = ThreadCpuNs();
    uint64_t a = 1 + sink;
    uint64_t b = 2 + sink;
    uint64_t c = 3 + sink;
    uint64_t d = 4 + sink;
    for (int i = 0; i < 5000; ++i) {
      a ^= a << 13, a ^= a >> 7, a ^= a << 17;
      b ^= b << 13, b ^= b >> 7, b ^= b << 17;
      c ^= c << 13, c ^= c >> 7, c ^= c << 17;
      d ^= d << 13, d ^= d >> 7, d ^= d << 17;
      // Four scalar chains every iteration: no folding, no vectorising.
      asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
    }
    sink = (a ^ b ^ c ^ d) & 1;
    probe_ns_ += ThreadCpuNs() - t0;
    ++probes_;
  }
}

double NominalFactor(double probe_us, RunResult* res) {
  if (probe_us <= 0.0) {
    res->Fail("the speed probe did not run during a measured window");
    return 1.0;
  }
  return kProbeNominalUs / probe_us;
}

}  // namespace perfbench
