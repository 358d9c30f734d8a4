// Shared helpers for the figure/table benchmark binaries.
//
// Every bench honours S3FIFO_BENCH_SCALE (a multiplier on trace lengths /
// counts; default 1.0 = laptop scale, larger = closer to paper scale).
// Sweep-driven benches additionally take --threads=N (0 = hardware
// concurrency) and write a machine-readable BENCH_<name>.json next to the
// human-readable table so the perf trajectory can be tracked across PRs.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace s3fifo {

inline double BenchScale() {
  const char* env = std::getenv("S3FIFO_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

struct BenchOptions {
  unsigned threads = 0;  // sweep parallelism; 0 = hardware concurrency
  // Directory for the persistent mmap trace cache; empty = regenerate every
  // run. Settable via --trace-cache-dir= or env S3FIFO_TRACE_CACHE_DIR.
  std::string trace_cache_dir;
  // Time cold vs warm trace resolution in BENCH_trace_cache.json
  // (--trace-cache-timing). Off by default: the reps regenerate one trace
  // per group five times, which can cost more than a warm run saves.
  bool trace_cache_timing = false;
  // MRC computation mode for the miss-ratio sweeps: "onepass" (default;
  // FIFO-family policies use the exact one-pass engine) or "brute" (one
  // simulation per size — the escape hatch / reference path). Parsed by
  // ParseMrcMode in src/analysis/mrc_engine.h at the call site.
  std::string mrc = "onepass";
};

inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  if (const char* env = std::getenv("S3FIFO_TRACE_CACHE_DIR")) {
    opts.trace_cache_dir = env;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      opts.threads = static_cast<unsigned>(std::atoi(arg + 10));
    } else if (std::strncmp(arg, "--trace-cache-dir=", 18) == 0) {
      opts.trace_cache_dir = arg + 18;
    } else if (std::strcmp(arg, "--trace-cache-timing") == 0) {
      opts.trace_cache_timing = true;
    } else if (std::strncmp(arg, "--mrc=", 6) == 0) {
      opts.mrc = arg + 6;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "usage: %s [--threads=N] [--trace-cache-dir=DIR [--trace-cache-timing]]"
          " [--mrc=MODE]\n"
          "  --threads=N           sweep-engine worker threads (0 = hardware concurrency)\n"
          "  --trace-cache-dir=DIR persist generated traces; later runs mmap them\n"
          "                        (also env S3FIFO_TRACE_CACHE_DIR; empty = off)\n"
          "  --trace-cache-timing  time cold vs warm trace resolution per group\n"
          "                        (5 interleaved reps) in BENCH_trace_cache.json\n"
          "  --mrc=MODE            miss-ratio sweeps: onepass (default) | brute\n"
          "  env S3FIFO_BENCH_SCALE=X scales trace lengths (default 1.0)\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "warning: ignoring unknown argument '%s'\n", arg);
    }
  }
  return opts;
}

// The comparison set used by the miss-ratio figures (name, factory name).
inline const std::vector<std::string>& ComparisonPolicies() {
  static const std::vector<std::string>* policies = new std::vector<std::string>{
      "s3fifo", "tinylfu", "tinylfu-0.1", "lirs", "2q",   "arc",        "slru",
      "lru",    "clock",   "lecar",       "lhd",  "blru", "fifo-merge",
  };
  return *policies;
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("scale: %.2f (set S3FIFO_BENCH_SCALE to change)\n", BenchScale());
  std::printf("==============================================================\n");
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Minimal JSON object builder for the BENCH_<name>.json emitters. Values are
// serialized immediately; insertion order is preserved.
class JsonFields {
 public:
  JsonFields& Add(const std::string& key, const std::string& v) {
    return AddRaw(key, "\"" + Escaped(v) + "\"");
  }
  JsonFields& Add(const std::string& key, const char* v) { return Add(key, std::string(v)); }
  JsonFields& Add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return AddRaw(key, buf);
  }
  JsonFields& Add(const std::string& key, uint64_t v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, unsigned v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, int v) { return AddRaw(key, std::to_string(v)); }
  JsonFields& Add(const std::string& key, bool v) { return AddRaw(key, v ? "true" : "false"); }
  JsonFields& Add(const std::string& key, const JsonFields& object) {
    return AddRaw(key, object.Serialize());
  }

  std::string Serialize() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Escaped(const std::string& s) {
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
  JsonFields& AddRaw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

// Median, min and quartiles of repeated measurements of one quantity
// (quartiles interpolate linearly between order statistics).
struct RepSpread {
  double median = 0;
  double min = 0;
  double q1 = 0;
  double q3 = 0;

  static RepSpread Of(std::vector<double> v) {
    RepSpread s;
    if (v.empty()) {
      return s;
    }
    std::sort(v.begin(), v.end());
    auto quantile = [&v](double q) {
      const double pos = q * static_cast<double>(v.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, v.size() - 1);
      return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    };
    s.median = quantile(0.5);
    s.min = v.front();
    s.q1 = quantile(0.25);
    s.q3 = quantile(0.75);
    return s;
  }
  double iqr() const { return q3 - q1; }
};

// The machine and build a benchmark ran on: nproc, CPU model, kernel,
// compiler, and the git sha of the working directory ("unknown" outside a
// checkout; suffixed "+dirty" when tracked files differ from that commit).
inline JsonFields BenchEnvironment() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) == 0 && colon != nullptr) {
        cpu = colon + 1 + std::strspn(colon + 1, " \t");
        cpu.erase(cpu.find_last_not_of("\r\n") + 1);
        break;
      }
    }
    std::fclose(f);
  }
  utsname u{};
  uname(&u);
  std::string sha = "unknown";
  if (std::FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), p) != nullptr && buf[0] != '\0') {
      sha = buf;
      sha.erase(sha.find_last_not_of("\r\n") + 1);
    }
    pclose(p);
  }
  if (std::FILE* p = popen("git status --porcelain -uno 2>/dev/null", "r")) {
    char buf[8];
    if (sha != "unknown" && std::fgets(buf, sizeof(buf), p) != nullptr) {
      sha += "+dirty";
    }
    pclose(p);
  }
  JsonFields env;
  env.Add("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Add("cpu_model", cpu)
      .Add("kernel", std::string(u.sysname) + " " + u.release)
      .Add("compiler", std::string(__VERSION__))
      .Add("git_sha", sha);
  return env;
}

// Writes BENCH_<bench_name>.json into the working directory:
// {"bench": ..., "summary": {...}, "rows": [{...}, ...]}.
inline void WriteBenchJson(const std::string& bench_name, const JsonFields& summary,
                           const std::vector<JsonFields>& rows) {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"summary\": %s,\n  \"rows\": [", bench_name.c_str(),
               summary.Serialize().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i > 0 ? "," : "", rows[i].Serialize().c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\n[bench] wrote %s\n", path.c_str());
}

}  // namespace s3fifo

#endif  // BENCH_BENCH_UTIL_H_
