#include "src/trace/trace_cache.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/trace/trace_format.h"
#include "src/trace/trace_io.h"
#include "src/util/hash.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace s3fifo {
namespace {

[[noreturn]] void Fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

// Owns the bytes backing an mmap'd view; destroyed when the last view copy
// referencing it goes away.
struct Mapping {
  void* addr = nullptr;
  size_t len = 0;
  std::vector<std::byte> heap;  // non-mmap fallback

  const std::byte* data() const {
    return addr != nullptr ? static_cast<const std::byte*>(addr) : heap.data();
  }

  ~Mapping() {
#if !defined(_WIN32)
    if (addr != nullptr) {
      ::munmap(addr, len);
    }
#endif
  }
};

std::shared_ptr<Mapping> MapFile(const std::string& path) {
  auto mapping = std::make_shared<Mapping>();
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    Fail("cannot open trace file for mapping", path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    Fail("cannot stat trace file", path);
  }
  mapping->len = static_cast<size_t>(st.st_size);
  if (mapping->len > 0) {
    void* addr = ::mmap(nullptr, mapping->len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      Fail("mmap failed on trace file", path);
    }
    mapping->addr = addr;
  }
  ::close(fd);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Fail("cannot open trace file for mapping", path);
  }
  in.seekg(0, std::ios::end);
  mapping->heap.resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(mapping->heap.data()),
          static_cast<std::streamsize>(mapping->heap.size()));
  mapping->len = mapping->heap.size();
#endif
  return mapping;
}

std::string UniqueTempSuffix() {
  static std::atomic<uint64_t> counter{0};
#if !defined(_WIN32)
  const uint64_t pid = static_cast<uint64_t>(::getpid());
#else
  const uint64_t pid = 0;
#endif
  return std::to_string(pid) + "." + std::to_string(counter.fetch_add(1));
}

}  // namespace

std::string TraceSpec::CacheKey() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix_string = [&h](const std::string& s) {
    for (const char c : s) {
      h = Mix64(h ^ static_cast<uint8_t>(c));
    }
    h = Mix64(h ^ s.size());
  };
  mix_string(group);
  mix_string(detail);
  h = Mix64(h ^ generator_version);

  std::string sanitized;
  for (const char c : group.substr(0, 40)) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
    sanitized += safe ? c : '_';
  }
  if (sanitized.empty()) {
    sanitized = "trace";
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(h));
  return sanitized + "-" + digest;
}

TraceView MapTraceFile(const std::string& path, bool verify) {
  const std::shared_ptr<Mapping> mapping = MapFile(path);
  if (mapping->len < sizeof(TraceFileHeaderV2)) {
    Fail("truncated trace header", path);
  }
  const std::byte* base = mapping->data();
  TraceFileHeaderV2 header{};
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    Fail("bad magic in trace file", path);
  }
  if (header.version != kTraceVersionV2) {
    Fail("unsupported trace version for mmap (only v2 is columnar)", path);
  }
  if (header.name_len > kMaxTraceNameLen) {
    Fail("corrupt name length in trace header", path);
  }
  const uint64_t n = header.num_requests;
  const bool annotated = (header.flags & kTraceFlagAnnotated) != 0;
  const TraceFileLayout layout = TraceFileLayout::For(n, annotated, header.name_len);
  if (layout.file_size != mapping->len) {
    Fail("trace file size mismatch (truncated or corrupt)", path);
  }
  std::string name(reinterpret_cast<const char*>(base + layout.name_offset), header.name_len);

  TraceStats stats;
  stats.num_requests = n;
  stats.num_objects = header.num_objects;
  stats.total_bytes_requested = header.total_bytes_requested;
  stats.footprint_bytes = header.footprint_bytes;
  stats.num_gets = header.num_gets;
  stats.num_sets = header.num_sets;
  stats.num_deletes = header.num_deletes;
  stats.one_hit_wonder_ratio = header.one_hit_wonder_ratio;

  TraceView::Columns cols;
  cols.id = {base + layout.id_offset, sizeof(uint64_t)};
  cols.time = {base + layout.time_offset, sizeof(uint64_t)};
  if (annotated) {
    cols.next_access = {base + layout.next_access_offset, sizeof(uint64_t)};
  }
  cols.size = {base + layout.size_offset, sizeof(uint32_t)};
  cols.tenant = {base + layout.tenant_offset, sizeof(uint32_t)};
  cols.op = {base + layout.op_offset, sizeof(uint8_t)};

  TraceView view = TraceView::FromColumns(cols, n, annotated, std::move(name), stats,
                                          header.fingerprint, mapping);
  if (verify) {
    const std::byte* ops = base + layout.op_offset;
    for (uint64_t i = 0; i < n; ++i) {
      if (static_cast<uint8_t>(ops[i]) > static_cast<uint8_t>(OpType::kDelete)) {
        Fail("corrupt op byte in trace", path);
      }
    }
    if (view.ComputeFingerprint() != header.fingerprint) {
      Fail("trace fingerprint mismatch (corrupt or stale cache file)", path);
    }
  }
  return view;
}

TraceCache::TraceCache(std::string dir, TraceCacheOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::filesystem::create_directories(dir_);
}

uint64_t TraceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t TraceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::vector<TraceCacheEvent> TraceCache::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

TraceView TraceCache::GetOrGenerate(const TraceSpec& spec,
                                    const std::function<Trace()>& generate) {
  const std::string key = spec.CacheKey();
  const std::string path = dir_ + "/" + key + ".s3ft";

  std::shared_ptr<std::mutex> key_mutex;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = mapped_.find(key);
    if (it != mapped_.end()) {
      ++hits_;
      events_.push_back({spec, path, /*warm=*/true, it->second.size()});
      return it->second;
    }
    auto& slot = inflight_[key];
    if (slot == nullptr) {
      slot = std::make_shared<std::mutex>();
    }
    key_mutex = slot;
  }

  // Serialize resolution per key: a second racer waits here, then finds the
  // mapping installed by the first.
  std::lock_guard<std::mutex> key_lock(*key_mutex);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = mapped_.find(key);
    if (it != mapped_.end()) {
      ++hits_;
      events_.push_back({spec, path, /*warm=*/true, it->second.size()});
      return it->second;
    }
  }

  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      TraceView view = MapTraceFile(path, options_.verify_fingerprint);
      std::lock_guard<std::mutex> lock(mu_);
      mapped_[key] = view;
      ++hits_;
      events_.push_back({spec, path, /*warm=*/true, view.size()});
      return view;
    } catch (const std::exception& e) {
      // A corrupt/truncated/stale file is rejected and rebuilt from scratch.
      std::fprintf(stderr, "[trace-cache] discarding invalid cache file %s: %s\n", path.c_str(),
                   e.what());
      std::filesystem::remove(path, ec);
    }
  }

  Trace trace = generate();
  trace.Stats();  // computed once here, persisted in the header
  const std::string tmp = path + ".tmp." + UniqueTempSuffix();
  WriteBinaryTrace(trace, tmp);
  // Atomic publish: concurrent populators of the same key write identical
  // bytes (the v2 writer is byte-deterministic), so whichever rename lands
  // last leaves the same valid file.
  std::filesystem::rename(tmp, path);
  TraceView view = MapTraceFile(path, options_.verify_fingerprint);

  std::lock_guard<std::mutex> lock(mu_);
  mapped_[key] = view;
  ++misses_;
  events_.push_back({spec, path, /*warm=*/false, view.size()});
  return view;
}

}  // namespace s3fifo
