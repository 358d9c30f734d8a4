#include "src/concurrent/concurrent_cache.h"

#include <stdexcept>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_lru.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/concurrent_tinylfu.h"

namespace s3fifo {
namespace {

template <typename Cache>
std::unique_ptr<ConcurrentCache> Make(const ConcurrentCacheConfig& config) {
  return std::make_unique<Cache>(config);
}

struct Prototype {
  const char* name;
  std::unique_ptr<ConcurrentCache> (*make)(const ConcurrentCacheConfig&);
};

constexpr Prototype kPrototypes[] = {
    {"lru-strict", Make<ConcurrentLruStrict>},
    {"lru-optimized", Make<ConcurrentLruOptimized>},
    {"clock", Make<ConcurrentClock>},
    {"tinylfu", Make<ConcurrentTinyLfu>},
    {"s3fifo", Make<ConcurrentS3Fifo>},
};

}  // namespace

const std::vector<std::string>& ConcurrentCacheNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (const Prototype& p : kPrototypes) {
      v->push_back(p.name);
    }
    return v;
  }();
  return *names;
}

std::unique_ptr<ConcurrentCache> MakeConcurrentCache(const std::string& name,
                                                     const ConcurrentCacheConfig& config) {
  for (const Prototype& p : kPrototypes) {
    if (name == p.name) {
      return p.make(config);
    }
  }
  throw std::invalid_argument("unknown concurrent cache: " + name);
}

}  // namespace s3fifo
