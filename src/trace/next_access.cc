#include "src/trace/next_access.h"

#include "src/util/flat_map.h"

namespace s3fifo {

void AnnotateNextAccess(Trace& trace) {
  auto& reqs = trace.mutable_requests();
  FlatMap<uint64_t> next_seen;  // id -> index of its next request
  for (size_t i = reqs.size(); i-- > 0;) {
    Request& r = reqs[i];
    bool inserted = false;
    uint64_t* next = next_seen.Emplace(r.id, &inserted);
    r.next_access = inserted ? kNeverAccessed : *next;
    *next = i;
  }
  trace.set_annotated(true);
}

}  // namespace s3fifo
