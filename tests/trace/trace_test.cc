#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include "src/trace/next_access.h"

namespace s3fifo {
namespace {

Trace MakeTrace(std::vector<uint64_t> ids) {
  std::vector<Request> reqs;
  for (size_t i = 0; i < ids.size(); ++i) {
    Request r;
    r.id = ids[i];
    r.time = i;
    reqs.push_back(r);
  }
  return Trace(std::move(reqs));
}

TEST(TraceTest, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.num_objects, 0u);
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.0);
}

TEST(TraceTest, StatsCountObjectsAndRequests) {
  Trace t = MakeTrace({1, 2, 1, 3, 1});
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_requests, 5u);
  EXPECT_EQ(s.num_objects, 3u);
}

TEST(TraceTest, OneHitWonderRatioMatchesPaperToyExample) {
  // Fig. 1: A B A C B A D A B C B A C A B D -> E... the 17-request example:
  // requests A B A C B A D A B C B A _ C A B D, object E appears once.
  Trace t = MakeTrace({'A', 'B', 'A', 'C', 'B', 'A', 'D', 'A', 'B', 'C', 'B', 'A', 'E', 'C',
                       'A', 'B', 'D'});
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_objects, 5u);
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.2);  // 1 of 5 (E)
}

TEST(TraceTest, DeletesExcludedFromPopularity) {
  std::vector<Request> reqs;
  Request r;
  r.id = 1;
  reqs.push_back(r);
  r.id = 2;
  r.op = OpType::kDelete;
  reqs.push_back(r);
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_objects, 1u);
  EXPECT_EQ(s.num_deletes, 1u);
}

TEST(TraceTest, ByteAccounting) {
  std::vector<Request> reqs;
  Request r;
  r.id = 1;
  r.size = 100;
  reqs.push_back(r);
  r.id = 1;
  r.size = 100;
  reqs.push_back(r);
  r.id = 2;
  r.size = 50;
  reqs.push_back(r);
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.total_bytes_requested, 250u);
  EXPECT_EQ(s.footprint_bytes, 150u);
}

TEST(TraceTest, AppendInvalidatesStats) {
  Trace t = MakeTrace({1});
  EXPECT_EQ(t.Stats().num_requests, 1u);
  Request r;
  r.id = 2;
  t.Append(r);
  EXPECT_EQ(t.Stats().num_requests, 2u);
  EXPECT_FALSE(t.annotated());
}

TEST(TraceTest, OpCounts) {
  std::vector<Request> reqs(3);
  reqs[0].op = OpType::kGet;
  reqs[1].op = OpType::kSet;
  reqs[2].op = OpType::kDelete;
  Trace t(std::move(reqs));
  EXPECT_EQ(t.Stats().num_gets, 1u);
  EXPECT_EQ(t.Stats().num_sets, 1u);
  EXPECT_EQ(t.Stats().num_deletes, 1u);
}

// Stats() and AnnotateNextAccess() on one hand-checked get/set/delete trace:
// a delete counts as a request and links next_access chains, but adds no
// popularity, bytes or footprint; the footprint takes each id's last size.
TEST(TraceTest, StatsAndNextAccessOnMixedTrace) {
  const struct {
    uint64_t id;
    OpType op;
    uint32_t size;
  } kReqs[] = {
      {10, OpType::kGet, 100},     // 0
      {20, OpType::kSet, 200},     // 1
      {10, OpType::kGet, 150},     // 2: id 10 resized
      {30, OpType::kDelete, 999},  // 3: delete-only id
      {20, OpType::kDelete, 0},    // 4
      {40, OpType::kGet, 50},      // 5
      {20, OpType::kSet, 300},     // 6: id 20 re-set larger
      {10, OpType::kDelete, 7},    // 7
      {50, OpType::kSet, 60},      // 8
  };
  std::vector<Request> reqs;
  for (const auto& k : kReqs) {
    Request r;
    r.id = k.id;
    r.op = k.op;
    r.size = k.size;
    r.time = reqs.size();
    reqs.push_back(r);
  }
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_requests, 9u);
  EXPECT_EQ(s.num_gets, 3u);
  EXPECT_EQ(s.num_sets, 3u);
  EXPECT_EQ(s.num_deletes, 3u);
  EXPECT_EQ(s.num_objects, 4u);                 // 10, 20, 40, 50
  EXPECT_EQ(s.total_bytes_requested, 860u);     // 100+200+150+50+300+60
  EXPECT_EQ(s.footprint_bytes, 560u);           // 150+300+50+60
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.5);  // 40 and 50

  AnnotateNextAccess(t);
  const uint64_t kNever = kNeverAccessed;
  const uint64_t kNext[] = {2, 4, 7, kNever, 6, kNever, kNever, kNever, kNever};
  ASSERT_EQ(t.size(), std::size(kNext));
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].next_access, kNext[i]) << "request " << i;
  }
}

// Enough distinct ids to grow the maps several times: ids 0..999 three times
// each (size id + 1), then ids 1000..1999 once.
TEST(TraceTest, StatsAndNextAccessAcrossMapGrowth) {
  std::vector<Request> reqs;
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t id = 0; id < 1000; ++id) {
      Request r;
      r.id = id;
      r.size = static_cast<uint32_t>(id + 1);
      reqs.push_back(r);
    }
  }
  for (uint64_t id = 1000; id < 2000; ++id) {
    Request r;
    r.id = id;
    r.size = static_cast<uint32_t>(id + 1);
    reqs.push_back(r);
  }
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_objects, 2000u);
  EXPECT_EQ(s.footprint_bytes, 2001000u);                    // 1 + 2 + ... + 2000
  EXPECT_EQ(s.total_bytes_requested, 3 * 500500u + 1500500u);  // 3x(1..1000) + (1001..2000)
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.5);

  AnnotateNextAccess(t);
  for (size_t i = 0; i < t.size(); ++i) {
    const uint64_t expected = i < 2000 ? i + 1000 : kNeverAccessed;
    ASSERT_EQ(t[i].next_access, expected) << "request " << i;
  }
}

}  // namespace
}  // namespace s3fifo
