// Unit tests for priorities (bottom/top levels) and the replicated-schedule
// representation.
#include <gtest/gtest.h>

#include <algorithm>

#include "ftsched/core/priorities.hpp"
#include "ftsched/core/schedule.hpp"
#include "ftsched/util/error.hpp"
#include "ftsched/workload/classic.hpp"
#include "ftsched/workload/paper_workload.hpp"

namespace ftsched {
namespace {

// A tiny fixed workload: chain of 3 tasks on 2 processors, unit delay 1,
// volumes 10, exec matrix chosen by each test.
struct Tiny {
  Tiny()
      : graph(make_chain(3, ClassicParams{10.0})),
        platform(2, 1.0),
        costs(graph, platform, {{2.0, 4.0}, {6.0, 8.0}, {1.0, 3.0}}) {}
  TaskGraph graph;
  Platform platform;
  CostModel costs;
};

// ---------------------------------------------------------------- priorities

TEST(Priorities, BottomLevelsOnChain) {
  const Tiny w;
  // avg exec: 3, 7, 2; avg comm = 10 * 1 = 10 per edge.
  // bl(t2) = 2; bl(t1) = 7 + 10 + 2 = 19; bl(t0) = 3 + 10 + 19 = 32.
  const auto bl = bottom_levels(w.costs);
  EXPECT_DOUBLE_EQ(bl[2], 2.0);
  EXPECT_DOUBLE_EQ(bl[1], 19.0);
  EXPECT_DOUBLE_EQ(bl[0], 32.0);
}

TEST(Priorities, StaticTopLevelsOnChain) {
  const Tiny w;
  const auto tl = static_top_levels(w.costs);
  EXPECT_DOUBLE_EQ(tl[0], 0.0);
  EXPECT_DOUBLE_EQ(tl[1], 13.0);  // 3 + 10
  EXPECT_DOUBLE_EQ(tl[2], 30.0);  // 13 + 7 + 10
}

TEST(Priorities, BottomLevelDominatesSuccessors) {
  Rng rng(1);
  PaperWorkloadParams params;
  params.task_min = params.task_max = 80;
  const auto w = make_paper_workload(rng, params);
  const auto bl = bottom_levels(w->costs());
  for (const Edge& e : w->graph().edges()) {
    // bl(src) >= E̅(src) + W̅(e) + bl(dst) for the maximizing successor;
    // in particular bl(src) > bl(dst).
    EXPECT_GT(bl[e.src.index()], bl[e.dst.index()]);
  }
}

TEST(Priorities, TopPlusBottomConstantOnChain) {
  // On a chain the (static) criticalness tl + bl is constant: every task
  // lies on the single path.
  const Tiny w;
  const auto bl = bottom_levels(w.costs);
  const auto tl = static_top_levels(w.costs);
  const double c0 = tl[0] + bl[0];
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(tl[i] + bl[i], c0);
  }
}

// ---------------------------------------------------------------- schedule

TEST(Schedule, RequiresEnoughProcessors) {
  const Tiny w;
  EXPECT_THROW(ReplicatedSchedule(w.costs, 2, "x"), InvalidArgument);
  // epsilon + 1 wraps to 0 here; it must not pass the check.
  EXPECT_THROW(ReplicatedSchedule(w.costs, SIZE_MAX, "x"), InvalidArgument);
  EXPECT_NO_THROW(ReplicatedSchedule(w.costs, 1, "x"));
}

TEST(Schedule, PlaceAndQuery) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "manual");
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  EXPECT_TRUE(s.is_placed(TaskId{0u}));
  EXPECT_FALSE(s.is_placed(TaskId{1u}));
  EXPECT_EQ(s.replicas(TaskId{0u}).size(), 2u);
  EXPECT_EQ(s.replicas(TaskId{0u})[0].proc, ProcId{0u});
  EXPECT_THROW(
      s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                                Replica{ProcId{1u}, 0, 4, 0, 4}}),
      InvalidArgument);  // already placed
}

TEST(Schedule, PlaceRejectsTooFewReplicas) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "manual");
  EXPECT_THROW(s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2}}),
               InvalidArgument);
}

TEST(Schedule, ReplicaIndicesFitSixteenBits) {
  EXPECT_EQ(replica_index(65535), 65535u);
  EXPECT_THROW((void)replica_index(65536), InvalidArgument);
  EXPECT_THROW((void)Channel(0, 65536), InvalidArgument);
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "manual");
  EXPECT_THROW(s.place_task(TaskId{0u}, std::vector<Replica>(65537)),
               InvalidArgument);
}

// Builds a correct manual schedule of the tiny chain with epsilon = 1.
ReplicatedSchedule manual_tiny_schedule(const Tiny& w) {
  ReplicatedSchedule s(w.costs, 1, "manual");
  // t0: P0 [0,2), P1 [0,4).
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  // t1 on P0: local from t0@P0 at 2 => [2,8). On P1: local at 4 => [4,12).
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 2, 8, 2, 8},
                            Replica{ProcId{1u}, 4, 12, 4, 12}});
  // t2 on P0: local at 8 => [8,9). On P1: local at 12 => [12,15).
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 8, 9, 8, 9},
                            Replica{ProcId{1u}, 12, 15, 12, 15}});
  // Channels: local pairs only (all-pairs with intra shortcut).
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  return s;
}

TEST(Schedule, ValidateAcceptsCorrectSchedule) {
  const Tiny w;
  EXPECT_NO_THROW(manual_tiny_schedule(w).validate());
}

TEST(Schedule, Bounds) {
  const Tiny w;
  const auto s = manual_tiny_schedule(w);
  EXPECT_DOUBLE_EQ(s.lower_bound(), 9.0);   // earliest replica of exit task
  EXPECT_DOUBLE_EQ(s.upper_bound(), 15.0);  // latest pessimistic finish
}

TEST(Schedule, MessageCounts) {
  const Tiny w;
  auto s = manual_tiny_schedule(w);
  EXPECT_EQ(s.channel_count(), 4u);
  EXPECT_EQ(s.interproc_message_count(), 0u);  // all channels are local
  // Re-setting an edge replaces its channels: the first set no longer
  // counts, although it stays in the pool.
  s.set_channels(0, {Channel{0, 0}, Channel{1, 0}, Channel{0, 1}});
  EXPECT_EQ(s.channel_count(), 5u);
  EXPECT_EQ(s.interproc_message_count(), 2u);
  const auto cs = s.channels(0);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[1].src_replica, 1u);
  EXPECT_EQ(cs[1].dst_replica, 0u);
  EXPECT_EQ(cs[2].src_replica, 0u);
  EXPECT_EQ(cs[2].dst_replica, 1u);
}

TEST(Schedule, MappingMatrix) {
  const Tiny w;
  const auto s = manual_tiny_schedule(w);
  const auto x = s.mapping_matrix();
  ASSERT_EQ(x.size(), 6u);  // 3 tasks × 2 procs
  for (char cell : x) EXPECT_EQ(cell, 1);  // every task on both procs here
}

TEST(Schedule, ValidateCatchesSharedProcessor) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "bad");
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                            Replica{ProcId{0u}, 2, 4, 2, 4}});
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 4, 10, 4, 10},
                            Replica{ProcId{1u}, 12, 20, 12, 20}});
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 10, 11, 10, 11},
                            Replica{ProcId{1u}, 20, 23, 20, 23}});
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  EXPECT_THROW(s.validate(), Error);
}

TEST(Schedule, ValidateCatchesOverlap) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "bad");
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  // t1 on P0 starts at 1 < t0's finish 2: overlap.
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 1, 7, 1, 7},
                            Replica{ProcId{1u}, 4, 12, 4, 12}});
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 8, 9, 8, 9},
                            Replica{ProcId{1u}, 12, 15, 12, 15}});
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  EXPECT_THROW(s.validate(), Error);
}

TEST(Schedule, ValidateCatchesWrongDuration) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "bad");
  // t0 on P0 takes 2.0 in the cost model but is recorded as 3.
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 3, 0, 3},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 3, 9, 3, 9},
                            Replica{ProcId{1u}, 4, 12, 4, 12}});
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 9, 10, 9, 10},
                            Replica{ProcId{1u}, 12, 15, 12, 15}});
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  EXPECT_THROW(s.validate(), Error);
}

TEST(Schedule, ValidateCatchesMissingChannel) {
  const Tiny w;
  auto s = manual_tiny_schedule(w);
  // Overwrite edge 1 channels so t2@P1 has no inbound channel.
  s.set_channels(1, {});
  // set_channels replaces; rebuild with only one channel.
  ReplicatedSchedule s2(w.costs, 1, "bad");
  s2.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                             Replica{ProcId{1u}, 0, 4, 0, 4}});
  s2.place_task(TaskId{1u}, {Replica{ProcId{0u}, 2, 8, 2, 8},
                             Replica{ProcId{1u}, 4, 12, 4, 12}});
  s2.place_task(TaskId{2u}, {Replica{ProcId{0u}, 8, 9, 8, 9},
                             Replica{ProcId{1u}, 12, 15, 12, 15}});
  s2.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s2.set_channels(1, {Channel{0, 0}});  // t2 replica 1 starves
  EXPECT_THROW(s2.validate(), Error);
}

TEST(Schedule, ValidateCatchesPrematureStart) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "bad");
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 2},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  // t1 on P1 starts at 3 but its only input (local t0@P1) arrives at 4.
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 2, 8, 2, 8},
                            Replica{ProcId{1u}, 3, 11, 3, 11}});
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 8, 9, 8, 9},
                            Replica{ProcId{1u}, 11, 14, 11, 14}});
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  EXPECT_THROW(s.validate(), Error);
}

TEST(Schedule, ValidateCatchesPessimisticBelowOptimistic) {
  const Tiny w;
  ReplicatedSchedule s(w.costs, 1, "bad");
  // pess_finish < finish on the first replica.
  s.place_task(TaskId{0u}, {Replica{ProcId{0u}, 0, 2, 0, 1},
                            Replica{ProcId{1u}, 0, 4, 0, 4}});
  s.place_task(TaskId{1u}, {Replica{ProcId{0u}, 2, 8, 2, 8},
                            Replica{ProcId{1u}, 4, 12, 4, 12}});
  s.place_task(TaskId{2u}, {Replica{ProcId{0u}, 8, 9, 8, 9},
                            Replica{ProcId{1u}, 12, 15, 12, 15}});
  s.set_channels(0, {Channel{0, 0}, Channel{1, 1}});
  s.set_channels(1, {Channel{0, 0}, Channel{1, 1}});
  EXPECT_THROW(s.validate(), Error);
}

}  // namespace
}  // namespace ftsched
