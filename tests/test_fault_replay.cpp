// Fault-schedule replay regression: the injector's behaviour must be a
// pure function of the fault seed. Two runs with the same seed have to
// produce the identical delivery trace — same messages dropped, same
// copies duplicated, same delays drawn — regardless of how the rank
// threads and the injector's timer thread happen to interleave. Wall
// clock still reorders *arrival*, so traces are compared as sorted
// multisets, never as raw sequences.
// lint:tag-ok-file: exercises the raw transport — tags here name
// transport-level channels under test, not PLS exchange rounds.
#include "comm/fault.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <mutex>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "comm/comm.hpp"

namespace dshuf::comm {
namespace {

constexpr int kRanks = 3;
constexpr int kTags = 3;
constexpr int kSendsPerLink = 6;

FaultSpec lossy_spec() {
  FaultSpec spec;
  spec.drop_prob = 0.25;
  spec.dup_prob = 0.25;
  spec.delay_prob = 0.5;
  spec.min_delay_us = 100;
  spec.max_delay_us = 2'000;
  return spec;
}

/// One delivered copy, as observed by a receiver.
using TraceEntry = std::tuple<int /*dest*/, int /*source*/, int /*tag*/,
                              int /*payload*/>;

struct RunResult {
  std::vector<TraceEntry> trace;  // sorted
  FaultStats stats;
};

int payload_value(int source, int tag, int k) {
  return (source * 100 + tag) * 100 + k;
}

/// All-to-all blast under the given fault seed; every rank drains its
/// mailbox after a fence, so the trace is the complete set of copies the
/// injector chose to deliver.
RunResult run_once(std::uint64_t seed) {
  World world(kRanks);
  world.set_fault_plan(FaultPlan(seed, lossy_spec()));
  std::mutex trace_mu;
  std::vector<TraceEntry> trace;
  world.run([&](Communicator& c) {
    for (int tag = 0; tag < kTags; ++tag) {
      for (int k = 0; k < kSendsPerLink; ++k) {
        for (int dest = 0; dest < kRanks; ++dest) {
          if (dest == c.rank()) continue;
          std::vector<std::byte> payload(sizeof(int));
          const int v = payload_value(c.rank(), tag, k);
          std::memcpy(payload.data(), &v, sizeof(int));
          c.send(dest, tag, std::move(payload));
        }
      }
    }
    c.barrier();       // all sends issued everywhere
    c.fence_faults();  // flush delayed copies, quiesce the injector
    std::vector<TraceEntry> mine;
    while (const auto m = c.poll(kAnySource, kAnyTag)) {
      int v = 0;
      std::memcpy(&v, m->payload.data(), sizeof(int));
      mine.emplace_back(c.rank(), m->source, m->tag, v);
    }
    std::lock_guard<std::mutex> lk(trace_mu);
    trace.insert(trace.end(), mine.begin(), mine.end());
  });
  std::sort(trace.begin(), trace.end());
  return {std::move(trace), world.fault_stats()};
}

TEST(FaultReplay, SameSeedSameDeliveryTrace) {
  const auto a = run_once(/*seed=*/424242);
  const auto b = run_once(/*seed=*/424242);
  EXPECT_EQ(a.trace, b.trace);
  // The counter block must replay too — not just the surviving messages.
  EXPECT_EQ(a.stats.submitted, b.stats.submitted);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
  EXPECT_EQ(a.stats.delayed, b.stats.delayed);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  // Sanity: the spec actually exercised every fault class.
  EXPECT_GT(a.stats.dropped, 0U);
  EXPECT_GT(a.stats.duplicated, 0U);
  EXPECT_GT(a.stats.delayed, 0U);
}

TEST(FaultReplay, TraceMatchesThePlanOracle) {
  // The observed trace must equal what a fresh FaultPlan predicts from
  // (seed, link, attempt) alone — delivery is plan-driven, not timing-
  // driven. Attempt numbers count per (source, dest, tag) link in send
  // order, which each rank's deterministic loop fixes as k = 0..N-1.
  const std::uint64_t seed = 987654;
  const FaultPlan oracle(seed, lossy_spec());
  std::vector<TraceEntry> expected;
  for (int src = 0; src < kRanks; ++src) {
    for (int dest = 0; dest < kRanks; ++dest) {
      if (dest == src) continue;
      for (int tag = 0; tag < kTags; ++tag) {
        for (int k = 0; k < kSendsPerLink; ++k) {
          const auto d = oracle.decide(src, dest, tag,
                                       static_cast<std::uint64_t>(k));
          if (d.drop) continue;
          const int copies = d.duplicate ? 2 : 1;
          for (int copy = 0; copy < copies; ++copy) {
            expected.emplace_back(dest, src, tag,
                                  payload_value(src, tag, k));
          }
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  const auto run = run_once(seed);
  EXPECT_EQ(run.trace, expected);
}

TEST(FaultReplay, DifferentSeedsProduceDifferentSchedules) {
  // Compared at the plan level so the check is exact, not probabilistic
  // over thread timing.
  const FaultPlan a(1, lossy_spec());
  const FaultPlan b(2, lossy_spec());
  int differing = 0;
  for (int tag = 0; tag < kTags; ++tag) {
    for (int k = 0; k < 32; ++k) {
      const auto da = a.decide(0, 1, tag, static_cast<std::uint64_t>(k));
      const auto db = b.decide(0, 1, tag, static_cast<std::uint64_t>(k));
      if (da.drop != db.drop || da.duplicate != db.duplicate ||
          da.delay_us != db.delay_us) {
        ++differing;
      }
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultReplay, AttemptCountersResetBetweenRuns) {
  // World::run calls begin_run(), so two consecutive runs inside one
  // World see the same attempt numbering — the second run must replay
  // the first run's schedule exactly.
  World world(2);
  world.set_fault_plan(FaultPlan(77, lossy_spec()));
  std::array<std::vector<TraceEntry>, 2> traces;
  for (int round = 0; round < 2; ++round) {
    auto& trace = traces[static_cast<std::size_t>(round)];
    std::mutex trace_mu;
    world.run([&](Communicator& c) {
      for (int k = 0; k < kSendsPerLink; ++k) {
        std::vector<std::byte> payload(sizeof(int));
        const int v = payload_value(c.rank(), 0, k);
        std::memcpy(payload.data(), &v, sizeof(int));
        c.send(1 - c.rank(), 0, std::move(payload));
      }
      c.barrier();
      c.fence_faults();
      std::vector<TraceEntry> mine;
      while (const auto m = c.poll(kAnySource, kAnyTag)) {
        int v = 0;
        std::memcpy(&v, m->payload.data(), sizeof(int));
        mine.emplace_back(c.rank(), m->source, m->tag, v);
      }
      std::lock_guard<std::mutex> lk(trace_mu);
      trace.insert(trace.end(), mine.begin(), mine.end());
    });
    std::sort(trace.begin(), trace.end());
  }
  EXPECT_EQ(traces[0], traces[1]);
}

}  // namespace
}  // namespace dshuf::comm
