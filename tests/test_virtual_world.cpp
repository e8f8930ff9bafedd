// Tests for the event-driven virtual-rank backend: the same exchange code
// that runs on comm::World's threads must run unmodified on
// netsim::VirtualWorld's fibers — with bit-identical shards — while
// virtual time, the flow-model network, and the fault oracle behave as
// documented.
#include "netsim/virtual_comm.hpp"

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "allreduce_check.hpp"
#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"
#include "util/error.hpp"

namespace dshuf::netsim {
namespace {

using shuffle::SampleId;
using shuffle::ShardStore;

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

std::vector<ShardStore> make_stores(std::size_t n, int m, double q) {
  auto shards = make_shards(n, static_cast<std::size_t>(m));
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap =
        s.size() + shuffle::exchange_quota(n / static_cast<std::size_t>(m), q);
    stores.emplace_back(std::move(s), cap);
  }
  return stores;
}

TEST(VirtualWorld, CollectivesMatchTheSharedImplementation) {
  const int m = 32;
  VirtualWorld world(m);
  std::vector<std::vector<double>> sums(static_cast<std::size_t>(m));
  world.run([&](comm::Communicator& c) {
    const double v[2] = {static_cast<double>(c.rank()), 1.0};
    sums[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(v);
  });
  const double expect = static_cast<double>(m * (m - 1)) / 2.0;
  for (const auto& s : sums) {
    ASSERT_EQ(s.size(), 2U);
    EXPECT_DOUBLE_EQ(s[0], expect);
    EXPECT_DOUBLE_EQ(s[1], static_cast<double>(m));
  }
}

TEST(VirtualWorld, AllreduceMatchesRankOrderSumBitForBit) {
  allreduce_check::expect_rank_order_sums<VirtualWorld>();
}

TEST(VirtualWorld, TransferTimeFollowsTheFlowModel) {
  VirtualWorldOptions opts;
  opts.caps.nic_out_bps = 1e6;  // 1 MB/s
  opts.caps.nic_in_bps = 1e6;
  opts.caps.per_message_latency_s = 1e-3;
  VirtualWorld world(2, opts);
  std::uint64_t recv_at_us = 0;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 7, std::vector<std::byte>(1'000'000));
    } else {
      (void)c.recv(0, 7);
      recv_at_us = c.now_us();
    }
  });
  // 1 MB at 1 MB/s = 1 s on the wire, after 1 ms of latency.
  EXPECT_NEAR(static_cast<double>(recv_at_us), 1'001'000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(world.now_us()), 1'001'000.0, 2.0);
  const auto stats = world.last_run_stats();
  EXPECT_EQ(stats.flows, 1U);
  EXPECT_GT(stats.context_switches, 0U);
}

TEST(VirtualWorld, BackoffAdvancesVirtualTimeNotWallTime) {
  VirtualWorld world(1);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  world.run([&](comm::Communicator& c) {
    before = c.now_us();
    c.backoff(std::chrono::seconds(3600));  // an hour of virtual time
    after = c.now_us();
  });
  EXPECT_GE(after - before, 3'600'000'000ULL);
  // Virtual time persists and stays monotone across runs.
  const std::uint64_t t1 = world.now_us();
  world.run([](comm::Communicator& c) { c.barrier(); });
  EXPECT_GE(world.now_us(), t1);
}

// The tentpole contract: the SAME epoch logic, bit-identical shards.
// Collectives are shared-implementation, point-to-point staging is
// deterministic on both backends, so not just the multisets but the exact
// post-exchange orderings must agree.
TEST(VirtualWorld, BitIdenticalShardsWithThreadedWorld) {
  const std::size_t n = 128;
  const int m = 16;
  const double q = 0.5;
  const std::uint64_t seed = 77;
  const std::size_t epochs = 3;

  auto threaded = make_stores(n, m, q);
  {
    comm::World world(m);
    for (std::size_t e = 0; e < epochs; ++e) {
      world.run([&](comm::Communicator& c) {
        shuffle::run_pls_exchange_epoch(
            c, threaded[static_cast<std::size_t>(c.rank())], seed, e, q,
            n / static_cast<std::size_t>(m));
        shuffle::post_exchange_local_shuffle(
            seed, e, c.rank(),
            threaded[static_cast<std::size_t>(c.rank())].mutable_ids());
      });
    }
  }

  auto virtualised = make_stores(n, m, q);
  {
    VirtualWorld world(m);
    for (std::size_t e = 0; e < epochs; ++e) {
      world.run([&](comm::Communicator& c) {
        shuffle::run_pls_exchange_epoch(
            c, virtualised[static_cast<std::size_t>(c.rank())], seed, e, q,
            n / static_cast<std::size_t>(m));
        shuffle::post_exchange_local_shuffle(
            seed, e, c.rank(),
            virtualised[static_cast<std::size_t>(c.rank())].mutable_ids());
      });
    }
  }

  for (int w = 0; w < m; ++w) {
    EXPECT_EQ(threaded[static_cast<std::size_t>(w)].ids(),
              virtualised[static_cast<std::size_t>(w)].ids())
        << "rank " << w;
  }
}

// The paper-scale configuration: virtual ranks behind a two-level
// topology (leader-aggregated uplinks), the exchange planning the grouped
// Section V-F plan from the process's shared plan cache. Shards must still
// be exactly those of the grouped sequential driver.
TEST(VirtualWorld, GroupedExchangeMatchesGroupedShuffler) {
  const std::size_t n = 192;
  const int m = 16;
  const double q = 0.5;
  const std::uint64_t seed = 41;
  const std::size_t epochs = 3;
  shuffle::Topology topo;
  topo.groups = 4;
  topo.group_size = 4;
  topo.intra_bw_bps = 1e9;
  topo.inter_bw_bps = 1e8;
  topo.intra_fraction = 0.5;

  const shuffle::ScopedExchangeTopology scoped(topo);
  VirtualWorldOptions opts;
  opts.topology = topo;
  auto stores = make_stores(n, m, q);
  VirtualWorld world(m, opts);
  for (std::size_t e = 0; e < epochs; ++e) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      shuffle::run_pls_exchange_epoch(c, store, seed, e, q,
                                      n / static_cast<std::size_t>(m));
      shuffle::post_exchange_local_shuffle(seed, e, c.rank(),
                                           store.mutable_ids());
    });
  }

  shuffle::PartialLocalShuffler pls(
      make_shards(n, static_cast<std::size_t>(m)), q, seed, true,
      topo.groups, topo.intra_fraction);
  for (std::size_t e = 0; e < epochs; ++e) pls.begin_epoch(e);
  for (int w = 0; w < m; ++w) {
    EXPECT_EQ(stores[static_cast<std::size_t>(w)].ids(),
              pls.stores()[static_cast<std::size_t>(w)].ids())
        << "rank " << w;
  }
  EXPECT_GT(world.now_us(), 0U);
}

// One plan per epoch per process: however many ranks run an epoch, the
// plan is built once and every rank shares it.
TEST(VirtualWorld, RanksShareOnePlanBuildPerEpoch) {
  const std::size_t n = 64 * 8;
  const int m = 64;
  const double q = 0.5;
  const std::uint64_t seed = 4242;
  auto stores = make_stores(n, m, q);
  std::vector<shuffle::ExchangeScratch> scratch(static_cast<std::size_t>(m));
  obs::Counter& builds =
      obs::Registry::instance().counter("shuffle.plan_builds");
  const std::uint64_t before = builds.value();
  VirtualWorld world(m);
  for (std::size_t e = 0; e < 3; ++e) {
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      shuffle::run_pls_exchange_epoch(c, stores[r], seed, e, q,
                                      n / static_cast<std::size_t>(m),
                                      nullptr, nullptr, nullptr, &scratch[r]);
    });
  }
  EXPECT_EQ(builds.value() - before, 3U);
  for (std::size_t r = 1; r < scratch.size(); ++r) {
    EXPECT_EQ(scratch[r].plan, scratch[0].plan) << "rank " << r;
  }
}

// Chaos over the virtual backend: the robust protocol must conserve every
// sample under drops, duplicates, delays, and stalls — with the schedule
// served by the virtual world's replay of the same fault oracle.
TEST(VirtualWorld, RobustExchangeConservesSamplesUnderFaults) {
  const std::size_t n = 96;
  const int m = 12;
  const double q = 0.5;

  comm::FaultSpec spec;
  spec.drop_prob = 0.05;
  spec.dup_prob = 0.05;
  spec.delay_prob = 0.3;
  spec.min_delay_us = 100;
  spec.max_delay_us = 3'000;
  spec.stall_prob = 0.2;
  spec.stall_us = 2'000;

  shuffle::ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.max_attempts = 6;
  robust.recv_deadline = std::chrono::milliseconds(400);
  robust.poll_interval = std::chrono::microseconds(200);

  auto stores = make_stores(n, m, q);
  VirtualWorld world(m);
  world.set_fault_plan(comm::FaultPlan(1234, spec));
  for (std::size_t e = 0; e < 2; ++e) {
    world.run([&](comm::Communicator& c) {
      shuffle::run_pls_exchange_epoch(
          c, stores[static_cast<std::size_t>(c.rank())], 5, e, q,
          n / static_cast<std::size_t>(m), nullptr, nullptr, &robust);
    });
  }

  std::multiset<SampleId> all;
  for (const auto& s : stores) all.insert(s.ids().begin(), s.ids().end());
  EXPECT_EQ(all.size(), n);
  EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), n);

  const auto fs = world.fault_stats();
  EXPECT_GT(fs.submitted, 0U);
  // Every submitted copy either landed or was dropped; duplicates add an
  // extra landed copy each. Nothing is force-flushed on this backend —
  // fences wait delays out in virtual time instead.
  EXPECT_EQ(fs.delivered + fs.dropped, fs.submitted + fs.duplicated);
  EXPECT_EQ(fs.flushed, 0U);
}

// The same chaos drill under the grouped plan and a two-level topology:
// frames that cross groups go through leader aggregation, and a fault on
// any of them must still leave every sample on exactly one rank — and
// replay identically from the same seeds.
TEST(VirtualWorld, GroupedRobustExchangeConservesAndReplaysUnderFaults) {
  const std::size_t n = 96;
  const int m = 12;
  const double q = 0.5;
  shuffle::Topology topo;
  topo.groups = 3;
  topo.group_size = 4;
  topo.intra_fraction = 0.5;
  const shuffle::ScopedExchangeTopology scoped(topo);

  comm::FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.dup_prob = 0.05;
  spec.delay_prob = 0.3;
  spec.min_delay_us = 100;
  spec.max_delay_us = 3'000;

  shuffle::ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.max_attempts = 6;
  robust.recv_deadline = std::chrono::milliseconds(400);
  robust.poll_interval = std::chrono::microseconds(200);

  const auto run = [&] {
    auto stores = make_stores(n, m, q);
    VirtualWorldOptions opts;
    opts.topology = topo;
    VirtualWorld world(m, opts);
    world.set_fault_plan(comm::FaultPlan(99, spec));
    for (std::size_t e = 0; e < 2; ++e) {
      world.run([&](comm::Communicator& c) {
        shuffle::run_pls_exchange_epoch(
            c, stores[static_cast<std::size_t>(c.rank())], 5, e, q,
            n / static_cast<std::size_t>(m), nullptr, nullptr, &robust);
      });
    }
    EXPECT_GT(world.fault_stats().dropped, 0U);
    std::vector<std::vector<SampleId>> out;
    for (const auto& s : stores) out.push_back(s.ids());
    return std::make_pair(out, world.now_us());
  };
  const auto [shards, end_us] = run();
  std::multiset<SampleId> all;
  for (const auto& s : shards) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), n);
  EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), n);

  const auto [again, again_us] = run();
  EXPECT_EQ(again, shards);
  EXPECT_EQ(again_us, end_us);
}

// Same seed, same backend, two worlds: the virtual replay of the fault
// oracle must be deterministic end to end.
TEST(VirtualWorld, FaultScheduleReplaysExactly) {
  const std::size_t n = 48;
  const int m = 6;
  comm::FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.dup_prob = 0.1;
  spec.delay_prob = 0.5;
  spec.max_delay_us = 2'000;

  shuffle::ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.recv_deadline = std::chrono::milliseconds(300);

  auto run_once = [&](std::vector<std::vector<SampleId>>& out) {
    auto stores = make_stores(n, m, 0.5);
    VirtualWorld world(m);
    world.set_fault_plan(comm::FaultPlan(42, spec));
    world.run([&](comm::Communicator& c) {
      shuffle::run_pls_exchange_epoch(
          c, stores[static_cast<std::size_t>(c.rank())], 3, 0, 0.5,
          n / static_cast<std::size_t>(m), nullptr, nullptr, &robust);
    });
    for (auto& s : stores) out.push_back(s.ids());
    return world.fault_stats();
  };

  std::vector<std::vector<SampleId>> a;
  std::vector<std::vector<SampleId>> b;
  const auto sa = run_once(a);
  const auto sb = run_once(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.submitted, sb.submitted);
  EXPECT_EQ(sa.dropped, sb.dropped);
  EXPECT_EQ(sa.duplicated, sb.duplicated);
  EXPECT_EQ(sa.delayed, sb.delayed);
  EXPECT_EQ(sa.delivered, sb.delivered);
}

TEST(VirtualWorld, FenceWaitsOutDelayedTrafficInVirtualTime) {
  comm::FaultSpec spec;
  spec.delay_prob = 1.0;
  spec.min_delay_us = 5'000;
  spec.max_delay_us = 5'000;
  VirtualWorld world(2);
  world.set_fault_plan(comm::FaultPlan(7, spec));
  bool got = false;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 0) c.send(1, 3, std::vector<std::byte>(8));
    c.barrier();
    c.fence_faults();
    if (c.rank() == 1) {
      auto msg = c.poll(0, 3);
      got = msg.has_value();
    }
  });
  EXPECT_TRUE(got);
  EXPECT_GE(world.now_us(), 5'000U);  // the delay elapsed, virtually
  EXPECT_EQ(world.fault_stats().flushed, 0U);
}

TEST(VirtualWorld, TopologyThrottlesInterGroupTraffic) {
  shuffle::Topology topo;
  topo.groups = 2;
  topo.group_size = 4;
  topo.intra_bw_bps = 1e9;
  topo.inter_bw_bps = 1e6;  // uplink 1000x slower than NICs

  VirtualWorldOptions opts;
  opts.topology = topo;
  auto elapsed_us = [&](int dest) {
    VirtualWorld world(8, opts);
    world.run([&](comm::Communicator& c) {
      if (c.rank() == 0) c.send(dest, 1, std::vector<std::byte>(1'000'000));
      if (c.rank() == dest) (void)c.recv(0, 1);
    });
    return world.now_us();
  };
  const std::uint64_t intra = elapsed_us(1);  // same group: NIC speed
  const std::uint64_t inter = elapsed_us(4);  // crosses the uplink
  EXPECT_NEAR(static_cast<double>(intra), 1e3, 2.0);    // 1 MB at 1 GB/s
  EXPECT_NEAR(static_cast<double>(inter), 1e6, 10.0);   // 1 MB at 1 MB/s
}

TEST(VirtualWorld, RunsThousandsOfRanksCheaply) {
  const int m = 1024;  // 2x the threaded backend's hard cap
  VirtualWorld world(m);
  std::vector<int> seen(static_cast<std::size_t>(m), 0);
  world.run([&](comm::Communicator& c) {
    // Ring neighbour exchange + a collective, at a scale the threaded
    // world refuses to construct.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send(next, 1, std::vector<std::byte>(64));
    (void)c.recv(prev, 1);
    const double v = 1.0;
    const auto sum = c.allreduce_sum(std::span<const double>(&v, 1));
    seen[static_cast<std::size_t>(c.rank())] =
        static_cast<int>(sum[0] + 0.5);
  });
  for (int r = 0; r < m; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], m);
  EXPECT_EQ(world.last_run_stats().flows, static_cast<std::uint64_t>(m));
}

TEST(VirtualWorld, DetectsDeadlockInsteadOfHanging) {
  VirtualWorld world(2);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    if (c.rank() == 0) (void)c.recv(1, 9);  // rank 1 never sends
  }),
               CheckError);
  // The blocked rank was unwound, not abandoned: the world stays usable.
  int got = 0;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 1) c.send(0, 9, std::vector<std::byte>(1));
    if (c.rank() == 0) got = static_cast<int>(c.recv(1, 9).payload.size());
  });
  EXPECT_EQ(got, 1);
}

TEST(VirtualWorld, PropagatesRankExceptions) {
  VirtualWorld world(4);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    c.barrier();
    DSHUF_CHECK(c.rank() != 2, "rank 2 gives up");
    c.barrier();  // peers must unwind, not hang
  }),
               CheckError);
  // The world stays usable after an aborted run.
  int ok = 0;
  world.run([&](comm::Communicator& c) {
    c.barrier();
    if (c.rank() == 0) ok = 1;
  });
  EXPECT_EQ(ok, 1);
}

// Fiber stacks are allocated by the first run and reused, uninitialised,
// by every later one. A body that touches 32 KiB of its stack must see
// the same results every time (under ASan this also covers unpoisoning
// the previous run's frames before a stack is reused).
TEST(VirtualWorld, ReusesFiberStacksAcrossRuns) {
  constexpr int kRanks = 8;
  VirtualWorld world(kRanks);
  auto body_result = [&] {
    std::vector<std::uint64_t> got(kRanks, 0);
    world.run([&](comm::Communicator& c) {
      volatile unsigned char scratch[32 * 1024];
      for (std::size_t i = 0; i < sizeof scratch; ++i) {
        scratch[i] = static_cast<unsigned char>(i * 31 + c.rank());
      }
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < sizeof scratch; i += 7) sum += scratch[i];
      std::vector<std::byte> payload(sizeof sum);
      std::memcpy(payload.data(), &sum, sizeof sum);
      c.send((c.rank() + 1) % kRanks, 3, std::move(payload));
      const comm::Message m = c.recv((c.rank() + kRanks - 1) % kRanks, 3);
      std::uint64_t from_prev = 0;
      std::memcpy(&from_prev, m.payload.data(), sizeof from_prev);
      got[static_cast<std::size_t>(c.rank())] = from_prev;
    });
    const VirtualWorld::RunStats st = world.last_run_stats();
    got.push_back(st.virtual_makespan_us);
    got.push_back(st.context_switches);
    got.push_back(st.flows);
    return got;
  };
  const auto first = body_result();
  EXPECT_NE(first[0], 0U);
  EXPECT_EQ(body_result(), first);
  EXPECT_EQ(body_result(), first);
}

TEST(VirtualWorld, ChecksMailboxesDrainedBetweenRuns) {
  VirtualWorld world(2);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    if (c.rank() == 0) c.send(1, 5, std::vector<std::byte>(4));
    c.barrier();
    c.fence_faults();  // delivery lands; nobody receives it
    c.barrier();
  }),
               CheckError);
}

}  // namespace
}  // namespace dshuf::netsim
