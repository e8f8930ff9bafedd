// Seed-sweep equivalence property: the three executions of partial local
// shuffling — the sequential PartialLocalShuffler and the message-passing
// run_pls_exchange_epoch over a real comm::World on both its fast and its
// robust (DATA/ACK) path — must produce bit-identical shard contents for
// every point of a (workers, Q, seed) grid, flat and grouped. This is the
// repo's strongest determinism claim: no random draw depends on execution
// order.
#include <gtest/gtest.h>

#include <vector>

#include "comm/comm.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> deal_shards(std::size_t n, int workers) {
  std::vector<std::vector<SampleId>> shards(
      static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(workers)].push_back(
        static_cast<SampleId>(i));
  }
  return shards;
}

std::vector<std::vector<SampleId>> store_ids(
    const std::vector<ShardStore>& stores) {
  std::vector<std::vector<SampleId>> out;
  out.reserve(stores.size());
  for (const auto& s : stores) out.push_back(s.ids());
  return out;
}

/// Message-passing execution: M rank-threads running the exchange (the
/// robust protocol when `robust` is set) plus the shared post-exchange
/// local shuffle, for `epochs` epochs.
std::vector<std::vector<SampleId>> run_world_epochs(
    std::vector<std::vector<SampleId>> shards, double q, std::uint64_t seed,
    std::size_t epochs, const ExchangeRobustness* robust = nullptr) {
  const int m = static_cast<int>(shards.size());
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  std::vector<ShardStore> stores;
  stores.reserve(shards.size());
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(c, store, seed, epoch, q, min_shard, nullptr,
                             nullptr, robust);
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }
  return store_ids(stores);
}

TEST(EquivalenceSweep, AllThreeDriversAgreeAcrossTheGrid) {
  constexpr std::size_t kEpochs = 2;
  const ExchangeRobustness robust;
  for (int m : {1, 2, 4, 7}) {
    const std::size_t n = static_cast<std::size_t>(m) * 12;
    for (double q : {0.0, 0.1, 0.3, 1.0}) {
      for (std::uint64_t seed : {11ULL, 97ULL}) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " q=" << q << " seed=" << seed);

        PartialLocalShuffler pls(deal_shards(n, m), q, seed);
        for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
          pls.begin_epoch(epoch);
        }
        const auto reference = store_ids(pls.stores());
        EXPECT_EQ(run_world_epochs(deal_shards(n, m), q, seed, kEpochs),
                  reference)
            << "fast message-passing exchange diverged from the "
               "sequential driver";
        EXPECT_EQ(
            run_world_epochs(deal_shards(n, m), q, seed, kEpochs, &robust),
            reference)
            << "robust message-passing exchange diverged from the "
               "sequential driver";
      }
    }
  }
}

TEST(EquivalenceSweep, RobustAndFastPathsAgreeOnPerfectFabric) {
  // Same world, no faults: the DATA/ACK protocol must land on exactly the
  // shards of the plain fire-and-wait path.
  const std::uint64_t seed = 31;
  const double q = 0.5;
  for (int m : {2, 5}) {
    const std::size_t n = static_cast<std::size_t>(m) * 10;
    const auto fast = run_world_epochs(deal_shards(n, m), q, seed, 2);
    const ExchangeRobustness robust;
    EXPECT_EQ(run_world_epochs(deal_shards(n, m), q, seed, 2, &robust), fast)
        << "m=" << m;
  }
}

// The grouped plan of Section V-F has the same three executions: the
// grouped PartialLocalShuffler, and the message-passing exchange (fast and
// robust) under a process-wide Topology of the same shape. All three fetch
// the plan from intern_exchange_plan, so shards must agree bit for bit at
// every (shape, shard size, intra fraction, Q, seed) point. Sharing the
// cache, this sweep cannot tell a wrong cached plan from a right one; the
// PlanCache.* tests hold the cache to a fresh ExchangePlan::rebuild.
std::vector<std::vector<SampleId>> grouped_reference(std::size_t n, int m,
                                                     double q,
                                                     std::uint64_t seed,
                                                     int groups, double intra,
                                                     std::size_t epochs) {
  PartialLocalShuffler pls(deal_shards(n, m), q, seed, true, groups, intra);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    pls.begin_epoch(epoch);
  }
  return store_ids(pls.stores());
}

TEST(EquivalenceSweep, GroupedDriversAgreeAcrossTheGrid) {
  // Three epochs, so the ranks' later plans come from recycled cache
  // slots.
  constexpr std::size_t kEpochs = 3;
  const ExchangeRobustness robust;
  const struct {
    int m;
    int groups;
  } shapes[] = {{4, 2}, {6, 2}, {6, 3}, {8, 2}, {8, 4}};
  for (const auto& shape : shapes) {
    for (std::size_t per_rank : {10U, 12U}) {
      const std::size_t n = static_cast<std::size_t>(shape.m) * per_rank;
      for (double intra : {0.0, 0.5, 1.0}) {
        Topology topo;
        topo.groups = shape.groups;
        topo.intra_fraction = intra;
        const ScopedExchangeTopology scoped(topo);
        for (double q : {0.3, 0.5, 1.0}) {
          for (std::uint64_t seed : {11ULL, 23ULL, 97ULL}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << shape.m << " n=" << n
                         << " groups=" << shape.groups << " intra=" << intra
                         << " q=" << q << " seed=" << seed);
            const auto reference = grouped_reference(
                n, shape.m, q, seed, shape.groups, intra, kEpochs);
            EXPECT_EQ(
                run_world_epochs(deal_shards(n, shape.m), q, seed, kEpochs),
                reference)
                << "fast grouped exchange diverged from the grouped "
                   "sequential driver";
            EXPECT_EQ(run_world_epochs(deal_shards(n, shape.m), q, seed,
                                       kEpochs, &robust),
                      reference)
                << "robust grouped exchange diverged from the grouped "
                   "sequential driver";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dshuf::shuffle
