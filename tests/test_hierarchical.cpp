// The grouped (hierarchical) exchange of Section V-F: the plan's
// properties (ExchangePlan::rebuild_grouped) and PartialLocalShuffler
// driving it when constructed with a group count.
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "shuffle/exchange_plan.hpp"
#include "shuffle/shuffler.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

ExchangePlan grouped_plan(std::uint64_t seed, std::size_t epoch, int groups,
                          int group_size, std::size_t quota, double intra) {
  PlanSpec spec;
  spec.seed = seed;
  spec.epoch = epoch;
  spec.workers = groups * group_size;
  spec.quota = quota;
  spec.groups = groups;
  spec.group_size = group_size;
  spec.intra_fraction = intra;
  ExchangePlan plan;
  plan.rebuild(spec);
  return plan;
}

// True if round i sends at least one rank outside its group.
bool round_is_inter_group(const ExchangePlan& plan, std::size_t round,
                          int group_size) {
  for (int r = 0; r < plan.workers(); ++r) {
    if (plan.dest(round, r) / group_size != r / group_size) return true;
  }
  return false;
}

// The balance property must survive the hierarchical constraint: each
// round is still a permutation of all ranks.
class HierBalance
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(HierBalance, EveryRoundIsAPermutation) {
  const auto [groups, group_size, intra] = GetParam();
  const int m = groups * group_size;
  const std::size_t quota = 12;
  const ExchangePlan plan =
      grouped_plan(7, 1, groups, group_size, quota, intra);
  EXPECT_EQ(plan.rounds(), quota);
  for (std::size_t i = 0; i < quota; ++i) {
    std::vector<bool> hit(m, false);
    for (int r = 0; r < m; ++r) {
      const int d = plan.dest(i, r);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, m);
      EXPECT_FALSE(hit[d]);
      hit[d] = true;
      EXPECT_EQ(plan.source(i, d), r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierBalance,
    ::testing::Combine(::testing::Values(1, 2, 4, 16),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(0.0, 0.5, 1.0)));

TEST(HierarchicalPlan, IntraRoundsStayWithinGroups) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 8, 10, /*intra=*/1.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    EXPECT_FALSE(round_is_inter_group(plan, i, 8));
  }
  EXPECT_DOUBLE_EQ(plan.intra_group_fraction(8), 1.0);
}

TEST(HierarchicalPlan, InterRoundsPermuteGroupsAsBlocks) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 8, 10, /*intra=*/0.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    // All ranks of a group send to the same destination group.
    for (int g = 0; g < 4; ++g) {
      const int dg = plan.dest(i, g * 8) / 8;
      for (int s = 1; s < 8; ++s) {
        EXPECT_EQ(plan.dest(i, g * 8 + s) / 8, dg);
      }
    }
  }
}

TEST(HierarchicalPlan, IntraFractionSplitsRounds) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 4, 10, /*intra=*/0.5);
  // The first five rounds stay home; the last five draw group
  // permutations, one of which maps every group to itself for this seed.
  std::size_t inter = 0;
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    if (round_is_inter_group(plan, i, 4)) {
      EXPECT_GE(i, 5U) << "intra round " << i << " crossed groups";
      ++inter;
    }
  }
  EXPECT_EQ(inter, 4U);
  // Traffic locality: intra rounds are fully local; inter rounds mostly
  // cross (a group can map to itself), so locality is at least the intra
  // share.
  EXPECT_GE(plan.intra_group_fraction(4), 0.5);
  EXPECT_LT(plan.intra_group_fraction(4), 0.9);
}

TEST(HierarchicalPlan, SingleGroupIsAllIntra) {
  const ExchangePlan plan = grouped_plan(3, 0, 1, 16, 8, /*intra=*/0.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    EXPECT_FALSE(round_is_inter_group(plan, i, 16));
  }
}

TEST(HierarchicalPlan, DeterministicForSeedAndEpoch) {
  const ExchangePlan a = grouped_plan(9, 2, 2, 4, 6, 0.5);
  const ExchangePlan b = grouped_plan(9, 2, 2, 4, 6, 0.5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 8; ++r) EXPECT_EQ(a.dest(i, r), b.dest(i, r));
  }
}

TEST(HierarchicalShuffler, ConservesSamples) {
  const std::size_t n = 96;
  PartialLocalShuffler hs(make_shards(n, 8), 0.3, 5, true, /*groups=*/2);
  std::multiset<SampleId> expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.insert(static_cast<SampleId>(i));
  }
  for (std::size_t e = 0; e < 4; ++e) {
    hs.begin_epoch(e);
    std::multiset<SampleId> got;
    for (int w = 0; w < 8; ++w) {
      got.insert(hs.local_order(w).begin(), hs.local_order(w).end());
    }
    EXPECT_EQ(got, expected) << "epoch " << e;
  }
}

TEST(HierarchicalShuffler, BalancedVolumesAndStorageBound) {
  PartialLocalShuffler hs(make_shards(120, 6), 0.25, 5, true, /*groups=*/3);
  hs.begin_epoch(0);
  const auto* stats = hs.last_stats();
  const std::size_t quota = exchange_quota(20, 0.25);
  for (std::size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(stats->sent_per_worker[w], quota);
    EXPECT_EQ(stats->received_per_worker[w], quota);
    EXPECT_LE(stats->peak_occupancy_per_worker[w], 20 + quota);
  }
}

TEST(HierarchicalShuffler, ReportsTrafficLocality) {
  PartialLocalShuffler hs(make_shards(128, 8), 0.5, 5, true, /*groups=*/4,
                          /*intra_fraction=*/0.75);
  hs.begin_epoch(0);
  EXPECT_GE(hs.last_intra_fraction(), 0.75);
}

TEST(HierarchicalShuffler, MixesAcrossGroupsEventually) {
  const std::size_t n = 128;
  auto shards = make_shards(n, 8);
  const std::set<SampleId> w0(shards[0].begin(), shards[0].end());
  PartialLocalShuffler hs(std::move(shards), 0.3, 5, true, /*groups=*/4,
                          /*intra_fraction=*/0.5);
  for (std::size_t e = 0; e < 12; ++e) hs.begin_epoch(e);
  // Worker 6 is in a different group than worker 0; inter-group rounds
  // must have carried some of worker 0's original samples there.
  std::size_t migrated = 0;
  for (int w = 2; w < 8; ++w) {
    for (auto id : hs.local_order(w)) migrated += w0.count(id);
  }
  EXPECT_GT(migrated, 0U);
}

TEST(HierarchicalShuffler, RejectsIndivisibleGroups) {
  EXPECT_THROW(
      PartialLocalShuffler(make_shards(60, 6), 0.3, 5, true, /*groups=*/4),
      CheckError);
}

TEST(HierarchicalShuffler, LabelEncodesGroups) {
  PartialLocalShuffler hs(make_shards(32, 4), 0.5, 5, true, 2);
  EXPECT_EQ(hs.label(), "partial-0.5-hier2");
}

TEST(HierarchicalShuffler, EpochZeroExchangeFollowsTheFlag) {
  const std::size_t n = 64;
  const auto initial = make_shards(n, 8);
  const std::size_t quota = exchange_quota(n / 8, 0.5);

  const auto as_set = [](const std::vector<SampleId>& ids) {
    return std::multiset<SampleId>(ids.begin(), ids.end());
  };

  PartialLocalShuffler deferred(initial, 0.5, 5,
                                /*exchange_on_first_epoch=*/false,
                                /*groups=*/2);
  deferred.begin_epoch(0);
  EXPECT_EQ(deferred.last_plan(), nullptr);
  EXPECT_EQ(deferred.last_stats()->total_sent(), 0U);
  EXPECT_DOUBLE_EQ(deferred.last_intra_fraction(), 1.0);
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(as_set(deferred.local_order(w)),
              as_set(initial[static_cast<std::size_t>(w)]))
        << "worker " << w << " exchanged before epoch 1";
  }
  deferred.begin_epoch(1);
  ASSERT_NE(deferred.last_plan(), nullptr);
  EXPECT_EQ(deferred.last_stats()->total_sent(), 8 * quota);

  PartialLocalShuffler eager(initial, 0.5, 5, true, /*groups=*/2);
  eager.begin_epoch(0);
  ASSERT_NE(eager.last_plan(), nullptr);
  EXPECT_EQ(eager.last_stats()->total_sent(), 8 * quota);
}

TEST(HierarchicalShuffler, LastPlanIsTheGroupedPlan) {
  // The shuffler plans through the grouped rebuild, not the flat one:
  // its last plan is the grouped table for (seed, epoch), and the
  // locality it reports is that plan's.
  const int groups = 4;
  const int group_size = 4;
  PartialLocalShuffler hs(make_shards(160, 16), 0.5, 21, true, groups,
                          /*intra_fraction=*/0.25);
  const std::size_t quota = exchange_quota(10, 0.5);
  for (std::size_t e = 0; e < 3; ++e) {
    hs.begin_epoch(e);
    const ExchangePlan* plan = hs.last_plan();
    ASSERT_NE(plan, nullptr);
    const ExchangePlan expected =
        grouped_plan(21, e, groups, group_size, quota, 0.25);
    ASSERT_EQ(plan->rounds(), expected.rounds());
    for (std::size_t i = 0; i < plan->rounds(); ++i) {
      for (int r = 0; r < 16; ++r) {
        ASSERT_EQ(plan->dest(i, r), expected.dest(i, r))
            << "epoch " << e << " round " << i << " rank " << r;
      }
    }
    EXPECT_DOUBLE_EQ(hs.last_intra_fraction(),
                     plan->intra_group_fraction(group_size));
  }
}

TEST(HierarchicalShuffler, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    PartialLocalShuffler hs(make_shards(96, 8), 0.4, seed, true,
                            /*groups=*/4, /*intra_fraction=*/0.5);
    std::vector<std::vector<SampleId>> orders;
    for (std::size_t e = 0; e < 3; ++e) {
      hs.begin_epoch(e);
      for (int w = 0; w < 8; ++w) orders.push_back(hs.local_order(w));
    }
    return orders;
  };
  EXPECT_EQ(run(13), run(13));
  EXPECT_NE(run(13), run(14));
}

// Shard contents after three grouped epochs, pinned as FNV-1a digests of
// every worker's visit order (and the last epoch's locality), so the
// grouped exchange stays bit-identical across refactors. Recorded with
// the dedicated hierarchical driver this shuffler absorbed.
TEST(HierarchicalShuffler, MatchesPinnedDigests) {
  const struct {
    std::size_t n;
    std::size_t m;
    double q;
    int groups;
    double intra;
    std::uint64_t digest;
    double last_intra;
  } cases[] = {
      {96, 8, 0.30, 2, 0.50, 0xb0f4bca399cde995ULL, 0.75},
      {128, 8, 0.50, 4, 0.75, 0x5bfe656264be1005ULL, 0.8125},
      {48, 6, 0.50, 1, 0.50, 0xf1fd498d9bff8555ULL, 1.0},
      {32, 8, 0.50, 8, 0.50, 0xf26ccb72c88edb95ULL, 0.5},
      {120, 6, 0.25, 3, 0.00, 0x50a5701ad7359bc5ULL, 8.0 / 15.0},
  };
  for (const auto& c : cases) {
    PartialLocalShuffler hs(make_shards(c.n, c.m), c.q, 5, true, c.groups,
                            c.intra);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t e = 0; e < 3; ++e) {
      hs.begin_epoch(e);
      for (int w = 0; w < static_cast<int>(c.m); ++w) {
        for (const SampleId id : hs.local_order(w)) {
          for (int b = 0; b < 4; ++b) {
            h ^= (id >> (8 * b)) & 0xFFU;
            h *= 0x100000001b3ULL;
          }
        }
      }
    }
    EXPECT_EQ(h, c.digest) << "n=" << c.n << " groups=" << c.groups;
    EXPECT_DOUBLE_EQ(hs.last_intra_fraction(), c.last_intra)
        << "n=" << c.n << " groups=" << c.groups;
  }
}

}  // namespace
}  // namespace dshuf::shuffle
