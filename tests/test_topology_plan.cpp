// Property tests for the topology-aware exchange plan at paper scale.
//
// When a Topology is installed, the exchange swaps its flat Algorithm-1
// permutations for ExchangePlan::rebuild_grouped — which must (a) keep the
// every-round-is-a-permutation balance guarantee the whole scheme rests
// on, (b) route each round's inter-group traffic as whole-group blocks
// (one destination group per source group — that's what makes a leader
// aggregate a single trunk instead of S fan-out flows), and (c) keep its
// dest tables bit-identical to the pinned digests below, which both the
// message-passing exchange and the grouped PartialLocalShuffler rely on.
// The sizes here are virtual-backend sizes (M up to 4096), far past what
// the threaded suite exercises.
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "shuffle/exchange_plan.hpp"
#include "shuffle/topology.hpp"
#include "util/error.hpp"

namespace dshuf::shuffle {
namespace {

void expect_round_is_permutation(const ExchangePlan& plan, std::size_t round,
                                 int m) {
  std::vector<char> hit(static_cast<std::size_t>(m), 0);
  for (int r = 0; r < m; ++r) {
    const int d = plan.dest(round, r);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, m);
    ASSERT_EQ(hit[static_cast<std::size_t>(d)], 0)
        << "round " << round << " maps two ranks onto " << d;
    hit[static_cast<std::size_t>(d)] = 1;
  }
}

TEST(TopologyPlan, EveryRoundIsAPermutationAtLargeG) {
  // 4096 ranks in 64 groups of 64 — the fig06 ceiling.
  const int groups = 64;
  const int group_size = 64;
  const int m = groups * group_size;
  ExchangePlan plan;
  plan.rebuild_grouped(2024, 5, groups, group_size, 8, 0.5);
  ASSERT_EQ(plan.workers(), m);
  ASSERT_EQ(plan.rounds(), 8U);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    expect_round_is_permutation(plan, i, m);
  }
}

TEST(TopologyPlan, RoundsMoveGroupsAsBlocks) {
  // In any round, all ranks of one source group land in ONE destination
  // group, and the group-level map is itself a permutation — so each
  // group's uplink carries at most one trunk per round and the total
  // inter-group degree over an epoch is bounded by min(rounds, G), never
  // S * (G - 1).
  const int groups = 32;
  const int group_size = 32;
  const std::size_t quota = 12;
  ExchangePlan plan;
  plan.rebuild_grouped(91, 2, groups, group_size, quota, 0.25);

  std::vector<std::set<int>> peers_of_group(static_cast<std::size_t>(groups));
  for (std::size_t i = 0; i < quota; ++i) {
    std::vector<int> gdest(static_cast<std::size_t>(groups), -1);
    std::set<int> used;
    for (int g = 0; g < groups; ++g) {
      for (int s = 0; s < group_size; ++s) {
        const int rank = g * group_size + s;
        const int dg = plan.dest(i, rank) / group_size;
        if (gdest[static_cast<std::size_t>(g)] == -1) {
          gdest[static_cast<std::size_t>(g)] = dg;
          used.insert(dg);
        } else {
          ASSERT_EQ(gdest[static_cast<std::size_t>(g)], dg)
              << "round " << i << ": group " << g << " split across "
              << "destination groups";
        }
      }
      peers_of_group[static_cast<std::size_t>(g)].insert(
          gdest[static_cast<std::size_t>(g)]);
    }
    EXPECT_EQ(used.size(), static_cast<std::size_t>(groups))
        << "round " << i << ": group-level map is not a permutation";
  }
  for (int g = 0; g < groups; ++g) {
    EXPECT_LE(peers_of_group[static_cast<std::size_t>(g)].size(),
              std::min(quota, static_cast<std::size_t>(groups)));
  }
}

TEST(TopologyPlan, IntraFractionRoundsStayHome) {
  const int groups = 16;
  const int group_size = 8;
  const std::size_t quota = 8;
  ExchangePlan plan;
  plan.rebuild_grouped(7, 0, groups, group_size, quota, 0.5);
  const std::size_t intra_rounds =
      static_cast<std::size_t>(0.5 * static_cast<double>(quota));
  for (std::size_t i = 0; i < intra_rounds; ++i) {
    for (int r = 0; r < groups * group_size; ++r) {
      EXPECT_EQ(plan.dest(i, r) / group_size, r / group_size)
          << "intra round " << i << " leaked rank " << r << " across groups";
    }
  }
}

// FNV-1a over every dest entry, round-major, as 4 little-endian bytes.
std::uint64_t dest_digest(const ExchangePlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      const auto v = static_cast<std::uint32_t>(plan.dest(i, r));
      for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xFFU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(TopologyPlan, GroupedPlanMatchesPinnedDigests) {
  // Dest tables of the grouped plan over this file's shapes and the
  // HierBalance grid (tests/test_hierarchical.cpp), recorded from the
  // dedicated hierarchical plan generator rebuild_grouped replaced. A
  // change here re-rolls every grouped exchange and every chaos schedule
  // built on one.
  const struct {
    std::uint64_t seed;
    std::size_t epoch;
    int groups;
    int group_size;
    std::size_t quota;
    double intra;
    std::uint64_t digest;
  } cases[] = {
      {2024, 5, 64, 64, 8, 0.50, 0xb4b9839aaf538b81ULL},
      {91, 2, 32, 32, 12, 0.25, 0xd6f72df37d424d55ULL},
      {7, 0, 16, 8, 8, 0.50, 0x3d5c7fd5d01e7565ULL},
      {55, 0, 8, 16, 10, 0.40, 0x109a0daebf060055ULL},
      {55, 1, 8, 16, 10, 0.40, 0x20f03f60677a3f75ULL},
      {55, 7, 8, 16, 10, 0.40, 0x425a5fe92c6e1b65ULL},
      {3, 1, 32, 16, 6, 0.50, 0x48a98e199f2e3bb1ULL},
      {7, 1, 1, 1, 12, 0.00, 0xa09d945a1cd8d6e5ULL},
      {7, 1, 1, 1, 12, 0.50, 0xa09d945a1cd8d6e5ULL},
      {7, 1, 1, 1, 12, 1.00, 0xa09d945a1cd8d6e5ULL},
      {7, 1, 1, 4, 12, 0.00, 0xe25e9f2365da4475ULL},
      {7, 1, 1, 4, 12, 0.50, 0xe25e9f2365da4475ULL},
      {7, 1, 1, 4, 12, 1.00, 0xe25e9f2365da4475ULL},
      {7, 1, 1, 8, 12, 0.00, 0x01ee5f73bf262725ULL},
      {7, 1, 1, 8, 12, 0.50, 0x01ee5f73bf262725ULL},
      {7, 1, 1, 8, 12, 1.00, 0x01ee5f73bf262725ULL},
      {7, 1, 2, 1, 12, 0.00, 0xe6f7f48a50e0df35ULL},
      {7, 1, 2, 1, 12, 0.50, 0xae39ef25580fe455ULL},
      {7, 1, 2, 1, 12, 1.00, 0xb46e10fd031ef9e5ULL},
      {7, 1, 2, 4, 12, 0.00, 0x0652a6fc9ade64c5ULL},
      {7, 1, 2, 4, 12, 0.50, 0x10c0f4502724bfc5ULL},
      {7, 1, 2, 4, 12, 1.00, 0xf4cd32116d8c6825ULL},
      {7, 1, 2, 8, 12, 0.00, 0x7375982afdb11365ULL},
      {7, 1, 2, 8, 12, 0.50, 0x71f52f252c369355ULL},
      {7, 1, 2, 8, 12, 1.00, 0xc4f7a63242154385ULL},
      {7, 1, 4, 1, 12, 0.00, 0xe25e9f2365da4475ULL},
      {7, 1, 4, 1, 12, 0.50, 0x80d67d57ad55d385ULL},
      {7, 1, 4, 1, 12, 1.00, 0xbb8339b6b730c625ULL},
      {7, 1, 4, 4, 12, 0.00, 0x9c1bde443ed0b305ULL},
      {7, 1, 4, 4, 12, 0.50, 0x867352a504f5c6d5ULL},
      {7, 1, 4, 4, 12, 1.00, 0x3285d39c6dfc2175ULL},
      {7, 1, 4, 8, 12, 0.00, 0xe131089f20644885ULL},
      {7, 1, 4, 8, 12, 0.50, 0x814c44abecacc785ULL},
      {7, 1, 4, 8, 12, 1.00, 0xfa67e043ecbb5a15ULL},
      {7, 1, 16, 1, 12, 0.00, 0xa84056d4ef6a2de5ULL},
      {7, 1, 16, 1, 12, 0.50, 0x5e26cb04439c40f5ULL},
      {7, 1, 16, 1, 12, 1.00, 0x49f431cf9dad9b25ULL},
      {7, 1, 16, 4, 12, 0.00, 0x3bf97b2fb1a6ca85ULL},
      {7, 1, 16, 4, 12, 0.50, 0x1f44367a827d6675ULL},
      {7, 1, 16, 4, 12, 1.00, 0x82bfe23da4fe3de5ULL},
      {7, 1, 16, 8, 12, 0.00, 0x8b2e7261e5dee735ULL},
      {7, 1, 16, 8, 12, 0.50, 0x71c152771503be65ULL},
      {7, 1, 16, 8, 12, 1.00, 0x94c07d578c7d6d05ULL},
  };
  for (const auto& c : cases) {
    PlanSpec spec;
    spec.seed = c.seed;
    spec.epoch = c.epoch;
    spec.workers = c.groups * c.group_size;
    spec.quota = c.quota;
    spec.groups = c.groups;
    spec.group_size = c.group_size;
    spec.intra_fraction = c.intra;
    ExchangePlan plan;
    plan.rebuild(spec);
    ASSERT_EQ(plan.rounds(), c.quota);
    EXPECT_EQ(dest_digest(plan), c.digest)
        << "seed " << c.seed << " epoch " << c.epoch << " shape "
        << c.groups << "x" << c.group_size << " intra " << c.intra;
  }
}

TEST(TopologyPlan, FlatSpecMatchesTheFlatRebuild) {
  // group_size == 0 selects Algorithm 1's flat plan, draw for draw.
  PlanSpec spec;
  spec.seed = 55;
  spec.epoch = 3;
  spec.workers = 12;
  spec.quota = 9;
  ExchangePlan via_spec;
  via_spec.rebuild(spec);
  const ExchangePlan flat(55, 3, 12, 9);
  EXPECT_EQ(dest_digest(via_spec), dest_digest(flat));
}

TEST(TopologyPlan, GroupedSpecMustCoverTheWorkers) {
  PlanSpec spec;
  spec.workers = 10;
  spec.quota = 2;
  spec.groups = 4;
  spec.group_size = 2;
  ExchangePlan plan;
  EXPECT_THROW(plan.rebuild(spec), CheckError);
}

TEST(TopologyPlan, GroupedSpecRejectsFractionOutsideUnitInterval) {
  PlanSpec spec;
  spec.workers = 8;
  spec.quota = 4;
  spec.groups = 2;
  spec.group_size = 4;
  ExchangePlan plan;
  for (const double bad : {-0.25, 1.5}) {
    spec.intra_fraction = bad;
    EXPECT_THROW(plan.rebuild(spec), CheckError) << bad;
  }
  spec.intra_fraction = 1.0;
  EXPECT_NO_THROW(plan.rebuild(spec));
}

TEST(TopologyPlan, RebuildSwitchesShapeInPlace) {
  // The exchange keeps one plan in per-rank scratch and rebuilds it every
  // epoch; flipping between grouped and flat specs (and quotas) in place
  // must leave exactly the table a fresh plan would hold.
  PlanSpec grouped;
  grouped.seed = 91;
  grouped.epoch = 4;
  grouped.workers = 32;
  grouped.quota = 10;
  grouped.groups = 4;
  grouped.group_size = 8;
  grouped.intra_fraction = 0.3;
  PlanSpec flat = grouped;
  flat.groups = 1;
  flat.group_size = 0;
  flat.quota = 6;

  const auto fresh = [](const PlanSpec& spec) {
    ExchangePlan p;
    p.rebuild(spec);
    return dest_digest(p);
  };
  ExchangePlan reused;
  for (const PlanSpec* spec : {&grouped, &flat, &grouped, &flat}) {
    reused.rebuild(*spec);
    EXPECT_EQ(reused.rounds(), spec->quota);
    EXPECT_EQ(dest_digest(reused), fresh(*spec))
        << "group_size " << spec->group_size;
    for (std::size_t i = 0; i < reused.rounds(); ++i) {
      expect_round_is_permutation(reused, i, spec->workers);
      for (int r = 0; r < spec->workers; ++r) {
        ASSERT_EQ(reused.source(i, reused.dest(i, r)), r);
      }
    }
  }
}

TEST(TopologyPlan, InternedPlanMatchesRebuild) {
  // The virtual backend's shared plan cache goes through the same
  // rebuild(PlanSpec) entry point, grouped and flat alike, and hands every
  // caller of one spec the same immutable plan.
  PlanSpec grouped;
  grouped.seed = 17;
  grouped.epoch = 2;
  grouped.workers = 64;
  grouped.quota = 5;
  grouped.groups = 8;
  grouped.group_size = 8;
  grouped.intra_fraction = 0.4;
  PlanSpec flat = grouped;
  flat.groups = 1;
  flat.group_size = 0;
  for (const PlanSpec* spec : {&grouped, &flat}) {
    ExchangePlan direct;
    direct.rebuild(*spec);
    const auto interned = intern_exchange_plan(*spec);
    ASSERT_NE(interned, nullptr);
    EXPECT_EQ(dest_digest(*interned), dest_digest(direct));
    EXPECT_EQ(intern_exchange_plan(*spec), interned);
  }
  EXPECT_NE(intern_exchange_plan(grouped), intern_exchange_plan(flat));
}

TEST(TopologyPlan, SourceInvertsDest) {
  ExchangePlan plan;
  plan.rebuild_grouped(3, 1, 32, 16, 6, 0.5);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      EXPECT_EQ(plan.source(i, plan.dest(i, r)), r);
    }
  }
}

TEST(TopologyResolution, ValidatesShape) {
  Topology topo;
  topo.groups = 4;
  topo.group_size = 0;  // derive
  const Topology r = topo.resolved_for(64);
  EXPECT_EQ(r.group_size, 16);
  EXPECT_EQ(r.group_of(17), 1);
  EXPECT_EQ(r.leader_of(2), 32);
  EXPECT_THROW(topo.resolved_for(62), CheckError);  // 62 % 4 != 0
  Topology bad = topo;
  bad.groups = 0;
  EXPECT_THROW(bad.resolved_for(64), CheckError);
}

}  // namespace
}  // namespace dshuf::shuffle
