#include "shuffle/exchange_plan.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace dshuf::shuffle {
namespace {

// THE property of Algorithm 1: every worker sends exactly k samples and
// receives exactly k samples, for any (M, k). Swept parametrically.
class BalanceProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BalanceProperty, EveryWorkerSendsAndReceivesQuota) {
  const auto [workers, quota] = GetParam();
  const ExchangePlan plan(/*seed=*/77, /*epoch=*/3, workers, quota);
  EXPECT_EQ(plan.rounds(), quota);

  std::vector<std::size_t> sent(workers, 0);
  std::vector<std::size_t> received(workers, 0);
  for (std::size_t i = 0; i < quota; ++i) {
    for (int r = 0; r < workers; ++r) {
      ++sent[r];
      ++received[plan.dest(i, r)];
    }
  }
  for (int r = 0; r < workers; ++r) {
    EXPECT_EQ(sent[r], quota);
    EXPECT_EQ(received[r], quota) << "rank " << r << " imbalance";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScaleSweep, BalanceProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 64, 257),
                       ::testing::Values<std::size_t>(0, 1, 5, 32)));

TEST(ExchangePlan, EachRoundIsAPermutation) {
  const int m = 19;
  const ExchangePlan plan(5, 0, m, 7);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    std::vector<bool> hit(m, false);
    for (int r = 0; r < m; ++r) {
      const int d = plan.dest(i, r);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, m);
      EXPECT_FALSE(hit[d]);
      hit[d] = true;
    }
  }
}

TEST(ExchangePlan, SourceIsInverseOfDest) {
  const ExchangePlan plan(5, 2, 11, 4);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < 11; ++r) {
      EXPECT_EQ(plan.source(i, plan.dest(i, r)), r);
    }
  }
}

// The shared-seed property that makes the distributed implementation work:
// any worker can reconstruct the identical plan locally.
TEST(ExchangePlan, DeterministicForSeedAndEpoch) {
  const ExchangePlan a(123, 9, 17, 6);
  const ExchangePlan b(123, 9, 17, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 17; ++r) {
      EXPECT_EQ(a.dest(i, r), b.dest(i, r));
    }
  }
}

TEST(ExchangePlan, DifferentEpochsGiveDifferentPlans) {
  const ExchangePlan a(123, 0, 17, 6);
  const ExchangePlan b(123, 1, 17, 6);
  int differences = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 17; ++r) {
      if (a.dest(i, r) != b.dest(i, r)) ++differences;
    }
  }
  EXPECT_GT(differences, 50);
}

TEST(ExchangePlan, DestsAndSourcesForRankAreConsistent) {
  const ExchangePlan plan(7, 1, 9, 5);
  const auto dests = plan.dests_for(4);
  const auto sources = plan.sources_for(4);
  ASSERT_EQ(dests.size(), 5U);
  ASSERT_EQ(sources.size(), 5U);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dests[i], plan.dest(i, 4));
    EXPECT_EQ(sources[i], plan.source(i, 4));
  }
}

TEST(ExchangePlan, SelfSendsOccurAtExpectedRate) {
  // A uniform random permutation has ~1 fixed point in expectation, so
  // across R rounds self-sends ~ R.
  const std::size_t rounds = 200;
  const ExchangePlan plan(3, 0, 50, rounds);
  const std::size_t selfs = plan.self_sends();
  EXPECT_GT(selfs, rounds / 4);
  EXPECT_LT(selfs, rounds * 4);
}

TEST(ExchangePlan, DerangementOptionEliminatesSelfSends) {
  const ExchangePlan plan(3, 0, 50, 50, /*allow_self=*/false);
  EXPECT_EQ(plan.self_sends(), 0U);
  // Still balanced.
  std::vector<std::size_t> received(50, 0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < 50; ++r) ++received[plan.dest(i, r)];
  }
  for (auto c : received) EXPECT_EQ(c, plan.rounds());
}

TEST(ExchangePlan, BoundsChecked) {
  const ExchangePlan plan(1, 0, 4, 2);
  EXPECT_THROW((void)plan.dest(2, 0), CheckError);
  EXPECT_THROW((void)plan.dest(0, 4), CheckError);
  EXPECT_THROW((void)plan.dest(0, -1), CheckError);
}

TEST(ExchangeQuota, CeilAndClamp) {
  EXPECT_EQ(exchange_quota(100, 0.0), 0U);
  EXPECT_EQ(exchange_quota(100, 0.1), 10U);
  EXPECT_EQ(exchange_quota(100, 0.101), 11U);  // ceil
  EXPECT_EQ(exchange_quota(100, 1.0), 100U);
  EXPECT_EQ(exchange_quota(3, 0.5), 2U);
  EXPECT_THROW(exchange_quota(10, 1.5), CheckError);
  EXPECT_THROW(exchange_quota(10, -0.1), CheckError);
}

// The ablation claim: naive independent destinations are NOT balanced —
// some worker receives measurably more than the quota.
TEST(NaiveExchange, IsImbalanced) {
  const int m = 64;
  const std::size_t quota = 32;
  const auto recv = naive_exchange_recv_counts(9, 0, m, quota);
  const auto mx = *std::max_element(recv.begin(), recv.end());
  const auto mn = *std::min_element(recv.begin(), recv.end());
  EXPECT_GT(mx, quota);  // someone is oversubscribed
  EXPECT_LT(mn, quota);  // someone starves
  // Conservation still holds in aggregate.
  std::size_t total = 0;
  for (auto c : recv) total += c;
  EXPECT_EQ(total, quota * m);
}

// ---------------------------------------------------------- plan cache

/// FNV-1a over both tables, so an in-place rebuild that left a stale
/// entry on either side shows up.
std::uint64_t table_digest(const ExchangePlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](int v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<std::uint32_t>(v) >> (8 * b)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  mix(plan.workers());
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      mix(plan.dest(i, r));
      mix(plan.source(i, r));
    }
  }
  return h;
}

std::uint64_t fresh_digest(const PlanSpec& spec) {
  ExchangePlan plan;
  plan.rebuild(spec);
  return table_digest(plan);
}

PlanSpec flat_spec(std::uint64_t seed, std::size_t epoch, int m,
                   std::size_t quota) {
  PlanSpec spec;
  spec.seed = seed;
  spec.epoch = epoch;
  spec.workers = m;
  spec.quota = quota;
  return spec;
}

PlanSpec grouped_spec(std::uint64_t seed, std::size_t epoch, int groups,
                      int group_size, std::size_t quota, double intra) {
  PlanSpec spec = flat_spec(seed, epoch, groups * group_size, quota);
  spec.groups = groups;
  spec.group_size = group_size;
  spec.intra_fraction = intra;
  return spec;
}

TEST(PlanCache, RecycledSlotsMatchFreshRebuildsAcrossShapes) {
  // One holder at a time, so every fetch after the first few rebuilds a
  // recycled slot in place: flat -> grouped -> flat, quota growing and
  // shrinking, and a different M, several times round.
  const std::vector<PlanSpec> shapes = {
      flat_spec(301, 0, 16, 5),           grouped_spec(301, 1, 4, 4, 5, 0.5),
      flat_spec(301, 2, 16, 5),           flat_spec(301, 3, 16, 9),
      grouped_spec(301, 4, 2, 8, 2, 0.0), flat_spec(301, 5, 16, 1),
      grouped_spec(301, 6, 3, 8, 7, 1.0), flat_spec(301, 7, 7, 4),
      flat_spec(301, 8, 24, 3),           grouped_spec(301, 9, 4, 4, 5, 0.5)};
  std::set<const ExchangePlan*> storage;
  std::shared_ptr<const ExchangePlan> held;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (PlanSpec spec : shapes) {
      spec.epoch += 10 * pass;
      held.reset();
      held = intern_exchange_plan(spec);
      ASSERT_NE(held, nullptr);
      EXPECT_EQ(held->workers(), spec.workers);
      EXPECT_EQ(held->rounds(), spec.quota);
      EXPECT_EQ(table_digest(*held), fresh_digest(spec))
          << "pass " << pass << " epoch " << spec.epoch;
      storage.insert(held.get());
    }
  }
  // 30 fetches with one holder at a time reuse slot storage instead of
  // allocating a plan each.
  EXPECT_LE(storage.size(), kPlanCacheSlots);
}

TEST(PlanCache, HeldPlanIsNeverRewritten) {
  const PlanSpec pinned_spec = grouped_spec(302, 0, 4, 8, 6, 0.5);
  const auto pinned = intern_exchange_plan(pinned_spec);
  const std::uint64_t pinned_digest = table_digest(*pinned);
  ASSERT_EQ(pinned_digest, fresh_digest(pinned_spec));

  // Many more specs than slots, one held at a time: they cycle through
  // the other slots and never take the pinned one.
  std::shared_ptr<const ExchangePlan> other;
  for (std::size_t e = 1; e <= 4 * kPlanCacheSlots; ++e) {
    const PlanSpec spec = e % 2 == 0 ? flat_spec(302, e, 32, 6)
                                     : grouped_spec(302, e, 4, 8, 6, 0.5);
    other.reset();
    other = intern_exchange_plan(spec);
    EXPECT_NE(other, pinned);
    EXPECT_EQ(table_digest(*other), fresh_digest(spec)) << "epoch " << e;
    EXPECT_EQ(table_digest(*pinned), pinned_digest) << "after epoch " << e;
  }
  other.reset();

  // Every slot held at once: the next spec is built in a fresh
  // allocation, and nothing held is touched.
  std::vector<std::shared_ptr<const ExchangePlan>> all;
  for (std::size_t e = 100; e < 100 + 2 * kPlanCacheSlots; ++e) {
    const PlanSpec spec = flat_spec(302, e, 32, 6);
    all.push_back(intern_exchange_plan(spec));
    EXPECT_EQ(table_digest(*all.back()), fresh_digest(spec)) << "epoch " << e;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(table_digest(*all[i]),
              fresh_digest(flat_spec(302, 100 + i, 32, 6)));
  }
  EXPECT_EQ(table_digest(*pinned), pinned_digest);
  // A held spec is shared, not rebuilt.
  EXPECT_EQ(intern_exchange_plan(pinned_spec), pinned);
}

TEST(PlanCache, ConcurrentFetchersReadFreshBuilds) {
  // Threads walk the same epoch sequence at their own pace, each dropping
  // its previous plan before fetching the next — the rank pattern. Slots
  // are recycled under them; a plan read must never see another spec's
  // tables.
  constexpr int kThreads = 8;
  constexpr std::size_t kEpochs = 60;
  std::vector<PlanSpec> specs;
  std::vector<std::uint64_t> expected;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    specs.push_back(e % 3 == 0 ? grouped_spec(303, e, 4, 4, 3 + e % 5, 0.5)
                               : flat_spec(303, e, 16, 3 + e % 5));
    expected.push_back(fresh_digest(specs.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::shared_ptr<const ExchangePlan> plan;
      for (std::size_t e = 0; e < kEpochs; ++e) {
        plan.reset();
        plan = intern_exchange_plan(specs[e]);
        if (table_digest(*plan) != expected[e]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dshuf::shuffle
