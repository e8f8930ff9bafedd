// Unit + randomized differential tests for the id -> slot index
// (io/slot_index.hpp): it must agree with a std::map reference over
// arbitrary put/erase/find/clear schedules, through tombstoning and
// rehashes, and keep linear probing's probe counts and amortised growth.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "io/slot_index.hpp"

namespace dshuf::io {
namespace {

TEST(SlotIndex, PutFindEraseBasics) {
  SlotIndex idx;
  EXPECT_EQ(idx.size(), 0U);

  EXPECT_TRUE(idx.put(7, 70));
  EXPECT_TRUE(idx.put(3, 30));
  EXPECT_FALSE(idx.put(7, 71));  // overwrite is not an insert
  EXPECT_EQ(idx.size(), 2U);

  std::uint64_t v = 0;
  ASSERT_TRUE(idx.find(7, v));
  EXPECT_EQ(v, 71U);
  ASSERT_TRUE(idx.find(3, v));
  EXPECT_EQ(v, 30U);
  EXPECT_FALSE(idx.find(4, v));

  EXPECT_TRUE(idx.erase(7));
  EXPECT_FALSE(idx.erase(7));
  EXPECT_FALSE(idx.find(7, v));
  EXPECT_EQ(idx.size(), 1U);
}

TEST(SlotIndex, ClearEmptiesAndStaysUsable) {
  SlotIndex idx;
  for (data::SampleId id = 0; id < 500; ++id) idx.put(id, id * 2);
  idx.clear();
  EXPECT_EQ(idx.size(), 0U);
  std::uint64_t v = 0;
  EXPECT_FALSE(idx.find(123, v));
  for (data::SampleId id = 0; id < 500; ++id) idx.put(id, id * 3);
  ASSERT_TRUE(idx.find(123, v));
  EXPECT_EQ(v, 369U);
}

TEST(SlotIndex, ForEachVisitsEveryLivePair) {
  SlotIndex idx;
  std::map<data::SampleId, std::uint64_t> ref;
  for (data::SampleId id = 0; id < 300; id += 3) {
    idx.put(id, id + 1000);
    ref[id] = id + 1000;
  }
  for (data::SampleId id = 0; id < 300; id += 9) {
    idx.erase(id);
    ref.erase(id);
  }
  std::map<data::SampleId, std::uint64_t> seen;
  idx.for_each([&seen](data::SampleId id, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(id, v).second) << "duplicate visit of " << id;
  });
  EXPECT_EQ(seen, ref);
}

// The core differential guarantee: any interleaving of put/erase/find
// matches a std::map, for dense ids, sparse random ids, and mixtures with
// heavy overwriting.
TEST(SlotIndex, MatchesMapReferenceUnderRandomSchedules) {
  for (const std::uint32_t id_range : {1'000U, 1'000'000'000U}) {
    for (const std::uint64_t seed : {1ULL, 77ULL, 20'26ULL}) {
      SlotIndex idx;
      std::map<data::SampleId, std::uint64_t> ref;
      std::mt19937_64 rng(seed);
      std::uniform_int_distribution<std::uint32_t> id_dist(0, id_range - 1);
      for (int op = 0; op < 20'000; ++op) {
        const auto id = static_cast<data::SampleId>(id_dist(rng));
        switch (rng() % 4) {
          case 0:
          case 1: {  // put (50%)
            const std::uint64_t v = rng();
            const bool was_new = ref.emplace(id, v).second;
            if (!was_new) ref[id] = v;
            EXPECT_EQ(idx.put(id, v), was_new);
            break;
          }
          case 2: {  // erase (25%)
            EXPECT_EQ(idx.erase(id), ref.erase(id) > 0);
            break;
          }
          default: {  // find (25%)
            std::uint64_t v = 0;
            const auto it = ref.find(id);
            EXPECT_EQ(idx.find(id, v), it != ref.end());
            if (it != ref.end()) {
              EXPECT_EQ(v, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(idx.size(), ref.size());
      }
      // Full sweep at the end: every live key findable, with its value.
      for (const auto& [id, v] : ref) {
        std::uint64_t got = 0;
        ASSERT_TRUE(idx.find(id, got)) << "lost id " << id;
        EXPECT_EQ(got, v);
      }
    }
  }
}

TEST(SlotIndex, StatsCountLookups) {
  SlotIndex idx;
  for (data::SampleId id = 0; id < 1'000; ++id) idx.put(id, id);
  const auto before = idx.stats();
  std::uint64_t v = 0;
  for (data::SampleId id = 0; id < 1'000; ++id) {
    ASSERT_TRUE(idx.find(id, v));
  }
  const auto after = idx.stats();
  EXPECT_EQ(after.lookups - before.lookups, 1'000U);
  EXPECT_GE(after.probes, before.probes);
}

// Mean probes per lookup. Linear probing at load a expects
// (1 + 1/(1-a)) / 2 probes for a hit and (1 + 1/(1-a)^2) / 2 for a miss;
// the table never exceeds a = 3/4 (used + tombstones), so the means must
// stay under 2.5 and 8.5 — dense sample ids included, which is what the
// hash finaliser is for.
double probes_per_lookup(const SlotIndexStats& before,
                         const SlotIndexStats& after) {
  return static_cast<double>(after.probes - before.probes) /
         static_cast<double>(after.lookups - before.lookups);
}

TEST(SlotIndex, DenseSortedKeysLookupWithFewProbes) {
  SlotIndex idx;
  constexpr data::SampleId kN = 100'000;
  for (data::SampleId id = 0; id < kN; ++id) idx.put(id, id * 7);
  const auto s0 = idx.stats();
  std::uint64_t v = 0;
  for (data::SampleId id = 0; id < kN; ++id) {
    ASSERT_TRUE(idx.find(id, v));
    ASSERT_EQ(v, std::uint64_t{id} * 7);
  }
  const auto s1 = idx.stats();
  EXPECT_LE(probes_per_lookup(s0, s1), 2.5);
  for (data::SampleId id = kN; id < 2 * kN; ++id) {
    ASSERT_FALSE(idx.find(id, v));
  }
  EXPECT_LE(probes_per_lookup(s1, idx.stats()), 8.5);
}

TEST(SlotIndex, GrowthIsAmortised) {
  SlotIndex idx;
  constexpr data::SampleId kN = 200'000;
  for (data::SampleId id = 0; id < kN; ++id) {
    idx.put(id * 2, id);  // even ids, ascending
  }
  EXPECT_EQ(idx.size(), std::size_t{kN});
  // Every rehash at least doubles the table: 16 slots first, and 200k
  // entries under the 3/4 bound fit in 2^20 — at most 17 rebuilds, not
  // O(n).
  EXPECT_LE(idx.stats().rebuilds, 17U);
  std::uint64_t v = 0;
  ASSERT_TRUE(idx.find(2 * (kN - 1), v));
  EXPECT_EQ(v, std::uint64_t{kN} - 1);
  EXPECT_FALSE(idx.find(3, v));
}

TEST(SlotIndex, ClearedTableRefillsWithoutRehashing) {
  // The stores rebuild their index in place every epoch: clear() keeps
  // the table, so refilling to the same size never rehashes.
  SlotIndex idx;
  for (data::SampleId id = 0; id < 5'000; ++id) idx.put(id, id);
  const auto warmed = idx.stats().rebuilds;
  for (int pass = 0; pass < 3; ++pass) {
    idx.clear();
    EXPECT_EQ(idx.size(), 0U);
    for (data::SampleId id = 0; id < 5'000; ++id) {
      idx.put(id + 10'000U * static_cast<data::SampleId>(pass), id);
    }
    EXPECT_EQ(idx.size(), 5'000U);
  }
  EXPECT_EQ(idx.stats().rebuilds, warmed);
}

TEST(SlotIndex, TombstonesCountTowardTheLoadBound) {
  // Erase/insert churn over a small live set leaves tombstones behind.
  // put() counts them against the 3/4 load bound and sweeps them on
  // rehash, so misses keep finding an empty slot quickly instead of
  // walking a table clogged with dead entries.
  SlotIndex idx;
  std::vector<data::SampleId> live;
  for (data::SampleId id = 0; id < 64; ++id) {
    idx.put(id, id);
    live.push_back(id);
  }
  std::mt19937 rng(5);
  data::SampleId next = 64;
  for (int step = 0; step < 50'000; ++step) {
    const std::size_t at = rng() % live.size();
    ASSERT_TRUE(idx.erase(live[at]));
    live[at] = next++;
    ASSERT_TRUE(idx.put(live[at], live[at]));
  }
  EXPECT_EQ(idx.size(), live.size());
  EXPECT_GT(idx.stats().rebuilds, 1U);  // tombstone sweeps happened
  std::uint64_t v = 0;
  for (const data::SampleId id : live) {
    ASSERT_TRUE(idx.find(id, v));
    EXPECT_EQ(v, std::uint64_t{id});
  }
  const auto s0 = idx.stats();
  for (data::SampleId id = 0; id < 10'000; ++id) {
    ASSERT_FALSE(idx.find(id, v));  // all erased long ago
  }
  EXPECT_LE(probes_per_lookup(s0, idx.stats()), 8.5);
}

}  // namespace
}  // namespace dshuf::io
