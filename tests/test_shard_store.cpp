#include "shuffle/shard_store.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace dshuf::shuffle {
namespace {

TEST(ShardStore, InitialisesWithShard) {
  ShardStore s({1, 2, 3}, 5);
  EXPECT_EQ(s.size(), 3U);
  EXPECT_EQ(s.capacity(), 5U);
  EXPECT_EQ(s.peak_occupancy(), 3U);
}

TEST(ShardStore, AddTracksPeak) {
  ShardStore s({1, 2}, 4);
  s.add(3);
  s.add(4);
  EXPECT_EQ(s.peak_occupancy(), 4U);
  s.remove_id(1);
  s.remove_id(2);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s.peak_occupancy(), 4U);  // peak is sticky
  s.reset_peak();
  EXPECT_EQ(s.peak_occupancy(), 2U);
}

TEST(ShardStore, EnforcesCapacity) {
  ShardStore s({1, 2, 3}, 4);
  s.add(4);
  EXPECT_THROW(s.add(5), CheckError);
}

TEST(ShardStore, ZeroCapacityMeansUnlimited) {
  ShardStore s({1}, 0);
  for (SampleId id = 2; id < 100; ++id) s.add(id);
  EXPECT_EQ(s.size(), 99U);
  EXPECT_FALSE(s.over_capacity());
}

TEST(ShardStore, RemoveSlotSwapsWithLast) {
  ShardStore s({10, 20, 30}, 0);
  s.remove_slot(0);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s.ids()[0], 30U);  // last element moved into the hole
  EXPECT_THROW(s.remove_slot(5), CheckError);
}

TEST(ShardStore, RemoveIdRequiresPresence) {
  ShardStore s({10, 20}, 0);
  s.remove_id(10);
  EXPECT_EQ(s.size(), 1U);
  EXPECT_THROW(s.remove_id(10), CheckError);
}

TEST(ShardStore, DuplicateIdsRemoveOneInstance) {
  // Self-sends transiently duplicate an id: add then remove must leave one.
  ShardStore s({7}, 0);
  s.add(7);
  EXPECT_EQ(s.size(), 2U);
  s.remove_id(7);
  EXPECT_EQ(s.size(), 1U);
  EXPECT_EQ(s.ids()[0], 7U);
}

TEST(ShardStore, RejectsInitialOverCapacity) {
  EXPECT_THROW(ShardStore({1, 2, 3}, 2), CheckError);
}

// ---------------------------------------------------------------------------
// The indexed remove_id must be OBSERVABLY identical to the linear scan it
// replaced: find the first occurrence, overwrite it with the last element,
// shrink. The reference below IS that scan; a long randomised op sequence
// (adds, duplicate adds, removals, slot removals, and external permutation
// through mutable_ids) must keep the full ids() sequences equal.

class ReferenceStore {
 public:
  explicit ReferenceStore(std::vector<SampleId> initial)
      : ids_(std::move(initial)) {}

  void add(SampleId id) { ids_.push_back(id); }
  void remove_slot(std::size_t slot) {
    ids_[slot] = ids_.back();
    ids_.pop_back();
  }
  void remove_id(SampleId id) {
    auto it = std::find(ids_.begin(), ids_.end(), id);
    ASSERT_NE(it, ids_.end());
    *it = ids_.back();
    ids_.pop_back();
  }
  std::vector<SampleId>& mutable_ids() { return ids_; }
  [[nodiscard]] const std::vector<SampleId>& ids() const { return ids_; }

 private:
  std::vector<SampleId> ids_;
};

TEST(ShardStoreIndex, MatchesLinearScanReferenceUnderRandomOps) {
  Rng rng(77);
  std::vector<SampleId> initial;
  for (SampleId id = 0; id < 64; ++id) initial.push_back(id);
  ShardStore store(initial, 0);
  ReferenceStore ref(initial);

  for (int step = 0; step < 30000; ++step) {
    ASSERT_EQ(store.ids(), ref.ids()) << "diverged at step " << step;
    const auto op = rng.uniform_u64(8);
    const std::size_t n = ref.ids().size();
    if (op < 3 || n == 0) {
      // Mix fresh ids with copies of held ones so duplicates are common.
      const SampleId id =
          (n > 0 && rng.uniform_u64(2) == 0)
              ? ref.ids()[static_cast<std::size_t>(rng.uniform_u64(n))]
              : static_cast<SampleId>(rng.uniform_u64(512));
      store.add(id);
      ref.add(id);
    } else if (op < 6) {
      const auto pick = static_cast<std::size_t>(rng.uniform_u64(n));
      const SampleId id = ref.ids()[pick];
      store.remove_id(id);
      ref.remove_id(id);
    } else if (op == 6) {
      const auto slot = static_cast<std::size_t>(rng.uniform_u64(n));
      store.remove_slot(slot);
      ref.remove_slot(slot);
    } else {
      // External permutation through mutable_ids (the post-exchange local
      // shuffle does exactly this) — invalidates the index mid-sequence.
      Rng perm_rng(static_cast<std::uint64_t>(step));
      perm_rng.shuffle(store.mutable_ids());
      Rng perm_rng2(static_cast<std::uint64_t>(step));
      perm_rng2.shuffle(ref.mutable_ids());
    }
  }
}

TEST(ShardStoreIndex, ManyDuplicatesOfOneId) {
  ShardStore s({5, 9, 5}, 0);
  s.add(5);
  s.add(5);  // ids: 5 9 5 5 5
  s.remove_id(5);  // first occurrence replaced by last: 5 9 5 5
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 9, 5, 5}));
  s.remove_id(5);
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 9, 5}));
  s.remove_id(9);
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 5}));
  s.remove_id(5);
  s.remove_id(5);
  EXPECT_TRUE(s.ids().empty());
  EXPECT_THROW(s.remove_id(5), CheckError);
}

// The removal index is built lazily and dropped whenever mutable_ids()
// hands out the vector; the next removal rebuilds it from the current
// ids, with no stale slot surviving from before the hand-out.
TEST(ShardStoreIndex, MutableIdsInvalidationRebuildsCleanly) {
  ShardStore s({1, 2, 3, 2}, 0);
  s.remove_id(2);  // builds the index
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{1, 2, 3}));
  const auto built = s.index_stats();
  EXPECT_GT(built.lookups, 0U);

  auto& ids = s.mutable_ids();  // invalidates the index
  std::reverse(ids.begin(), ids.end());  // 3 2 1: every slot moved
  s.remove_id(3);  // rebuilt from the permuted ids
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{1, 2}));
  EXPECT_GT(s.index_stats().lookups, built.lookups);

  s.mutable_ids().push_back(7);
  s.remove_id(1);  // slot 0 refilled by the last id
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{7, 2}));
  s.remove_id(2);
  s.remove_id(7);
  EXPECT_TRUE(s.ids().empty());
  EXPECT_THROW(s.remove_id(2), CheckError);
}

TEST(PlsCapacity, MatchesShardPlusQuota) {
  EXPECT_EQ(pls_capacity(100, 0.0), 100U);
  EXPECT_EQ(pls_capacity(100, 0.1), 110U);
  EXPECT_EQ(pls_capacity(100, 1.0), 200U);
  EXPECT_EQ(pls_capacity(3, 0.5), 5U);  // ceil(1.5) = 2 extra
}

}  // namespace
}  // namespace dshuf::shuffle
