#include "shuffle/shard_store.hpp"

#include "shuffle/exchange_plan.hpp"

namespace dshuf::shuffle {

namespace {

// The index maps id -> (first occurrence << 32) | live count.
std::uint64_t pack_entry(std::size_t first, std::uint32_t count) {
  return (static_cast<std::uint64_t>(first) << 32) | count;
}
std::uint32_t entry_first(std::uint64_t v) {
  return static_cast<std::uint32_t>(v >> 32);
}
std::uint32_t entry_count(std::uint64_t v) {
  return static_cast<std::uint32_t>(v);
}

}  // namespace

ShardStore::ShardStore(std::vector<SampleId> initial, std::size_t capacity)
    : ids_(std::move(initial)), capacity_(capacity), peak_(ids_.size()) {
  DSHUF_CHECK(capacity_ == 0 || ids_.size() <= capacity_,
              "initial shard exceeds capacity");
}

void ShardStore::add(SampleId id) {
  ids_.push_back(id);
  if (!index_dirty_) index_add(id, ids_.size() - 1);
  note_occupancy();
}

void ShardStore::remove_slot(std::size_t slot) {
  DSHUF_CHECK_LT(slot, ids_.size(), "remove_slot out of range");
  ensure_index();
  remove_at(slot);
}

void ShardStore::remove_id(SampleId id) {
  ensure_index();
  std::uint64_t v = 0;
  DSHUF_CHECK(index_.find(id, v), "remove_id: sample " << id << " not held");
  remove_at(entry_first(v));
}

void ShardStore::index_add(SampleId id, std::size_t pos) {
  std::uint64_t v = 0;
  if (index_.find(id, v)) {
    // Duplicate copy appended at `pos` > first — first is unchanged,
    // count lives in the low word.
    index_.put(id, v + 1);
  } else {
    index_.put(id, pack_entry(pos, 1));
  }
}

void ShardStore::remove_at(std::size_t j) {
  const SampleId id = ids_[j];
  const std::size_t last_idx = ids_.size() - 1;
  const SampleId last = ids_[last_idx];

  std::uint64_t v = 0;
  DSHUF_CHECK(index_.find(id, v), "removal index lost sample " << id);
  std::uint32_t first = entry_first(v);
  const std::uint32_t count = entry_count(v) - 1;
  const bool was_first = first == j;

  // Identical observable mutation to the scan-based removal: overwrite the
  // removed slot with the last element, shrink by one.
  ids_[j] = last;
  ids_.pop_back();

  if (count == 0) {
    index_.erase(id);
  } else {
    if (was_first) {
      // Remaining copies all sat past j (j WAS the first) — and the moved
      // last element may itself be another copy of id, now at j. The next
      // occurrence at/after j is the new first.
      std::size_t k = j;
      while (k < ids_.size() && ids_[k] != id) ++k;
      DSHUF_CHECK_LT(k, ids_.size(), "removal index count out of sync");
      first = static_cast<std::uint32_t>(k);
    }
    index_.put(id, pack_entry(first, count));
  }

  if (j != last_idx && last != id) {
    std::uint64_t lv = 0;
    DSHUF_CHECK(index_.find(last, lv), "removal index lost sample " << last);
    // The copy that lived at last_idx now lives at j; if that beats the
    // recorded first occurrence (including when it WAS the first), track
    // it. Copies strictly before j are unaffected.
    if (j < entry_first(lv)) {
      index_.put(last, pack_entry(j, entry_count(lv)));
    }
  }
}

void ShardStore::ensure_index() {
  if (!index_dirty_) return;
  // Steady state: clear() retains the table — no allocation.
  index_.clear();
  index_dirty_ = false;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    // Ascending i, so the first insert of each id records its first
    // occurrence and duplicates only bump the count.
    index_add(ids_[i], i);
  }
}

std::size_t pls_capacity(std::size_t shard_size, double q) {
  return shard_size + exchange_quota(shard_size, q);
}

}  // namespace dshuf::shuffle
