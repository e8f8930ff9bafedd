#include "io/slot_index.hpp"

#include <algorithm>

#include "util/noalloc.hpp"

namespace dshuf::io {

namespace {

// splitmix32 finaliser — cheap, well-mixed hash for dense or sparse ids.
std::uint32_t hash_id(data::SampleId id) {
  std::uint32_t x = id;
  x ^= x >> 16;
  x *= 0x7FEB352DU;
  x ^= x >> 15;
  x *= 0x846CA68BU;
  x ^= x >> 16;
  return x;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

bool SlotIndex::put(data::SampleId id, std::uint64_t value) {
  // Grow before probing so the 3/4 load bound (used + tombstones) holds;
  // rehashing also sweeps tombstones out.
  if (4 * (used_ + tombstones_ + 1) >= 3 * table_.size()) {
    rehash(2 * (used_ + 1));
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_id(id) & mask;
  std::size_t insert_at = table_.size();  // first reusable tombstone
  while (table_[slot].state != kEmpty) {
    if (table_[slot].state == kUsed && table_[slot].id == id) {
      table_[slot].value = value;
      return false;
    }
    if (table_[slot].state == kTombstone && insert_at == table_.size()) {
      insert_at = slot;
    }
    slot = (slot + 1) & mask;
  }
  if (insert_at == table_.size()) {
    insert_at = slot;
  } else {
    --tombstones_;
  }
  table_[insert_at] = Entry{id, value, kUsed};
  ++used_;
  return true;
}

DSHUF_NOALLOC bool SlotIndex::find(data::SampleId id,
                                   std::uint64_t& out) const {
  ++stats_.lookups;
  if (table_.empty()) return false;
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_id(id) & mask;
  while (table_[slot].state != kEmpty) {
    ++stats_.probes;
    if (table_[slot].state == kUsed && table_[slot].id == id) {
      out = table_[slot].value;
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

bool SlotIndex::erase(data::SampleId id) {
  if (table_.empty()) return false;
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_id(id) & mask;
  while (table_[slot].state != kEmpty) {
    if (table_[slot].state == kUsed && table_[slot].id == id) {
      table_[slot].state = kTombstone;
      --used_;
      ++tombstones_;
      return true;
    }
    slot = (slot + 1) & mask;
  }
  return false;
}

void SlotIndex::clear() {
  // Steady state: same table, wiped in place — no allocation.
  std::fill(table_.begin(), table_.end(), Entry{});
  used_ = 0;
  tombstones_ = 0;
}

void SlotIndex::for_each(
    FunctionRef<void(data::SampleId, std::uint64_t)> fn) const {
  for (const Entry& e : table_) {
    if (e.state == kUsed) fn(e.id, e.value);
  }
}

void SlotIndex::rehash(std::size_t min_slots) {
  ++stats_.rebuilds;
  const std::size_t size = next_pow2(min_slots * 2);
  std::vector<Entry> old = std::move(table_);
  table_.assign(size, Entry{});
  used_ = 0;
  tombstones_ = 0;
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.state != kUsed) continue;
    std::size_t slot = hash_id(e.id) & mask;
    while (table_[slot].state != kEmpty) slot = (slot + 1) & mask;
    table_[slot] = e;
    ++used_;
  }
}

}  // namespace dshuf::io
