// id -> slot index.
//
// Both sample stores need a map from SampleId to a 64-bit slot word (the
// mmap store packs segment+offset+length into it; ShardStore packs its
// removal bookkeeping). SlotIndex is a linear-probe open-addressing hash
// table with tombstones: O(1) expected per op, wiped in place on clear so
// steady-state rebuilds allocate nothing. The probe/lookup counters in
// stats() feed BENCH_shard.json.
//
// Not internally synchronised: the owning store serialises access (both
// sample stores hold their lock across index calls).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "util/function_ref.hpp"

namespace dshuf::io {

/// Lifetime totals for one index instance (monotonic; survive clear()).
struct SlotIndexStats {
  std::uint64_t lookups = 0;  ///< find() calls
  std::uint64_t probes = 0;   ///< hash probes
  std::uint64_t rebuilds = 0; ///< rehashes
};

class SlotIndex {
 public:
  /// Insert or overwrite. Returns true when `id` was not present before.
  bool put(data::SampleId id, std::uint64_t value);

  /// Look up `id`; on hit, writes the mapped word to `out`.
  [[nodiscard]] bool find(data::SampleId id, std::uint64_t& out) const;

  /// Remove `id`. Returns true when it was present.
  bool erase(data::SampleId id);

  [[nodiscard]] std::size_t size() const { return used_; }

  /// Drop every entry, retaining the table (steady-state rebuild loops
  /// allocate nothing once warmed).
  void clear();

  /// Visit every (id, value) pair in unspecified order — callers needing
  /// determinism must sort.
  void for_each(FunctionRef<void(data::SampleId, std::uint64_t)> fn) const;

  [[nodiscard]] SlotIndexStats stats() const { return stats_; }

 private:
  struct Entry {
    data::SampleId id = 0;
    std::uint64_t value = 0;
    std::uint8_t state = 0;
  };
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kUsed = 1;
  static constexpr std::uint8_t kTombstone = 2;

  void rehash(std::size_t min_slots);

  std::vector<Entry> table_;
  std::size_t used_ = 0;
  std::size_t tombstones_ = 0;
  mutable SlotIndexStats stats_;
};

}  // namespace dshuf::io
