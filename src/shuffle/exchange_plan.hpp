// Algorithm 1 of the paper: the balanced global exchange.
//
// Each epoch, every worker exchanges k = ceil(Q * N/M) samples. The plan
// consists of k "rounds"; round i holds a random permutation dest_i of the
// ranks, derived from a seed SHARED by all workers (paper: "all workers use
// the same random seed ... to assure single source and single destination
// for each exchanged sample"). In round i, worker r sends its i-th selected
// sample to dest_i[r] and receives exactly one sample from the unique
// worker s with dest_i[s] == r. Because every round is a permutation, every
// worker sends AND receives exactly k samples — the balance property the
// paper's scheme guarantees and the naive pick-a-random-destination scheme
// does not (see bench_ablation_balance).
//
// The plan is a pure function of (seed, epoch, workers, quota): any worker
// can compute its own sends/receives locally, which is what makes the
// distributed implementation require only a local view.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace dshuf::shuffle {

/// Everything that determines one epoch's plan. group_size == 0 means the
/// flat Algorithm-1 plan; otherwise the grouped plan of Section V-F over
/// `groups` groups of `group_size` ranks (groups * group_size == workers).
struct PlanSpec {
  std::uint64_t seed = 0;
  std::size_t epoch = 0;
  int workers = 0;
  std::size_t quota = 0;
  int groups = 1;
  int group_size = 0;
  double intra_fraction = 0.5;

  friend bool operator==(const PlanSpec&, const PlanSpec&) = default;
};

class ExchangePlan {
 public:
  /// Empty plan; fill it with rebuild(). Exists so the plan cache (see
  /// intern_exchange_plan) can keep one plan per slot and rebuild it in
  /// place each epoch without reallocating the round tables.
  ExchangePlan() = default;

  /// Build the plan for one epoch. `per_worker_quota` is k, the number of
  /// samples each worker contributes (already scaled by Q by the caller).
  /// `allow_self` keeps the paper's behaviour of permitting a worker to
  /// "send to itself" when the permutation fixes its rank (a no-op
  /// transfer); disabling it re-draws fixed points for an ablation.
  ExchangePlan(std::uint64_t seed, std::size_t epoch, int workers,
               std::size_t per_worker_quota, bool allow_self = true);

  /// Recompute the plan in place. Identical RNG draw sequence to the
  /// constructor (same (seed, epoch, workers, quota) => same plan, bit for
  /// bit); with unchanged workers/quota no storage is reallocated.
  void rebuild(std::uint64_t seed, std::size_t epoch, int workers,
               std::size_t per_worker_quota, bool allow_self = true);

  /// Recompute in place as the grouped (hierarchical) plan the paper
  /// proposes for the >=1,024-worker congestion regime (Section V-F).
  /// Ranks form `groups` contiguous groups of `group_size` (a node or a
  /// rack). Every round is still a permutation of all groups*group_size
  /// ranks (the balance guarantee is untouched), but each is the product
  /// of a group-level permutation and per-source-group local-slot
  /// permutations, with the first round(intra_fraction * quota) rounds
  /// using the identity group permutation (purely intra-group rounds).
  /// Inter-group traffic thus moves G-way instead of M-way. Pinned by
  /// table digests in tests/test_topology_plan.cpp.
  void rebuild_grouped(std::uint64_t seed, std::size_t epoch, int groups,
                       int group_size, std::size_t per_worker_quota,
                       double intra_fraction);

  /// Recompute in place as the plan `spec` describes: rebuild_grouped
  /// when spec.group_size > 0, the flat rebuild otherwise. The one place
  /// the flat-vs-grouped choice is made.
  void rebuild(const PlanSpec& spec);

  [[nodiscard]] int workers() const { return workers_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_.size(); }

  /// Destination of worker `rank`'s round-i sample.
  [[nodiscard]] int dest(std::size_t round, int rank) const;
  /// Source whose round-i sample arrives at worker `rank`.
  [[nodiscard]] int source(std::size_t round, int rank) const;

  /// All destinations for a rank across rounds (send list, round order).
  [[nodiscard]] std::vector<int> dests_for(int rank) const;
  /// All sources for a rank across rounds (receive list, round order).
  [[nodiscard]] std::vector<int> sources_for(int rank) const;

  /// Number of round-fixed-points (rank sends to itself) — diagnostics.
  [[nodiscard]] std::size_t self_sends() const;

  /// Fraction of all (round, rank) sends that stay within the sender's
  /// group of `group_size` contiguous ranks — the traffic locality the
  /// grouped plan optimises (1.0 for a plan with no rounds).
  [[nodiscard]] double intra_group_fraction(int group_size) const;

 private:
  struct Round {
    std::vector<int> dest;  // dest[rank]
    std::vector<int> src;   // inverse permutation
  };

  int workers_ = 0;
  std::vector<Round> rounds_;
  std::vector<std::uint32_t> perm_;   // rebuild scratch (capacity reused)
  std::vector<std::uint32_t> gperm_;  // grouped-rebuild scratch
};

/// One plan per epoch per PROCESS: every driver (each exchange rank, the
/// sequential PartialLocalShuffler) gets its epoch's plan here, and all
/// callers of one spec share one immutable plan — one build and one
/// quota x M table per epoch instead of one per rank. A held spec is
/// shared; otherwise one of kPlanCacheSlots slots that no caller holds
/// is rebuilt in place, so a steady state of one shape allocates nothing
/// (tests/test_exchange_alloc.cpp). Callers drop their previous plan
/// before fetching the next and keep no weak_ptr to it. If every slot is
/// held, the plan is built in a fresh allocation; a held plan is never
/// rewritten. Thread-safe; each build adds one to the
/// `shuffle.plan_builds` counter.
inline constexpr std::size_t kPlanCacheSlots = 4;
[[nodiscard]] std::shared_ptr<const ExchangePlan> intern_exchange_plan(
    const PlanSpec& spec);

/// Quota k = ceil(Q * shard_size), clamped to the shard size. Q outside
/// [0, 1] is rejected.
std::size_t exchange_quota(std::size_t shard_size, double q);

/// Naive unbalanced variant for the ablation bench: each worker draws an
/// independent random destination per sample (what DeepIO-style
/// uncontrolled exchange does). Returns receive counts per worker.
std::vector<std::size_t> naive_exchange_recv_counts(std::uint64_t seed,
                                                    std::size_t epoch,
                                                    int workers,
                                                    std::size_t quota);

}  // namespace dshuf::shuffle
