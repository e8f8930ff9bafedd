#include "shuffle/exchange_plan.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/ranked_mutex.hpp"

namespace dshuf::shuffle {

ExchangePlan::ExchangePlan(std::uint64_t seed, std::size_t epoch, int workers,
                           std::size_t per_worker_quota, bool allow_self) {
  rebuild(seed, epoch, workers, per_worker_quota, allow_self);
}

void ExchangePlan::rebuild(std::uint64_t seed, std::size_t epoch, int workers,
                           std::size_t per_worker_quota, bool allow_self) {
  DSHUF_CHECK_GT(workers, 0, "exchange plan needs at least one worker");
  workers_ = workers;
  Rng base(seed);
  // One independent stream per epoch: every worker derives the identical
  // stream, which is what synchronises the permutations without any
  // communication.
  Rng rng = base.fork(0xE9C4ULL, epoch);

  rounds_.resize(per_worker_quota);
  const auto m = static_cast<std::size_t>(workers);
  for (std::size_t i = 0; i < per_worker_quota; ++i) {
    Round& round = rounds_[i];
    rng.permutation_into(m, perm_);
    if (!allow_self && workers > 1) {
      // Re-draw until the permutation is a derangement. Expected ~e tries.
      auto has_fixed_point = [&](const std::vector<std::uint32_t>& p) {
        for (std::size_t r = 0; r < p.size(); ++r) {
          if (p[r] == r) return true;
        }
        return false;
      };
      while (has_fixed_point(perm_)) rng.permutation_into(m, perm_);
    }
    round.dest.resize(m);
    round.src.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      round.dest[r] = static_cast<int>(perm_[r]);
      round.src[perm_[r]] = static_cast<int>(r);
    }
  }
}

void ExchangePlan::rebuild_grouped(std::uint64_t seed, std::size_t epoch,
                                   int groups, int group_size,
                                   std::size_t per_worker_quota,
                                   double intra_fraction) {
  DSHUF_CHECK_GT(groups, 0, "need at least one group");
  DSHUF_CHECK_GT(group_size, 0, "need at least one rank per group");
  DSHUF_CHECK(intra_fraction >= 0.0 && intra_fraction <= 1.0,
              "intra fraction must be in [0, 1]");
  workers_ = groups * group_size;
  Rng base(seed);
  // Per round: one group permutation (inter rounds only — intra rounds
  // build the identity without consuming draws), then one local
  // permutation per source group.
  Rng stream = base.fork(0x41E2, epoch);

  const auto m = static_cast<std::size_t>(workers_);
  const auto intra_rounds = static_cast<std::size_t>(
      std::round(intra_fraction * static_cast<double>(per_worker_quota)));

  rounds_.resize(per_worker_quota);
  for (std::size_t i = 0; i < per_worker_quota; ++i) {
    const bool inter = i >= intra_rounds && groups > 1;
    if (inter) {
      stream.permutation_into(static_cast<std::size_t>(groups), gperm_);
    } else {
      gperm_.resize(static_cast<std::size_t>(groups));
      for (std::size_t g = 0; g < gperm_.size(); ++g) {
        gperm_[g] = static_cast<std::uint32_t>(g);
      }
    }
    Round& round = rounds_[i];
    round.dest.resize(m);
    round.src.resize(m);
    for (int g = 0; g < groups; ++g) {
      stream.permutation_into(static_cast<std::size_t>(group_size), perm_);
      for (int s = 0; s < group_size; ++s) {
        const int from = g * group_size + s;
        const int to =
            static_cast<int>(gperm_[static_cast<std::size_t>(g)]) *
                group_size +
            static_cast<int>(perm_[static_cast<std::size_t>(s)]);
        round.dest[static_cast<std::size_t>(from)] = to;
        round.src[static_cast<std::size_t>(to)] = from;
      }
    }
  }
}

void ExchangePlan::rebuild(const PlanSpec& spec) {
  if (spec.group_size > 0) {
    DSHUF_CHECK_EQ(spec.groups * spec.group_size, spec.workers,
                   "plan groups " << spec.groups << "x" << spec.group_size
                                  << " do not cover " << spec.workers
                                  << " workers");
    rebuild_grouped(spec.seed, spec.epoch, spec.groups, spec.group_size,
                    spec.quota, spec.intra_fraction);
  } else {
    rebuild(spec.seed, spec.epoch, spec.workers, spec.quota);
  }
}

int ExchangePlan::dest(std::size_t round, int rank) const {
  DSHUF_CHECK_LT(round, rounds_.size(), "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers_, "rank out of range");
  return rounds_[round].dest[static_cast<std::size_t>(rank)];
}

int ExchangePlan::source(std::size_t round, int rank) const {
  DSHUF_CHECK_LT(round, rounds_.size(), "round out of range");
  DSHUF_CHECK(rank >= 0 && rank < workers_, "rank out of range");
  return rounds_[round].src[static_cast<std::size_t>(rank)];
}

std::vector<int> ExchangePlan::dests_for(int rank) const {
  std::vector<int> out;
  out.reserve(rounds_.size());
  for (std::size_t i = 0; i < rounds_.size(); ++i) out.push_back(dest(i, rank));
  return out;
}

std::vector<int> ExchangePlan::sources_for(int rank) const {
  std::vector<int> out;
  out.reserve(rounds_.size());
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    out.push_back(source(i, rank));
  }
  return out;
}

std::size_t ExchangePlan::self_sends() const {
  std::size_t n = 0;
  for (const auto& round : rounds_) {
    for (std::size_t r = 0; r < round.dest.size(); ++r) {
      if (round.dest[r] == static_cast<int>(r)) ++n;
    }
  }
  return n;
}

double ExchangePlan::intra_group_fraction(int group_size) const {
  DSHUF_CHECK_GT(group_size, 0, "need at least one rank per group");
  if (rounds_.empty()) return 1.0;
  std::size_t intra = 0;
  for (const auto& round : rounds_) {
    for (std::size_t r = 0; r < round.dest.size(); ++r) {
      if (static_cast<int>(r) / group_size == round.dest[r] / group_size) {
        ++intra;
      }
    }
  }
  const std::size_t total =
      rounds_.size() * static_cast<std::size_t>(workers_);
  return static_cast<double>(intra) / static_cast<double>(total);
}

namespace {

struct PlanSlot {
  PlanSpec spec;
  ExchangePlan storage;
  // The cache's own reference. Empty until the slot is first built; while
  // it is the only reference, no caller holds the plan.
  std::shared_ptr<const ExchangePlan> plan;
  // Holds `plan`'s control block, so publishing a rebuilt slot never
  // touches the heap.
  alignas(std::max_align_t) std::byte block[64];
  std::pmr::monotonic_buffer_resource arena{block, sizeof block,
                                            std::pmr::null_memory_resource()};
};

RankedMutex g_plan_cache_mu{LockRank::kPlanCache, "shuffle.plan_cache"};

// Guarded by g_plan_cache_mu. Never destroyed: a holder that outlives
// static destruction still points into its slot.
std::array<PlanSlot, kPlanCacheSlots>& plan_slots() {
  static auto* slots = new std::array<PlanSlot, kPlanCacheSlots>();
  return *slots;
}

// Once a slot's count is down to the cache's own reference, only this
// mutex's holder can raise it again, so a 1 read under the lock is exact.
bool held(const PlanSlot& slot) { return slot.plan.use_count() > 1; }

}  // namespace

std::shared_ptr<const ExchangePlan> intern_exchange_plan(
    const PlanSpec& spec) {
  std::unique_lock<RankedMutex> lk(g_plan_cache_mu);
  PlanSlot* slot = nullptr;
  for (PlanSlot& s : plan_slots()) {
    if (held(s) && s.spec == spec) return s.plan;
    if (!held(s) && slot == nullptr) slot = &s;
  }
  DSHUF_COUNTER("shuffle.plan_builds").add();
  if (slot == nullptr) {
    lk.unlock();
    auto fresh = std::make_shared<ExchangePlan>();
    fresh->rebuild(spec);
    return fresh;
  }
  // Build under the lock: the first rank to ask for an epoch builds it
  // and the others share that one O(quota * M) build. Dropping the last
  // reference synchronizes with every earlier holder's release of theirs,
  // so their reads of the plan happen before the rewrite below.
  slot->plan.reset();
  slot->arena.release();
  slot->storage.rebuild(spec);
  slot->spec = spec;
  slot->plan = std::shared_ptr<const ExchangePlan>(
      &slot->storage, [](const ExchangePlan*) {},
      std::pmr::polymorphic_allocator<ExchangePlan>(&slot->arena));
  return slot->plan;
}

std::size_t exchange_quota(std::size_t shard_size, double q) {
  DSHUF_CHECK(q >= 0.0 && q <= 1.0, "exchange fraction Q must be in [0, 1]");
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(shard_size)));
  return std::min(k, shard_size);
}

std::vector<std::size_t> naive_exchange_recv_counts(std::uint64_t seed,
                                                    std::size_t epoch,
                                                    int workers,
                                                    std::size_t quota) {
  DSHUF_CHECK_GT(workers, 0, "need at least one worker");
  Rng base(seed);
  std::vector<std::size_t> recv(static_cast<std::size_t>(workers), 0);
  for (int r = 0; r < workers; ++r) {
    // Independent stream per sender — no coordination, hence no balance.
    Rng rng = base.fork(0xBAD, epoch, static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < quota; ++i) {
      const auto dest =
          rng.uniform_u64(static_cast<std::uint64_t>(workers));
      ++recv[dest];
    }
  }
  return recv;
}

}  // namespace dshuf::shuffle
