#include "sim/overlap.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "comm/comm.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "shuffle/shuffler.hpp"
#include "task/scheduler.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/error.hpp"

namespace dshuf::sim {

namespace {

std::vector<std::vector<shuffle::SampleId>> deal_shards(std::size_t n,
                                                        int ranks) {
  std::vector<std::vector<shuffle::SampleId>> shards(
      static_cast<std::size_t>(ranks));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(ranks)].push_back(
        static_cast<shuffle::SampleId>(i));
  }
  return shards;
}

/// Deterministic GEMM burn standing in for a batch's forward/backward.
/// Inputs are a fixed function of (rank, size) so the work — and, with a
/// scheduler, the parallel_for it fans out — is reproducible.
void gemm_burn(std::size_t n, std::size_t reps, int rank) {
  std::vector<float> a(n * n);
  std::vector<float> bmat(n * n);
  std::vector<float> c(n * n, 0.0F);
  const auto r = static_cast<std::size_t>(rank);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<float>((i * 31U + r) % 17U) * 0.25F - 2.0F;
    bmat[i] = static_cast<float>((i * 7U + 3U * r) % 13U) * 0.125F - 0.75F;
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    kernel::gemm_blocked(a.data(), bmat.data(), c.data(), n, n, n,
                         /*a_transposed=*/false, /*b_transposed=*/false,
                         /*accumulate=*/rep > 0);
  }
  DSHUF_CHECK(n == 0 || std::isfinite(c[0]), "gemm burn diverged");
}

}  // namespace

OverlapResult run_overlapped_epochs(const OverlapConfig& cfg) {
  DSHUF_CHECK_GT(cfg.ranks, 0, "need at least one rank");
  DSHUF_CHECK(!cfg.faults.has_value() || cfg.robust.has_value(),
              "fault injection requires the robust protocol");

  auto shards = deal_shards(cfg.n, cfg.ranks);
  std::size_t min_shard = shards.empty() ? 0 : shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota0 = shuffle::exchange_quota(min_shard, cfg.q);
  std::vector<shuffle::ShardStore> stores;
  stores.reserve(shards.size());
  for (auto& s : shards) {
    // Unlimited capacity under faults: drops let shard sizes drift beyond
    // the fault-free (1+Q) bound across epochs.
    const std::size_t cap = cfg.faults ? 0 : s.size() + quota0;
    stores.emplace_back(std::move(s), cap);
  }

  comm::World world(cfg.ranks);
  if (cfg.faults) {
    world.set_fault_plan(comm::FaultPlan(cfg.fault_seed, *cfg.faults));
  }
  const shuffle::ExchangeRobustness* robust =
      cfg.robust ? &*cfg.robust : nullptr;
  std::vector<shuffle::ExchangeScratch> scratch(stores.size());

  OverlapResult result;
  result.outcomes.resize(cfg.epochs);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::size_t global_min = stores[0].size();
    for (const auto& s : stores) global_min = std::min(global_min, s.size());
    result.quota_per_epoch.push_back(
        shuffle::exchange_quota(global_min, cfg.q));

    std::vector<shuffle::ExchangeOutcome> per_rank(stores.size());
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      auto& store = stores[r];
      auto compute = [&] {
        obs::SpanGuard span("compute.batch",
                            {{"epoch", std::to_string(epoch)},
                             {"rank", std::to_string(c.rank())}});
        if (cfg.compute) {
          cfg.compute(c.rank(), epoch);
        } else {
          gemm_burn(cfg.compute_gemm_n, cfg.compute_reps, c.rank());
        }
      };
      if (cfg.overlapped) {
        shuffle::PlsEpochExchange exchange(c, store, cfg.seed, epoch, cfg.q,
                                           global_min, nullptr, nullptr,
                                           robust, &scratch[r]);
        // Post as a comm task when a scheduler is active, so frame packing
        // itself moves off the rank's critical path; inline otherwise
        // (sends are buffered either way).
        task::Scheduler* const sched = task::global_scheduler();
        auto post_body = [&exchange] { exchange.post(); };
        task::ClosureTask<decltype(post_body)> post_task(post_body);
        task::TaskGroup group;
        if (sched != nullptr) {
          sched->submit(&post_task, group);
        } else {
          exchange.post();
        }
        compute();
        if (sched != nullptr) sched->wait(group);
        per_rank[r] = exchange.finish();
      } else {
        // Sequential baseline: the whole exchange (and its span) finishes
        // before compute starts — zero overlap by construction.
        per_rank[r] = shuffle::run_pls_exchange_epoch(
            c, store, cfg.seed, epoch, cfg.q, global_min, nullptr, nullptr,
            robust, &scratch[r]);
        compute();
      }
      shuffle::post_exchange_local_shuffle(cfg.seed, epoch, c.rank(),
                                           store.mutable_ids());
    });
    result.outcomes[epoch] = std::move(per_rank);
    // One telemetry window per epoch (no-op unless the sampler is on).
    obs::tick_timeseries_epoch(epoch);
  }

  for (auto& s : stores) result.shards.push_back(s.ids());
  return result;
}

}  // namespace dshuf::sim
