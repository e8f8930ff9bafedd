// exchange-virtual-1k: the paper-scale exchange on the event-driven
// backend. 1024 virtual ranks on one OS thread run the real
// run_pls_exchange_epoch over netsim's FlowEngine with a topology-mapped
// grouped plan (32 groups of 32), Q = 1 and 4 KiB payloads, under the
// link caps and 16 us event quantum of bench/bench_scale.cpp. No store and
// no model: the epoch is plan + wire + fibers + flow engine.
//
// Spans recorded by rank code inside VirtualWorld::run carry virtual
// timestamps, so the benchmark's wall-clock span goes around run() on the
// event-loop thread's own track.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "netsim/virtual_comm.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"

namespace perfbench {
namespace {

using dshuf::shuffle::SampleId;

struct VirtualConfig {
  int workers = 1024;
  int groups = 32;
  std::size_t shard = 16;
  double q = 1.0;
  std::size_t payload_bytes = 4096;
  std::size_t fixed_epochs = 2;
  int setup_reps = 32;
};

// bench_scale's network: per-rank NICs at 1e8 B/s, a bisection of 768
// NICs' worth split across the group uplinks, 5 us per message.
constexpr double kNicBps = 1e8;
constexpr double kBisectionBps = 768.0 * kNicBps;
constexpr double kLatencyS = 5e-6;
constexpr double kIntraFraction = 0.5;
constexpr std::uint64_t kEventQuantumUs = 16;
constexpr int kLoopTrack = 100000;

dshuf::shuffle::Topology topology_for(const VirtualConfig& cfg) {
  dshuf::shuffle::Topology topo;
  topo.groups = cfg.groups;
  topo.group_size = cfg.workers / cfg.groups;
  topo.intra_bw_bps = kNicBps;
  topo.inter_bw_bps = kBisectionBps / cfg.groups;
  topo.intra_fraction = kIntraFraction;
  topo.leader_aggregation = false;
  return topo;
}

/// Link-level floor of one epoch's plan, as bench_scale recomputes it:
/// every non-self draw moves one payload over its source and destination
/// NICs, and cross-group draws also over their groups' uplink/downlink.
struct PlanLoad {
  std::size_t wire_samples = 0;
  double lower_bound_s = 0;
};

PlanLoad plan_load(const dshuf::shuffle::ExchangePlan& plan,
                   const VirtualConfig& cfg) {
  const int m = cfg.workers;
  const int group_size = m / cfg.groups;
  std::vector<std::size_t> out(static_cast<std::size_t>(m), 0);
  std::vector<std::size_t> in(static_cast<std::size_t>(m), 0);
  std::vector<std::size_t> cross_out(static_cast<std::size_t>(cfg.groups), 0);
  std::vector<std::size_t> cross_in(static_cast<std::size_t>(cfg.groups), 0);
  PlanLoad load;
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < m; ++r) {
      const int d = plan.dest(i, r);
      if (d == r) continue;
      ++load.wire_samples;
      ++out[static_cast<std::size_t>(r)];
      ++in[static_cast<std::size_t>(d)];
      if (r / group_size != d / group_size) {
        ++cross_out[static_cast<std::size_t>(r / group_size)];
        ++cross_in[static_cast<std::size_t>(d / group_size)];
      }
    }
  }
  const std::size_t nic_max =
      std::max(*std::max_element(out.begin(), out.end()),
               *std::max_element(in.begin(), in.end()));
  const std::size_t trunk_max =
      std::max(*std::max_element(cross_out.begin(), cross_out.end()),
               *std::max_element(cross_in.begin(), cross_in.end()));
  const auto bytes = static_cast<double>(cfg.payload_bytes);
  const double nic_s = static_cast<double>(nic_max) * bytes / kNicBps + kLatencyS;
  const double trunk_s = static_cast<double>(trunk_max) * bytes /
                         (kBisectionBps / cfg.groups);
  load.lower_bound_s = std::max(nic_s, trunk_s + kLatencyS);
  return load;
}

struct Epoch {
  std::uint64_t wall_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t callback_ns = 0;
  dshuf::netsim::VirtualWorld::RunStats stats;
  double bytes_offered = 0, bytes_sent = 0, msgs = 0;
  double bytes_header = 0, bytes_body = 0, committed = 0, rounds = 0;
};

/// The virtual world plus every rank's shard and exchange scratch.
class VirtualJob {
 public:
  VirtualJob(const VirtualConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed),
        quota_(dshuf::shuffle::exchange_quota(cfg.shard, cfg.q)),
        world_(cfg.workers, options(cfg)),
        scratch_(static_cast<std::size_t>(cfg.workers)),
        outcomes_(static_cast<std::size_t>(cfg.workers)) {
    shards_.reserve(static_cast<std::size_t>(cfg.workers));
    for (int r = 0; r < cfg.workers; ++r) {
      std::vector<SampleId> ids(cfg.shard);
      for (std::size_t i = 0; i < cfg.shard; ++i) {
        ids[i] = static_cast<SampleId>(static_cast<std::size_t>(r) * cfg.shard + i);
      }
      shards_.emplace_back(std::move(ids), cfg.shard + quota_);
    }
  }

  [[nodiscard]] std::size_t quota() const { return quota_; }

  Epoch run_epoch(std::size_t epoch, Samples& local_shuffle_us) {
    Epoch e;
    const std::uint64_t t0 = now_ns();
    std::uint64_t callback_ns = 0;
    const dshuf::shuffle::PayloadFn payload =
        [&](SampleId id, std::vector<std::byte>& out) {
          const std::uint64_t s = now_ns();
          const std::size_t at = out.size();
          out.resize(at + cfg_.payload_bytes, static_cast<std::byte>(id & 0xFF));
          std::memcpy(out.data() + at, &id, sizeof(id));
          callback_ns += now_ns() - s;
        };
    const dshuf::shuffle::DepositFn deposit =
        [&](SampleId id, std::span<const std::byte> body) {
          const std::uint64_t s = now_ns();
          SampleId got = 0;
          if (body.size() == cfg_.payload_bytes) {
            std::memcpy(&got, body.data(), sizeof(got));
          }
          if (got != id || body.back() != static_cast<std::byte>(id & 0xFF)) {
            ++bad_deposits_;
          }
          callback_ns += now_ns() - s;
        };
    {
      LayerCall call("netsim.run");
      world_.run([&](dshuf::comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        outcomes_[r] = dshuf::shuffle::run_pls_exchange_epoch(
            c, shards_[r], seed_, epoch, cfg_.q, cfg_.shard, payload, deposit,
            /*robust=*/nullptr, &scratch_[r]);
        const std::uint64_t s = now_ns();
        dshuf::shuffle::post_exchange_local_shuffle(seed_, epoch, c.rank(),
                                                    shards_[r].mutable_ids());
        local_shuffle_us.add(static_cast<double>(now_ns() - s) * 1e-3);
      });
      obs::Tracer::set_thread_track(kLoopTrack);
      e.run_ns = call.stop();
    }
    e.callback_ns = callback_ns;
    e.stats = world_.last_run_stats();
    for (const auto& o : outcomes_) {
      e.bytes_offered += static_cast<double>(o.bytes_offered);
      e.bytes_sent += static_cast<double>(o.bytes_sent);
      e.msgs += static_cast<double>(o.msgs_sent);
      e.bytes_header += static_cast<double>(o.bytes_header);
      e.bytes_body += static_cast<double>(o.bytes_body);
      e.committed += static_cast<double>(o.sends_committed);
      e.rounds += static_cast<double>(o.rounds);
    }
    e.wall_ns = now_ns() - t0;
    return e;
  }

  /// Conservation, balance, payload integrity and the plan's byte and
  /// link-time floors for the epoch just run.
  void check_epoch(std::size_t epoch, const Epoch& e, Checks& checks) {
    const std::string at = " (epoch " + std::to_string(epoch) + ")";
    const std::size_t n = static_cast<std::size_t>(cfg_.workers) * cfg_.shard;
    std::vector<std::uint8_t> seen(n, 0);
    bool exactly_once = true;
    bool balanced = true;
    for (const auto& s : shards_) {
      balanced = balanced && s.size() == cfg_.shard;
      for (const SampleId id : s.ids()) {
        if (id >= n || seen[id]++ != 0) exactly_once = false;
      }
    }
    checks.expect(exactly_once && std::all_of(seen.begin(), seen.end(),
                                              [](std::uint8_t v) { return v == 1; }),
                  "every sample id held exactly once" + at);
    checks.expect(balanced, "shards balanced" + at);
    checks.expect(bad_deposits_ == 0, "deposited payloads carry their ids" + at);

    audit_.rebuild_grouped(seed_, epoch, cfg_.groups,
                           cfg_.workers / cfg_.groups, quota_, kIntraFraction);
    const PlanLoad load = plan_load(audit_, cfg_);
    const double floor_bytes =
        static_cast<double>(load.wire_samples * cfg_.payload_bytes);
    checks.expect(e.bytes_sent >= floor_bytes,
                  "wire bytes " + std::to_string(e.bytes_sent) +
                      " cover the plan's lower bound " +
                      std::to_string(floor_bytes) + at);
    const double makespan_s =
        static_cast<double>(e.stats.virtual_makespan_us) * 1e-6;
    checks.expect(makespan_s >= 0.99 * load.lower_bound_s,
                  "virtual makespan " + std::to_string(makespan_s) +
                      " s respects the link lower bound " +
                      std::to_string(load.lower_bound_s) + " s" + at);
    for (const auto& o : outcomes_) {
      checks.rounds(o.rounds, o.send_fallbacks + o.recv_fallbacks + o.retries);
    }
  }

 private:
  static dshuf::netsim::VirtualWorldOptions options(const VirtualConfig& cfg) {
    dshuf::netsim::VirtualWorldOptions opts;
    opts.caps.nic_out_bps = kNicBps;
    opts.caps.nic_in_bps = kNicBps;
    opts.caps.per_message_latency_s = kLatencyS;
    opts.caps.fabric_bps = 0;  // the per-group trunks are the bisection
    opts.topology = topology_for(cfg);
    opts.event_quantum_us = kEventQuantumUs;
    return opts;
  }

  const VirtualConfig& cfg_;
  std::uint64_t seed_;
  std::size_t quota_;
  dshuf::netsim::VirtualWorld world_;
  std::vector<dshuf::shuffle::ShardStore> shards_;
  std::vector<dshuf::shuffle::ExchangeScratch> scratch_;
  std::vector<dshuf::shuffle::ExchangeOutcome> outcomes_;
  dshuf::shuffle::ExchangePlan audit_;
  std::size_t bad_deposits_ = 0;
};

struct PhaseStats {
  Samples epoch_ms, run_ms, self_ms, local_shuffle_us, attributed_share,
      unattributed_ms;
  std::size_t epochs = 0;
  double wall_s = 0, samples = 0;
  double msgs = 0, bytes_header = 0, bytes_body = 0, committed = 0, rounds = 0;
  double switches = 0, flows = 0, refill = 0;
  std::uint64_t pool_misses = 0;
};

template <typename OnEpoch>
PhaseStats run_phase(VirtualJob& job, const VirtualConfig& cfg,
                     std::size_t& epoch, double budget_s,
                     std::size_t min_epochs, Checks& checks,
                     OnEpoch&& on_epoch) {
  PhaseStats ps;
  std::uint64_t misses0 = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i == 1) misses0 = counter_value("comm.pool.misses");
    const std::size_t ep = epoch++;
    // A traced epoch records ~50k rank-side events at M = 1024; the trace
    // keeps the last epoch's only, so its size does not grow with time.
    if (obs::Tracer::instance().enabled()) obs::Tracer::instance().clear();
    Samples local;
    const Epoch e = job.run_epoch(ep, local);
    job.check_epoch(ep, e, checks);
    on_epoch(ep, e);
    if (i > 0) {  // the first epoch warms pools and scratch
      ++ps.epochs;
      ps.wall_s += static_cast<double>(e.wall_ns) * 1e-9;
      ps.samples += static_cast<double>(cfg.workers) *
                    static_cast<double>(job.quota());
      ps.epoch_ms.add(static_cast<double>(e.wall_ns) * 1e-6);
      ps.run_ms.add(static_cast<double>(e.run_ns) * 1e-6);
      ps.self_ms.add(static_cast<double>(e.run_ns - e.callback_ns) * 1e-6);
      ps.local_shuffle_us.append(local);
      ps.attributed_share.add(static_cast<double>(e.run_ns) /
                              static_cast<double>(e.wall_ns));
      ps.unattributed_ms.add(static_cast<double>(e.wall_ns - e.run_ns) * 1e-6);
      ps.msgs += e.msgs;
      ps.bytes_header += e.bytes_header;
      ps.bytes_body += e.bytes_body;
      ps.committed += e.committed;
      ps.rounds += e.rounds;
      ps.switches += static_cast<double>(e.stats.context_switches);
      ps.flows += static_cast<double>(e.stats.flows);
      ps.refill += static_cast<double>(e.stats.refill_work);
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (i + 1 >= min_epochs && elapsed >= budget_s) break;
  }
  ps.pool_misses = counter_value("comm.pool.misses") - misses0;
  return ps;
}

}  // namespace

Result run_virtual_exchange(const RunOptions& opt) {
  VirtualConfig cfg;
  if (opt.toy) {
    cfg.workers = 128;
    cfg.groups = 8;
  }
  Result res;
  obs::Tracer::set_thread_track(kLoopTrack);
  // The network's shape is part of this workload's input: the exchange
  // plans against the installed topology (grouped rounds).
  const dshuf::shuffle::ScopedExchangeTopology topo(topology_for(cfg));

  const auto build = [&] { return std::make_unique<VirtualJob>(cfg, opt.seed); };
  Samples setup_s;
  std::unique_ptr<VirtualJob> job =
      timed_builds(cfg.setup_reps - cfg.setup_reps / 2, build, setup_s);
  const std::size_t min_epochs = std::max<std::size_t>(cfg.fixed_epochs, 3);

  double bytes_fixed = 0;
  double makespan_fixed_us = 0;
  std::size_t epoch = 0;
  const PhaseStats a = run_phase(
      *job, cfg, epoch, opt.seconds * (opt.trace ? 0.5 : 1.0), min_epochs,
      res.checks, [&](std::size_t ep, const Epoch& e) {
        if (ep >= cfg.fixed_epochs) return;
        bytes_fixed += e.bytes_offered;
        makespan_fixed_us += static_cast<double>(e.stats.virtual_makespan_us);
      });

  std::optional<PhaseStats> traced;
  if (opt.trace) {
    set_tracing(true);
    obs::Tracer::set_thread_name("event loop (wall clock)");
    traced = run_phase(*job, cfg, epoch, opt.seconds * 0.5, 3, res.checks,
                       [](std::size_t, const Epoch&) {});
    set_tracing(false);
  }
  const PhaseStats& lp = traced ? *traced : a;
  const auto fixed = static_cast<double>(cfg.fixed_epochs);
  const double lepochs = static_cast<double>(lp.epochs);

  auto& m = res.metrics;
  m["epoch_ms.p50"] = a.epoch_ms.quantile(0.5);
  m["samples_per_s"] = a.samples / a.wall_s;
  m["exchange_visible_ms.p50"] = a.run_ms.quantile(0.5);
  m["exchange_bytes_per_epoch"] = bytes_fixed / fixed;
  m["exchange_makespan_virtual_ms"] = makespan_fixed_us / fixed * 1e-3;

  m["shuffle.exchange_ms"] = lp.run_ms.quantile(0.5);
  m["shuffle.exchange_self_ms"] = lp.self_ms.quantile(0.5);
  m["shuffle.local_shuffle_us"] = lp.local_shuffle_us.quantile(0.5);
  m["shuffle.msgs_per_epoch"] = lp.msgs / lepochs;
  m["shuffle.bytes_header"] = lp.bytes_header / lepochs;
  m["shuffle.bytes_body"] = lp.bytes_body / lepochs;
  m["shuffle.commit_ratio"] = lp.rounds > 0 ? lp.committed / lp.rounds : 1.0;
  m["comm.pool.misses"] = static_cast<double>(lp.pool_misses) / lepochs;
  m["netsim.run_wall_ms"] = lp.run_ms.quantile(0.5);
  m["netsim.context_switches"] = lp.switches / lepochs;
  m["netsim.flows"] = lp.flows / lepochs;
  m["netsim.refill_work"] = lp.refill / lepochs;
  m["obs.attributed_share"] = lp.attributed_share.quantile(0.0);
  m["unattributed_ms"] = lp.unattributed_ms.mean();
  if (traced) {
    m["obs.trace_overhead_share"] =
        (traced->epoch_ms.quantile(0.5) - a.epoch_ms.quantile(0.5)) /
        a.epoch_ms.quantile(0.5);
  }

  auto& c = res.config;
  c["ranks"] = std::to_string(cfg.workers);
  c["backend"] = "virtual";
  c["groups"] = std::to_string(cfg.groups);
  c["shard"] = std::to_string(cfg.shard);
  c["q"] = std::to_string(cfg.q);
  c["quota"] = std::to_string(job->quota());
  c["payload_bytes"] = std::to_string(cfg.payload_bytes);
  c["nic_bps"] = std::to_string(kNicBps);
  c["bisection_bps"] = std::to_string(kBisectionBps);
  c["intra_fraction"] = std::to_string(kIntraFraction);
  c["event_quantum_us"] = std::to_string(kEventQuantumUs);
  c["fixed_epochs"] = std::to_string(cfg.fixed_epochs);
  c["epochs_untraced"] = std::to_string(a.epochs);
  if (traced) c["epochs_traced"] = std::to_string(traced->epochs);

  // The second half of the set-ups, once the measured job is gone.
  job.reset();
  timed_builds(cfg.setup_reps / 2, build, setup_s);
  m["setup_s"] = setup_s.quantile(0.5);
  return res;
}

}  // namespace perfbench
