// The two store-backed training workloads: data-parallel PLS epochs on
// the threaded comm world, composed from the layers' public APIs the way
// examples/distributed_training_mpi.cpp composes them, but with every
// sample's bytes living in a per-rank MmapSampleStore:
//
//   per epoch, per rank:
//     run_pls_exchange_epoch (payload read from / deposited into the store)
//     store cleanup of departed samples, advance_epoch, local shuffle
//     BatchLoader over the store
//     per step: forward, loss, backward, gradient allreduce, SGD step
//
// Inputs are generated from the seed: a class-cluster task whose rows are
// a pure function of (seed, id), so any payload can be re-derived and
// checked without keeping the dataset in memory. Train ids are laid out
// class by class, so the contiguous initial shards are a class-sorted
// partition.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include <sched.h>

#include "comm/comm.hpp"
#include "data/batch_loader.hpp"
#include "data/dataset.hpp"
#include "harness.hpp"
#include "io/file_store.hpp"
#include "io/mmap_store.hpp"
#include "nn/builder.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dshuf::Tensor;
using dshuf::data::SampleId;

struct TrainConfig {
  int ranks = 2;
  std::size_t samples = 0;  ///< training set size N
  std::size_t val_samples = 0;
  std::size_t feature_dim = 0;
  std::size_t classes = 16;
  std::vector<std::size_t> hidden;
  double q = 0.1;
  std::size_t batch = 32;  ///< per rank
  /// Epochs whose loss, accuracy and exchange bytes are reported: a fixed
  /// amount of work, so these figures repeat exactly for one seed however
  /// many further epochs the time budget allows.
  std::size_t fixed_epochs = 3;
  /// Also time a single-rank run of the same task (scaling efficiency).
  bool scaling = false;
  /// Set-ups timed per run (half before the job, half after); setup_s is
  /// their median.
  int setup_reps = 4;
};

TrainConfig config_for(const std::string& workload, bool toy) {
  TrainConfig c;
  if (workload == "train-pls-compute") {
    // Small rows, wide BN-MLP: nn and the per-step allreduce carry the
    // epoch; the exchange touches 10% of a cache-resident shard.
    c.samples = toy ? 2048 : 16384;
    c.val_samples = toy ? 512 : 2048;
    c.feature_dim = 64;
    c.hidden = toy ? std::vector<std::size_t>{64, 32}
                   : std::vector<std::size_t>{512, 256};
    c.q = 0.1;
    c.fixed_epochs = 3;
    c.scaling = true;
    c.setup_reps = 16;
  } else if (workload == "train-gs-io") {
    // Global re-shuffle of 8 KiB rows: 320 MiB of shards, past the L3,
    // rewritten every epoch; the tiny MLP leaves the store, the wire and
    // batch decoding on the critical path.
    c.samples = toy ? 8192 : 40960;
    c.val_samples = toy ? 256 : 1024;
    c.feature_dim = toy ? 256 : 2048;
    c.hidden = {16};
    c.batch = 128;
    c.q = 1.0;
    c.fixed_epochs = 2;
    c.setup_reps = 6;
  } else {
    throw std::invalid_argument("unknown train workload " + workload);
  }
  return c;
}

/// The seeded class-cluster task. Row `id` is centroid[label(id)] plus
/// uniform noise drawn from a hash of (seed, id): cheap to regenerate, so
/// the checks re-derive any payload instead of holding the dataset.
class Rows {
 public:
  Rows(std::uint64_t seed, const TrainConfig& cfg)
      : seed_(seed), n_(cfg.samples), c_(cfg.classes), d_(cfg.feature_dim) {
    // Centroid spread shrinks with 1/sqrt(D) so the task is equally hard
    // at every row width (a few epochs reach well under 100%).
    const double amp = 2.8 / std::sqrt(static_cast<double>(d_));
    dshuf::Rng rng = dshuf::Rng(seed).fork(0xC3);
    centroids_.resize(c_ * d_);
    for (auto& v : centroids_) {
      v = static_cast<float>(amp * (2.0 * rng.uniform() - 1.0));
    }
  }

  /// Train ids [0, N) are class-sorted; validation ids start at N.
  [[nodiscard]] std::uint32_t label(std::size_t id) const {
    return static_cast<std::uint32_t>(id < n_ ? id * c_ / n_ : (id - n_) % c_);
  }

  void features(std::size_t id, float* out) const {
    dshuf::SplitMix64 sm(seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
    const float* centroid = centroids_.data() + label(id) * d_;
    for (std::size_t j = 0; j < d_; ++j) {
      // Top 24 bits -> uniform [-1, 1).
      const float u =
          static_cast<float>(sm.next() >> 40) * (2.0F / 16777216.0F) - 1.0F;
      out[j] = centroid[j] + u;
    }
  }

  /// Rows [first, first + count) as an in-memory dataset.
  [[nodiscard]] dshuf::data::InMemoryDataset block(std::size_t first,
                                                   std::size_t count) const {
    Tensor x({count, d_});
    std::vector<std::uint32_t> y(count);
    for (std::size_t i = 0; i < count; ++i) {
      features(first + i, x.data() + i * d_);
      y[i] = label(first + i);
    }
    return {std::move(x), std::move(y), c_};
  }

 private:
  std::uint64_t seed_;
  std::size_t n_;
  std::size_t c_;
  std::size_t d_;
  std::vector<float> centroids_;
};

/// Everything one rank measured in one epoch.
struct RankEpoch {
  std::uint64_t epoch_ns = 0;
  std::uint64_t visible_ns = 0;
  std::uint64_t attributed_ns = 0;
  std::uint64_t exchange_ns = 0;
  std::uint64_t exchange_io_ns = 0;  ///< payload/deposit callback time
  std::uint64_t advance_ns = 0;
  std::uint64_t local_shuffle_ns = 0;
  std::size_t live_bytes_peak = 0;
  std::size_t resident_bytes_peak = 0;
  std::size_t quarantined_bytes = 0;
  std::size_t segments = 0;
  double loss_sum = 0;
  std::size_t steps = 0;
  dshuf::shuffle::ExchangeOutcome outcome;
};

/// Per-call timings one rank collects over a phase.
struct RankCalls {
  Samples step_ms, next_us, forward_us, loss_us, backward_us, sgd_us;
  Samples allreduce_us, pack_us, read_us, save_us, remove_us;

  void append(const RankCalls& o) {
    for (auto [dst, src] :
         {std::pair{&step_ms, &o.step_ms}, {&next_us, &o.next_us},
          {&forward_us, &o.forward_us}, {&loss_us, &o.loss_us},
          {&backward_us, &o.backward_us}, {&sgd_us, &o.sgd_us},
          {&allreduce_us, &o.allreduce_us}, {&pack_us, &o.pack_us},
          {&read_us, &o.read_us}, {&save_us, &o.save_us},
          {&remove_us, &o.remove_us}}) {
      dst->append(*src);
    }
  }
};

struct Rank {
  std::unique_ptr<dshuf::io::MmapSampleStore> store;
  dshuf::shuffle::ShardStore shard;
  dshuf::shuffle::ExchangeScratch scratch;
  dshuf::nn::Model model;
  std::unique_ptr<dshuf::nn::Sgd> opt;
  dshuf::nn::SoftmaxCrossEntropy ce;
  std::vector<double> grads;
  std::vector<SampleId> before;       ///< shard at exchange start
  std::vector<std::uint32_t> stamp;   ///< [id] epoch+1 when held after it
  RankEpoch last;
  RankCalls calls;
};

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Each rank's CPUs, the way an MPI launcher binds ranks to cores: the
/// process's allowed CPUs split into `ranks` equal blocks. Unbound, the
/// scheduler now and then stacks both rank threads on one CPU, and that
/// epoch runs ~1.6x slower. A rank's BatchLoader producer inherits the
/// rank's block. Empty when there are fewer CPUs than ranks.
std::vector<std::vector<int>> rank_cpu_blocks(int ranks) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const std::size_t block = cpus.size() / static_cast<std::size_t>(ranks);
  std::vector<std::vector<int>> blocks;
  for (std::size_t r = 0; block > 0 && r < static_cast<std::size_t>(ranks); ++r) {
    blocks.emplace_back(cpus.begin() + static_cast<std::ptrdiff_t>(r * block),
                        cpus.begin() + static_cast<std::ptrdiff_t>((r + 1) * block));
  }
  return blocks;
}

void bind_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// One data-parallel training job: M rank threads, each with its store,
/// shard bookkeeping and model replica. The store directory is removed
/// when the trainer is destroyed.
class Trainer {
 public:
  Trainer(const TrainConfig& cfg, const Rows& rows, int ranks, fs::path dir,
          std::uint64_t seed, std::vector<std::vector<int>> cpus)
      : cfg_(cfg), rows_(rows), m_(ranks), dir_(std::move(dir)), seed_(seed),
        cpus_(std::move(cpus)),
        shard_(cfg.samples / static_cast<std::size_t>(ranks)),
        quota_(dshuf::shuffle::exchange_quota(shard_, cfg.q)),
        world_(ranks) {
    fs::remove_all(dir_);
    const std::size_t bps = row_bytes();
    std::vector<std::byte> buf;
    for (int r = 0; r < m_; ++r) {
      auto k = std::make_unique<Rank>();
      k->store = std::make_unique<dshuf::io::MmapSampleStore>(
          dshuf::io::MmapStoreConfig{
              .dir = dir_ / ("rank" + std::to_string(r)),
              .capacity_bytes = (shard_ + quota_) * bps});
      const std::size_t first = static_cast<std::size_t>(r) * shard_;
      std::vector<SampleId> ids(shard_);
      constexpr std::size_t kBlock = 1024;
      for (std::size_t b = 0; b < shard_; b += kBlock) {
        const std::size_t count = std::min(kBlock, shard_ - b);
        const auto block = rows_.block(first + b, count);
        for (std::size_t i = 0; i < count; ++i) {
          buf.clear();
          dshuf::io::serialize_sample_into(block, static_cast<SampleId>(i),
                                           buf);
          const auto id = static_cast<SampleId>(first + b + i);
          k->store->save(id, buf);
          ids[b + i] = id;
        }
      }
      k->shard = dshuf::shuffle::ShardStore(std::move(ids), shard_ + quota_);
      k->stamp.assign(cfg_.samples, 0);
      // Identical replicas: every rank draws the same initial weights.
      dshuf::Rng model_rng = dshuf::Rng(seed_).fork(0x91);
      k->model = dshuf::nn::make_mlp(
          {.input_dim = cfg_.feature_dim,
           .hidden = cfg_.hidden,
           .num_classes = cfg_.classes,
           .norm = dshuf::nn::NormKind::kBatchNorm},
          model_rng);
      k->opt = std::make_unique<dshuf::nn::Sgd>(
          k->model, dshuf::nn::SgdConfig{
                        .lr = 0.05F, .momentum = 0.9F, .weight_decay = 1e-4F});
      k->grads.resize(k->model.num_params());
      ranks_.push_back(std::move(k));
    }
  }

  ~Trainer() {
    ranks_.clear();  // unmap before deleting the segment files
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  [[nodiscard]] int ranks() const { return m_; }
  [[nodiscard]] std::size_t quota() const { return quota_; }
  [[nodiscard]] std::size_t batch() const { return cfg_.batch; }
  [[nodiscard]] std::size_t row_bytes() const {
    return sizeof(std::uint32_t) + cfg_.feature_dim * sizeof(float);
  }
  [[nodiscard]] Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }

  /// Run one epoch on every rank; returns the world's wall time in ns.
  std::uint64_t run_epoch(std::size_t epoch) {
    const std::uint64_t t0 = now_ns();
    world_.run([&](dshuf::comm::Communicator& c) { rank_epoch(c, epoch); });
    return now_ns() - t0;
  }

  /// Check the post-epoch state: every id held exactly once, balanced
  /// shards, stores matching shards, the (shard + quota) byte bound, and
  /// a seeded sample of payloads decoding to the generated rows.
  void check_epoch(std::size_t epoch, Checks& checks) {
    std::vector<std::uint8_t> seen(cfg_.samples, 0);
    bool exactly_once = true;
    bool balanced = true;
    for (int r = 0; r < m_; ++r) {
      const Rank& k = rank(r);
      balanced = balanced && k.shard.size() == shard_;
      for (const SampleId id : k.shard.ids()) {
        if (id >= cfg_.samples || seen[id]++ != 0) exactly_once = false;
      }
    }
    exactly_once = exactly_once &&
                   std::all_of(seen.begin(), seen.end(),
                               [](std::uint8_t s) { return s == 1; });
    const std::string at = " (epoch " + std::to_string(epoch) + ")";
    checks.expect(exactly_once, "every sample id held exactly once" + at);
    checks.expect(balanced, "shards balanced at " + std::to_string(shard_) + at);

    const std::size_t bound = (shard_ + quota_) * row_bytes();
    std::vector<float> expect(cfg_.feature_dim);
    std::vector<float> got(cfg_.feature_dim);
    for (int r = 0; r < m_; ++r) {
      Rank& k = rank(r);
      const auto& ids = k.shard.ids();
      const bool stores_match =
          k.store->size() == ids.size() &&
          k.store->disk_bytes() == ids.size() * row_bytes() &&
          std::all_of(ids.begin(), ids.end(),
                      [&](SampleId id) { return k.store->contains(id); });
      checks.expect(stores_match, "rank " + std::to_string(r) +
                                      " store holds exactly its shard" + at);
      checks.expect(k.last.live_bytes_peak <= bound,
                    "rank " + std::to_string(r) + " store live bytes " +
                        std::to_string(k.last.live_bytes_peak) +
                        " within (shard + quota) bound " +
                        std::to_string(bound) + at);
      dshuf::Rng pick = dshuf::Rng(seed_).fork(0x5A, epoch,
                                               static_cast<std::uint64_t>(r));
      bool intact = true;
      for (int s = 0; s < 16; ++s) {
        const SampleId id = ids[pick.uniform_u64(ids.size())];
        std::uint32_t label = 0;
        k.store->read(id, [&](std::span<const std::byte> p) {
          label = dshuf::io::deserialize_sample_into(p, got);
        });
        rows_.features(id, expect.data());
        intact = intact && label == rows_.label(id) && got == expect;
      }
      checks.expect(intact, "rank " + std::to_string(r) +
                                " sampled payloads decode to their rows" + at);
      const auto& o = k.last.outcome;
      checks.rounds(o.rounds, o.send_fallbacks + o.recv_fallbacks + o.retries);
    }
  }

  /// Replicas must hold bit-identical weights after every epoch.
  bool replicas_identical() {
    const std::vector<float> ref = rank(0).model.state();
    for (int r = 1; r < m_; ++r) {
      if (rank(r).model.state() != ref) return false;
    }
    return true;
  }

  /// Top-1 of rank 0's replica on the validation set.
  double val_top1(const dshuf::data::InMemoryDataset& val) {
    dshuf::nn::AccuracyMeter meter;
    constexpr std::size_t kChunk = 256;
    std::vector<SampleId> ids;
    for (std::size_t i = 0; i < val.size(); i += kChunk) {
      ids.clear();
      for (std::size_t j = i; j < std::min(val.size(), i + kChunk); ++j) {
        ids.push_back(static_cast<SampleId>(j));
      }
      const Tensor x = val.gather(ids);
      meter.update(rank(0).model.forward(x, false), val.gather_labels(ids));
    }
    return meter.value();
  }

 private:
  void rank_epoch(dshuf::comm::Communicator& c, std::size_t epoch) {
    Rank& k = rank(c.rank());
    if (static_cast<std::size_t>(c.rank()) < cpus_.size()) {
      bind_current_thread(cpus_[static_cast<std::size_t>(c.rank())]);
    }
    RankEpoch& e = k.last;
    e = RankEpoch{};
    const std::uint64_t t0 = now_ns();
    std::uint64_t attributed = 0;
    // One call into a layer: its span, its time added to the epoch's
    // attributed total and, when given, to a per-call sample.
    const auto timed = [&](const char* span, Samples* per_call, auto&& fn) {
      LayerCall call(span);
      fn();
      const std::uint64_t ns = call.stop();
      attributed += ns;
      if (per_call != nullptr) per_call->add(us(ns));
      return ns;
    };

    timed("io.cleanup", nullptr, [&] { k.before = k.shard.ids(); });
    // Store reads/writes inside the exchange, timed per sample.
    std::uint64_t io_ns = 0;
    const dshuf::shuffle::PayloadFn payload =
        [&](SampleId id, std::vector<std::byte>& out) {
          const std::uint64_t s = now_ns();
          k.store->load_into(id, out);
          const std::uint64_t d = now_ns() - s;
          io_ns += d;
          k.calls.read_us.add(us(d));
        };
    const dshuf::shuffle::DepositFn deposit =
        [&](SampleId id, std::span<const std::byte> body) {
          const std::uint64_t s = now_ns();
          k.store->save(id, body);
          const std::uint64_t d = now_ns() - s;
          io_ns += d;
          k.calls.save_us.add(us(d));
        };
    e.exchange_ns = timed("shuffle.exchange", nullptr, [&] {
      e.outcome = dshuf::shuffle::run_pls_exchange_epoch(
          c, k.shard, seed_, epoch, cfg_.q, shard_, payload, deposit,
          /*robust=*/nullptr, &k.scratch);
    });
    e.exchange_io_ns = io_ns;
    // Received samples are in, departed ones not yet removed: the peak.
    e.live_bytes_peak = k.store->disk_bytes();
    e.resident_bytes_peak = k.store->resident_bytes();

    timed("io.cleanup", nullptr, [&] {
      // Linear-time cleanup: stamp the ids still held, then remove every
      // pre-exchange id that lost its stamp.
      const auto stamp = static_cast<std::uint32_t>(epoch + 1);
      for (const SampleId id : k.shard.ids()) k.stamp[id] = stamp;
      for (const SampleId id : k.before) {
        if (k.stamp[id] == stamp) continue;
        const std::uint64_t s = now_ns();
        k.store->remove(id);
        k.calls.remove_us.add(us(now_ns() - s));
      }
    });
    e.quarantined_bytes = k.store->quarantined_bytes();
    e.advance_ns =
        timed("io.advance_epoch", nullptr, [&] { k.store->advance_epoch(); });
    e.segments = k.store->segment_count();
    e.local_shuffle_ns = timed("shuffle.local_shuffle", nullptr, [&] {
      dshuf::shuffle::post_exchange_local_shuffle(seed_, epoch, c.rank(),
                                                  k.shard.mutable_ids());
    });
    e.visible_ns = now_ns() - t0;

    std::optional<dshuf::data::BatchLoader> loader;
    timed("data.loader_start", nullptr, [&] {
      loader.emplace(*k.store, cfg_.feature_dim, k.shard.ids(), cfg_.batch);
    });
    const std::size_t steps = loader->num_batches();
    const float inv_m = 1.0F / static_cast<float>(m_);
    for (std::size_t it = 0; it < steps; ++it) {
      const std::uint64_t step_t0 = now_ns();
      std::optional<dshuf::data::BatchLoader::Batch> batch;
      const Tensor* logits = nullptr;
      const Tensor* grad = nullptr;
      std::vector<double> total;
      timed("data.next", &k.calls.next_us, [&] { batch = loader->next(); });
      timed("nn.forward", &k.calls.forward_us,
            [&] { logits = &k.model.forward(batch->features, true); });
      timed("nn.loss", &k.calls.loss_us, [&] {
        e.loss_sum += k.ce.forward(*logits, batch->labels);
        grad = &k.ce.grad();
      });
      timed("nn.backward", &k.calls.backward_us, [&] {
        k.model.zero_grad();
        k.model.backward(*grad);
      });
      std::uint64_t pack_ns = timed("comm.grad_pack", nullptr, [&] {
        std::size_t off = 0;
        for (const auto* p : k.model.param_refs()) {
          for (const float g : p->grad.vec()) k.grads[off++] = g;
        }
      });
      timed("comm.allreduce", &k.calls.allreduce_us,
            [&] { total = c.allreduce_sum(k.grads); });
      pack_ns += timed("comm.grad_pack", nullptr, [&] {
        std::size_t off = 0;
        for (auto* p : k.model.param_refs()) {
          for (float& g : p->grad.vec()) {
            g = static_cast<float>(total[off++]) * inv_m;
          }
        }
      });
      k.calls.pack_us.add(us(pack_ns));
      timed("nn.sgd_step", &k.calls.sgd_us, [&] { k.opt->step(); });
      k.calls.step_ms.add(ms(now_ns() - step_t0));
    }
    e.steps = steps;
    timed("data.loader_stop", nullptr, [&] { loader.reset(); });
    e.epoch_ns = now_ns() - t0;
    e.attributed_ns = attributed;
  }

  const TrainConfig& cfg_;
  const Rows& rows_;
  int m_;
  fs::path dir_;
  std::uint64_t seed_;
  std::vector<std::vector<int>> cpus_;  ///< [rank] bound CPUs (may be empty)
  std::size_t shard_;
  std::size_t quota_;
  dshuf::comm::World world_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

/// Aggregates of one measured phase (warm-up epoch excluded).
struct PhaseStats {
  Samples epoch_ms, visible_ms, exchange_ms, exchange_self_ms, advance_ms;
  Samples local_shuffle_us, attributed_share, unattributed_ms;
  RankCalls calls;
  std::size_t epochs = 0;
  std::size_t samples = 0;
  double wall_s = 0;
  double msgs = 0, bytes_header = 0, bytes_body = 0;
  double committed = 0, rounds = 0;
  double resident_peak = 0, quarantined_peak = 0, segments_peak = 0;
  std::uint64_t compactions = 0, pool_misses = 0;
};

/// Run epochs until `budget_s` has passed and at least `min_epochs` ran.
/// The first epoch warms caches, pools and stores and is left out of the
/// phase statistics. `on_epoch` sees every epoch (fixed-work reporting).
template <typename OnEpoch>
PhaseStats run_phase(Trainer& t, std::size_t& epoch, double budget_s,
                     std::size_t min_epochs, Checks& checks,
                     OnEpoch&& on_epoch) {
  PhaseStats ps;
  std::uint64_t compactions0 = 0;
  std::uint64_t misses0 = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    if (i == 1) {
      compactions0 = counter_value("store.compactions");
      misses0 = counter_value("comm.pool.misses");
    }
    const std::size_t ep = epoch++;
    for (int r = 0; r < t.ranks(); ++r) t.rank(r).calls = RankCalls{};
    const std::uint64_t wall = t.run_epoch(ep);
    t.check_epoch(ep, checks);
    on_epoch(ep);
    if (i > 0) {
      ++ps.epochs;
      ps.wall_s += static_cast<double>(wall) * 1e-9;
      ps.epoch_ms.add(ms(wall));
      double visible = 0, exch = 0, self = 0, adv = 0, unattr = 0;
      double resident = 0, quarantined = 0, segments = 0;
      double share = 1.0;
      for (int r = 0; r < t.ranks(); ++r) {
        Rank& k = t.rank(r);
        const RankEpoch& e = k.last;
        visible = std::max(visible, ms(e.visible_ns));
        exch = std::max(exch, ms(e.exchange_ns));
        self = std::max(self, ms(e.exchange_ns - e.exchange_io_ns));
        adv = std::max(adv, ms(e.advance_ns));
        unattr = std::max(unattr, ms(e.epoch_ns - e.attributed_ns));
        share = std::min(share, static_cast<double>(e.attributed_ns) /
                                    static_cast<double>(e.epoch_ns));
        ps.local_shuffle_us.add(us(e.local_shuffle_ns));
        ps.samples += e.steps * t.batch();
        ps.msgs += static_cast<double>(e.outcome.msgs_sent);
        ps.bytes_header += static_cast<double>(e.outcome.bytes_header);
        ps.bytes_body += static_cast<double>(e.outcome.bytes_body);
        ps.committed += static_cast<double>(e.outcome.sends_committed);
        ps.rounds += static_cast<double>(e.outcome.rounds);
        ps.calls.append(k.calls);
        resident += static_cast<double>(e.resident_bytes_peak);
        quarantined += static_cast<double>(e.quarantined_bytes);
        segments += static_cast<double>(e.segments);
      }
      ps.resident_peak = std::max(ps.resident_peak, resident);
      ps.quarantined_peak = std::max(ps.quarantined_peak, quarantined);
      ps.segments_peak = std::max(ps.segments_peak, segments);
      ps.visible_ms.add(visible);
      ps.exchange_ms.add(exch);
      ps.exchange_self_ms.add(self);
      ps.advance_ms.add(adv);
      ps.attributed_share.add(share);
      ps.unattributed_ms.add(unattr);
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (i + 1 >= min_epochs && elapsed >= budget_s) break;
  }
  ps.compactions = counter_value("store.compactions") - compactions0;
  ps.pool_misses = counter_value("comm.pool.misses") - misses0;
  checks.expect(t.replicas_identical(),
                "model replicas identical across ranks");
  return ps;
}

}  // namespace

Result run_train(const std::string& workload, const RunOptions& opt) {
  const TrainConfig cfg = config_for(workload, opt.toy);
  Result res;
  const Rows rows(opt.seed, cfg);
  const auto val = rows.block(cfg.samples, cfg.val_samples);
  const fs::path root(opt.store_root);

  const auto cpus = rank_cpu_blocks(cfg.ranks);
  const auto build = [&] {
    return std::make_unique<Trainer>(cfg, rows, cfg.ranks, root / "main",
                                     opt.seed, cpus);
  };
  Samples setup_s;
  std::unique_ptr<Trainer> trainer =
      timed_builds(cfg.setup_reps - cfg.setup_reps / 2, build, setup_s);
  Trainer& t = *trainer;
  const auto budget = [&](double frac) { return opt.seconds * frac; };
  const double scaling_frac = cfg.scaling ? 0.3 : 0.0;
  const double main_frac = (1.0 - scaling_frac) * (opt.trace ? 0.5 : 1.0);
  const std::size_t min_epochs = std::max<std::size_t>(cfg.fixed_epochs, 3);

  // Phase A: untraced, M ranks. The first fixed_epochs epochs are the
  // fixed-work schedule behind final_loss, val_top1 and the exchange bytes.
  double bytes_fixed = 0;
  double final_loss = 0;
  double top1 = 0;
  std::size_t epoch = 0;
  const PhaseStats a = run_phase(
      t, epoch, budget(main_frac), min_epochs, res.checks,
      [&](std::size_t e) {
        if (e >= cfg.fixed_epochs) return;
        for (int r = 0; r < t.ranks(); ++r) {
          bytes_fixed += static_cast<double>(t.rank(r).last.outcome.bytes_offered);
        }
        if (e + 1 == cfg.fixed_epochs) {
          double loss = 0;
          std::size_t steps = 0;
          for (int r = 0; r < t.ranks(); ++r) {
            loss += t.rank(r).last.loss_sum;
            steps += t.rank(r).last.steps;
          }
          final_loss = loss / static_cast<double>(steps);
          top1 = t.val_top1(val);
        }
      });
  res.checks.expect(std::isfinite(final_loss), "final loss is finite");

  // Phase B: the same task on one rank, for scaling efficiency.
  double scaling = 0;
  if (cfg.scaling) {
    // One rank on one rank's share of the CPUs.
    Trainer single(cfg, rows, 1, root / "single", opt.seed,
                   {cpus.begin(), cpus.begin() + (cpus.empty() ? 0 : 1)});
    std::size_t e1 = 0;
    const PhaseStats b = run_phase(single, e1, budget(scaling_frac), 3,
                                   res.checks, [](std::size_t) {});
    const double sps_m = static_cast<double>(a.samples) / a.wall_s;
    const double sps_1 = static_cast<double>(b.samples) / b.wall_s;
    scaling = sps_m / (static_cast<double>(cfg.ranks) * sps_1);
  }

  // Phase T: traced continuation of the same job; the per-layer figures
  // come from here, the end-to-end ones from phase A.
  std::optional<PhaseStats> traced;
  if (opt.trace) {
    set_tracing(true);
    traced = run_phase(t, epoch, budget(main_frac), 3, res.checks,
                       [](std::size_t) {});
    set_tracing(false);
    res.checks.expect(traced->attributed_share.quantile(0.0) >= 0.95,
                      "at least 95% of each rank's traced epoch wall time is "
                      "attributed to layer spans");
  }
  const PhaseStats& lp = traced ? *traced : a;

  auto& m = res.metrics;
  m["epoch_ms.p50"] = a.epoch_ms.quantile(0.5);
  m["samples_per_s"] = static_cast<double>(a.samples) / a.wall_s;
  m["exchange_visible_ms.p50"] = a.visible_ms.quantile(0.5);
  m["exchange_bytes_per_epoch"] =
      bytes_fixed / static_cast<double>(cfg.fixed_epochs);
  m["step_ms.p50"] = a.calls.step_ms.quantile(0.5);
  m["step_ms.p99"] = a.calls.step_ms.quantile(0.99);
  m["step_ms.count"] = static_cast<double>(a.calls.step_ms.count());
  m["store_resident_peak_mb"] = a.resident_peak / (1024.0 * 1024.0);
  m["final_loss"] = final_loss;
  m["val_top1"] = top1;
  if (cfg.scaling) m["scaling_efficiency"] = scaling;

  const double lepochs = static_cast<double>(lp.epochs);
  m["io.read_us.p50"] = lp.calls.read_us.quantile(0.5);
  m["io.read_calls"] = static_cast<double>(lp.calls.read_us.count()) / lepochs;
  m["io.save_us.p50"] = lp.calls.save_us.quantile(0.5);
  m["io.save_calls"] = static_cast<double>(lp.calls.save_us.count()) / lepochs;
  m["io.remove_us.p50"] = lp.calls.remove_us.quantile(0.5);
  m["io.remove_calls"] =
      static_cast<double>(lp.calls.remove_us.count()) / lepochs;
  m["io.advance_epoch_ms"] = lp.advance_ms.quantile(0.5);
  m["io.quarantined_mb"] = lp.quarantined_peak / (1024.0 * 1024.0);
  m["io.segments"] = lp.segments_peak;
  m["store.compactions"] = static_cast<double>(lp.compactions) / lepochs;
  m["shuffle.exchange_ms"] = lp.exchange_ms.quantile(0.5);
  m["shuffle.exchange_self_ms"] = lp.exchange_self_ms.quantile(0.5);
  m["shuffle.local_shuffle_us"] = lp.local_shuffle_us.quantile(0.5);
  m["shuffle.msgs_per_epoch"] = lp.msgs / lepochs;
  m["shuffle.bytes_header"] = lp.bytes_header / lepochs;
  m["shuffle.bytes_body"] = lp.bytes_body / lepochs;
  m["shuffle.commit_ratio"] = lp.rounds > 0 ? lp.committed / lp.rounds : 1.0;
  m["comm.pool.misses"] = static_cast<double>(lp.pool_misses) / lepochs;
  m["data.next_wait_us.p50"] = lp.calls.next_us.quantile(0.5);
  m["data.next_wait_us.p99"] = lp.calls.next_us.quantile(0.99);
  m["data.batches"] = static_cast<double>(lp.calls.next_us.count()) / lepochs;
  m["nn.forward_us.p50"] = lp.calls.forward_us.quantile(0.5);
  m["nn.loss_us.p50"] = lp.calls.loss_us.quantile(0.5);
  m["nn.backward_us.p50"] = lp.calls.backward_us.quantile(0.5);
  m["nn.sgd_step_us.p50"] = lp.calls.sgd_us.quantile(0.5);
  m["nn.workspace.bytes"] =
      static_cast<double>(t.rank(0).model.workspace().bytes_reserved());
  m["comm.allreduce_us.p50"] = lp.calls.allreduce_us.quantile(0.5);
  m["comm.allreduce_us.p99"] = lp.calls.allreduce_us.quantile(0.99);
  m["comm.grad_pack_us"] = lp.calls.pack_us.quantile(0.5);
  m["obs.attributed_share"] = lp.attributed_share.quantile(0.0);
  m["unattributed_ms"] = lp.unattributed_ms.mean();
  if (traced) {
    m["obs.trace_overhead_share"] =
        (traced->epoch_ms.quantile(0.5) - a.epoch_ms.quantile(0.5)) /
        a.epoch_ms.quantile(0.5);
  }

  auto& c = res.config;
  std::ostringstream hidden;
  for (std::size_t i = 0; i < cfg.hidden.size(); ++i) {
    hidden << (i ? "," : "") << cfg.hidden[i];
  }
  c["ranks"] = std::to_string(cfg.ranks);
  c["samples"] = std::to_string(cfg.samples);
  c["feature_dim"] = std::to_string(cfg.feature_dim);
  c["payload_bytes"] = std::to_string(t.row_bytes());
  c["classes"] = std::to_string(cfg.classes);
  c["hidden"] = hidden.str();
  c["q"] = std::to_string(cfg.q);
  c["quota"] = std::to_string(t.quota());
  c["batch_per_rank"] = std::to_string(cfg.batch);
  c["partition"] = "class-sorted";
  c["store"] = "mmap";
  std::ostringstream bound;
  for (std::size_t r = 0; r < cpus.size(); ++r) {
    bound << (r ? "|" : "");
    for (std::size_t i = 0; i < cpus[r].size(); ++i) {
      bound << (i ? "," : "") << cpus[r][i];
    }
  }
  c["rank_cpus"] = cpus.empty() ? "unbound" : bound.str();
  c["fixed_epochs"] = std::to_string(cfg.fixed_epochs);
  c["epochs_untraced"] = std::to_string(a.epochs);
  if (traced) c["epochs_traced"] = std::to_string(traced->epochs);

  // The second half of the set-ups, once the measured job is gone.
  trainer.reset();
  timed_builds(cfg.setup_reps / 2, build, setup_s);
  m["setup_s"] = setup_s.quantile(0.5);
  return res;
}

}  // namespace perfbench
