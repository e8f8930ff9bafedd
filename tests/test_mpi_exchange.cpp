// Cross-validation of the two Algorithm-1 implementations: the threaded
// message-passing executor must produce exactly the shard contents the
// sequential driver computes, because both derive every decision from the
// same (seed, epoch, worker) streams.
#include "shuffle/mpi_exchange.hpp"

#include <map>
#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/traffic.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

TEST(MpiExchange, MatchesSequentialDriver) {
  const std::size_t n = 64;
  const int m = 8;
  const double q = 0.25;
  const std::uint64_t seed = 31;

  // Threaded execution: one store per rank, real send/recv.
  auto shards = make_shards(n, m);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + exchange_quota(n / m, q);
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(c, store, seed, epoch, q, n / m);
      // Callers own the end-of-epoch local shuffle (see header contract).
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }

  // Sequential reference.
  PartialLocalShuffler pls(make_shards(n, m), q, seed);
  for (std::size_t epoch = 0; epoch < 3; ++epoch) pls.begin_epoch(epoch);

  for (int w = 0; w < m; ++w) {
    const auto& a = stores[static_cast<std::size_t>(w)].ids();
    const auto& b = pls.stores()[static_cast<std::size_t>(w)].ids();
    EXPECT_EQ(std::multiset<SampleId>(a.begin(), a.end()),
              std::multiset<SampleId>(b.begin(), b.end()))
        << "rank " << w;
  }
}

TEST(MpiExchange, ConservesSamplesAcrossRanks) {
  const std::size_t n = 48;
  const int m = 6;
  auto shards = make_shards(n, m);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + exchange_quota(n / m, 0.5);
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    run_pls_exchange_epoch(c, stores[static_cast<std::size_t>(c.rank())], 9,
                           0, 0.5, n / m);
  });
  std::multiset<SampleId> got;
  for (const auto& s : stores) got.insert(s.ids().begin(), s.ids().end());
  EXPECT_EQ(got.size(), n);
  EXPECT_EQ(std::set<SampleId>(got.begin(), got.end()).size(), n);
}

TEST(MpiExchange, MovesPayloadBytes) {
  const std::size_t n = 16;
  const int m = 4;
  auto shards = make_shards(n, m);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + exchange_quota(n / m, 1.0);
    stores.emplace_back(std::move(s), cap);
  }
  // Payload = the sample id repeated 3 times as bytes; the deposit hook
  // verifies integrity on the receiving side.
  std::mutex mu;
  std::size_t deposits = 0;
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    run_pls_exchange_epoch(
        c, stores[static_cast<std::size_t>(c.rank())], 13, 0, 1.0, n / m,
        /*payload=*/
        [](SampleId id, std::vector<std::byte>& out) {
          out.insert(out.end(), 3, static_cast<std::byte>(id & 0xFF));
        },
        /*deposit=*/
        [&](SampleId id, std::span<const std::byte> body) {
          EXPECT_EQ(body.size(), 3U);
          for (auto b : body) {
            EXPECT_EQ(b, static_cast<std::byte>(id & 0xFF));
          }
          std::lock_guard<std::mutex> lk(mu);
          ++deposits;
        });
  });
  EXPECT_EQ(deposits, n);  // quota == shard at Q = 1: all samples moved
}

TEST(MpiExchange, QZeroIsANoOp) {
  const std::size_t n = 16;
  const int m = 4;
  auto shards = make_shards(n, m);
  const auto original = shards;
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size();
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    run_pls_exchange_epoch(c, stores[static_cast<std::size_t>(c.rank())], 13,
                           0, 0.0, n / m);
  });
  for (int w = 0; w < m; ++w) {
    EXPECT_EQ(stores[static_cast<std::size_t>(w)].ids(),
              original[static_cast<std::size_t>(w)]);
  }
}

// --------------------------------------------------------------------------
// Edge cases: the degenerate corners of the (M, Q, shard) space must agree
// with the sequential driver exactly, not just approximately.

// Bit-identical comparison helper: run `epochs` world epochs (exchange +
// the shared post-shuffle) and diff against PartialLocalShuffler.
void expect_bit_identical_to_driver(std::size_t n, int m, double q,
                                    std::uint64_t seed, std::size_t epochs) {
  auto shards = make_shards(n, static_cast<std::size_t>(m));
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(c, store, seed, epoch, q, min_shard);
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }
  PartialLocalShuffler pls(make_shards(n, static_cast<std::size_t>(m)), q,
                           seed);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    pls.begin_epoch(epoch);
  }
  for (int w = 0; w < m; ++w) {
    EXPECT_EQ(stores[static_cast<std::size_t>(w)].ids(),
              pls.stores()[static_cast<std::size_t>(w)].ids())
        << "rank " << w << " diverged (n=" << n << " m=" << m << " q=" << q
        << ")";
  }
}

TEST(MpiExchangeEdge, FullExchangeMatchesDriverBitIdentically) {
  // Q = 1 moves every sample every epoch — the partial scheme degenerates
  // to a full re-deal and must still track the driver byte for byte.
  expect_bit_identical_to_driver(/*n=*/40, /*m=*/5, /*q=*/1.0, /*seed=*/7,
                                 /*epochs=*/3);
}

TEST(MpiExchangeEdge, SingleRankSkipsTheExchange) {
  // M = 1: nothing to exchange with; the sequential driver skips the
  // exchange too (its plan needs m > 1), so both reduce to the local
  // shuffle alone.
  expect_bit_identical_to_driver(/*n=*/12, /*m=*/1, /*q=*/0.7, /*seed=*/3,
                                 /*epochs=*/2);
}

TEST(MpiExchangeEdge, MinimumShardOneSamplePerRank) {
  // shard = 1, Q = 1: every rank's whole shard (one sample) is in flight
  // every epoch.
  expect_bit_identical_to_driver(/*n=*/6, /*m=*/6, /*q=*/1.0, /*seed=*/5,
                                 /*epochs=*/3);
}

TEST(MpiExchangeEdge, RaggedShardsUseTheGlobalMinimumQuota)  {
  // n not divisible by m: shards of 7 and 6, quota from the minimum.
  expect_bit_identical_to_driver(/*n=*/50, /*m=*/8, /*q=*/0.5, /*seed=*/17,
                                 /*epochs=*/2);
}

TEST(MpiExchangeEdge, EmptyShardsAreANoOp) {
  const int m = 4;
  std::vector<ShardStore> stores(m);
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    const auto out = run_pls_exchange_epoch(
        c, stores[static_cast<std::size_t>(c.rank())], 1, 0, 1.0,
        /*global_min_shard=*/0);
    EXPECT_EQ(out.rounds, 0U);
  });
  for (const auto& s : stores) EXPECT_TRUE(s.ids().empty());
}

// The three byte ledgers — the analytic traffic model, ExchangeOutcome,
// and the comm.* counters — must agree to the byte, not a tolerance.
// With a uniform payload of P bytes: bytes_body is exactly the traffic
// model's Q * D / M (integer form pls_exchange_payload_bytes); every
// offered byte is either framing or payload; and the outcome's
// msgs_sent / bytes_sent march in lockstep with the comm layer's own
// comm.isend / comm.bytes_sent counters.
TEST(MpiExchangeEdge, BytesAccountingMatchesTrafficModelAndCommCounters) {
  const std::size_t n = 48;
  const int m = 6;
  const double q = 0.5;
  const std::size_t kPayloadBytes = 24;
  const std::size_t shard = n / static_cast<std::size_t>(m);
  const std::size_t quota = exchange_quota(shard, q);
  const std::size_t epochs = 2;

  auto shards = make_shards(n, static_cast<std::size_t>(m));
  std::vector<ShardStore> stores;
  for (auto& s : shards) stores.emplace_back(std::move(s), shard + quota);

  std::vector<ExchangeOutcome> outcomes(static_cast<std::size_t>(m) * epochs);
  auto& sent_counter = obs::Registry::instance().counter("comm.isend");
  auto& bytes_counter = obs::Registry::instance().counter("comm.bytes_sent");
  const std::uint64_t sent_before = sent_counter.value();
  const std::uint64_t bytes_before = bytes_counter.value();

  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      outcomes[r * epochs + epoch] = run_pls_exchange_epoch(
          c, stores[r], /*seed=*/17, epoch, q, shard,
          [&](SampleId id, std::vector<std::byte>& out) {
            out.insert(out.end(), kPayloadBytes,
                       static_cast<std::byte>(id & 0xFF));
          });
      post_exchange_local_shuffle(17, epoch, c.rank(),
                                  stores[r].mutable_ids());
    }
  });

  // Fast path, no faults: no retransmits, so the outcome's bytes_sent is
  // exactly the offered bytes, and the analytic model prices the payload
  // portion of every rank's epoch.
  const std::size_t model_body =
      pls_exchange_payload_bytes(quota, kPayloadBytes);
  TrafficParams tp;
  tp.dataset_bytes = static_cast<double>(n) * static_cast<double>(kPayloadBytes);
  tp.workers = static_cast<std::size_t>(m);
  tp.q = q;
  // ceil(q * shard) == q * shard here, so the double model is exact too.
  EXPECT_EQ(compute_traffic(tp).sent_per_worker,
            static_cast<double>(model_body));

  std::size_t sum_msgs = 0;
  std::size_t sum_bytes_sent = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rounds, quota);
    EXPECT_EQ(o.bytes_body, model_body);
    EXPECT_EQ(o.bytes_header + o.bytes_body, o.bytes_offered);
    EXPECT_EQ(o.bytes_sent, o.bytes_offered);
    // One frame per distinct destination (self included — the plan may
    // route rounds back to the sender).
    EXPECT_LE(o.msgs_sent, static_cast<std::size_t>(m));
    EXPECT_GE(o.msgs_sent, 1U);
    sum_msgs += o.msgs_sent;
    sum_bytes_sent += o.bytes_sent;
  }
  EXPECT_EQ(sent_counter.value() - sent_before, sum_msgs);
  EXPECT_EQ(bytes_counter.value() - bytes_before, sum_bytes_sent);
}

// Decorator over a rank's communicator that checks trace causality at the
// sender: when a DATA frame is handed to the fabric, the tracer must
// already hold one exchange.frame send/step point per attempt of that
// frame, because the receiver may record the flow's finish the instant
// the frame lands. With `drop_first_attempt` the decorator swallows each
// frame's first attempt, so the robust path must retransmit (kStep).
class FlowOrderCheckingComm final : public comm::Communicator {
 public:
  FlowOrderCheckingComm(comm::Communicator& inner,
                        comm::detail::CollectiveSlots& slots,
                        bool drop_first_attempt)
      : Communicator(inner.rank()),
        inner_(inner),
        slots_(slots),
        drop_first_attempt_(drop_first_attempt) {}

  [[nodiscard]] int size() const override { return inner_.size(); }
  void send(int dest, int tag, std::vector<std::byte> payload) override {
    if (!payload.empty()) {  // ACKs are empty; frames never are
      const std::uint64_t flow = parse_frame(payload).flow_id();
      const std::size_t attempt = ++attempts_[flow];
      EXPECT_GE(recorded_send_points(flow), attempt)
          << "rank " << rank() << " sent attempt " << attempt
          << " of flow " << flow << " before tracing it";
      if (drop_first_attempt_ && attempt == 1) return;
    }
    inner_.send(dest, tag, std::move(payload));
  }
  comm::Message recv(int source, int tag) override {
    return inner_.recv(source, tag);
  }
  std::optional<comm::Message> poll(int source, int tag) override {
    return inner_.poll(source, tag);
  }
  [[nodiscard]] bool fault_injection_enabled() const override {
    return inner_.fault_injection_enabled();
  }
  void fence_faults() override { inner_.fence_faults(); }
  void barrier() override { inner_.barrier(); }
  [[nodiscard]] std::uint64_t now_us() override { return inner_.now_us(); }
  void backoff(std::chrono::microseconds pause) override {
    inner_.backoff(pause);
  }
  [[nodiscard]] comm::BufferPool& pool() override { return inner_.pool(); }

 protected:
  [[nodiscard]] comm::detail::CollectiveSlots& collective_slots() override {
    return slots_;
  }

 private:
  static std::size_t recorded_send_points(std::uint64_t flow) {
    std::size_t n = 0;
    for (const auto& f : obs::Tracer::instance().flow_snapshot()) {
      if (f.name == "exchange.frame" && f.id == flow &&
          f.phase != obs::FlowPhase::kFinish) {
        ++n;
      }
    }
    return n;
  }

  comm::Communicator& inner_;
  comm::detail::CollectiveSlots& slots_;
  bool drop_first_attempt_;
  std::map<std::uint64_t, std::size_t> attempts_;
};

// Runs two traced epochs through FlowOrderCheckingComm; returns the summed
// retransmissions.
std::size_t run_flow_order_checked(const ExchangeRobustness* robust,
                                   bool drop_first_attempt) {
  const int m = 4;
  const std::size_t shard = 12;
  const double q = 0.5;
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  auto shards = make_shards(shard * m, m);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    stores.emplace_back(std::move(s), shard + exchange_quota(shard, q));
  }
  comm::detail::CollectiveSlots slots;
  slots.init(m);
  std::mutex mu;
  std::size_t retries = 0;
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    world.run([&](comm::Communicator& c) {
      FlowOrderCheckingComm checked(c, slots, drop_first_attempt);
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      const auto out = run_pls_exchange_epoch(checked, store, 5, epoch, q,
                                              shard, nullptr, nullptr,
                                              robust);
      post_exchange_local_shuffle(5, epoch, c.rank(), store.mutable_ids());
      std::lock_guard<std::mutex> lk(mu);
      retries += out.retries;
    });
  }
  tracer.set_enabled(false);
  tracer.clear();
  return retries;
}

TEST(MpiExchangeTrace, FastPathTracesEachFrameBeforeSendingIt) {
  EXPECT_EQ(run_flow_order_checked(nullptr, false), 0U);
}

TEST(MpiExchangeTrace, RobustPathTracesEveryAttemptBeforeSendingIt) {
  ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(2);
  robust.recv_deadline = std::chrono::seconds(5);
  EXPECT_GT(run_flow_order_checked(&robust, /*drop_first_attempt=*/true),
            0U);
}

TEST(MpiExchangeEdge, OutcomeAccumulatesIntoStats) {
  ExchangeStats stats;
  ExchangeOutcome outcome;
  outcome.retries = 3;
  outcome.send_fallbacks = 1;
  outcome.recv_fallbacks = 2;
  outcome.duplicates_suppressed = 4;
  outcome.accumulate_into(stats);
  outcome.accumulate_into(stats);
  EXPECT_EQ(stats.retries, 6U);
  EXPECT_EQ(stats.send_fallbacks, 2U);
  EXPECT_EQ(stats.recv_fallbacks, 4U);
  EXPECT_EQ(stats.duplicates_suppressed, 8U);
}

}  // namespace
}  // namespace dshuf::shuffle
