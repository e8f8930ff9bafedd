// Deterministic fault injection for the in-process communicator.
//
// The real PLS exchange runs over imperfect interconnects: messages are
// delayed, reordered across sources, duplicated by retransmission layers,
// dropped by lossy transports, and whole nodes stall under OS jitter. The
// stock `comm::World` delivers every send instantly and in order, so none
// of the exchange's robustness machinery is ever exercised. This module
// adds a fault layer the World consults on every point-to-point delivery:
//
//   comm::FaultSpec spec;
//   spec.drop_prob = 0.1;
//   spec.delay_prob = 0.5;
//   spec.max_delay_us = 5'000;
//   world.set_fault_plan(comm::FaultPlan(/*seed=*/42, spec));
//
// Every decision (drop? duplicate? how long a delay?) is a pure function
// of (fault seed, source, dest, tag, per-link attempt counter) via the
// deterministic Rng::fork stream derivation — re-running with the same
// seed reproduces the exact same fault schedule regardless of thread
// interleaving. Collectives (barrier/allreduce/allgather) use the
// World's slot-and-barrier path and are deliberately NOT faulted: they
// model the small, reliable control plane (TCP rendezvous) that real
// deployments keep alongside the lossy bulk-data plane. Loopback
// (source == dest) is likewise exempt — self-sends never cross the wire.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "util/ranked_mutex.hpp"
#include "util/rng.hpp"

namespace dshuf::comm {

/// Fault probabilities and magnitudes. All probabilities are per delivery
/// attempt; delays are uniform in [min_delay_us, max_delay_us].
struct FaultSpec {
  double drop_prob = 0.0;       ///< Message vanishes entirely.
  double dup_prob = 0.0;        ///< An extra copy is delivered immediately.
  double delay_prob = 0.0;      ///< Delivery is deferred by a random delay.
  std::uint32_t min_delay_us = 0;
  std::uint32_t max_delay_us = 0;
  /// Per-rank probability that ALL of the rank's sends are held back for
  /// `stall_us` from the start of the current World::run (OS-jitter model).
  double stall_prob = 0.0;
  std::uint32_t stall_us = 0;
};

/// Counters the injector keeps (snapshot via World::fault_stats()).
struct FaultStats {
  std::uint64_t submitted = 0;   ///< point-to-point sends seen
  std::uint64_t delivered = 0;   ///< copies actually deposited
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected
  std::uint64_t delayed = 0;
  std::uint64_t stalled = 0;     ///< deliveries deferred by a rank stall
  std::uint64_t flushed = 0;     ///< delayed messages force-delivered by fence
};

/// What the plan decided for one delivery attempt.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  std::uint32_t delay_us = 0;
};

/// Pure, seeded fault oracle. Copyable value type; decide() is const and
/// thread-safe, so concurrent senders can all consult one plan.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, const FaultSpec& spec)
      : seed_(seed), spec_(spec) {}

  /// Decision for the `attempt`-th message on the (source, dest, tag) link.
  /// Deterministic: same (seed, key) => same decision, independent of
  /// execution order.
  [[nodiscard]] FaultDecision decide(int source, int dest, int tag,
                                     std::uint64_t attempt) const;

  /// Stall window for `rank`'s sends, measured from World::run start;
  /// 0 when the rank is not stalled.
  [[nodiscard]] std::uint32_t stall_us(int rank) const;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  FaultSpec spec_;
};

/// Applies a FaultPlan to a stream of deliveries. Owns a timer thread that
/// deposits delayed messages when they come due. The World installs one of
/// these and routes every send through submit().
class FaultInjector {
 public:
  /// `deliver` deposits a message into the destination mailbox (supplied
  /// by the World; must be callable from the timer thread).
  using DeliverFn = std::function<void(int dest, Message msg)>;

  FaultInjector(FaultPlan plan, int world_size, DeliverFn deliver);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Route one send. Called from the source rank's thread only.
  void submit(int source, int dest, Message msg);

  /// Restart the stall clock and the per-link attempt counters; called at
  /// the top of World::run so identical runs see identical schedules.
  void begin_run();

  /// Synchronously deliver every queued delayed message and wait until no
  /// delivery is in flight. Idempotent; callable from any rank. After all
  /// ranks stopped sending, a fence guarantees global delivery quiescence.
  void fence();

  /// Number of messages still queued for delayed delivery.
  [[nodiscard]] std::size_t pending() const;

  /// Wait until no delivery is mid-deposit on the timer thread. Unlike
  /// fence() this does NOT flush the queue — queued-but-undue messages
  /// stay queued (and are a leak the World's drained check reports).
  void quiesce_in_flight();

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;  // FIFO tiebreak for equal deadlines
    int dest;
    Message msg;
  };
  struct Later {
    bool operator()(const Delayed& a, const Delayed& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  void timer_loop();
  void schedule(int dest, Message msg,
                std::chrono::steady_clock::time_point due);

  FaultPlan plan_;
  DeliverFn deliver_;

  // Per-source attempt counters keyed by (dest, tag). Each slot is touched
  // only by its own rank's thread, so no lock is needed and the counts are
  // reproducible (a rank's send sequence is deterministic). Ordered map so
  // no observable behaviour (stats drains, debug dumps, future snapshots)
  // can ever depend on hash-bucket iteration order — fault-schedule replay
  // must be a pure function of the seed.
  std::vector<std::map<std::uint64_t, std::uint64_t>> attempts_;

  mutable RankedMutex mu_{LockRank::kFault, "comm.fault"};
  std::condition_variable_any cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;  // popped but not yet deposited
  bool stop_ = false;
  std::chrono::steady_clock::time_point run_start_;
  FaultStats stats_;

  std::thread timer_;
};

}  // namespace dshuf::comm
