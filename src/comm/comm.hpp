// In-process MPI-like communicator.
//
// The paper's exchange (Algorithm 1) needs tagged point-to-point messages
// with MPI_ANY_SOURCE matching. This module provides exactly those
// semantics with ranks as threads in one process:
//
//   comm::World world(M);
//   world.run([](comm::Communicator& c) {
//     c.send(dest, tag, bytes);
//     comm::Message m = c.recv(comm::kAnySource, tag);  // blocks
//   });
//
// Sends are buffered ("eager"): send deposits the message into the
// destination inbox and returns, the completion semantics of a buffered
// MPI send. Receives match by (source, tag) with wildcards, in arrival
// order (non-overtaking per source, like MPI).
//
// A World can additionally run with deterministic fault injection (see
// comm/fault.hpp): install a seeded FaultPlan with set_fault_plan() and
// every point-to-point delivery may be delayed, reordered, duplicated,
// dropped, or stalled — reproducibly. Protocols survive that regime by
// polling (poll), backing off on the communicator's clock (now_us,
// backoff) and fencing in-flight deliveries (fence_faults).
//
// Communicator itself is an abstract endpoint: the threaded World above is
// one backend (one OS thread per rank), and netsim::VirtualWorld is the
// other (thousands of fiber ranks over a discrete-event network model, for
// paper-scale M). Exchange code written against this interface runs on
// either unchanged; the collectives are implemented ONCE in the base class
// over barrier() + shared slots, so both backends produce bit-identical
// collective results by construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/buffer_pool.hpp"

namespace dshuf::comm {

class FaultPlan;
struct FaultStats;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Ranks-as-threads stops making sense well before it stops working: the
/// scheduler thrashes and every test slot in CI stalls. Worlds larger than
/// this refuse to construct and point at the event-driven backend instead.
inline constexpr int kMaxThreadedRanks = 512;

/// A received or in-flight message.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> payload;
};

namespace detail {

/// Shared storage for the slot-and-barrier collectives, one slot per rank
/// per collective. Both backends own one; the base Communicator implements
/// every collective against it.
struct CollectiveSlots {
  // allreduce_sum: each rank's contribution and result, published for the
  // duration of one call.
  std::vector<std::span<const double>> reduce_in;
  std::vector<std::span<double>> reduce_out;
  // allgather: each rank's payload, published for the duration of one call.
  std::vector<std::vector<std::byte>> gather;

  void init(int ranks) {
    reduce_in.resize(static_cast<std::size_t>(ranks));
    reduce_out.resize(static_cast<std::size_t>(ranks));
    gather.resize(static_cast<std::size_t>(ranks));
  }
};

class WorldState;

}  // namespace detail

/// Per-rank endpoint (abstract). Not thread-safe across ranks by design:
/// each rank's thread/fiber owns its Communicator.
class Communicator {
 public:
  virtual ~Communicator() = default;
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] virtual int size() const = 0;

  /// Buffered send: enqueues at the destination and returns (even a
  /// message the fault plan drops "completes"). Pair with pool() so a
  /// steady-state send touches no heap.
  virtual void send(int dest, int tag, std::vector<std::byte> payload) = 0;

  /// Blocking receive matching (source, tag); kAnySource / kAnyTag
  /// wildcards allowed. Takes the earliest-arrived matching message,
  /// otherwise waits until one arrives.
  virtual Message recv(int source, int tag) = 0;

  /// Non-blocking probe-and-take: pops an already-arrived matching message,
  /// or returns nullopt without waiting. Retry loops and stray/duplicate
  /// drains are built on this.
  virtual std::optional<Message> poll(int source, int tag) = 0;

  /// True when the World runs with an installed fault plan. Fault-oblivious
  /// protocols check this to refuse running over a lossy world.
  [[nodiscard]] virtual bool fault_injection_enabled() const = 0;

  /// Flush any delayed/in-flight deliveries and wait until no delivery is
  /// in flight. Call between a barrier (all sends issued) and a drain loop
  /// to make delivery globally quiescent. No-op on the threaded world
  /// without an installed fault plan (deliveries are synchronous there).
  virtual void fence_faults() = 0;

  /// Dissemination barrier across all ranks.
  virtual void barrier() = 0;

  /// The clock that retry/timeout protocols over this communicator must
  /// use: monotonic microseconds of wall time on the threaded world,
  /// VIRTUAL microseconds on the event-driven one. Pairs with backoff().
  [[nodiscard]] virtual std::uint64_t now_us() = 0;

  /// Yield this rank for `pause`, measured on the same clock now_us()
  /// reads. The threaded world sleeps the rank's thread; the virtual world
  /// suspends the fiber and lets simulated time advance. Progress loops
  /// must back off through this (never std::this_thread::sleep_for), or
  /// virtual time would stand still beneath them.
  virtual void backoff(std::chrono::microseconds pause) = 0;

  /// Element-wise sum allreduce over doubles (gradient-exchange analogue).
  /// Through shared memory, each rank sums its 1/M slice of the elements
  /// over all contributions in rank order (from 0.0) and writes it into
  /// every rank's result, so all ranks agree bit-for-bit.
  std::vector<double> allreduce_sum(std::span<const double> contribution);

  /// All ranks receive every rank's payload (indexed by source).
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> payload);

  /// This rank's payload-buffer pool (see comm/buffer_pool.hpp). Only the
  /// owning rank's thread may touch it; buffers released here came either
  /// from this pool or from a received message (buffers migrate with the
  /// traffic). Pools persist across World::run calls, so a warmed-up
  /// exchange stays allocation-free in later epochs.
  [[nodiscard]] virtual BufferPool& pool() = 0;

 protected:
  explicit Communicator(int rank) : rank_(rank) {}

  /// Storage the base-class collectives stage through. Every collective is
  /// slots + two barriers with deterministic rank-order accumulation, so
  /// any two backends agree bit-for-bit.
  [[nodiscard]] virtual detail::CollectiveSlots& collective_slots() = 0;

  int rank_;
};

/// Owns the shared state and the rank threads.
class World {
 public:
  explicit World(int num_ranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const;

  /// Run `body` on `size()` threads, one per rank. Rethrows the first
  /// exception any rank threw (after joining all threads). May be called
  /// multiple times; mailboxes must be drained between runs (checked).
  void run(const std::function<void(Communicator&)>& body);

  /// Install a deterministic fault plan (see comm/fault.hpp): every
  /// point-to-point delivery is routed through the injector from now on.
  /// Must not be called while run() is executing. Replaces any previous
  /// plan; attempt counters restart at each run() so identical runs see
  /// identical fault schedules.
  void set_fault_plan(const FaultPlan& plan);
  /// Remove the installed fault plan (deliveries become perfect again).
  void clear_fault_plan();
  /// Injector counters (all zero when no plan is installed). Include
  /// comm/fault.hpp for the FaultStats definition.
  [[nodiscard]] FaultStats fault_stats() const;

 private:
  std::unique_ptr<detail::WorldState> state_;
};

}  // namespace dshuf::comm
