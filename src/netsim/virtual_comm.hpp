// Event-driven virtual-rank comm backend.
//
// The threaded comm::World tops out around a few hundred ranks — one OS
// thread per rank thrashes the scheduler long before Fugaku-scale M. This
// backend runs THOUSANDS of virtual ranks as cooperatively-scheduled
// fibers (ucontext) multiplexed onto one OS thread by a single
// discrete-event loop:
//
//   * Each rank's body runs unmodified against the comm::Communicator
//     interface — the same mpi_exchange epoch logic, coalesced wire,
//     robust DATA/ACK protocol, and fault handling as on the threaded
//     backend. Collectives come from the shared base-class implementation,
//     so collective results are bit-identical across backends by
//     construction.
//   * Time is VIRTUAL: Communicator::now_us() reads the event loop's
//     clock, and every blocking primitive (recv, backoff, barrier, fence)
//     suspends the fiber until an event advances it. A
//     4096-rank epoch simulates in wall-clock seconds because idle
//     virtual time costs nothing.
//   * Message timing comes from the incremental max-min-fair FlowEngine:
//     each point-to-point payload becomes a flow over its NIC (and, under
//     a topology, group uplink/downlink) links; the delivery event fires
//     at the flow's simulated completion (so, unlike the threaded World, a
//     smaller message can overtake a larger one sent earlier on the same
//     source and tag). The obs VirtualClock is
//     installed for the duration of run(), so spans and histograms
//     recorded by rank code carry virtual timestamps.
//   * Faults replay the SAME pure oracle as the threaded injector
//     (comm::FaultPlan::decide keyed by per-link attempt counters), so a
//     fault schedule reproduces identically on either backend.
//
// Topology model (when Options.topology is set): ranks live in G groups
// of S. NICs run at intra_bw_bps; each group has one uplink and one
// downlink at inter_bw_bps that every inter-group flow crosses; with
// leader_aggregation the flow additionally traverses the source and
// destination group leaders' NICs (store-and-forward through the leader,
// priced as one fluid flow over the whole path).
//
// Determinism: one OS thread, a FIFO run queue, and a (time, seq)-ordered
// event heap — two runs with the same inputs interleave identically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "netsim/flowsim.hpp"
#include "shuffle/topology.hpp"

namespace dshuf::netsim {

namespace detail {
class VirtualWorldState;
}  // namespace detail

struct VirtualWorldOptions {
  /// Flat link model: NIC speeds, optional shared fabric pool, per-message
  /// latency. With `topology` set, NICs take intra_bw_bps and the
  /// uplinks/downlinks inter_bw_bps instead of these NIC fields (the
  /// fabric pool and latency still apply).
  LinkCaps caps{};
  std::optional<shuffle::Topology> topology;
  /// Stack bytes per fiber. The exchange needs a few KiB; the default
  /// leaves generous headroom for logging and spans. Stacks are allocated
  /// once per world, by its first run(), left uninitialised (only the
  /// pages a rank touches become resident) and reused by every run.
  std::size_t fiber_stack_bytes = 256 * 1024;
  /// Completion-event granularity, virtual microseconds. 1 (the default)
  /// delivers each flow at its exact (us-rounded) finish with per-batch
  /// max-min rebalancing. Larger values round delivery times UP to the
  /// quantum and switch the engine to lazy rebalancing: one refill per
  /// quantum tick instead of per distinct completion time, trading a
  /// bounded pessimism (each delivery late by < quantum) for an
  /// order-of-magnitude cut in event-loop work. BENCH_scale runs its
  /// 4096-rank arms at 16 us; correctness suites keep 1.
  std::uint64_t event_quantum_us = 1;
};

/// Drop-in World replacement running ranks as fibers over simulated time.
class VirtualWorld {
 public:
  explicit VirtualWorld(int num_ranks, VirtualWorldOptions opts = {});
  ~VirtualWorld();
  VirtualWorld(const VirtualWorld&) = delete;
  VirtualWorld& operator=(const VirtualWorld&) = delete;

  [[nodiscard]] int size() const;

  /// Run `body` once per rank, multiplexed on the calling thread. Virtual
  /// time continues from the previous run. Rethrows the first failing
  /// rank's exception (rank order); mailboxes must be drained between
  /// runs (checked, mirroring the threaded World).
  void run(const std::function<void(comm::Communicator&)>& body);

  /// Same fault-plan surface as comm::World. The oracle and per-link
  /// attempt counters match the threaded injector, so one seed produces
  /// one schedule on both backends.
  void set_fault_plan(const comm::FaultPlan& plan);
  void clear_fault_plan();
  [[nodiscard]] comm::FaultStats fault_stats() const;

  /// Virtual clock (microseconds since construction).
  [[nodiscard]] std::uint64_t now_us() const;

  struct RunStats {
    std::uint64_t virtual_makespan_us = 0;  ///< virtual time run() spanned
    std::uint64_t context_switches = 0;     ///< fiber resumes
    std::uint64_t flows = 0;                ///< messages priced by the engine
    std::uint64_t refill_work = 0;          ///< FlowEngine::refill_work delta
  };
  [[nodiscard]] RunStats last_run_stats() const;

 private:
  std::unique_ptr<detail::VirtualWorldState> state_;
};

}  // namespace dshuf::netsim
