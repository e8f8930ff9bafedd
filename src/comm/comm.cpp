#include "comm/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/ranked_mutex.hpp"
#include "util/ring_queue.hpp"

namespace dshuf::comm {

namespace detail {

// The queue is a RingQueue, not a deque: libstdc++'s deque churns heap
// nodes under steady push/pop, which would break the zero-allocation
// exchange steady state. `cv` wakes blocking recv() when a message is
// queued.
struct RankMailbox {
  RankedMutex mu{LockRank::kCommMailbox, "comm.mailbox"};
  std::condition_variable_any cv;
  RingQueue<Message> arrived;
};

class WorldState {
 public:
  explicit WorldState(int num_ranks)
      : size_(num_ranks),
        mailboxes_(static_cast<std::size_t>(num_ranks)),
        pools_(static_cast<std::size_t>(num_ranks)) {
    DSHUF_CHECK_GT(num_ranks, 0, "world needs at least one rank");
    DSHUF_CHECK_LE(num_ranks, kMaxThreadedRanks,
                   "a threaded World of "
                       << num_ranks << " ranks would oversubscribe the host "
                       << "(one OS thread per rank); run paper-scale M on "
                       << "the event-driven netsim::VirtualWorld instead");
    slots_.init(num_ranks);
    // An exchange epoch parks at most one frame per peer in a mailbox,
    // and a rank can post its next epoch before a slow receiver drains
    // this one. Sizing for two epochs up front keeps mailbox growth out of
    // the steady state, however the rank threads happen to interleave.
    for (auto& mb : mailboxes_) {
      mb.arrived.reserve(2 * static_cast<std::size_t>(num_ranks));
    }
  }

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] RankMailbox& mailbox(int rank) {
    DSHUF_CHECK(rank >= 0 && rank < size_, "rank out of range: " << rank);
    return mailboxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] BufferPool& pool(int rank) {
    DSHUF_CHECK(rank >= 0 && rank < size_, "rank out of range: " << rank);
    return pools_[static_cast<std::size_t>(rank)];
  }

  /// Final delivery into `dest`'s mailbox: queue the message and wake a
  /// blocking recv(). Called from sender threads and the injector timer
  /// thread.
  void deposit(int dest, Message msg) {
    auto& mb = mailbox(dest);
    {
      std::lock_guard<RankedMutex> lk(mb.mu);
      mb.arrived.push_back(std::move(msg));
    }
    mb.cv.notify_all();
  }

  /// Route a send: through the fault injector when one is installed,
  /// otherwise straight to deposit().
  void route(int source, int dest, Message msg) {
    if (injector_) {
      injector_->submit(source, dest, std::move(msg));
    } else {
      deposit(dest, std::move(msg));
    }
  }

  void set_fault_plan(const FaultPlan& plan) {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    injector_ = std::make_unique<FaultInjector>(
        plan, size_, [this](int dest, Message msg) {
          deposit(dest, std::move(msg));
        });
  }
  void clear_fault_plan() {
    DSHUF_CHECK(!running_, "cannot change the fault plan mid-run");
    injector_.reset();
  }
  [[nodiscard]] bool has_fault_plan() const { return injector_ != nullptr; }
  void fence_faults() {
    if (injector_) injector_->fence();
  }
  [[nodiscard]] FaultStats fault_stats() const {
    return injector_ ? injector_->stats() : FaultStats{};
  }

  void begin_run() {
    running_ = true;
    if (injector_) injector_->begin_run();
  }
  void end_run() { running_ = false; }

  [[nodiscard]] bool is_aborted() const {
    return aborted_.load(std::memory_order_seq_cst);
  }
  void abort() {
    {
      // The flag must flip under barrier_mu_: a rank between evaluating
      // the barrier predicate and blocking would otherwise miss this
      // notify and sleep forever (the barrier wait, unlike the recv wait,
      // has no poll timeout to rescue it).
      std::lock_guard<RankedMutex> lk(barrier_mu_);
      aborted_.store(true, std::memory_order_seq_cst);
    }
    barrier_cv_.notify_all();
    for (auto& mb : mailboxes_) mb.cv.notify_all();  // blocking recv()s
  }
  void reset_abort() { aborted_.store(false, std::memory_order_seq_cst); }

  /// After an aborted run the ranks have unwound: nothing will finish the
  /// barrier they entered or take what is left in their mailboxes.
  void discard_aborted_run() {
    {
      std::lock_guard<RankedMutex> lk(barrier_mu_);
      barrier_count_ = 0;
    }
    for (auto& mb : mailboxes_) {
      std::lock_guard<RankedMutex> lk(mb.mu);
      mb.arrived.clear();
    }
  }

  void barrier() {
    std::unique_lock<RankedMutex> lk(barrier_mu_);
    const std::uint64_t gen = barrier_gen_;
    if (++barrier_count_ == size_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      lk.unlock();
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lk, [&] { return barrier_gen_ != gen || is_aborted(); });
    DSHUF_CHECK(!is_aborted(), "world aborted while in barrier");
  }

  CollectiveSlots& slots() { return slots_; }

  /// Verify clean shutdown: no stray messages, and no message still parked
  /// inside the fault injector.
  void check_drained() {
    // The timer thread may still be mid-deposit for a message a rank
    // already consumed; settle that before judging leftovers.
    if (injector_) injector_->quiesce_in_flight();
    DSHUF_CHECK(!injector_ || injector_->pending() == 0,
                "world finished with "
                    << (injector_ ? injector_->pending() : 0)
                    << " message(s) still delayed in the fault injector "
                       "(fence_faults() + drain before returning)");
    for (int r = 0; r < size_; ++r) {
      auto& mb = mailbox(r);
      std::lock_guard<RankedMutex> lk(mb.mu);
      DSHUF_CHECK(mb.arrived.empty(),
                  "rank " << r << " finished with " << mb.arrived.size()
                          << " unreceived message(s)");
    }
  }

 private:
  int size_;
  std::vector<RankMailbox> mailboxes_;
  std::vector<BufferPool> pools_;

  RankedMutex barrier_mu_{LockRank::kCommBarrier, "comm.barrier"};
  std::condition_variable_any barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;

  CollectiveSlots slots_;

  std::atomic<bool> aborted_{false};
  std::unique_ptr<FaultInjector> injector_;
  bool running_ = false;
};

namespace {

/// Takes the earliest-arrived message matching (source, tag), if any.
std::optional<Message> take_match(RingQueue<Message>& arrived, int source,
                                  int tag) {
  for (std::size_t i = 0; i < arrived.size(); ++i) {
    const Message& m = arrived[i];
    if ((source == kAnySource || source == m.source) &&
        (tag == kAnyTag || tag == m.tag)) {
      return arrived.take(i);
    }
  }
  return std::nullopt;
}

}  // namespace

/// The ranks-as-threads endpoint over WorldState. Internal to this TU: the
/// only way to get one is through World::run.
class ThreadedCommunicator final : public Communicator {
 public:
  ThreadedCommunicator(WorldState* world, int rank)
      : Communicator(rank), world_(world) {}

  [[nodiscard]] int size() const override { return world_->size(); }

  void send(int dest, int tag, std::vector<std::byte> payload) override {
    DSHUF_CHECK(dest >= 0 && dest < size(), "send destination out of range");
    Message msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload = std::move(payload);
    DSHUF_COUNTER("comm.isend").add();
    DSHUF_COUNTER("comm.bytes_sent").add(msg.payload.size());
    world_->route(rank_, dest, std::move(msg));
  }

  Message recv(int source, int tag) override {
    DSHUF_CHECK(source == kAnySource || (source >= 0 && source < size()),
                "recv source out of range");
    auto& mb = world_->mailbox(rank_);
    std::unique_lock<RankedMutex> lk(mb.mu);
    for (;;) {
      if (auto m = take_match(mb.arrived, source, tag)) return std::move(*m);
      DSHUF_CHECK(!world_->is_aborted(), "world aborted while in recv");
      // Poll with a timeout so an aborted world (peer threw) wakes us even
      // if the notification raced our wait registration.
      mb.cv.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  std::optional<Message> poll(int source, int tag) override {
    auto& mb = world_->mailbox(rank_);
    std::lock_guard<RankedMutex> lk(mb.mu);
    return take_match(mb.arrived, source, tag);
  }

  [[nodiscard]] BufferPool& pool() override { return world_->pool(rank_); }

  [[nodiscard]] bool fault_injection_enabled() const override {
    return world_->has_fault_plan();
  }

  void fence_faults() override { world_->fence_faults(); }

  void barrier() override {
    DSHUF_COUNTER("comm.barrier").add();
    world_->barrier();
  }

  [[nodiscard]] std::uint64_t now_us() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void backoff(std::chrono::microseconds pause) override {
    std::this_thread::sleep_for(pause);
  }

 protected:
  [[nodiscard]] detail::CollectiveSlots& collective_slots() override {
    return world_->slots();
  }

 private:
  WorldState* world_;
};

}  // namespace detail

std::vector<double> Communicator::allreduce_sum(
    std::span<const double> contribution) {
  auto& slots = collective_slots();
  const auto me = static_cast<std::size_t>(rank_);
  std::vector<double> out(contribution.size());
  slots.reduce_in[me] = contribution;
  slots.reduce_out[me] = out;
  barrier();
  for (const auto& c : slots.reduce_in) {
    DSHUF_CHECK_EQ(c.size(), out.size(),
                   "allreduce contributions must have equal length");
  }
  // This rank's slice, summed in rank order from 0.0 (the same additions,
  // in the same order, on whichever rank owns an element).
  const auto m = static_cast<std::size_t>(size());
  const std::size_t lo = out.size() * me / m;
  const std::size_t hi = out.size() * (me + 1) / m;
  double* sum = out.data();
  const double* first = slots.reduce_in[0].data();
  for (std::size_t i = lo; i < hi; ++i) sum[i] = 0.0 + first[i];
  for (std::size_t r = 1; r < m; ++r) {
    const double* c = slots.reduce_in[r].data();
    for (std::size_t i = lo; i < hi; ++i) sum[i] += c[i];
  }
  for (const auto& dst : slots.reduce_out) {
    if (dst.data() != sum) {
      std::copy(sum + lo, sum + hi, dst.data() + lo);
    }
  }
  barrier();  // every slice written; contributions no longer read
  return out;
}

std::vector<std::vector<std::byte>> Communicator::allgather(
    std::vector<std::byte> payload) {
  auto& slots = collective_slots().gather;
  const auto me = static_cast<std::size_t>(rank_);
  slots[me] = std::move(payload);
  barrier();
  std::vector<std::vector<std::byte>> out(slots.size());
  for (std::size_t r = 0; r < slots.size(); ++r) {
    if (r != me) out[r] = slots[r];
  }
  barrier();  // every copy taken; this rank's own slot is free to move out
  out[me] = std::move(slots[me]);
  return out;
}

World::World(int num_ranks)
    : state_(std::make_unique<detail::WorldState>(num_ranks)) {}

World::~World() = default;

int World::size() const { return state_->size(); }

void World::set_fault_plan(const FaultPlan& plan) {
  state_->set_fault_plan(plan);
}

void World::clear_fault_plan() { state_->clear_fault_plan(); }

FaultStats World::fault_stats() const { return state_->fault_stats(); }

void World::run(const std::function<void(Communicator&)>& body) {
  state_->reset_abort();
  state_->begin_run();
  const int n = state_->size();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));

  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, r, &body, &errors] {
      try {
        // Rank threads own trace lane r; naming the lane up front means
        // every World body (not just exchanges) renders as "rank r" in
        // merged Chrome traces.
        obs::Tracer::set_thread_track(r);
        if (obs::Tracer::instance().enabled()) {
          obs::Tracer::set_thread_name("rank " + std::to_string(r));
        }
        detail::ThreadedCommunicator c(state_.get(), r);
        body(c);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        state_->abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  state_->end_run();

  for (auto& e : errors) {
    if (e) {
      state_->discard_aborted_run();
      std::rethrow_exception(e);
    }
  }
  state_->check_drained();
}

}  // namespace dshuf::comm
