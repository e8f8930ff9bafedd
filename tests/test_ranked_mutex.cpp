// Lock-rank discipline (util/ranked_mutex.hpp): ascending acquisition is
// silent, any same-or-descending acquisition reports the full held chain,
// and — the part that matters — a real chaos-harness workload across the
// whole comm < fault < log hierarchy produces zero false positives.
// lint:tag-ok-file: exercises the raw transport — tags here name
// transport-level channels under test, not PLS exchange rounds.
#include "util/ranked_mutex.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "comm/comm.hpp"
#include "comm/fault.hpp"
#include "util/log.hpp"

namespace dshuf {
namespace {

struct RankOrderError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Handlers are plain function pointers, so test state lives in globals.
[[noreturn]] void throwing_handler(const LockRankViolation& v) {
  throw RankOrderError(v.describe());
}

std::atomic<int> g_violations{0};

void counting_handler(const LockRankViolation&) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
}

/// Installs `h` for the test body, restores the previous handler on exit.
class HandlerGuard {
 public:
  explicit HandlerGuard(LockRankViolationHandler h)
      : prev_(set_lock_rank_violation_handler(h)) {}
  ~HandlerGuard() { set_lock_rank_violation_handler(prev_); }
  HandlerGuard(const HandlerGuard&) = delete;
  HandlerGuard& operator=(const HandlerGuard&) = delete;

 private:
  LockRankViolationHandler prev_;
};

TEST(RankedMutex, AscendingChainIsSilent) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex low(LockRank::kCommMailbox, "t.low");
  RankedMutex mid(LockRank::kFault, "t.mid");
  RankedMutex high(LockRank::kLog, "t.high");
  {
    std::lock_guard<RankedMutex> l1(low);
    std::lock_guard<RankedMutex> l2(mid);
    std::lock_guard<RankedMutex> l3(high);
    const auto chain = current_lock_chain();
    ASSERT_EQ(chain.size(), 3U);
    EXPECT_STREQ(chain[0].name, "t.low");
    EXPECT_STREQ(chain[1].name, "t.mid");
    EXPECT_STREQ(chain[2].name, "t.high");
    EXPECT_EQ(chain[0].rank, LockRank::kCommMailbox);
    EXPECT_EQ(chain[2].rank, LockRank::kLog);
  }
  EXPECT_TRUE(current_lock_chain().empty());
}

TEST(RankedMutex, InversionReportsTheFullHeldChain) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex fault(LockRank::kFault, "t.fault");
  RankedMutex log_mu(LockRank::kLog, "t.log");
  RankedMutex mailbox(LockRank::kCommMailbox, "t.mailbox");
  std::lock_guard<RankedMutex> l1(fault);
  std::lock_guard<RankedMutex> l2(log_mu);
  try {
    mailbox.lock();
    mailbox.unlock();
    FAIL() << "descending acquisition must be reported";
  } catch (const RankOrderError& e) {
    const std::string report = e.what();
    // The report must name the attempted mutex AND every held lock, with
    // ranks, so the offending chain is actionable from the message alone.
    EXPECT_NE(report.find("t.mailbox"), std::string::npos) << report;
    EXPECT_NE(report.find("t.fault"), std::string::npos) << report;
    EXPECT_NE(report.find("t.log"), std::string::npos) << report;
    EXPECT_NE(report.find("10"), std::string::npos) << report;
    EXPECT_NE(report.find("20"), std::string::npos) << report;
    EXPECT_NE(report.find("50"), std::string::npos) << report;
  }
  // A throwing handler aborts the acquisition: the chain is unchanged.
  EXPECT_EQ(current_lock_chain().size(), 2U);
}

TEST(RankedMutex, EqualRankIsAlsoAViolation) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex a(LockRank::kFault, "t.a");
  RankedMutex b(LockRank::kFault, "t.b");
  std::lock_guard<RankedMutex> l1(a);
  EXPECT_THROW(b.lock(), RankOrderError);
}

TEST(RankedMutex, UnlockOrderNeedNotMirrorLockOrder) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex a(LockRank::kCommMailbox, "t.a");
  RankedMutex b(LockRank::kFault, "t.b");
  RankedMutex c(LockRank::kFileStore, "t.c");
  a.lock();
  b.lock();
  a.unlock();  // release the oldest first
  {
    const auto chain = current_lock_chain();
    ASSERT_EQ(chain.size(), 1U);
    EXPECT_STREQ(chain[0].name, "t.b");
  }
  c.lock();  // 40 > 20: still ascending relative to what is held
  c.unlock();
  b.unlock();
  EXPECT_TRUE(current_lock_chain().empty());
}

TEST(RankedMutex, FailedTryLockLeavesNoResidue) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex mu(LockRank::kFault, "t.contended");
  mu.lock();
  std::thread other([&] {
    EXPECT_FALSE(mu.try_lock());
    EXPECT_TRUE(current_lock_chain().empty());
  });
  other.join();
  mu.unlock();
}

TEST(RankedMutex, ChainIsPerThread) {
  HandlerGuard guard(&throwing_handler);
  RankedMutex high(LockRank::kLog, "t.high");
  std::lock_guard<RankedMutex> l(high);
  std::thread other([] {
    // This thread holds nothing, so a low-rank acquisition is fine even
    // though the main thread holds kLog.
    RankedMutex low(LockRank::kCommMailbox, "t.other-low");
    std::lock_guard<RankedMutex> ol(low);
    EXPECT_EQ(current_lock_chain().size(), 1U);
  });
  other.join();
}

TEST(RankedMutex, HandlerInstallReturnsPrevious) {
  const auto prev = set_lock_rank_violation_handler(&throwing_handler);
  const auto mine = set_lock_rank_violation_handler(prev);
  EXPECT_EQ(mine, &throwing_handler);
}

// The production hierarchy under real load: rank threads hammer the
// mailbox/request/barrier locks, the fault injector's timer thread
// delivers delayed messages (fault -> mailbox would invert; the injector
// must release kFault first), and everyone logs. Any false positive in
// the rank table would fire here.
TEST(RankedMutexChaos, HappyPathHasNoFalsePositives) {
  g_violations.store(0);
  HandlerGuard guard(&counting_handler);

  const LogLevel saved_level = global_log_level();
  global_log_level() = LogLevel::kError;  // keep output quiet, path active

  comm::FaultSpec spec;
  spec.drop_prob = 0.2;
  spec.dup_prob = 0.2;
  spec.delay_prob = 0.5;
  spec.min_delay_us = 100;
  spec.max_delay_us = 2000;
  comm::World world(4);
  world.set_fault_plan(comm::FaultPlan(2024, spec));
  for (int round = 0; round < 3; ++round) {
    world.run([round](comm::Communicator& c) {
      std::vector<std::byte> payload(sizeof(int));
      const int v = c.rank() * 100 + round;
      std::memcpy(payload.data(), &v, sizeof(int));
      for (int dest = 0; dest < c.size(); ++dest) {
        if (dest != c.rank()) c.send(dest, round, payload);
      }
      LOG_DEBUG << "rank " << c.rank() << " sent round " << round;
      c.barrier();        // every rank has issued its sends
      c.fence_faults();   // flush delayed copies, quiesce the injector
      // Lossy links: drain whatever actually survived (drops shrink the
      // count, duplicates grow it) so the mailbox ends the run empty.
      while (c.poll(comm::kAnySource, comm::kAnyTag).has_value()) {
      }
    });
  }

  global_log_level() = saved_level;
  EXPECT_EQ(g_violations.load(), 0)
      << "lock-rank false positive under the chaos harness";
}

}  // namespace
}  // namespace dshuf
