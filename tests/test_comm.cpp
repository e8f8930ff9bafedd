// lint:tag-ok-file: exercises the raw transport — tags here name
// transport-level channels under test, not PLS exchange rounds.
#include "comm/comm.hpp"

#include <atomic>

#include <gtest/gtest.h>

#include "allreduce_check.hpp"
#include "point_to_point_check.hpp"
#include "util/error.hpp"

namespace dshuf::comm {
namespace {

using p2p_check::bytes_of;
using p2p_check::int_of;

TEST(Comm, PointToPointSendRecv) {
  World world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/7, bytes_of(42));
    } else {
      const Message m = c.recv(0, 7);
      EXPECT_EQ(int_of(m.payload), 42);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
    }
  });
}

TEST(Comm, AnySourceMatchesWhoeverSends) {
  p2p_check::expect_any_source_matches_every_sender<World>();
}

TEST(Comm, TagsSelectMessages) {
  p2p_check::expect_tags_select_messages<World>();
}

TEST(Comm, NonOvertakingPerSourceAndTag) {
  p2p_check::expect_non_overtaking_per_source_and_tag<World>();
}

TEST(Comm, BlockedRecvCompletesOnALaterSend) {
  p2p_check::expect_blocked_recv_completes_on_later_send<World>();
}

TEST(Comm, BlockedRecvSkipsNonMatchingArrivals) {
  p2p_check::expect_blocked_recv_skips_non_matching_arrivals<World>();
}

TEST(Comm, BarrierSynchronises) {
  World world(4);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  world.run([&](Communicator& c) {
    before.fetch_add(1);
    c.barrier();
    // Every rank must have passed `before` by now.
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(Comm, AllreduceSumsContributions) {
  World world(4);
  world.run([](Communicator& c) {
    const std::vector<double> contrib{static_cast<double>(c.rank()), 1.0};
    const auto sum = c.allreduce_sum(contrib);
    ASSERT_EQ(sum.size(), 2U);
    EXPECT_DOUBLE_EQ(sum[0], 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(sum[1], 4.0);
  });
}

TEST(Comm, AllreduceIsBitwiseIdenticalAcrossRanks) {
  World world(3);
  std::vector<std::vector<double>> results(3);
  world.run([&](Communicator& c) {
    std::vector<double> contrib(5);
    for (std::size_t i = 0; i < 5; ++i) {
      contrib[i] = 0.1 * (c.rank() + 1) * static_cast<double>(i);
    }
    results[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(contrib);
  });
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(Comm, AllreduceMatchesRankOrderSumBitForBit) {
  allreduce_check::expect_rank_order_sums<World>();
}

TEST(Comm, AllgatherGivesEveryoneEverything) {
  p2p_check::expect_allgather_unequal_lengths<World>();
}

TEST(Comm, AllgatherExactAfterAbortedRun) {
  p2p_check::expect_allgather_exact_after_aborted_run<World>();
}

TEST(Comm, ExceptionInOneRankPropagatesAndUnblocksOthers) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) {
                   throw CheckError("rank 0 failure");
                 }
                 // Rank 1 would deadlock on this barrier without abort
                 // handling.
                 c.barrier();
               }),
               CheckError);
}

TEST(Comm, UndrainedMailboxIsAnError) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) c.send(1, 0, bytes_of(1));
                 // Rank 1 never receives.
               }),
               CheckError);
}

TEST(Comm, WorldCanRunMultipleTimes) {
  World world(2);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Communicator& c) {
      if (c.rank() == 0) {
        c.send(1, round, bytes_of(round));
      } else {
        EXPECT_EQ(int_of(c.recv(0, round).payload), round);
      }
    });
  }
}

TEST(Comm, ManyRanksStress) {
  constexpr int kRanks = 16;
  World world(kRanks);
  world.run([](Communicator& c) {
    // Ring: send to the right, receive from the left, several laps.
    const int right = (c.rank() + 1) % kRanks;
    const int left = (c.rank() + kRanks - 1) % kRanks;
    int token = c.rank();
    for (int lap = 0; lap < 4; ++lap) {
      c.send(right, lap, bytes_of(token));
      token = int_of(c.recv(left, lap).payload);
    }
    // After 4 laps the token originated 4 ranks to the left.
    EXPECT_EQ(token, (c.rank() + kRanks - 4) % kRanks);
  });
}

TEST(Comm, RejectsInvalidRanks) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) c.send(5, 0, {});
                 c.barrier();
               }),
               CheckError);
}

}  // namespace
}  // namespace dshuf::comm
