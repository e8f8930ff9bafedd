// Shared checks of Communicator point-to-point matching and allgather for
// both backends (comm::World and netsim::VirtualWorld): tag selection,
// kAnySource, non-overtaking per (source, tag), a blocked recv completed
// by a later send and skipping non-matching arrivals, poll taking only
// arrived messages, allgather with unequal payload lengths, and allgather
// after an aborted run.
// lint:tag-ok-file: transport-level checks name their own channels, not
// PLS exchange rounds.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/comm.hpp"
#include "util/error.hpp"

namespace dshuf::p2p_check {

inline std::vector<std::byte> bytes_of(int v) {
  std::vector<std::byte> b(sizeof(int));
  std::memcpy(b.data(), &v, sizeof(int));
  return b;
}

inline int int_of(const std::vector<std::byte>& b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}

/// A receive for one tag skips an earlier-arrived message on another.
template <typename World>
void expect_tags_select_messages() {
  World world(2);
  world.run([](comm::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 5, bytes_of(55));
      c.send(1, 9, bytes_of(99));
    } else {
      const comm::Message m9 = c.recv(0, 9);
      EXPECT_EQ(int_of(m9.payload), 99);
      EXPECT_EQ(m9.source, 0);
      EXPECT_EQ(m9.tag, 9);
      EXPECT_EQ(int_of(c.recv(0, 5).payload), 55);
    }
  });
}

/// kAnySource matches every sender, and each message names its source.
template <typename World>
void expect_any_source_matches_every_sender() {
  World world(4);
  world.run([](comm::Communicator& c) {
    if (c.rank() != 0) {
      c.send(0, 1, bytes_of(100 + c.rank()));
      return;
    }
    std::vector<int> seen(static_cast<std::size_t>(c.size()), 0);
    for (int i = 1; i < c.size(); ++i) {
      const comm::Message m = c.recv(comm::kAnySource, 1);
      ASSERT_GT(m.source, 0);
      ASSERT_LT(m.source, c.size());
      EXPECT_EQ(int_of(m.payload), 100 + m.source);
      ++seen[static_cast<std::size_t>(m.source)];
    }
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 1, 1}));
  });
}

/// Messages on one (source, tag) arrive in send order, also when a
/// kAnySource receive interleaves two senders and another tag is queued.
/// The messages are all the same size: VirtualWorld prices each message
/// as its own flow, so a smaller later one can finish first.
template <typename World>
void expect_non_overtaking_per_source_and_tag() {
  constexpr int kMsgs = 16;
  World world(3);
  world.run([](comm::Communicator& c) {
    if (c.rank() != 1) {
      for (int i = 0; i < kMsgs; ++i) {
        c.send(1, 3, bytes_of(i));
        c.send(1, 4, bytes_of(-i));
      }
      return;
    }
    std::vector<int> next(3, 0);
    for (int i = 0; i < 2 * kMsgs; ++i) {
      const comm::Message m = c.recv(comm::kAnySource, 3);
      const auto s = static_cast<std::size_t>(m.source);
      EXPECT_EQ(int_of(m.payload), next[s]++) << "source " << m.source;
    }
    for (const int src : {2, 0}) {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(int_of(c.recv(src, 4).payload), -i) << "source " << src;
      }
    }
  });
}

/// A recv that finds nothing waits, and completes when the message is sent
/// later: rank 1 announces that it is about to block, rank 0 backs off
/// before sending.
template <typename World>
void expect_blocked_recv_completes_on_later_send() {
  World world(2);
  std::uint64_t sent_at = 0;
  std::uint64_t received_at = 0;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 0) {
      (void)c.recv(1, 1);  // rank 1 is about to block
      c.backoff(std::chrono::milliseconds(20));
      sent_at = c.now_us();
      c.send(1, 2, bytes_of(7));
    } else {
      c.send(0, 1, {});
      EXPECT_EQ(int_of(c.recv(0, 2).payload), 7);
      received_at = c.now_us();
    }
  });
  EXPECT_GE(received_at, sent_at);
}

/// A blocked recv takes only a message that matches its (source, tag):
/// arrivals from another source or on another tag while it waits stay
/// queued for later receives. Rank 1 announces that it is about to block;
/// rank 0 sends on the awaited tag only after a backoff.
template <typename World>
void expect_blocked_recv_skips_non_matching_arrivals() {
  World world(3);
  world.run([](comm::Communicator& c) {
    if (c.rank() == 1) {
      c.send(0, 1, {});
      c.send(2, 1, {});
      const comm::Message m = c.recv(0, 7);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(int_of(m.payload), 77);
      EXPECT_EQ(int_of(c.recv(2, 7).payload), 277);
      EXPECT_EQ(int_of(c.recv(0, 5).payload), 55);
      return;
    }
    (void)c.recv(1, 1);  // rank 1 is about to block on (0, 7)
    if (c.rank() == 0) {
      c.send(1, 5, bytes_of(55));  // right source, other tag
      c.backoff(std::chrono::milliseconds(20));
      c.send(1, 7, bytes_of(77));
    } else {
      c.send(1, 7, bytes_of(277));  // right tag, other source
    }
  });
}

/// poll takes only a message that has already arrived and matches; it
/// never waits. fence_faults() makes the send's delivery complete before
/// the second poll (a no-op on a World without a fault plan, which
/// delivers synchronously).
template <typename World>
void expect_poll_takes_only_arrived_messages() {
  World world(2);
  world.run([](comm::Communicator& c) {
    // Two barriers order rank 1's send strictly between rank 0's polls.
    if (c.rank() == 0) {
      EXPECT_FALSE(c.poll(1, 0).has_value());  // nothing sent yet
      c.barrier();
      c.barrier();
      c.fence_faults();
      EXPECT_FALSE(c.poll(1, 1).has_value());  // arrived, other tag
      const auto got = c.poll(comm::kAnySource, comm::kAnyTag);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(int_of(got->payload), 4);
      EXPECT_FALSE(c.poll(comm::kAnySource, comm::kAnyTag).has_value());
    } else {
      c.barrier();
      c.send(0, 0, bytes_of(4));
      c.barrier();
    }
  });
}

/// allgather returns every rank's payload, indexed by source, for payloads
/// of unequal length (rank 0's is empty), twice in one run so the slots
/// are reused.
template <typename World>
void expect_allgather_unequal_lengths() {
  auto payload = [](int rank, int round) {
    std::vector<std::byte> p(static_cast<std::size_t>(rank * (round + 2)));
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>(rank * 31 + round * 7 +
                                    static_cast<int>(i));
    }
    return p;
  };
  for (const int m : {1, 2, 3, 5}) {
    World world(m);
    world.run([&](comm::Communicator& c) {
      for (int round = 0; round < 2; ++round) {
        const auto got = c.allgather(payload(c.rank(), round));
        ASSERT_EQ(got.size(), static_cast<std::size_t>(m));
        for (int s = 0; s < m; ++s) {
          EXPECT_EQ(got[static_cast<std::size_t>(s)], payload(s, round))
              << "M=" << m << " rank " << c.rank() << " source " << s
              << " round " << round;
        }
      }
    });
  }
}

/// A run aborted while ranks wait inside allgather leaves the world usable:
/// the next run's allgather returns exactly that run's payloads.
template <typename World>
void expect_allgather_exact_after_aborted_run() {
  constexpr int kRanks = 3;
  World world(kRanks);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    DSHUF_CHECK(c.rank() != 2, "rank 2 gives up before the allgather");
    (void)c.allgather(std::vector<std::byte>(64, std::byte{0xEE}));
  }),
               CheckError);
  world.run([](comm::Communicator& c) {
    const auto got = c.allgather(bytes_of(10 * c.rank()));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRanks));
    for (int s = 0; s < kRanks; ++s) {
      EXPECT_EQ(got[static_cast<std::size_t>(s)], bytes_of(10 * s))
          << "rank " << c.rank() << " source " << s;
    }
  });
}

}  // namespace dshuf::p2p_check
