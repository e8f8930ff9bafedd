// RingQueue backs the comm mailboxes: FIFO order, random-access take()
// (receives match by (source, tag), not just the head), and capacity reuse
// so the steady state never touches the allocator. The reference model is
// a plain std::vector driven by the same operation sequence.
#include "util/ring_queue.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace dshuf {
namespace {

TEST(RingQueue, FifoBasics) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0U);
  for (int v = 0; v < 5; ++v) q.push_back(v);
  EXPECT_EQ(q.size(), 5U);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(q[static_cast<std::size_t>(v)], v);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q[0], 2);  // indices are queue order, not storage order
}

TEST(RingQueue, TakePreservesOrderOfTheRest) {
  RingQueue<int> q;
  for (int v = 0; v < 7; ++v) q.push_back(v);
  EXPECT_EQ(q.take(3), 3);  // middle
  ASSERT_EQ(q.size(), 6U);
  const int expect_a[] = {0, 1, 2, 4, 5, 6};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(q[i], expect_a[i]);
  EXPECT_EQ(q.take(0), 0);  // head
  EXPECT_EQ(q.take(4), 6);  // tail
  const int expect_b[] = {1, 2, 4, 5};
  ASSERT_EQ(q.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(q[i], expect_b[i]);
}

TEST(RingQueue, GrowsAcrossTheWrapBoundary) {
  RingQueue<int> q;
  // Offset head so the live region wraps when growth copies it out.
  for (int v = 0; v < 6; ++v) q.push_back(v);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(q.pop_front(), v);
  for (int v = 100; v < 140; ++v) q.push_back(v);  // forces several grows
  ASSERT_EQ(q.size(), 40U);
  for (int v = 100; v < 140; ++v) EXPECT_EQ(q.pop_front(), v);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, ReserveHoldsThatManyWithoutGrowing) {
  RingQueue<int> q;
  q.reserve(20);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 20U);
  for (int i = 0; i < 20; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), cap);
  q.reserve(4);  // never shrinks
  EXPECT_EQ(q.capacity(), cap);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(q.pop_front(), i);
}

TEST(RingQueue, MoveOnlyElements) {
  RingQueue<std::unique_ptr<int>> q;
  q.push_back(std::make_unique<int>(1));
  q.push_back(std::make_unique<int>(2));
  q.push_back(std::make_unique<int>(3));
  auto two = q.take(1);
  EXPECT_EQ(*two, 2);
  EXPECT_EQ(*q.pop_front(), 1);
  EXPECT_EQ(*q.pop_front(), 3);
}

TEST(RingQueue, RandomisedAgainstVectorModel) {
  Rng rng(2024);
  RingQueue<std::uint64_t> q;
  std::vector<std::uint64_t> model;
  std::uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.uniform_u64(3);
    if (op == 0 || model.empty()) {
      q.push_back(next);
      model.push_back(next);
      ++next;
    } else if (op == 1) {
      ASSERT_EQ(q.pop_front(), model.front());
      model.erase(model.begin());
    } else {
      const auto i =
          static_cast<std::size_t>(rng.uniform_u64(model.size()));
      ASSERT_EQ(q.take(i), model[i]);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.size(), model.size());
    if (!model.empty()) {
      const auto probe =
          static_cast<std::size_t>(rng.uniform_u64(model.size()));
      ASSERT_EQ(q[probe], model[probe]);
    }
  }
}

}  // namespace
}  // namespace dshuf
