// Vector-backed FIFO that retains its capacity.
//
// std::deque is the obvious container for a mailbox, but libstdc++'s deque
// allocates and frees fixed-size nodes as elements cycle through it — a
// steady push/pop workload keeps touching the heap forever. RingQueue
// stores elements in a power-of-two circular buffer that only grows: once
// the queue has seen its high-water occupancy, push/pop/erase are
// allocation-free, which is what the zero-allocation exchange steady state
// (tests/test_exchange_alloc.cpp) needs from the comm mailboxes.
//
// The interface is the subset the mailbox uses: FIFO push_back/pop_front,
// plus indexed access and erase-at-index for (source, tag) matching, which
// must be able to take a message out of the middle while preserving the
// arrival order of the rest.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dshuf {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Element `i` in queue order (0 = oldest).
  [[nodiscard]] T& operator[](std::size_t i) {
    DSHUF_CHECK_LT(i, size_, "ring queue index out of range");
    return slots_[mask(head_ + i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DSHUF_CHECK_LT(i, size_, "ring queue index out of range");
    return slots_[mask(head_ + i)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[mask(head_ + size_)] = std::move(value);
    ++size_;
  }

  /// Remove and return the oldest element.
  T pop_front() {
    DSHUF_CHECK(size_ > 0, "pop_front on an empty ring queue");
    T out = std::move(slots_[mask(head_)]);
    head_ = mask(head_ + 1);
    --size_;
    return out;
  }

  /// Remove and return element `i`, preserving the order of the rest.
  /// Shifts the shorter side, so taking the oldest or newest element is
  /// O(1) and the worst case is size/2 moves.
  T take(std::size_t i) {
    DSHUF_CHECK_LT(i, size_, "take index out of range");
    T out = std::move(slots_[mask(head_ + i)]);
    if (i < size_ - i - 1) {
      for (std::size_t j = i; j > 0; --j) {
        slots_[mask(head_ + j)] = std::move(slots_[mask(head_ + j - 1)]);
      }
      head_ = mask(head_ + 1);
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) {
        slots_[mask(head_ + j)] = std::move(slots_[mask(head_ + j + 1)]);
      }
    }
    --size_;
    return out;
  }

  /// Grow the buffer to hold at least `n` elements without reallocating.
  void reserve(std::size_t n) {
    while (slots_.size() < n) grow();
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      slots_[mask(head_ + i)] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t mask(std::size_t i) const {
    return i & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t new_cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> fresh(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(slots_[mask(head_ + i)]);
    }
    slots_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dshuf
