// Shared check of Communicator::allreduce_sum for both backends: every
// rank's result must equal a rank-order reference sum (starting from 0.0)
// bit-for-bit, for rank counts and lengths around the slice boundaries.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "comm/comm.hpp"

namespace dshuf::allreduce_check {

/// Rank r's contribution: mixed signs and magnitudes, so the summation
/// order shows in the bits; every 7th element is -0.0 on every rank (a
/// sum started from 0.0 yields +0.0 there).
inline std::vector<double> contribution(int rank, std::size_t n) {
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t h = (static_cast<std::uint64_t>(rank) << 32) ^ i;
    h = (h ^ (h >> 31)) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
    c[i] = i % 7 == 3 ? -0.0
                      : std::ldexp(unit, static_cast<int>(h % 41) - 20);
  }
  return c;
}

inline std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<std::uint64_t>(d));
  return out;
}

/// Runs allreduce_sum on `World` (comm::World or netsim::VirtualWorld)
/// for M in {1,2,3,5} and n in {0, 1, M-1, M+1, 1000}.
template <typename World>
void expect_rank_order_sums() {
  for (const int m : {1, 2, 3, 5}) {
    World world(m);
    const auto um = static_cast<std::size_t>(m);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, um - 1,
                                um + 1, std::size_t{1000}}) {
      std::vector<double> expect(n, 0.0);
      for (int r = 0; r < m; ++r) {
        const auto c = contribution(r, n);
        for (std::size_t i = 0; i < n; ++i) expect[i] += c[i];
      }
      std::vector<std::vector<double>> got(um);
      world.run([&](comm::Communicator& c) {
        got[static_cast<std::size_t>(c.rank())] =
            c.allreduce_sum(contribution(c.rank(), n));
      });
      for (std::size_t r = 0; r < um; ++r) {
        EXPECT_EQ(bits(got[r]), bits(expect))
            << "M=" << m << " n=" << n << " rank " << r;
      }
      if (n > 3) {
        EXPECT_FALSE(std::signbit(got[0][3])) << "-0.0 sum must be +0.0";
      }
    }
  }
}

}  // namespace dshuf::allreduce_check
