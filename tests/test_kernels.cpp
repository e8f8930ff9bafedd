// Equivalence and determinism tests for the blocked compute kernels.
//
// The blocked GEMM must match the retained reference kernel numerically
// on every shape class (edge tiles, single rows/cols, sizes straddling
// the micro-tile), and — per the determinism contract in
// tensor/gemm_kernel.hpp — must be bit-identical across repeated runs
// and across cache-block configurations. Conv1d's im2col+GEMM path is
// checked, forward and backward, against the scalar reference kernels run
// on the layer's own parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernel_ref.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace dshuf;

constexpr std::size_t kSizes[] = {1, 3, 7, 17, 64, 100};

// Reference and blocked kernels both accumulate each output element in a
// single ascending-k float chain, but vectorization/FMA may contract
// differently; a small absolute tolerance on unit-scale data covers it.
constexpr float kTol = 1e-3F;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.size(), b.size());
  float m = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&, bool);

struct Variant {
  const char* name;
  GemmFn fn;
  // Shapes of (a, b, out) for logical result M x N with inner dim K.
  bool a_is_km;  // a stored [K, M] (gemm_at_b)
  bool b_is_nk;  // b stored [N, K] (gemm_a_bt)
};

constexpr Variant kVariants[] = {
    {"gemm", gemm, false, false},
    {"gemm_at_b", gemm_at_b, true, false},
    {"gemm_a_bt", gemm_a_bt, false, true},
};

TEST(GemmEquivalence, BlockedMatchesReferenceAllVariants) {
  Rng rng(11);
  for (const auto& v : kVariants) {
    for (std::size_t m : kSizes) {
      for (std::size_t n : kSizes) {
        for (std::size_t k : kSizes) {
          const Tensor a = Tensor::randn(v.a_is_km ? std::vector<std::size_t>{k, m}
                                                   : std::vector<std::size_t>{m, k},
                                         rng);
          const Tensor b = Tensor::randn(v.b_is_nk ? std::vector<std::size_t>{n, k}
                                                   : std::vector<std::size_t>{k, n},
                                         rng);
          Tensor blocked({m, n});
          Tensor ref({m, n});
          v.fn(a, b, blocked, false);
          kernel_ref::gemm_ref(a.data(), b.data(), ref.data(), m, n, k,
                               v.a_is_km, v.b_is_nk, /*accumulate=*/false);
          ASSERT_LE(max_abs_diff(blocked, ref), kTol)
              << v.name << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(GemmEquivalence, AccumulateAddsOntoExistingOutput) {
  Rng rng(13);
  for (const auto& v : kVariants) {
    const std::size_t m = 17;
    const std::size_t n = 100;
    const std::size_t k = 7;
    const Tensor a =
        Tensor::randn(v.a_is_km ? std::vector<std::size_t>{k, m}
                                : std::vector<std::size_t>{m, k},
                      rng);
    const Tensor b =
        Tensor::randn(v.b_is_nk ? std::vector<std::size_t>{n, k}
                                : std::vector<std::size_t>{k, n},
                      rng);
    const Tensor seed = Tensor::randn({m, n}, rng);
    Tensor blocked;
    copy_into(seed, blocked);
    Tensor ref;
    copy_into(seed, ref);
    v.fn(a, b, blocked, true);
    kernel_ref::gemm_ref(a.data(), b.data(), ref.data(), m, n, k, v.a_is_km,
                         v.b_is_nk, /*accumulate=*/true);
    ASSERT_LE(max_abs_diff(blocked, ref), kTol) << v.name;
    // And the accumulate really added onto the seed, not overwrote it.
    Tensor plain({m, n});
    v.fn(a, b, plain, false);
    float m_diff = 0.0F;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      m_diff = std::max(m_diff, std::fabs(blocked.data()[i] - seed.data()[i] -
                                          plain.data()[i]));
    }
    ASSERT_LE(m_diff, kTol) << v.name;
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossRuns) {
  Rng rng(17);
  for (std::size_t m : {std::size_t{7}, std::size_t{100}}) {
    const std::size_t n = 65;
    const std::size_t k = 33;
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor out1({m, n});
    Tensor out2({m, n});
    kernel::gemm_blocked(a.data(), b.data(), out1.data(), m, n, k, false,
                         false, false);
    kernel::gemm_blocked(a.data(), b.data(), out2.data(), m, n, k, false,
                         false, false);
    ASSERT_EQ(std::memcmp(out1.data(), out2.data(), m * n * sizeof(float)), 0)
        << "m=" << m;
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossBlockConfigs) {
  // The determinism contract: results are independent of the cache-block
  // configuration because there is no K-blocking and padded edge lanes
  // are never stored. Exercised across all three transpose modes with
  // blocks far smaller than, equal to, and larger than the problem.
  const kernel::BlockConfig configs[] = {{64, 512}, {24, 56}, {8, 32}};
  Rng rng(19);
  const std::size_t m = 50;
  const std::size_t n = 70;
  const std::size_t k = 90;
  for (bool at : {false, true}) {
    for (bool bt : {false, true}) {
      if (at && bt) continue;  // no public entry point uses both
      const Tensor a = Tensor::randn(at ? std::vector<std::size_t>{k, m}
                                        : std::vector<std::size_t>{m, k},
                                     rng);
      const Tensor b = Tensor::randn(bt ? std::vector<std::size_t>{n, k}
                                        : std::vector<std::size_t>{k, n},
                                     rng);
      Tensor base({m, n});
      kernel::gemm_blocked(a.data(), b.data(), base.data(), m, n, k, at, bt,
                           false, configs[0]);
      for (std::size_t c = 1; c < std::size(configs); ++c) {
        Tensor out({m, n});
        kernel::gemm_blocked(a.data(), b.data(), out.data(), m, n, k, at, bt,
                             false, configs[c]);
        ASSERT_EQ(
            std::memcmp(base.data(), out.data(), m * n * sizeof(float)), 0)
            << "at=" << at << " bt=" << bt << " config " << c;
      }
    }
  }
}

TEST(Im2col, ColumnsMatchDirectIndexing) {
  const std::size_t n_batch = 2;
  const std::size_t in_c = 3;
  const std::size_t length = 7;
  const std::size_t kernel = 5;
  const std::size_t pad = kernel / 2;
  Rng rng(23);
  const Tensor x = Tensor::randn({n_batch, in_c * length}, rng);
  Tensor cols;
  kernel::im2col_1d(x.data(), n_batch, in_c, length, kernel, cols);
  ASSERT_EQ(cols.rows(), in_c * kernel);
  ASSERT_EQ(cols.cols(), n_batch * length);
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    for (std::size_t kk = 0; kk < kernel; ++kk) {
      for (std::size_t nb = 0; nb < n_batch; ++nb) {
        for (std::size_t t = 0; t < length; ++t) {
          const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + kk) -
                                     static_cast<std::ptrdiff_t>(pad);
          float expect = 0.0F;
          if (src >= 0 && src < static_cast<std::ptrdiff_t>(length)) {
            expect = x.data()[nb * in_c * length + ic * length +
                              static_cast<std::size_t>(src)];
          }
          const float got =
              cols.data()[(ic * kernel + kk) * (n_batch * length) +
                          nb * length + t];
          ASSERT_EQ(got, expect) << "ic=" << ic << " k=" << kk << " n=" << nb
                                 << " t=" << t;
        }
      }
    }
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), d> must equal <x, col2im(d)> — the defining property of
  // the backward scatter.
  const std::size_t n_batch = 3;
  const std::size_t in_c = 4;
  const std::size_t length = 9;
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng(29);
    const Tensor x = Tensor::randn({n_batch, in_c * length}, rng);
    Tensor cols;
    kernel::im2col_1d(x.data(), n_batch, in_c, length, kernel, cols);
    const Tensor d = Tensor::randn({cols.rows(), cols.cols()}, rng);
    Tensor back({n_batch, in_c * length});
    back.fill(0.0F);
    kernel::col2im_1d(d, n_batch, in_c, length, kernel, back.data());
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      lhs += static_cast<double>(cols.data()[i]) * d.data()[i];
    }
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      rhs += static_cast<double>(x.data()[i]) * back.data()[i];
    }
    ASSERT_NEAR(lhs, rhs, 1e-3) << "kernel=" << kernel;
  }
}

// The layer's im2col+GEMM path against the scalar reference kernels, run
// on the layer's own params().
TEST(Conv1dEquivalence, ForwardMatchesReference) {
  constexpr std::size_t kN = 6;
  constexpr std::size_t kInC = 3;
  constexpr std::size_t kOutC = 5;
  constexpr std::size_t kLen = 11;
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng(31);
    nn::Conv1d conv(kInC, kOutC, kLen, kernel, rng);
    Rng xrng(37);
    const Tensor x = Tensor::randn({kN, kInC * kLen}, xrng);
    Tensor y_b;
    conv.forward_into(x, y_b, true);
    const auto p = conv.params();
    Tensor y_r({kN, kOutC * kLen});
    kernel_ref::conv1d_forward_ref(x.data(), p[0]->value.data(),
                                   p[1]->value.data(), y_r.data(), kN, kInC,
                                   kOutC, kLen, kernel);
    ASSERT_EQ(y_b.rows(), kN);
    ASSERT_EQ(y_b.cols(), kOutC * kLen);
    ASSERT_LE(max_abs_diff(y_b, y_r), kTol) << "kernel=" << kernel;
  }
}

TEST(Conv1dEquivalence, BackwardMatchesReference) {
  constexpr std::size_t kN = 6;
  constexpr std::size_t kInC = 3;
  constexpr std::size_t kOutC = 5;
  constexpr std::size_t kLen = 11;
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng(41);
    nn::Conv1d conv(kInC, kOutC, kLen, kernel, rng);
    Rng xrng(43);
    const Tensor x = Tensor::randn({kN, kInC * kLen}, xrng);
    const Tensor g = Tensor::randn({kN, kOutC * kLen}, xrng);
    Tensor y;
    Tensor gi_b;
    conv.forward_into(x, y, true);
    conv.backward_into(g, gi_b);
    const auto p = conv.params();
    Tensor gi_r({kN, kInC * kLen});
    Tensor dw_r(p[0]->value.shape());
    Tensor db_r(p[1]->value.shape());
    kernel_ref::conv1d_backward_ref(x.data(), p[0]->value.data(), g.data(),
                                    gi_r.data(), dw_r.data(), db_r.data(), kN,
                                    kInC, kOutC, kLen, kernel);
    ASSERT_LE(max_abs_diff(gi_b, gi_r), kTol) << "kernel=" << kernel;
    ASSERT_LE(max_abs_diff(p[0]->grad, dw_r), kTol) << "kernel=" << kernel;
    ASSERT_LE(max_abs_diff(p[1]->grad, db_r), kTol) << "kernel=" << kernel;
  }
}

}  // namespace
