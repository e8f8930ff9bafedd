// im2col / col2im for 1-D same-padded convolution.
//
// Lowers a [n_batch, in_c * length] channel-major signal batch into a
// column matrix cols[in_c * kernel, n_batch * length] (row ic*kernel + k,
// column n*length + t holds x[n][ic][t + k - pad], zero outside the
// signal) so that Conv1d forward becomes a single GEMM:
//   out_big[out_c, n_batch * length] = W[out_c, in_c * kernel] * cols.
// col2im is its adjoint (an accumulating copy back), used by the backward
// pass.
//
// The valid window of each (ic, k) row is one contiguous run in t, so the
// interior is a memcpy per (n, ic, k) rather than an element loop.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace dshuf::kernel {

/// Fills cols (resized to [in_c * kernel, n_batch * length], capacity
/// reused) from x = [n_batch, in_c * length]; pad = kernel / 2.
void im2col_1d(const float* x, std::size_t n_batch, std::size_t in_c,
               std::size_t length, std::size_t kernel, Tensor& cols);

/// Adjoint of im2col_1d: accumulates dcols[in_c * kernel,
/// n_batch * length] back into grad_x = [n_batch, in_c * length].
/// The caller must zero grad_x first.
void col2im_1d(const Tensor& dcols, std::size_t n_batch, std::size_t in_c,
               std::size_t length, std::size_t kernel, float* grad_x);

}  // namespace dshuf::kernel
