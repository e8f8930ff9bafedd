// 1-D convolutional layers.
//
// Inputs stay rank-2 ([N, features]) for compatibility with the rest of
// the stack; a Conv1d interprets the feature axis as `in_channels`
// channel-major planes of length L (features = in_channels * L) and
// produces out_channels planes of the same length (same-padding, stride
// 1). Together with MaxPool1d and the make_cnn builder this gives the
// proxies genuine architectural structure (weight sharing, locality)
// where the paper's models differ architecturally.
//
// Conv1d is computed as im2col + GEMM (tensor/im2col.hpp feeding the
// blocked kernel), with the bias fused into the scatter back to the
// layer's [N, out_c * L] layout. The pre-overhaul scalar loops survive as
// kernel_ref::conv1d_*_ref, the equivalence tests' oracle.
#pragma once

#include "nn/builder.hpp"
#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dshuf::nn {

class Conv1d : public Layer {
 public:
  /// Same-padding convolution: kernel must be odd. He initialisation over
  /// fan-in = in_channels * kernel.
  Conv1d(std::size_t in_channels, std::size_t out_channels,
         std::size_t length, std::size_t kernel, Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void backward_params_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv1d"; }

  [[nodiscard]] std::size_t out_features() const {
    return out_channels_ * length_;
  }

 private:
  // Scratch slot ids (see Layer::scratch): the im2col matrix persists
  // from forward to backward; the rest are per-pass staging.
  static constexpr int kColsSlot = 0;   // [in_c * k, N * L]
  static constexpr int kOutBigSlot = 1;  // [out_c, N * L] forward staging
  static constexpr int kGradBigSlot = 2;  // [out_c, N * L] backward staging
  static constexpr int kDColsSlot = 3;  // [in_c * k, N * L]

  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t length_;
  std::size_t kernel_;
  Param weight_;  // [out_c, in_c, k] flattened
  Param bias_;    // [out_c]
  const Tensor* cached_in_ = nullptr;
  std::size_t cached_batch_ = 0;
};

/// Non-overlapping max pooling along the length axis of channel-major
/// planes; length must divide by the window.
class MaxPool1d : public Layer {
 public:
  MaxPool1d(std::size_t channels, std::size_t length, std::size_t window);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  [[nodiscard]] std::string name() const override { return "MaxPool1d"; }

  [[nodiscard]] std::size_t out_features() const {
    return channels_ * (length_ / window_);
  }

 private:
  std::size_t channels_;
  std::size_t length_;
  std::size_t window_;
  std::vector<std::uint32_t> argmax_;  // flat indices into the input
  std::size_t cached_batch_ = 0;
};

/// Small 1-D CNN: [Conv1d -> Norm -> ReLU -> MaxPool1d] blocks over the
/// input treated as a single-channel signal, followed by a linear head.
struct CnnSpec {
  std::size_t input_length = 32;  // == dataset feature_dim
  std::vector<std::size_t> channels = {8, 16};
  std::size_t kernel = 3;
  std::size_t pool = 2;
  std::size_t num_classes = 10;
  NormKind norm = NormKind::kBatchNorm;
};

Model make_cnn(const CnnSpec& spec, Rng& rng);

}  // namespace dshuf::nn
