// Basic layers: Linear, ReLU, Tanh, Dropout.
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace dshuf::nn {

/// Fully connected layer: y = x W + b, W is [in, out] row-major.
class Linear : public Layer {
 public:
  /// He-style initialisation: W ~ N(0, sqrt(2/in)), b = 0.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  void backward_params_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Param weight_;
  Param bias_;
  // Input of the last forward, by reference (see the Layer lifetime
  // contract) — no per-iteration deep copy.
  const Tensor* cached_in_ = nullptr;
};

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  const Tensor* cached_in_ = nullptr;
};

/// Hyperbolic tangent activation.
class Tanh : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }
};

/// Inverted dropout: scales kept activations by 1/(1-p) during training,
/// identity at eval.
class Dropout : public Layer {
 public:
  /// `rng` must outlive the layer.
  Dropout(double p, Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  double p_;
  Rng* rng_;
  std::vector<float> mask_;
  bool last_training_ = false;
};

}  // namespace dshuf::nn
