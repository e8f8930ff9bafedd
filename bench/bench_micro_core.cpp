// Google-benchmark microbenchmarks for the core primitives: exchange-plan
// construction, full partial-local epochs, global permutation dealing,
// GEMM and Conv1d on the blocked kernels, and one simulated training
// iteration (MLP and CNN). The *Ref variants call the retained naive
// kernels (tensor/kernel_ref.hpp) directly on the same operands, so
// blocked-vs-reference speedups can be read off one run; tools/dshuf_bench
// records the same comparison as JSON.
#include <benchmark/benchmark.h>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "shuffle/shuffler.hpp"
#include "sim/overlap.hpp"
#include "task/scheduler.hpp"
#include "tensor/kernel_ref.hpp"

namespace {

using namespace dshuf;

std::vector<std::vector<shuffle::SampleId>> make_shards(std::size_t n,
                                                        std::size_t workers) {
  std::vector<std::vector<shuffle::SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<shuffle::SampleId>(i));
  }
  return shards;
}

void BM_ExchangePlanConstruct(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto quota = static_cast<std::size_t>(state.range(1));
  std::size_t epoch = 0;
  for (auto _ : state) {
    shuffle::ExchangePlan plan(42, epoch++, workers, quota);
    benchmark::DoNotOptimize(plan.rounds());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          workers * static_cast<std::int64_t>(quota));
}
BENCHMARK(BM_ExchangePlanConstruct)
    ->Args({64, 16})
    ->Args({512, 16})
    ->Args({2048, 8})
    ->Args({4096, 4});

void BM_PartialEpoch(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const std::size_t n = workers * 64;
  shuffle::PartialLocalShuffler pls(make_shards(n, workers), 0.1, 7);
  std::size_t epoch = 0;
  for (auto _ : state) {
    pls.begin_epoch(epoch++);
    benchmark::DoNotOptimize(pls.local_order(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PartialEpoch)->Arg(16)->Arg(128)->Arg(1024);

void BM_GlobalEpoch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  shuffle::GlobalShuffler gs(n, 64, 7);
  std::size_t epoch = 0;
  for (auto _ : state) {
    gs.begin_epoch(epoch++);
    benchmark::DoNotOptimize(gs.local_order(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GlobalEpoch)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// `op(a, b, out)` computes one n x n x n product into out.
template <typename Op>
void run_gemm(benchmark::State& state, Op op) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  for (auto _ : state) {
    op(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

void BM_Gemm(benchmark::State& state) {
  run_gemm(state, [](const Tensor& a, const Tensor& b, Tensor& out) {
    gemm(a, b, out, false);
  });
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

void BM_GemmRef(benchmark::State& state) {
  run_gemm(state, [](const Tensor& a, const Tensor& b, Tensor& out) {
    kernel_ref::gemm_ref(a.data(), b.data(), out.data(), out.rows(),
                         out.cols(), a.cols(), /*a_transposed=*/false,
                         /*b_transposed=*/false, /*accumulate=*/false);
  });
}
BENCHMARK(BM_GemmRef)->Arg(32)->Arg(128)->Arg(256);

// Blocked GEMM under the task scheduler at 1/2/4/8 workers (256^3, the
// size tools/dshuf_bench records as multicore GF/s). Results are
// bit-identical across worker counts — only throughput moves, and only
// when the host actually has the cores.
void BM_GemmMulticore(benchmark::State& state) {
  const task::ScopedTaskWorkers scoped(
      static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t n = 256;
  Rng rng(3);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor out({n, n});
  for (auto _ : state) {
    gemm(a, b, out, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmMulticore)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One overlapped exchange+compute epoch (sim/overlap.hpp) per worker
// count: the epoch-time row of BENCH_micro.json. Spawns a 4-rank World
// each iteration, so items = the epoch's exchanged dataset.
void BM_TrainEpochOverlap(benchmark::State& state) {
  const task::ScopedTaskWorkers scoped(
      static_cast<std::size_t>(state.range(0)));
  sim::OverlapConfig cfg;
  cfg.n = 256;
  cfg.ranks = 4;
  cfg.q = 0.3;
  cfg.epochs = 1;
  cfg.seed = 11;
  cfg.compute_gemm_n = 128;
  cfg.compute_reps = 2;
  std::uint64_t seed = 11;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto res = sim::run_overlapped_epochs(cfg);
    benchmark::DoNotOptimize(res.shards.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.n));
}
BENCHMARK(BM_TrainEpochOverlap)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GemmAtB(benchmark::State& state) {
  run_gemm(state, [](const Tensor& a, const Tensor& b, Tensor& out) {
    gemm_at_b(a, b, out, false);
  });
}
BENCHMARK(BM_GemmAtB)->Arg(128)->Arg(256);

void BM_GemmABt(benchmark::State& state) {
  run_gemm(state, [](const Tensor& a, const Tensor& b, Tensor& out) {
    gemm_a_bt(a, b, out, false);
  });
}
BENCHMARK(BM_GemmABt)->Arg(128)->Arg(256);

// One Conv1d block at the CNN proxy's working size (batch 32, 8 -> 16
// channels over length 32). Items = output scalars per pass. The *Ref
// variants run the reference kernels on the layer's own params().
constexpr std::size_t kConvBatch = 32;
constexpr std::size_t kConvIn = 8;
constexpr std::size_t kConvOut = 16;
constexpr std::size_t kConvLen = 32;
constexpr std::size_t kConvKernel = 3;
constexpr std::int64_t kConvOutputs = kConvBatch * kConvOut * kConvLen;

nn::Conv1d make_bench_conv(Rng& rng) {
  return nn::Conv1d(kConvIn, kConvOut, kConvLen, kConvKernel, rng);
}

void BM_Conv1dForward(benchmark::State& state) {
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({kConvBatch, kConvIn * kConvLen}, rng);
  Tensor y;
  for (auto _ : state) {
    conv.forward_into(x, y, true);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kConvOutputs);
}
BENCHMARK(BM_Conv1dForward);

void BM_Conv1dForwardRef(benchmark::State& state) {
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({kConvBatch, kConvIn * kConvLen}, rng);
  const auto params = conv.params();
  Tensor y({kConvBatch, kConvOut * kConvLen});
  for (auto _ : state) {
    kernel_ref::conv1d_forward_ref(x.data(), params[0]->value.data(),
                                   params[1]->value.data(), y.data(),
                                   kConvBatch, kConvIn, kConvOut, kConvLen,
                                   kConvKernel);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kConvOutputs);
}
BENCHMARK(BM_Conv1dForwardRef);

void BM_Conv1dBackward(benchmark::State& state) {
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({kConvBatch, kConvIn * kConvLen}, rng);
  const Tensor g = Tensor::randn({kConvBatch, kConvOut * kConvLen}, rng);
  Tensor y;
  Tensor gi;
  conv.forward_into(x, y, true);
  for (auto _ : state) {
    conv.backward_into(g, gi);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kConvOutputs);
}
BENCHMARK(BM_Conv1dBackward);

void BM_Conv1dBackwardRef(benchmark::State& state) {
  Rng rng(7);
  nn::Conv1d conv = make_bench_conv(rng);
  const Tensor x = Tensor::randn({kConvBatch, kConvIn * kConvLen}, rng);
  const Tensor g = Tensor::randn({kConvBatch, kConvOut * kConvLen}, rng);
  const auto params = conv.params();
  Tensor gi({kConvBatch, kConvIn * kConvLen});
  for (auto _ : state) {
    // Zeroing grad_x is part of the pass, as in Conv1d::backward_into.
    gi.zero();
    kernel_ref::conv1d_backward_ref(
        x.data(), params[0]->value.data(), g.data(), gi.data(),
        params[0]->grad.data(), params[1]->grad.data(), kConvBatch, kConvIn,
        kConvOut, kConvLen, kConvKernel);
    benchmark::DoNotOptimize(gi.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kConvOutputs);
}
BENCHMARK(BM_Conv1dBackwardRef);

void run_train_iteration(benchmark::State& state, nn::Model model,
                         const data::InMemoryDataset& ds) {
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> batch(32);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<data::SampleId>(i * 7 % ds.size());
  }
  const Tensor x = ds.gather(batch);
  const auto y = ds.gather_labels(batch);
  for (auto _ : state) {
    model.zero_grad();
    const Tensor& logits = model.forward(x, true);
    const float loss = ce.forward(logits, y);
    benchmark::DoNotOptimize(loss);
    model.backward(ce.grad());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}

void BM_TrainIteration(benchmark::State& state) {
  data::ClassClusterSpec dspec{.num_classes = 16,
                               .samples_per_class = 64,
                               .feature_dim = 32,
                               .seed = 5};
  const auto ds = data::make_class_clusters(dspec);
  nn::MlpSpec mspec{.input_dim = 32, .hidden = {96, 64}, .num_classes = 16};
  Rng rng(5);
  run_train_iteration(state, nn::make_mlp(mspec, rng), ds);
}
BENCHMARK(BM_TrainIteration);

void BM_TrainIterationCnn(benchmark::State& state) {
  data::ClassClusterSpec dspec{.num_classes = 10,
                               .samples_per_class = 64,
                               .feature_dim = 32,
                               .seed = 5};
  const auto ds = data::make_class_clusters(dspec);
  nn::CnnSpec cspec;  // defaults match feature_dim 32
  Rng rng(5);
  run_train_iteration(state, nn::make_cnn(cspec, rng), ds);
}
BENCHMARK(BM_TrainIterationCnn);

}  // namespace

BENCHMARK_MAIN();
