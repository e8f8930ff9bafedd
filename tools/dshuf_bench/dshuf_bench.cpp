// dshuf_bench: records the compute-kernel performance baseline.
//
// Times the retained reference kernels (tensor/kernel_ref.hpp, called
// directly on the same operands) against the blocked production kernels
// for GEMM at several sizes and Conv1d forward/backward, times a full
// training iteration of the MLP and CNN proxies on the blocked kernels
// (there is no whole-model reference run), plus the multicore rows:
// blocked GEMM under the task scheduler at 1/2/4/8 workers and one
// overlapped exchange+compute epoch (sim/overlap.hpp) at the same worker
// counts, plus the observability tax: the same overlapped epoch with the
// tracer + timeseries sampler on vs off. --out writes the results as
// BENCH_micro-style JSON (schema dshuf.bench_micro.v3, which also records
// hw_threads so readers can judge the scaling rows); --check re-reads a
// written file with util/json and validates its structure — and, when the
// recording host had >= 4 hardware threads, gates multicore GEMM at 4
// workers on >= 2x the 1-worker row, and always gates the tracing
// overhead at <= 5%. This is the CI perf-smoke gate.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "obs/trace.hpp"
#include "obs/timeseries.hpp"
#include "sim/overlap.hpp"
#include "task/scheduler.hpp"
#include "tensor/kernel_ref.hpp"
#include "tensor/tensor.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dshuf;

/// Milliseconds per call: repeats `fn` until `min_seconds` has elapsed,
/// best of `reps` rounds (robust to scheduler noise on a shared core).
template <typename Fn>
double time_ms(Fn&& fn, double min_seconds, int reps) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    std::size_t iters = 0;
    Stopwatch sw;
    double elapsed = 0.0;
    do {
      fn();
      ++iters;
      elapsed = sw.seconds();
    } while (elapsed < min_seconds);
    const double ms = elapsed * 1e3 / static_cast<double>(iters);
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

struct Timing {
  double ref_ms = 0.0;
  double blocked_ms = 0.0;

  [[nodiscard]] double speedup() const {
    return blocked_ms > 0.0 ? ref_ms / blocked_ms : 0.0;
  }
};

/// Times the reference arm, then the blocked arm, under time_ms.
template <typename RefFn, typename BlockedFn>
Timing time_both(RefFn&& ref, BlockedFn&& blocked, double min_seconds,
                 int reps) {
  Timing t;
  t.ref_ms = time_ms(ref, min_seconds, reps);
  t.blocked_ms = time_ms(blocked, min_seconds, reps);
  return t;
}

std::string fmt(double v) {
  std::ostringstream oss;
  oss.precision(6);
  oss << v;
  return oss.str();
}

struct GemmRow {
  std::size_t n = 0;
  Timing t;
  [[nodiscard]] double gflops(double ms) const {
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(n) * static_cast<double>(n);
    return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
  }
};

struct PassRow {
  std::string name;
  Timing t;
};

struct TrainRow {
  std::string name;
  double blocked_ms = 0.0;
};

double time_train_iteration(nn::Model model, const data::InMemoryDataset& ds,
                            double min_seconds, int reps) {
  nn::SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> batch(32);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<data::SampleId>(i * 7 % ds.size());
  }
  const Tensor x = ds.gather(batch);
  const auto y = ds.gather_labels(batch);
  return time_ms(
      [&] {
        model.zero_grad();
        const Tensor& logits = model.forward(x, true);
        ce.forward(logits, y);
        model.backward(ce.grad());
      },
      min_seconds, reps);
}

int run_check(const std::string& path) {
  std::ifstream in(path);
  DSHUF_CHECK(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  DSHUF_CHECK_EQ(doc.at("schema").as_string(), "dshuf.bench_micro.v3",
                 "unexpected schema in " << path);
  const std::int64_t hw_threads = doc.at("hw_threads").as_int();
  DSHUF_CHECK_GE(hw_threads, 1, "bad hw_threads");
  DSHUF_CHECK(!doc.at("gemm").as_array().empty(), "no gemm entries");
  for (const auto& row : doc.at("gemm").as_array()) {
    DSHUF_CHECK_GT(row.at("ref_ms").as_number(), 0.0, "bad ref_ms");
    DSHUF_CHECK_GT(row.at("blocked_ms").as_number(), 0.0, "bad blocked_ms");
    DSHUF_CHECK_GT(row.at("speedup").as_number(), 0.0, "bad speedup");
  }
  DSHUF_CHECK_EQ(doc.at("conv1d").as_array().size(), 2U,
                 "expected conv1d forward+backward");
  DSHUF_CHECK_EQ(doc.at("train_iteration").as_array().size(), 2U,
                 "expected mlp+cnn train iterations");
  for (const auto& row : doc.at("train_iteration").as_array()) {
    DSHUF_CHECK_GT(row.at("blocked_ms").as_number(), 0.0,
                   "bad train_iteration blocked_ms");
  }
  DSHUF_CHECK(!doc.at("gemm_multicore").as_array().empty(),
              "no gemm_multicore entries");
  double speedup_at_4 = -1.0;
  for (const auto& row : doc.at("gemm_multicore").as_array()) {
    DSHUF_CHECK_GT(row.at("workers").as_int(), 0, "bad workers");
    DSHUF_CHECK_GT(row.at("ms").as_number(), 0.0, "bad ms");
    DSHUF_CHECK_GT(row.at("gflops").as_number(), 0.0, "bad gflops");
    DSHUF_CHECK_GT(row.at("speedup_vs_1").as_number(), 0.0,
                   "bad speedup_vs_1");
    if (row.at("workers").as_int() == 4) {
      speedup_at_4 = row.at("speedup_vs_1").as_number();
    }
  }
  DSHUF_CHECK(!doc.at("epoch_time").as_array().empty(),
              "no epoch_time entries");
  for (const auto& row : doc.at("epoch_time").as_array()) {
    DSHUF_CHECK_GT(row.at("workers").as_int(), 0, "bad workers");
    DSHUF_CHECK_GT(row.at("ms").as_number(), 0.0, "bad ms");
  }
  DSHUF_CHECK(!doc.at("obs_overhead").as_array().empty(),
              "no obs_overhead entries");
  for (const auto& row : doc.at("obs_overhead").as_array()) {
    DSHUF_CHECK_GT(row.at("off_ms").as_number(), 0.0, "bad off_ms");
    DSHUF_CHECK_GT(row.at("on_ms").as_number(), 0.0, "bad on_ms");
    // The always-on-able observability stack (tracer + windowed sampler)
    // must stay under a 5% tax on the overlapped epoch.
    DSHUF_CHECK_LE(row.at("overhead_frac").as_number(), 0.05,
                   "tracing+sampling overhead above 5% in "
                       << path << " (workload "
                       << row.at("workload").as_string() << ")");
  }
  // The scaling gate only means something when the recording host had the
  // cores: a 1-core container legitimately shows ~1.0x at any width.
  if (hw_threads >= 4) {
    DSHUF_CHECK_GE(speedup_at_4, 2.0,
                   "multicore GEMM at 4 workers must be >= 2x 1-worker ("
                       << path << " recorded " << speedup_at_4 << "x on "
                       << hw_threads << " hw threads)");
  } else {
    std::cout << "dshuf_bench: scaling gate skipped (recorded on "
              << hw_threads << " hw thread(s))\n";
  }
  std::cout << "dshuf_bench: " << path << " OK ("
            << doc.at("gemm").as_array().size() << " gemm sizes, "
            << doc.at("gemm_multicore").as_array().size()
            << " multicore rows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("dshuf_bench",
                 "Record the blocked-vs-reference kernel perf baseline");
  args.flag("out", "", "write JSON results to this path");
  args.flag("check", "", "validate a previously written JSON file and exit");
  args.flag("quick", "false", "reduced measurement time (CI smoke)");
  if (!args.parse(argc, argv)) return 0;

  if (!args.get("check").empty()) return run_check(args.get("check"));

  const bool quick = args.get_bool("quick");
  const double min_seconds = quick ? 0.02 : 0.2;
  const int reps = quick ? 2 : 5;

  Rng rng(3);
  std::vector<GemmRow> gemm_rows;
  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}}) {
    GemmRow row;
    row.n = n;
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    Tensor out({n, n});
    row.t = time_both(
        [&] {
          kernel_ref::gemm_ref(a.data(), b.data(), out.data(), n, n, n,
                               /*a_transposed=*/false,
                               /*b_transposed=*/false, /*accumulate=*/false);
        },
        [&] { gemm(a, b, out); }, min_seconds, reps);
    gemm_rows.push_back(row);
    std::cout << "gemm " << n << "x" << n << "x" << n << ": ref "
              << fmt(row.t.ref_ms) << " ms (" << fmt(row.gflops(row.t.ref_ms))
              << " GF/s), blocked " << fmt(row.t.blocked_ms) << " ms ("
              << fmt(row.gflops(row.t.blocked_ms)) << " GF/s), speedup "
              << fmt(row.t.speedup()) << "x\n";
  }

  std::vector<PassRow> conv_rows;
  {
    constexpr std::size_t kN = 32;
    constexpr std::size_t kInC = 8;
    constexpr std::size_t kOutC = 16;
    constexpr std::size_t kLen = 32;
    constexpr std::size_t kKernel = 3;
    Rng crng(7);
    nn::Conv1d conv(kInC, kOutC, kLen, kKernel, crng);
    const Tensor x = Tensor::randn({kN, kInC * kLen}, crng);
    const Tensor g = Tensor::randn({kN, kOutC * kLen}, crng);
    Tensor y;
    Tensor gi;
    // The reference arms run on the layer's own weights and accumulate
    // into its own gradients, as the layer does.
    const auto params = conv.params();
    nn::Param& weight = *params[0];
    nn::Param& bias = *params[1];
    Tensor y_ref({kN, kOutC * kLen});
    Tensor gi_ref({kN, kInC * kLen});
    const auto ref_forward = [&] {
      kernel_ref::conv1d_forward_ref(x.data(), weight.value.data(),
                                     bias.value.data(), y_ref.data(), kN,
                                     kInC, kOutC, kLen, kKernel);
    };
    conv_rows.push_back(
        {"forward", time_both(ref_forward,
                              [&] { conv.forward_into(x, y, true); },
                              min_seconds, reps)});
    conv_rows.push_back(
        {"backward", time_both(
                         [&] {
                           ref_forward();
                           gi_ref.zero();
                           kernel_ref::conv1d_backward_ref(
                               x.data(), weight.value.data(), g.data(),
                               gi_ref.data(), weight.grad.data(),
                               bias.grad.data(), kN, kInC, kOutC, kLen,
                               kKernel);
                         },
                         [&] {
                           conv.forward_into(x, y, true);
                           conv.backward_into(g, gi);
                         },
                         min_seconds, reps)});
    for (const auto& row : conv_rows) {
      std::cout << "conv1d " << row.name << ": ref " << fmt(row.t.ref_ms)
                << " ms, blocked " << fmt(row.t.blocked_ms) << " ms, speedup "
                << fmt(row.t.speedup()) << "x\n";
    }
  }

  std::vector<TrainRow> train_rows;
  {
    data::ClassClusterSpec dspec{.num_classes = 16,
                                 .samples_per_class = 64,
                                 .feature_dim = 32,
                                 .seed = 5};
    const auto ds = data::make_class_clusters(dspec);
    nn::MlpSpec mspec{.input_dim = 32, .hidden = {96, 64}, .num_classes = 16};
    Rng mrng(5);
    train_rows.push_back(
        {"mlp", time_train_iteration(nn::make_mlp(mspec, mrng), ds,
                                     min_seconds, reps)});
    data::ClassClusterSpec cdspec{.num_classes = 10,
                                  .samples_per_class = 64,
                                  .feature_dim = 32,
                                  .seed = 5};
    const auto cds = data::make_class_clusters(cdspec);
    nn::CnnSpec cspec;
    Rng crng(5);
    train_rows.push_back(
        {"cnn", time_train_iteration(nn::make_cnn(cspec, crng), cds,
                                     min_seconds, reps)});
    for (const auto& row : train_rows) {
      std::cout << "train_iteration " << row.name << ": blocked "
                << fmt(row.blocked_ms) << " ms\n";
    }
  }

  // Multicore rows: blocked GEMM and one overlapped exchange+compute
  // epoch under the task scheduler at 1/2/4/8 workers. Worker counts
  // beyond hw_threads still run correctly (bit-identical results); they
  // just can't speed up — which is why the JSON records hw_threads.
  struct McRow {
    std::size_t workers = 0;
    double ms = 0.0;
  };
  const std::size_t mc_n = 256;
  std::vector<McRow> mc_rows;
  std::vector<McRow> epoch_rows;
  {
    Rng mcrng(3);
    const Tensor a = Tensor::randn({mc_n, mc_n}, mcrng);
    const Tensor b = Tensor::randn({mc_n, mc_n}, mcrng);
    Tensor out({mc_n, mc_n});
    for (const std::size_t w :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const task::ScopedTaskWorkers workers(w);
      mc_rows.push_back(
          {w, time_ms([&] { gemm(a, b, out); }, min_seconds, reps)});
    }
  }
  const double mc_ms1 = mc_rows.empty() ? 0.0 : mc_rows.front().ms;
  const auto mc_gflops = [&](double ms) {
    const double flops = 2.0 * static_cast<double>(mc_n) *
                         static_cast<double>(mc_n) *
                         static_cast<double>(mc_n);
    return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
  };
  for (const auto& row : mc_rows) {
    std::cout << "gemm_multicore " << mc_n << "^3 @ " << row.workers
              << " workers: " << fmt(row.ms) << " ms ("
              << fmt(mc_gflops(row.ms)) << " GF/s, "
              << fmt(row.ms > 0.0 ? mc_ms1 / row.ms : 0.0) << "x vs 1)\n";
  }
  {
    sim::OverlapConfig ocfg;
    ocfg.n = 256;
    ocfg.ranks = 4;
    ocfg.q = 0.3;
    ocfg.epochs = 1;
    ocfg.compute_gemm_n = 128;
    ocfg.compute_reps = 2;
    std::uint64_t seed = 11;
    for (const std::size_t w :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const task::ScopedTaskWorkers workers(w);
      epoch_rows.push_back({w, time_ms(
                                   [&] {
                                     ocfg.seed = seed++;
                                     sim::run_overlapped_epochs(ocfg);
                                   },
                                   min_seconds, reps)});
      std::cout << "epoch_time (overlapped, 4 ranks) @ " << w
                << " workers: " << fmt(epoch_rows.back().ms) << " ms\n";
    }
  }
  // Observability tax: the identical overlapped epoch with the tracer and
  // the timeseries sampler recording vs fully off. clear()/sample_window()
  // stay inside the timed region — they are part of the per-epoch
  // lifecycle a traced bench actually pays. The workload is deliberately
  // heavier than the epoch_time rows (real epochs are long; the per-event
  // cost is fixed), and the arms alternate per rep so machine-load drift
  // hits both sides instead of biasing one.
  double obs_off_ms = 0.0;
  double obs_on_ms = 0.0;
  {
    sim::OverlapConfig ocfg;
    ocfg.n = 256;
    ocfg.ranks = 4;
    ocfg.q = 0.3;
    ocfg.epochs = 2;
    ocfg.compute_gemm_n = 256;
    ocfg.compute_reps = 4;
    const task::ScopedTaskWorkers workers(4);
    std::uint64_t seed = 21;
    auto& tracer = obs::Tracer::instance();
    auto& sampler = obs::TimeseriesSampler::instance();
    const auto run_arm = [&](bool on) {
      tracer.set_enabled(on);
      sampler.set_enabled(on);
      if (on) sampler.reset();
      const double ms = time_ms(
          [&] {
            ocfg.seed = seed++;
            sim::run_overlapped_epochs(ocfg);
            if (on) tracer.clear();
          },
          min_seconds, 1);
      tracer.set_enabled(false);
      sampler.set_enabled(false);
      return ms;
    };
    for (int r = 0; r < reps; ++r) {
      const double off = run_arm(false);
      const double on = run_arm(true);
      if (obs_off_ms <= 0.0 || off < obs_off_ms) obs_off_ms = off;
      if (obs_on_ms <= 0.0 || on < obs_on_ms) obs_on_ms = on;
    }
    sampler.reset();
    tracer.clear();
  }
  const double obs_overhead_frac =
      obs_off_ms > 0.0 ? (obs_on_ms - obs_off_ms) / obs_off_ms : 0.0;
  std::cout << "obs_overhead (overlapped epoch @ 4 workers): off "
            << fmt(obs_off_ms) << " ms, on " << fmt(obs_on_ms) << " ms, +"
            << fmt(obs_overhead_frac * 100.0) << "%\n";

  const auto hw_threads =
      std::max(1U, std::thread::hardware_concurrency());

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream j;
    j << "{\n  \"schema\": \"dshuf.bench_micro.v3\",\n  \"hw_threads\": "
      << hw_threads << ",\n  \"gemm\": [\n";
    for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
      const auto& r = gemm_rows[i];
      j << "    {\"m\": " << r.n << ", \"n\": " << r.n << ", \"k\": " << r.n
        << ", \"ref_ms\": " << fmt(r.t.ref_ms)
        << ", \"blocked_ms\": " << fmt(r.t.blocked_ms)
        << ", \"ref_gflops\": " << fmt(r.gflops(r.t.ref_ms))
        << ", \"blocked_gflops\": " << fmt(r.gflops(r.t.blocked_ms))
        << ", \"speedup\": " << fmt(r.t.speedup()) << "}"
        << (i + 1 < gemm_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"conv1d\": [\n";
    for (std::size_t i = 0; i < conv_rows.size(); ++i) {
      const auto& r = conv_rows[i];
      j << "    {\"pass\": \"" << r.name
        << "\", \"ref_ms\": " << fmt(r.t.ref_ms)
        << ", \"blocked_ms\": " << fmt(r.t.blocked_ms)
        << ", \"speedup\": " << fmt(r.t.speedup()) << "}"
        << (i + 1 < conv_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"train_iteration\": [\n";
    for (std::size_t i = 0; i < train_rows.size(); ++i) {
      const auto& r = train_rows[i];
      j << "    {\"model\": \"" << r.name
        << "\", \"blocked_ms\": " << fmt(r.blocked_ms) << "}"
        << (i + 1 < train_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"gemm_multicore\": [\n";
    for (std::size_t i = 0; i < mc_rows.size(); ++i) {
      const auto& r = mc_rows[i];
      j << "    {\"n\": " << mc_n << ", \"workers\": " << r.workers
        << ", \"ms\": " << fmt(r.ms)
        << ", \"gflops\": " << fmt(mc_gflops(r.ms)) << ", \"speedup_vs_1\": "
        << fmt(r.ms > 0.0 ? mc_ms1 / r.ms : 0.0) << "}"
        << (i + 1 < mc_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"epoch_time\": [\n";
    for (std::size_t i = 0; i < epoch_rows.size(); ++i) {
      const auto& r = epoch_rows[i];
      j << "    {\"workers\": " << r.workers << ", \"ms\": " << fmt(r.ms)
        << "}" << (i + 1 < epoch_rows.size() ? "," : "") << "\n";
    }
    j << "  ],\n  \"obs_overhead\": [\n"
      << "    {\"workload\": \"overlap_epoch\", \"workers\": 4, \"off_ms\": "
      << fmt(obs_off_ms) << ", \"on_ms\": " << fmt(obs_on_ms)
      << ", \"overhead_frac\": " << fmt(obs_overhead_frac) << "}\n"
      << "  ]\n}\n";
    // Round-trip through the parser before writing: the tool never emits
    // a file its own --check would reject.
    json::parse(j.str());
    std::ofstream out(out_path);
    DSHUF_CHECK(out.good(), "cannot write " << out_path);
    out << j.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
