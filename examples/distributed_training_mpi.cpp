// Full data-parallel training on the message-passing substrate: M rank
// threads, each with its own model replica and shard store, running
//   per epoch:  PLS exchange (Algorithm 1 over tagged send/recv)
//   per step:   local forward/backward -> gradient allreduce -> SGD step
// exactly like an MPI+PyTorch deployment of the paper's scheduler. The
// replicas stay in lock-step because the allreduce is deterministic; rank
// 0 evaluates.
//
//   ./distributed_training_mpi --ranks 8 --q 0.1 --epochs 12
#include <iostream>

#include "comm/comm.hpp"
#include "data/partition.hpp"
#include "data/workloads.hpp"
#include "nn/loss.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "sim/trainer.hpp"
#include "util/argparse.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace dshuf;

struct RankResult {
  double final_top1 = 0;
  std::vector<float> final_state;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("distributed_training_mpi",
                 "Data-parallel PLS training with rank threads and a real "
                 "gradient allreduce");
  args.flag("ranks", "8", "number of rank threads (M)");
  args.flag("batch", "8", "local minibatch (b)");
  args.flag("q", "0.1", "exchange fraction");
  args.flag("epochs", "12", "training epochs");
  args.flag("seed", "123", "experiment seed");
  if (!args.parse(argc, argv)) return 0;

  const int ranks = static_cast<int>(args.get_int("ranks"));
  const std::size_t b = static_cast<std::size_t>(args.get_int("batch"));
  const double q = args.get_double("q");
  const std::size_t epochs = static_cast<std::size_t>(args.get_int("epochs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Shared, read-only across ranks.
  data::Workload workload = data::find_workload("imagenet1k-resnet50");
  workload.data.num_classes = 16;
  workload.data.samples_per_class = 64;
  workload.model.num_classes = 16;
  const auto split = data::make_class_clusters_split(workload.data);
  const auto& train = split.train;
  const std::size_t shard_size = train.size() / ranks;

  Rng part_rng = Rng(seed).fork(0x90);
  auto shards = data::partition_dataset(
      train, ranks, data::PartitionScheme::kClassSorted, part_rng);

  std::cout << "Training " << workload.name << " proxy on " << ranks
            << " rank threads (N=" << train.size() << ", shard="
            << shard_size << ", Q=" << q << ")\n";

  std::vector<RankResult> results(ranks);
  Stopwatch sw;
  comm::World world(ranks);
  world.run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());

    // Every rank builds the identical replica (same seed -> same init).
    Rng model_rng = Rng(seed).fork(0x91);
    nn::Model model = nn::make_mlp(workload.model, model_rng);
    const float lr0 = workload.regime.base_lr *
                      static_cast<float>(ranks * b) /
                      static_cast<float>(workload.regime.reference_batch);
    const auto epochs_d = static_cast<double>(epochs);
    nn::MultiStepLr schedule(lr0, {epochs_d * 0.6, epochs_d * 0.85}, 0.1F,
                             workload.regime.warmup_epochs);
    nn::Sgd opt(model, {.lr = lr0,
                        .momentum = workload.regime.momentum,
                        .weight_decay = workload.regime.weight_decay});
    nn::SoftmaxCrossEntropy ce;

    const std::size_t quota = shuffle::exchange_quota(shard_size, q);
    shuffle::ShardStore store(shards[r], shard_size + quota);

    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      // Algorithm 1 over real point-to-point messages.
      shuffle::run_pls_exchange_epoch(c, store, seed, epoch, q, shard_size);
      shuffle::post_exchange_local_shuffle(seed, epoch, c.rank(),
                                           store.mutable_ids());
      const auto& order = store.ids();
      const std::size_t iters = order.size() / b;

      for (std::size_t it = 0; it < iters; ++it) {
        opt.set_lr(schedule.lr_at(static_cast<double>(epoch) +
                                  static_cast<double>(it) /
                                      static_cast<double>(iters)));
        const std::span<const data::SampleId> batch(order.data() + it * b,
                                                    b);
        const Tensor x = train.gather(batch);
        const auto y = train.gather_labels(batch);
        model.zero_grad();
        const Tensor logits = model.forward(x, true);
        ce.forward(logits, y);
        model.backward(ce.backward());

        // Gradient allreduce: sum over ranks, then average. All ranks
        // compute the identical sum (deterministic reduction), so the
        // replicas never diverge.
        const auto local = model.gradients();
        std::vector<double> contrib(local.begin(), local.end());
        const auto total = c.allreduce_sum(contrib);
        auto params = model.params();
        std::size_t off = 0;
        for (auto* p : params) {
          for (auto& g : p->grad.vec()) {
            g = static_cast<float>(total[off++] / ranks);
          }
        }
        opt.step();
      }
    }

    results[r].final_state = model.state();
    results[r].final_top1 =
        sim::evaluate(model, split.val, /*max_samples=*/0, /*seed=*/1);
  });

  // Replicas must have remained in lock-step.
  bool consistent = true;
  for (int r = 1; r < ranks; ++r) {
    if (results[static_cast<std::size_t>(r)].final_state !=
        results[0].final_state) {
      consistent = false;
    }
  }

  TextTable t("distributed training result");
  t.header({"ranks", "epochs", "Q", "final top-1 (rank 0)",
            "replicas in lock-step", "wall s"});
  t.row({std::to_string(ranks), std::to_string(epochs), fmt_double(q, 2),
         fmt_percent(results[0].final_top1), consistent ? "yes" : "NO",
         fmt_double(sw.seconds(), 1)});
  t.print(std::cout);

  std::cout << "Every rank ran Algorithm 1 over real tagged send/recv and a\n"
               "deterministic gradient allreduce; identical final weights\n"
               "across replicas confirm the whole stack composes exactly\n"
               "like an MPI deployment of the paper's scheduler.\n";
  return consistent ? 0 : 1;
}
