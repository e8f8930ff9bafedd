// End-to-end Algorithm 1 on the message-passing substrate, moving REAL
// sample bytes between per-rank stores — the closest analogue of the
// paper's deployment (the scheduler's save/remove hooks manage the
// worker's storage area).
//
// Each rank runs in its own thread with its own directory under a temp
// root. Every epoch it (1) recomputes the shared-seed exchange plan,
// (2) sends each peer one tagged frame of its picked samples' serialized
// bytes, (3) receives the frame each peer owes it, (4) saves received
// samples and removes transmitted ones.
// Afterwards we verify conservation, per-rank balance, the on-disk
// (1+Q)-capacity window, and payload integrity against the dataset.
//
// --store selects the io::SampleStore backend: "file" (one file per
// sample, the paper's supported layout) or "mmap" (segment files +
// epoch-based reclamation; the capacity_bytes knob enforces the
// (1+Q)*N/M bound byte-exactly on disk).
#include <filesystem>
#include <iostream>
#include <memory>

#include "comm/comm.hpp"
#include "data/synthetic.hpp"
#include "io/file_store.hpp"
#include "io/mmap_store.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/store_hooks.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dshuf;
  namespace fs = std::filesystem;

  ArgParser args("exchange_over_mpi",
                 "Run the PLS exchange over the in-process MPI substrate "
                 "with per-rank sample stores");
  args.flag("ranks", "8", "number of MPI-like ranks (threads)");
  args.flag("samples", "256", "dataset size");
  args.flag("q", "0.25", "exchange fraction Q");
  args.flag("epochs", "4", "exchange epochs to run");
  args.flag("seed", "17", "shared seed (synchronises the plan)");
  args.flag("store", "file", "payload store backend: file | mmap");
  if (!args.parse(argc, argv)) return 0;

  const int ranks = static_cast<int>(args.get_int("ranks"));
  const std::size_t n = static_cast<std::size_t>(args.get_int("samples"));
  const double q = args.get_double("q");
  const std::size_t epochs =
      static_cast<std::size_t>(args.get_int("epochs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::string store_kind = args.get("store");
  const bool use_mmap = store_kind == "mmap";
  if (!use_mmap && store_kind != "file") {
    std::cerr << "unknown --store backend: " << store_kind << "\n";
    return 1;
  }

  // A small dataset whose rows are the payloads we ship around.
  data::ClassClusterSpec spec{.num_classes = 8,
                              .samples_per_class = n / 8,
                              .feature_dim = 16,
                              .seed = seed};
  const auto dataset = data::make_class_clusters(spec);
  const std::size_t shard = dataset.size() / ranks;
  const std::size_t quota = shuffle::exchange_quota(shard, q);

  const fs::path root =
      fs::temp_directory_path() /
      ("dshuf_exchange_demo_" + std::to_string(::getpid()));
  fs::remove_all(root);

  // Per-rank state: an id store (capacity (1+Q) shard) + a payload store.
  // The mmap store's capacity_bytes enforces the same bound byte-exactly:
  // the exchange transiently holds shard + quota samples on disk.
  std::vector<shuffle::ShardStore> stores;
  std::vector<std::unique_ptr<io::SampleStore>> files;
  for (int r = 0; r < ranks; ++r) {
    std::vector<shuffle::SampleId> ids;
    for (std::size_t i = r * shard; i < (r + 1) * shard; ++i) {
      ids.push_back(static_cast<shuffle::SampleId>(i));
    }
    const fs::path dir = root / ("rank" + std::to_string(r));
    if (use_mmap) {
      files.push_back(std::make_unique<io::MmapSampleStore>(
          io::MmapStoreConfig{.dir = dir,
                              .capacity_bytes = (shard + quota) *
                                                dataset.bytes_per_sample()}));
    } else {
      files.push_back(std::make_unique<io::FileSampleStore>(dir));
    }
    for (auto id : ids) {
      files.back()->save(id, io::serialize_sample(dataset, id));
    }
    stores.emplace_back(std::move(ids), shard + quota);
  }

  std::cout << "dataset: " << dataset.size() << " samples x "
            << dataset.bytes_per_sample() << " B; " << ranks
            << " ranks, shard " << shard << ", quota " << quota << " (Q="
            << q << "), store=" << store_kind << "\n";

  comm::World world(ranks);
  TextTable t("per-epoch exchange");
  t.header({"epoch", "moved samples", "bytes/rank", "peak disk samples/rank",
            "(1+Q) bound"});

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<std::size_t> peak_files(ranks, 0);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      auto& store = stores[r];
      io::SampleStore& file_store = *files[r];
      std::size_t local_peak = file_store.size();
      const auto payload = shuffle::make_store_payload_fn(file_store);
      shuffle::run_pls_exchange_epoch(
          c, store, seed, epoch, q, shard, payload,
          /*deposit=*/
          [&](shuffle::SampleId id, std::span<const std::byte> body) {
            file_store.save(id, body);
            local_peak = std::max(local_peak, file_store.size());
          });
      // clean_local_storage: remove transmitted samples from disk.
      for (auto id : file_store.list()) {
        bool held = false;
        for (auto sid : store.ids()) {
          if (sid == id) {
            held = true;
            break;
          }
        }
        if (!held) file_store.remove(id);
      }
      // Retire the epoch's quarantined slots (no-op for the file store).
      if (auto* ms = dynamic_cast<io::MmapSampleStore*>(&file_store)) {
        ms->advance_epoch();
      }
      shuffle::post_exchange_local_shuffle(seed, epoch, c.rank(),
                                           store.mutable_ids());
      peak_files[r] = local_peak;
    });

    std::size_t max_peak = 0;
    for (auto p : peak_files) max_peak = std::max(max_peak, p);
    t.row({std::to_string(epoch), std::to_string(quota * ranks),
           fmt_bytes(static_cast<double>(quota) *
                     static_cast<double>(dataset.bytes_per_sample())),
           std::to_string(max_peak), std::to_string(shard + quota)});
  }
  t.print(std::cout);

  // Verification: conservation, balance, integrity.
  std::size_t total = 0;
  bool intact = true;
  std::vector<std::byte> payload;
  for (int r = 0; r < ranks; ++r) {
    const auto& ids = stores[static_cast<std::size_t>(r)].ids();
    total += ids.size();
    for (auto id : ids) {
      payload.clear();
      files[static_cast<std::size_t>(r)]->load_into(id, payload);
      const auto s = io::deserialize_sample(payload);
      if (s.label != dataset.label(id)) intact = false;
    }
    if (ids.size() != shard) intact = false;
  }
  std::cout << "verification: " << total << "/" << dataset.size()
            << " samples accounted for, shards balanced and payloads "
            << (intact ? "intact" : "CORRUPTED") << "\n";
  files.clear();  // unmap before deleting the tree
  fs::remove_all(root);
  return intact && total == dataset.size() ? 0 : 1;
}
