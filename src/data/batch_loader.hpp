// Prefetching batch loader — the DataLoader piece of the paper's training
// stack. Assembles fixed-size batches ([b, D] tensor + labels) from a
// visit order on a background thread, keeping a small bounded queue ahead
// of the consumer so batch assembly overlaps with compute (the same
// pipelining idea the paper's Fig. 4 applies to the sample exchange).
// Drop-last semantics match the simulator / PyTorch defaults.
//
// The thread that constructs a loader is its consumer. The producer
// starts on the constructing thread's allowed CPUs minus the CPU that
// thread runs on at construction (see producer_cpus): the consumer's
// notify_all otherwise tends to wake the producer onto the consumer's own
// CPU, and the two take turns instead of overlapping. With one allowed
// CPU, or where the affinity calls fail, the producer runs unbound.
//
// Two sample sources are supported:
//   * an InMemoryDataset (rows gathered straight out of the feature
//     matrix), or
//   * a data::SampleSource — the worker's local payload store. Each
//     sample's serialized bytes (u32 label + feature_dim floats, the
//     exchange's wire format) are decoded DIRECTLY into the batch
//     tensor's row via the store's zero-copy span read: no per-sample
//     allocation, and on the mmap-backed store no intermediate copy.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "data/sample_source.hpp"
#include "util/ranked_mutex.hpp"

namespace dshuf::data {

/// The CPUs a loader's producer binds to, given its consumer's allowed
/// CPUs and the CPU the consumer runs on: `allowed` without
/// `consumer_cpu`. Empty (no pin) when that leaves no CPU or does not
/// shrink the set.
[[nodiscard]] std::vector<int> producer_cpus(std::span<const int> allowed,
                                             int consumer_cpu);

class BatchLoader {
 public:
  struct Batch {
    std::size_t index = 0;  // batch number within the epoch
    Tensor features;        // [b, D]
    std::vector<std::uint32_t> labels;
  };

  /// `dataset` must outlive the loader. `prefetch_depth` bounds how many
  /// batches the producer may run ahead. The calling thread becomes the
  /// consumer (see the placement rule above).
  BatchLoader(const InMemoryDataset& dataset, std::vector<SampleId> order,
              std::size_t batch_size, std::size_t prefetch_depth = 2);

  /// Store-backed loader: rows are read from `source` (which must outlive
  /// the loader and hold every id in `order`) and decoded from the
  /// serialized payload format into the batch tensor in place.
  BatchLoader(const SampleSource& source, std::size_t feature_dim,
              std::vector<SampleId> order, std::size_t batch_size,
              std::size_t prefetch_depth = 2);
  ~BatchLoader();
  BatchLoader(const BatchLoader&) = delete;
  BatchLoader& operator=(const BatchLoader&) = delete;

  /// Number of (full) batches this epoch.
  [[nodiscard]] std::size_t num_batches() const { return num_batches_; }

  /// Blocking: returns the next batch, or nullopt once the epoch is
  /// exhausted. Batches arrive strictly in order.
  std::optional<Batch> next();

 private:
  void start_producer();
  void producer_loop();
  [[nodiscard]] Batch assemble(std::size_t b) const;

  const InMemoryDataset* dataset_ = nullptr;
  const SampleSource* source_ = nullptr;  // store-backed mode when set
  std::size_t feature_dim_ = 0;           // row width in store-backed mode
  std::vector<SampleId> order_;
  std::size_t batch_size_;
  std::size_t prefetch_depth_;
  std::size_t num_batches_;

  RankedMutex mu_{LockRank::kBatchLoader, "data.batch_loader"};
  std::condition_variable_any cv_;
  std::deque<Batch> queue_;
  std::size_t produced_ = 0;
  std::size_t consumed_ = 0;
  bool stop_ = false;
  std::thread producer_;
};

}  // namespace dshuf::data
