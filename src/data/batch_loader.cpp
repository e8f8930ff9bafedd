#include "data/batch_loader.hpp"

#include <cstring>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace dshuf::data {

namespace {

/// producer_cpus for the calling thread; empty when the OS cannot say.
std::vector<int> producer_cpus_for_this_thread() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return {};
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) allowed.push_back(c);
  }
  return producer_cpus(allowed, sched_getcpu());
#else
  return {};
#endif
}

/// Bind the calling thread to `cpus`; a failed call leaves it unbound.
void bind_this_thread(const std::vector<int>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) CPU_SET(static_cast<unsigned>(c), &mask);
  pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
#else
  (void)cpus;
#endif
}

}  // namespace

std::vector<int> producer_cpus(std::span<const int> allowed,
                               int consumer_cpu) {
  std::vector<int> out;
  for (const int c : allowed) {
    if (c != consumer_cpu) out.push_back(c);
  }
  if (out.empty() || out.size() == allowed.size()) return {};
  return out;
}

BatchLoader::BatchLoader(const InMemoryDataset& dataset,
                         std::vector<SampleId> order, std::size_t batch_size,
                         std::size_t prefetch_depth)
    : dataset_(&dataset),
      order_(std::move(order)),
      batch_size_(batch_size),
      prefetch_depth_(std::max<std::size_t>(1, prefetch_depth)),
      num_batches_(batch_size == 0 ? 0 : order_.size() / batch_size) {
  DSHUF_CHECK_GT(batch_size, 0U, "batch size must be positive");
  start_producer();
}

BatchLoader::BatchLoader(const SampleSource& source, std::size_t feature_dim,
                         std::vector<SampleId> order, std::size_t batch_size,
                         std::size_t prefetch_depth)
    : source_(&source),
      feature_dim_(feature_dim),
      order_(std::move(order)),
      batch_size_(batch_size),
      prefetch_depth_(std::max<std::size_t>(1, prefetch_depth)),
      num_batches_(batch_size == 0 ? 0 : order_.size() / batch_size) {
  DSHUF_CHECK_GT(batch_size, 0U, "batch size must be positive");
  DSHUF_CHECK_GT(feature_dim, 0U, "feature dim must be positive");
  start_producer();
}

void BatchLoader::start_producer() {
  // Read on the consumer (this thread), applied by the producer before
  // its first batch.
  producer_ = std::thread([this, cpus = producer_cpus_for_this_thread()] {
    bind_this_thread(cpus);
    producer_loop();
  });
}

BatchLoader::~BatchLoader() {
  {
    std::lock_guard<RankedMutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

BatchLoader::Batch BatchLoader::assemble(std::size_t b) const {
  const std::span<const SampleId> ids(order_.data() + b * batch_size_,
                                      batch_size_);
  Batch batch;
  batch.index = b;
  if (dataset_ != nullptr) {
    batch.features = dataset_->gather(ids);
    batch.labels = dataset_->gather_labels(ids);
    return batch;
  }
  // Store-backed: decode each serialized row (u32 label + floats — the
  // exchange wire format, mirroring io::deserialize_sample_into, which
  // dshuf_data cannot link without an io<->data cycle) straight into the
  // tensor row under the store's zero-copy span read.
  batch.features = Tensor({batch_size_, feature_dim_});
  batch.labels.resize(batch_size_);
  const std::size_t row_bytes =
      sizeof(std::uint32_t) + feature_dim_ * sizeof(float);
  for (std::size_t i = 0; i < batch_size_; ++i) {
    float* row = batch.features.data() + i * feature_dim_;
    std::uint32_t label = 0;
    source_->read(ids[i], [&](std::span<const std::byte> p) {
      DSHUF_CHECK_EQ(p.size(), row_bytes,
                     "sample " << ids[i] << " payload does not match row");
      std::memcpy(&label, p.data(), sizeof(label));
      std::memcpy(row, p.data() + sizeof(label),
                  feature_dim_ * sizeof(float));
    });
    batch.labels[i] = label;
  }
  return batch;
}

void BatchLoader::producer_loop() {
  for (std::size_t b = 0; b < num_batches_; ++b) {
    // Assemble outside the lock — this is the work being overlapped.
    const std::uint64_t assemble_start = obs::obs_clock().now_us();
    Batch batch = assemble(b);
    DSHUF_HISTOGRAM_US("data.batch_loader.assemble_us")
        .observe(obs::obs_clock().now_us() - assemble_start);

    std::unique_lock<RankedMutex> lk(mu_);
    cv_.wait(lk, [&] {
      return stop_ || queue_.size() < prefetch_depth_;
    });
    if (stop_) return;
    queue_.push_back(std::move(batch));
    ++produced_;
    DSHUF_GAUGE("data.batch_loader.queue_depth")
        .set(static_cast<std::int64_t>(queue_.size()));
    lk.unlock();
    cv_.notify_all();
  }
}

std::optional<BatchLoader::Batch> BatchLoader::next() {
  const std::uint64_t wait_start = obs::obs_clock().now_us();
  std::unique_lock<RankedMutex> lk(mu_);
  if (consumed_ >= num_batches_) return std::nullopt;
  cv_.wait(lk, [&] { return !queue_.empty(); });
  Batch batch = std::move(queue_.front());
  queue_.pop_front();
  ++consumed_;
  DSHUF_GAUGE("data.batch_loader.queue_depth")
      .set(static_cast<std::int64_t>(queue_.size()));
  lk.unlock();
  cv_.notify_all();
  DSHUF_HISTOGRAM_US("data.batch_loader.wait_us")
      .observe(obs::obs_clock().now_us() - wait_start);
  return batch;
}

}  // namespace dshuf::data
