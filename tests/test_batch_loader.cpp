#include "data/batch_loader.hpp"

#include <sched.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "io/file_store.hpp"
#include "io/mmap_store.hpp"

namespace dshuf::data {
namespace {

InMemoryDataset make_ds() {
  return make_class_clusters({.num_classes = 4,
                              .samples_per_class = 16,
                              .feature_dim = 5,
                              .seed = 2});
}

std::vector<SampleId> iota_order(std::size_t n) {
  std::vector<SampleId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<SampleId>(i);
  return order;
}

TEST(BatchLoader, YieldsSameBatchesAsDirectGather) {
  const auto ds = make_ds();
  const auto order = iota_order(ds.size());
  BatchLoader loader(ds, order, 8);
  EXPECT_EQ(loader.num_batches(), 8U);
  for (std::size_t b = 0; b < 8; ++b) {
    auto batch = loader.next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->index, b);
    const std::span<const SampleId> ids(order.data() + b * 8, 8);
    const Tensor expected = ds.gather(ids);
    EXPECT_EQ(batch->features.vec(), expected.vec());
    EXPECT_EQ(batch->labels, ds.gather_labels(ids));
  }
  EXPECT_FALSE(loader.next().has_value());
  EXPECT_FALSE(loader.next().has_value());  // stays exhausted
}

TEST(BatchLoader, DropLastSemantics) {
  const auto ds = make_ds();  // 64 samples
  BatchLoader loader(ds, iota_order(ds.size()), 10);
  EXPECT_EQ(loader.num_batches(), 6U);  // 64 / 10, last 4 dropped
  std::size_t count = 0;
  while (loader.next()) ++count;
  EXPECT_EQ(count, 6U);
}

TEST(BatchLoader, BatchLargerThanOrderYieldsNothing) {
  const auto ds = make_ds();
  BatchLoader loader(ds, iota_order(4), 8);
  EXPECT_EQ(loader.num_batches(), 0U);
  EXPECT_FALSE(loader.next().has_value());
}

TEST(BatchLoader, SlowConsumerDoesNotLoseBatches) {
  const auto ds = make_ds();
  BatchLoader loader(ds, iota_order(ds.size()), 4, /*prefetch_depth=*/2);
  std::size_t seen = 0;
  while (auto batch = loader.next()) {
    EXPECT_EQ(batch->index, seen);
    ++seen;
    if (seen % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(seen, 16U);
}

TEST(BatchLoader, DestructorJoinsWithUnconsumedBatches) {
  const auto ds = make_ds();
  // Construct and immediately destroy with the producer mid-flight.
  for (int i = 0; i < 20; ++i) {
    BatchLoader loader(ds, iota_order(ds.size()), 4);
    if (i % 2 == 0) loader.next();  // sometimes consume one
  }
  SUCCEED();
}

TEST(BatchLoader, RejectsZeroBatch) {
  const auto ds = make_ds();
  EXPECT_THROW(BatchLoader(ds, iota_order(8), 0), CheckError);
}

// Store-backed assembly: rows decoded from a SampleSource's zero-copy
// span reads must be bit-identical to gathering the same ids straight
// from the dataset — for both SampleStore implementations.
TEST(BatchLoader, StoreBackedBatchesMatchDirectGather) {
  namespace fs = std::filesystem;
  const auto ds = make_ds();
  const auto order = iota_order(ds.size());
  const fs::path root =
      fs::temp_directory_path() /
      ("dshuf_loader_store_" + std::to_string(::getpid()));
  fs::remove_all(root);

  const auto check = [&](const SampleSource& source) {
    BatchLoader loader(source, ds.feature_dim(), order, 8);
    for (std::size_t b = 0; b < loader.num_batches(); ++b) {
      auto batch = loader.next();
      ASSERT_TRUE(batch.has_value());
      const std::span<const SampleId> ids(order.data() + b * 8, 8);
      EXPECT_EQ(batch->features.vec(), ds.gather(ids).vec());
      EXPECT_EQ(batch->labels, ds.gather_labels(ids));
    }
    EXPECT_FALSE(loader.next().has_value());
  };

  {
    io::FileSampleStore store(root / "file");
    for (SampleId id = 0; id < ds.size(); ++id) {
      store.save(id, io::serialize_sample(ds, id));
    }
    check(store);
  }
  {
    io::MmapSampleStore store(root / "mmap");
    for (SampleId id = 0; id < ds.size(); ++id) {
      store.save(id, io::serialize_sample(ds, id));
    }
    check(store);
  }
  fs::remove_all(root);
}

TEST(BatchLoader, RespectsCustomOrder) {
  const auto ds = make_ds();
  std::vector<SampleId> order{5, 3, 9, 1};
  BatchLoader loader(ds, order, 2);
  auto b0 = loader.next();
  ASSERT_TRUE(b0.has_value());
  EXPECT_EQ(b0->labels[0], ds.label(5));
  EXPECT_EQ(b0->labels[1], ds.label(3));
  auto b1 = loader.next();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->labels[0], ds.label(9));
}

TEST(ProducerCpus, DropsOnlyTheConsumersCpu) {
  EXPECT_EQ(producer_cpus(std::vector<int>{0, 1}, 0), std::vector<int>{1});
  EXPECT_EQ(producer_cpus(std::vector<int>{2, 3}, 3), std::vector<int>{2});
  EXPECT_EQ(producer_cpus(std::vector<int>{0, 1, 2, 3}, 2),
            (std::vector<int>{0, 1, 3}));
}

TEST(ProducerCpus, NoPinWhenNothingWouldChange) {
  EXPECT_TRUE(producer_cpus(std::vector<int>{5}, 5).empty());  // one CPU
  EXPECT_TRUE(producer_cpus(std::vector<int>{}, 0).empty());
  // Consumer CPU unknown (sched_getcpu failed) or outside the mask.
  EXPECT_TRUE(producer_cpus(std::vector<int>{0, 1}, -1).empty());
  EXPECT_TRUE(producer_cpus(std::vector<int>{0, 1}, 7).empty());
}

std::vector<int> cpus_of(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus;
}

std::vector<int> this_thread_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return cpus_of(mask);
}

void bind_this_thread(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) CPU_SET(c, &mask);
  ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
}

// One-sample source (feature_dim 1) that records the CPUs its reader —
// the loader's producer thread — is allowed to run on.
class AffinityProbe final : public SampleSource {
 public:
  void read(SampleId /*id*/, ReadFn fn) const override {
    reader_cpus_ = this_thread_cpus();
    std::array<std::byte, sizeof(std::uint32_t) + sizeof(float)> payload{};
    fn(payload);
  }
  std::size_t size() const override { return 1; }
  bool contains(SampleId id) const override { return id == 0; }
  std::vector<int> reader_cpus() const { return reader_cpus_; }

 private:
  mutable std::vector<int> reader_cpus_;
};

std::vector<int> producer_cpus_when_consumer_on(const std::vector<int>& cpus) {
  bind_this_thread(cpus);
  AffinityProbe probe;
  BatchLoader loader(probe, 1, {0}, 1);
  EXPECT_TRUE(loader.next().has_value());  // read happened before this
  return probe.reader_cpus();
}

TEST(BatchLoader, ProducerRunsOffTheConsumersCpu) {
  const std::vector<int> allowed = this_thread_cpus();
  if (allowed.size() < 2) GTEST_SKIP() << "needs two allowed CPUs";
  const std::vector<int> pair{allowed[0], allowed[1]};

  // Two CPUs: the producer gets the one the consumer was not on.
  const std::vector<int> two = producer_cpus_when_consumer_on(pair);
  ASSERT_EQ(two.size(), 1U);
  EXPECT_TRUE(two[0] == pair[0] || two[0] == pair[1]);
  // One CPU: the producer inherits it unchanged.
  EXPECT_EQ(producer_cpus_when_consumer_on({pair[0]}),
            std::vector<int>{pair[0]});
  bind_this_thread(allowed);
}

}  // namespace
}  // namespace dshuf::data
