// Randomized differential suite for the two io::SampleStore
// implementations: FileSampleStore (one file per sample — the simple,
// debuggable reference) and MmapSampleStore (segment log + epoch
// reclamation). Identical schedules of
// save / overwrite / load / remove / list / disk_bytes must produce
// bit-identical observable state on every arm — including live through a
// fault-injected PLS exchange with mid-exchange removal
// (clean_local_storage while retried/duplicated frames are in flight).
// The file arm is also the reference for the mmap store's crash images:
// copies of its directory taken after every operation, and cut at every
// record boundary of the log's unfinished epoch, must reopen to the
// reference state.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "chaos_harness.hpp"
#include "io/file_store.hpp"
#include "io/mmap_store.hpp"
#include "obs/metrics.hpp"
#include "shuffle/store_hooks.hpp"
#include "util/error.hpp"

namespace dshuf::io {
namespace {

namespace fs = std::filesystem;

struct Arm {
  std::string name;
  std::unique_ptr<SampleStore> store;
};

fs::path fresh_root(const std::string& tag) {
  const fs::path root =
      fs::temp_directory_path() /
      ("dshuf_differential_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(root);
  return root;
}

/// Both interchangeable store arms rooted under `root`: the file store and
/// the mmap store (small segments so schedules cross segment boundaries
/// and trigger reclamation/compaction).
std::vector<Arm> make_arms(const fs::path& root) {
  std::vector<Arm> arms;
  arms.push_back({"file", std::make_unique<FileSampleStore>(root / "file")});
  MmapStoreConfig cfg;
  cfg.dir = root / "mmap";
  cfg.segment_bytes = 4096;
  arms.push_back({"mmap", std::make_unique<MmapSampleStore>(cfg)});
  return arms;
}

/// Full observable state of one arm: ascending ids, each id's payload,
/// and the live-byte accounting.
struct Snapshot {
  std::vector<data::SampleId> ids;
  std::map<data::SampleId, std::vector<std::byte>> payloads;
  std::size_t disk_bytes = 0;
  std::size_t size = 0;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const SampleStore& store) {
  Snapshot s;
  s.ids = store.list();
  for (const auto id : s.ids) {
    std::vector<std::byte> p;
    store.load_into(id, p);
    s.payloads.emplace(id, std::move(p));
  }
  s.disk_bytes = store.disk_bytes();
  s.size = store.size();
  return s;
}

void expect_same_state(const Snapshot& got, const Snapshot& ref,
                       const std::string& context) {
  EXPECT_EQ(got.ids, ref.ids) << context;
  EXPECT_EQ(got.disk_bytes, ref.disk_bytes) << context << " disk_bytes";
  EXPECT_EQ(got.size, ref.size) << context;
  ASSERT_EQ(got.payloads.size(), ref.payloads.size()) << context;
  for (const auto& [id, p] : ref.payloads) {
    const auto it = got.payloads.find(id);
    ASSERT_NE(it, got.payloads.end()) << context << ": id " << id;
    EXPECT_EQ(it->second, p) << context << ": payload of id " << id;
  }
}

void expect_arms_identical(const std::vector<Arm>& arms,
                           const std::string& context) {
  ASSERT_GE(arms.size(), 2U);
  const Snapshot ref = snapshot(*arms[0].store);
  for (std::size_t a = 1; a < arms.size(); ++a) {
    expect_same_state(snapshot(*arms[a].store), ref,
                      context + ": " + arms[a].name + " vs " + arms[0].name);
  }
}

// The SampleSource::read contract: the callback runs without the store
// lock, so it may reenter the store — the exchange deposit path saves
// into the same store from inside a read. Every arm must honour it
// (holding the lock across the callback deadlocks or rank-faults here).
TEST(StoreDifferential, ReadCallbackMayReenterEveryArm) {
  const fs::path root = fresh_root("reenter");
  auto arms = make_arms(root);
  const std::vector<std::byte> a(32, std::byte{0x11});
  const std::vector<std::byte> b(48, std::byte{0x22});
  for (auto& arm : arms) {
    arm.store->save(1, a);
    bool called = false;
    arm.store->read(1, [&](std::span<const std::byte> got) {
      called = true;
      ASSERT_EQ(got.size(), a.size()) << arm.name;
      EXPECT_EQ(std::memcmp(got.data(), a.data(), a.size()), 0) << arm.name;
      // Reentrant deposit, lookup and payload load from the callback.
      arm.store->save(2, b);
      EXPECT_TRUE(arm.store->contains(1)) << arm.name;
      std::vector<std::byte> out;
      arm.store->load_into(2, out);
      EXPECT_EQ(out, b) << arm.name;
    });
    EXPECT_TRUE(called) << arm.name;
    EXPECT_EQ(arm.store->size(), 2U) << arm.name;
  }
  expect_arms_identical(arms, "after reentrant reads");
  for (auto& arm : arms) arm.store.reset();
  fs::remove_all(root);
}

TEST(StoreDifferential, RandomSchedulesProduceIdenticalState) {
  for (const std::uint64_t seed : {3ULL, 41ULL, 20'26ULL}) {
    const fs::path root = fresh_root("sched" + std::to_string(seed));
    auto arms = make_arms(root);
    std::mt19937_64 rng(seed);
    std::vector<data::SampleId> live;

    for (int op = 0; op < 2'000; ++op) {
      const auto roll = rng() % 100;
      if (roll < 55 || live.empty()) {
        // save (new id or overwrite)
        const auto id = static_cast<data::SampleId>(rng() % 512);
        std::vector<std::byte> p(1 + rng() % 96);
        for (auto& b : p) b = static_cast<std::byte>(rng() & 0xFF);
        bool existed = false;
        for (auto& a : arms) {
          existed = a.store->contains(id);
          a.store->save(id, p);
        }
        if (!existed) live.push_back(id);
      } else if (roll < 80) {
        // remove a random live id
        const std::size_t j = rng() % live.size();
        const auto id = live[j];
        for (auto& a : arms) a.store->remove(id);
        live[j] = live.back();
        live.pop_back();
      } else if (roll < 90) {
        // point read of a random live id
        const auto id = live[rng() % live.size()];
        std::vector<std::byte> ref;
        arms[0].store->load_into(id, ref);
        for (std::size_t a = 1; a < arms.size(); ++a) {
          std::vector<std::byte> got;
          arms[a].store->load_into(id, got);
          ASSERT_EQ(got, ref) << arms[a].name << " id " << id;
        }
      } else {
        // epoch boundary: reclaim the mmap arms (no-op for the file arm);
        // must never change observable state.
        for (auto& a : arms) {
          if (auto* ms = dynamic_cast<MmapSampleStore*>(a.store.get())) {
            ms->advance_epoch();
          }
        }
      }
      if (op % 250 == 0) {
        expect_arms_identical(arms, "seed " + std::to_string(seed) +
                                        " op " + std::to_string(op));
      }
    }
    expect_arms_identical(arms, "seed " + std::to_string(seed) + " final");
    arms.clear();
    fs::remove_all(root);
  }
}

TEST(StoreDifferential, RemoveAllThenRefillMatches) {
  const fs::path root = fresh_root("refill");
  auto arms = make_arms(root);
  for (data::SampleId id = 0; id < 300; ++id) {
    std::vector<std::byte> p(1 + id % 64, static_cast<std::byte>(id & 0xFF));
    for (auto& a : arms) a.store->save(id, p);
  }
  for (data::SampleId id = 0; id < 300; ++id) {
    for (auto& a : arms) a.store->remove(id);
  }
  for (auto& a : arms) {
    EXPECT_EQ(a.store->disk_bytes(), 0U) << a.name;
    EXPECT_TRUE(a.store->list().empty()) << a.name;
  }
  for (data::SampleId id = 500; id < 700; ++id) {
    std::vector<std::byte> p(1 + id % 32, static_cast<std::byte>(id & 0xFF));
    for (auto& a : arms) a.store->save(id, p);
  }
  expect_arms_identical(arms, "refill");
  arms.clear();
  fs::remove_all(root);
}

// Mid-exchange removal under chaos faults: each arm runs the SAME
// fault-injected exchange (delay + reorder + duplicate; no drops, so the
// schedule of shard mutations is deterministic), with payloads flowing
// through the arm's store and clean_local_storage removing transmitted
// samples between epochs — while duplicated/late frames of those very
// samples are still bouncing through the comm layer. Every arm must end
// with bit-identical store contents.
TEST(StoreDifferential, ChaosExchangeWithMidEpochRemovalMatches) {
  constexpr int kRanks = 4;
  constexpr std::size_t kN = 96;
  constexpr double kQ = 0.5;
  constexpr std::size_t kEpochs = 3;
  constexpr std::uint64_t kSeed = 77;

  comm::FaultSpec spec;
  spec.delay_prob = 0.5;
  spec.min_delay_us = 100;
  spec.max_delay_us = 5'000;
  spec.dup_prob = 0.25;

  // Payload = 64 deterministic bytes per id.
  auto payload_of = [](data::SampleId id) {
    std::vector<std::byte> p(64);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>((id * 37 + i) & 0xFF);
    }
    return p;
  };

  std::vector<Snapshot> per_arm_final;  // [arm][rank] flattened
  std::vector<std::string> arm_names;

  const fs::path root = fresh_root("chaos");
  for (auto& arm_proto : make_arms(root)) {
    arm_names.push_back(arm_proto.name);
  }

  for (std::size_t arm_idx = 0; arm_idx < arm_names.size(); ++arm_idx) {
    const fs::path arm_root = root / ("arm" + std::to_string(arm_idx));
    // One store per rank, same backend across ranks for this arm.
    std::vector<std::unique_ptr<SampleStore>> rank_stores;
    for (int r = 0; r < kRanks; ++r) {
      auto arms = make_arms(arm_root / ("rank" + std::to_string(r)));
      rank_stores.push_back(std::move(arms[arm_idx].store));
    }

    auto shards = chaos::make_shards(kN, kRanks);
    const std::size_t shard = shards[0].size();
    const std::size_t quota = shuffle::exchange_quota(shard, kQ);
    std::vector<shuffle::ShardStore> stores;
    for (int r = 0; r < kRanks; ++r) {
      for (const auto id : shards[static_cast<std::size_t>(r)]) {
        rank_stores[static_cast<std::size_t>(r)]->save(id, payload_of(id));
      }
      stores.emplace_back(std::move(shards[static_cast<std::size_t>(r)]),
                          shard + quota);
    }

    const auto robust = chaos::default_robustness();
    comm::World world(kRanks);
    world.set_fault_plan(comm::FaultPlan(kSeed, spec));
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      world.run([&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        SampleStore& file_store = *rank_stores[r];
        const auto payload = shuffle::make_store_payload_fn(file_store);
        const auto deposit = shuffle::make_store_deposit_fn(file_store);
        shuffle::run_pls_exchange_epoch(c, stores[r], kSeed, epoch, kQ,
                                        shard, payload, deposit, &robust);
        // clean_local_storage with retries/dups still in flight: remove
        // every transmitted sample from the payload store.
        for (const auto id : file_store.list()) {
          bool held = false;
          for (const auto sid : stores[r].ids()) {
            if (sid == id) {
              held = true;
              break;
            }
          }
          if (!held) file_store.remove(id);
        }
        if (auto* ms = dynamic_cast<MmapSampleStore*>(&file_store)) {
          ms->advance_epoch();
        }
        shuffle::post_exchange_local_shuffle(kSeed, epoch, c.rank(),
                                             stores[r].mutable_ids());
      });
    }

    for (int r = 0; r < kRanks; ++r) {
      per_arm_final.push_back(
          snapshot(*rank_stores[static_cast<std::size_t>(r)]));
      // Store contents must agree with the id store: same ids, and every
      // payload intact after all the moves.
      const auto& ids = stores[static_cast<std::size_t>(r)].ids();
      std::vector<data::SampleId> sorted(ids.begin(), ids.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(per_arm_final.back().ids, sorted)
          << arm_names[arm_idx] << " rank " << r;
      for (const auto& [id, p] : per_arm_final.back().payloads) {
        EXPECT_EQ(p, payload_of(id))
            << arm_names[arm_idx] << " rank " << r << " id " << id;
      }
    }
  }

  // Cross-arm: identical final state per rank on every arm.
  const std::size_t per_arm = kRanks;
  for (std::size_t a = 1; a < arm_names.size(); ++a) {
    for (std::size_t r = 0; r < per_arm; ++r) {
      EXPECT_EQ(per_arm_final[a * per_arm + r], per_arm_final[r])
          << arm_names[a] << " rank " << r << " diverged from "
          << arm_names[0];
    }
  }
  fs::remove_all(root);
}

// ------------------------------------------------------ crash images ---

/// The mmap arm's segment files, by sequence number.
std::map<std::size_t, fs::path> segment_files(const fs::path& dir) {
  std::map<std::size_t, fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename();
    files.emplace(std::stoul(name.substr(3, 8)), e.path());
  }
  return files;
}

/// Where each record of a segment file's log ends, in order, up to the
/// first zero header (the on-disk format in io/mmap_store.hpp).
std::vector<std::size_t> record_ends(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  while (off + 8 <= bytes.size()) {
    std::uint32_t enc = 0;
    std::memcpy(&enc, bytes.data() + off, sizeof(enc));
    if (enc == 0) break;
    off += 8 + (enc == 0xFFFFFFFFU ? 0 : enc - 1);
    ends.push_back(off);
  }
  return ends;
}

/// Reopen a crash image of the mmap arm and snapshot it.
Snapshot reopen_image(const fs::path& image) {
  MmapStoreConfig cfg;
  cfg.dir = image;
  cfg.segment_bytes = 4096;
  const MmapSampleStore store(cfg);
  return snapshot(store);
}

/// Seeded save / overwrite / remove / advance_epoch schedule over both
/// arms. Payloads of 1..400 bytes (a few oversized) in 4 KiB segments, so
/// segments die, are recycled and compacted within a few epochs. `after`
/// runs after every operation with the operation's kind.
enum class Op { kSave, kRemove, kAdvance };
template <typename After>
void run_crash_schedule(std::uint64_t seed, std::vector<Arm>& arms,
                        After&& after) {
  std::mt19937_64 rng(seed);
  std::vector<data::SampleId> live;
  for (int op = 0; op < 400; ++op) {
    const auto roll = rng() % 100;
    if (roll < 55 || live.empty()) {
      const auto id = static_cast<data::SampleId>(rng() % 64);
      const std::size_t len = rng() % 50 == 0 ? 5'000 : 1 + rng() % 400;
      std::vector<std::byte> p(len);
      for (auto& b : p) b = static_cast<std::byte>(rng() & 0xFF);
      bool existed = false;
      for (auto& a : arms) {
        existed = a.store->contains(id);
        a.store->save(id, p);
      }
      if (!existed) live.push_back(id);
      after(Op::kSave);
    } else if (roll < 85) {
      const std::size_t j = rng() % live.size();
      for (auto& a : arms) a.store->remove(live[j]);
      live[j] = live.back();
      live.pop_back();
      after(Op::kRemove);
    } else {
      for (auto& a : arms) {
        if (auto* ms = dynamic_cast<MmapSampleStore*>(a.store.get())) {
          ms->advance_epoch();
        }
      }
      after(Op::kAdvance);
    }
  }
}

// A killed process leaves exactly the MAP_SHARED bytes it wrote, so a
// plain copy of the store directory is a crash image. After every
// operation — including advance_epoch, which recycles dead segments that
// still hold their previous life's records past the new end of log — the
// image must reopen to the reference arm's state.
TEST(StoreDifferential, CrashImagesReopenToTheReferenceState) {
  const obs::Counter& recycled =
      obs::Registry::instance().counter("store.segments_recycled");
  const std::uint64_t recycled_before = recycled.value();
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    const fs::path root = fresh_root("crash" + std::to_string(seed));
    const fs::path image = root / "image";
    auto arms = make_arms(root);
    int op = 0;
    run_crash_schedule(seed, arms, [&](Op) {
      fs::remove_all(image);
      fs::copy(root / "mmap", image);
      expect_same_state(reopen_image(image), snapshot(*arms[0].store),
                        "seed " + std::to_string(seed) + " op " +
                            std::to_string(op++));
    });
    arms.clear();
    fs::remove_all(root);
  }
  EXPECT_GT(recycled.value(), recycled_before) << "no segment was recycled";
}

// Between two advance_epoch calls every save or remove appends exactly one
// record to the newest segment, so a crash mid-append loses a suffix of
// the records written since the last advance. Cut the crash image at
// every record boundary of that suffix — truncate the segment the cut
// falls in, drop the newer files — and it must reopen to the reference
// state after the matching prefix of operations: no removed or
// overwritten id comes back, and nothing later leaks in.
TEST(StoreDifferential, TornLogSuffixesReopenToAHistoryPrefix) {
  for (const std::uint64_t seed : {5ULL, 77ULL}) {
    const fs::path root = fresh_root("torn" + std::to_string(seed));
    const fs::path image = root / "image";
    auto arms = make_arms(root);
    // Reference states since the last advance; the log position then.
    std::vector<Snapshot> history{snapshot(*arms[0].store)};
    std::size_t mark_seq = 0;
    std::size_t mark_off = 0;
    int epoch = 0;

    auto check_cuts = [&] {
      const auto files = segment_files(root / "mmap");
      std::size_t records = 0;  // appended since the mark, before the cut
      for (auto it = files.lower_bound(mark_seq); it != files.end(); ++it) {
        const std::size_t start = it->first == mark_seq ? mark_off : 0;
        std::vector<std::size_t> cuts{start};
        for (const std::size_t end : record_ends(it->second)) {
          if (end > start) cuts.push_back(end);
        }
        for (std::size_t c = 0; c < cuts.size(); ++c) {
          if (c > 0) ++records;
          fs::remove_all(image);
          fs::copy(root / "mmap", image);
          fs::resize_file(image / it->second.filename(), cuts[c]);
          for (auto newer = std::next(it); newer != files.end(); ++newer) {
            fs::remove(image / newer->second.filename());
          }
          ASSERT_LT(records, history.size());
          expect_same_state(reopen_image(image), history[records],
                            "seed " + std::to_string(seed) + " epoch " +
                                std::to_string(epoch) + " after " +
                                std::to_string(records) + " records");
        }
      }
      EXPECT_EQ(records + 1, history.size()) << "one record per operation";
    };

    run_crash_schedule(seed, arms, [&](Op kind) {
      if (kind != Op::kAdvance) {
        history.push_back(snapshot(*arms[0].store));
        check_cuts();
        return;
      }
      // advance_epoch rewrites several files at once: start a new suffix
      // at the newest segment's end of log.
      ++epoch;
      history.assign(1, snapshot(*arms[0].store));
      const auto files = segment_files(root / "mmap");
      mark_seq = files.empty() ? 0 : files.rbegin()->first;
      const auto ends =
          files.empty() ? std::vector<std::size_t>{}
                        : record_ends(files.rbegin()->second);
      mark_off = ends.empty() ? 0 : ends.back();
    });
    arms.clear();
    fs::remove_all(root);
  }
}

}  // namespace
}  // namespace dshuf::io
