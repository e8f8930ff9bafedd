// bench_shard: records the million-sample shard storage baseline.
//
// Two arms over identical workloads at n = 10^4, 10^5 and (full runs)
// 10^6 samples of 128-byte payloads:
//
//   * file:          FileSampleStore — one file per sample, the paper's
//     supported layout. Every load pays an open/read/close metadata round
//     trip, which is what makes million-sample shards hopeless on it.
//   * mmap:          MmapSampleStore — append-allocated segment files,
//     zero-copy span reads, epoch-based reclamation.
//
// Per arm and size it measures insert / lookup (load_into, the PayloadFn
// shape) / sequential scan (read() spans) / remove throughput plus the
// resident and live-payload footprints. The lookup phase runs as
// kLookupTrials trials per arm, alternating file and mmap so machine-load
// drift hits both arms; lookup_sps is each arm's median trial, and the
// mmap arm records the median, min and max of the per-trial load ratio.
// The mmap arm also runs a rewrite row on a fresh store: repeated
// full-rewrite epochs (save n new ids, remove the previous n,
// advance_epoch — a Q = 1 reshuffle's store traffic), reporting
// steady-state save throughput and segment files created per
// steady-state epoch. This TU replaces global operator new
// with a counting wrapper so the lookup column also reports exact heap
// allocations per op — the mmap arm must show 0 in steady state. --out
// writes BENCH_shard.json (schema dshuf.bench_shard.v4); --check re-reads
// a written file and enforces the acceptance floor — the mmap arm's median
// load ratio must be >= 10x FileSampleStore's at the largest recorded size,
// where its rewrite epochs must also create no segment files once warm
// (dead segments are recycled) — which is the CI perf-smoke gate. Absolute
// throughput on shared runners is informational; the ratio is the
// contract (and on a real PFS the per-file metadata latency only widens
// it).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "io/file_store.hpp"
#include "io/mmap_store.hpp"
#include "obs/metrics.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dshuf;

namespace fs = std::filesystem;

constexpr std::size_t kPayloadBytes = 128;
constexpr std::size_t kLookupOps = 100'000;   // per trial; multiplicative hash
constexpr std::size_t kLookupTrials = 5;
constexpr std::size_t kScanOpsCap = 200'000;  // sequential id prefix
constexpr std::size_t kRemoveOpsCap = 50'000;
constexpr std::size_t kWarmupOps = 2'000;
constexpr std::size_t kRewriteWarmupEpochs = 4;
constexpr std::size_t kRewriteEpochs = 6;

struct ArmResult {
  std::string arm;
  std::size_t n = 0;
  double insert_sps = 0.0;  // samples/s
  std::vector<double> lookup_trial_sps;  // one per lookup trial
  double lookup_sps = 0.0;               // median of lookup_trial_sps
  double lookup_allocs_per_op = 0.0;     // over every trial
  double scan_sps = 0.0;
  double remove_sps = 0.0;
  std::size_t resident_bytes = 0;  // mapped footprint (file arm: disk)
  std::size_t disk_bytes = 0;      // live payload bytes
  // Filled for the mmap arm: median, min and max over the per-trial
  // ratios mmap lookup_trial_sps[t] / file lookup_trial_sps[t].
  double load_ratio_vs_file = 0.0;
  double load_ratio_min = 0.0;
  double load_ratio_max = 0.0;
  double rewrite_save_sps = 0.0;    // mmap arm: steady-state rewrite saves
  double rewrite_files_created_per_epoch = 0.0;  // mmap arm
};

void fill_payload(data::SampleId id, std::vector<std::byte>& buf) {
  buf.resize(kPayloadBytes);
  for (std::size_t b = 0; b < kPayloadBytes; ++b) {
    buf[b] = static_cast<std::byte>((id * 131U + b) & 0xFF);
  }
}

double median(std::vector<double> v) {
  DSHUF_CHECK(!v.empty(), "median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Inserts ids [0, n) into `store` and warms the lookup path.
void fill(io::SampleStore& store, std::size_t n, ArmResult& res) {
  res.n = n;
  std::vector<std::byte> buf;
  buf.reserve(kPayloadBytes);
  Stopwatch sw;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<data::SampleId>(i);
    fill_payload(id, buf);
    store.save(id, buf);
  }
  res.insert_sps = static_cast<double>(n) / sw.seconds();

  std::vector<std::byte> sink;
  sink.reserve(kPayloadBytes);
  for (std::size_t i = 0; i < kWarmupOps; ++i) {
    sink.clear();
    store.load_into(static_cast<data::SampleId>(i % n), sink);
    DSHUF_CHECK_EQ(sink.size(), kPayloadBytes, "short payload");
  }
}

/// One lookup trial: load_into with a reused sink — the exact PayloadFn
/// call shape the exchange uses to stream a sample into a wire frame.
/// Appends the trial's rate and adds its allocations to
/// lookup_allocs_per_op.
void lookup_trial(io::SampleStore& store, ArmResult& res) {
  const std::size_t n = res.n;
  std::vector<std::byte> sink;
  sink.reserve(kPayloadBytes);
  std::uint64_t checksum = 0;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  Stopwatch sw;
  for (std::size_t i = 0; i < kLookupOps; ++i) {
    const auto id = static_cast<data::SampleId>((i * 2'654'435'761U) % n);
    sink.clear();
    store.load_into(id, sink);
    checksum += static_cast<std::uint8_t>(sink[0]) + 1U;
  }
  const double lookup_s = sw.seconds();
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);
  DSHUF_CHECK_GT(checksum, 0U, "lookups optimised away");
  res.lookup_trial_sps.push_back(static_cast<double>(kLookupOps) / lookup_s);
  res.lookup_allocs_per_op +=
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(kLookupOps * kLookupTrials);
}

/// The scan and remove phases; fills scan_sps, remove_sps and disk_bytes.
void scan_and_remove(io::SampleStore& store, ArmResult& res) {
  const std::size_t n = res.n;
  std::uint64_t checksum = 0;
  // Sequential scan over an id prefix through the zero-copy read() path.
  const std::size_t scan_n = std::min(n, kScanOpsCap);
  Stopwatch sw;
  for (std::size_t i = 0; i < scan_n; ++i) {
    store.read(static_cast<data::SampleId>(i),
               [&checksum](std::span<const std::byte> p) {
                 checksum += static_cast<std::uint8_t>(p[p.size() - 1]) + 1U;
               });
  }
  res.scan_sps = static_cast<double>(scan_n) / sw.seconds();

  res.disk_bytes = store.disk_bytes();

  // Removes last — they shrink the store. Spread across the id range so
  // the mmap arm quarantines from many segments, not one.
  const std::size_t remove_n = std::min(n, kRemoveOpsCap);
  const std::size_t stride = n / remove_n;
  sw.reset();
  for (std::size_t i = 0; i < remove_n; ++i) {
    store.remove(static_cast<data::SampleId>(i * stride));
  }
  res.remove_sps = static_cast<double>(remove_n) / sw.seconds();

  DSHUF_CHECK_GT(checksum, 0U, "scan optimised away");
}

/// Full-rewrite epochs on a fresh store: each epoch saves n ids, removes
/// the previous epoch's n and advances the epoch. The first
/// kRewriteWarmupEpochs fill the segment pool; the rest are measured.
void run_rewrite(const fs::path& dir, std::size_t n, ArmResult& res) {
  io::MmapSampleStore store(dir);
  const obs::Counter& created =
      obs::Registry::instance().counter("store.segments_created");
  std::vector<std::byte> buf;
  buf.reserve(kPayloadBytes);
  double save_s = 0.0;
  std::uint64_t created_before = 0;
  for (std::size_t e = 0; e < kRewriteWarmupEpochs + kRewriteEpochs; ++e) {
    if (e == kRewriteWarmupEpochs) created_before = created.value();
    const std::size_t first = (e % 2) * n;  // ids alternate between halves
    Stopwatch sw;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<data::SampleId>(first + i);
      fill_payload(id, buf);
      store.save(id, buf);
    }
    if (e >= kRewriteWarmupEpochs) save_s += sw.seconds();
    if (e > 0) {
      const std::size_t prev = n - first;
      for (std::size_t i = 0; i < n; ++i) {
        store.remove(static_cast<data::SampleId>(prev + i));
      }
    }
    store.advance_epoch();
  }
  res.rewrite_save_sps = static_cast<double>(n * kRewriteEpochs) / save_s;
  res.rewrite_files_created_per_epoch =
      static_cast<double>(created.value() - created_before) /
      static_cast<double>(kRewriteEpochs);
}

/// Both arms at shard size n: fills a file store and an mmap store,
/// alternates their lookup trials, then runs scan/remove on each and the
/// mmap arm's rewrite epochs on a fresh store.
std::vector<ArmResult> run_size(const fs::path& root, std::size_t n) {
  ArmResult file;
  file.arm = "file";
  ArmResult mmap;
  mmap.arm = "mmap";
  const fs::path mmap_dir = root / "mmap";
  {
    io::FileSampleStore file_store(root / "file");
    io::MmapSampleStore mmap_store(mmap_dir);
    fill(file_store, n, file);
    fill(mmap_store, n, mmap);
    for (std::size_t t = 0; t < kLookupTrials; ++t) {
      lookup_trial(file_store, file);
      lookup_trial(mmap_store, mmap);
    }
    scan_and_remove(file_store, file);
    scan_and_remove(mmap_store, mmap);
    file.resident_bytes = file_store.disk_bytes();
    mmap_store.advance_epoch();  // retire the removed slots' quarantine
    mmap.resident_bytes = mmap_store.resident_bytes();
  }
  file.lookup_sps = median(file.lookup_trial_sps);
  mmap.lookup_sps = median(mmap.lookup_trial_sps);
  std::vector<double> ratios;
  for (std::size_t t = 0; t < kLookupTrials; ++t) {
    ratios.push_back(mmap.lookup_trial_sps[t] / file.lookup_trial_sps[t]);
  }
  mmap.load_ratio_vs_file = median(ratios);
  mmap.load_ratio_min = *std::min_element(ratios.begin(), ratios.end());
  mmap.load_ratio_max = *std::max_element(ratios.begin(), ratios.end());
  fs::remove_all(mmap_dir);
  run_rewrite(mmap_dir, n, mmap);
  return {file, mmap};
}

std::string fmt(double v) {
  std::ostringstream oss;
  oss.precision(6);
  oss << v;
  return oss.str();
}

int run_check(const std::string& path) {
  std::ifstream in(path);
  DSHUF_CHECK(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  DSHUF_CHECK_EQ(doc.at("schema").as_string(), "dshuf.bench_shard.v4",
                 "unexpected schema in " << path);
  const auto& sizes = doc.at("sizes").as_array();
  DSHUF_CHECK(!sizes.empty(), "no sizes recorded in " << path);
  for (const auto& s : sizes) {
    DSHUF_CHECK_EQ(s.at("arms").as_array().size(), 2U,
                   "expected file + mmap arms");
    for (const auto& a : s.at("arms").as_array()) {
      DSHUF_CHECK_GT(a.at("insert_sps").as_number(), 0.0, "bad insert_sps");
      DSHUF_CHECK_GT(a.at("lookup_sps").as_number(), 0.0, "bad lookup_sps");
      DSHUF_CHECK_GE(a.at("lookup_trials").as_int(), 5,
                     "lookup rate must be a median over >= 5 trials");
      if (a.at("arm").as_string() == "file") continue;
      DSHUF_CHECK_GT(a.at("rewrite_save_sps").as_number(), 0.0,
                     "bad rewrite_save_sps");
      const double lo = a.at("load_ratio_min").as_number();
      const double mid = a.at("load_ratio_vs_file").as_number();
      const double hi = a.at("load_ratio_max").as_number();
      DSHUF_CHECK(lo > 0.0 && lo <= mid && mid <= hi,
                  "load ratio median outside its min/max");
    }
  }
  // The acceptance floor: at the largest recorded shard size, the mmap
  // arm's median load ratio must be >= 10x the per-file baseline, its
  // steady-state lookups must be allocation-free, and once warm its
  // full-rewrite epochs must run entirely on recycled segments. (At
  // 10^4 samples an epoch rewrites a third of one segment, too little
  // to keep a spare for.)
  const auto& largest = sizes.back();
  for (const auto& a : largest.at("arms").as_array()) {
    if (a.at("arm").as_string() == "file") continue;
    const double r = a.at("load_ratio_vs_file").as_number();
    DSHUF_CHECK_GE(r, 10.0, a.at("arm").as_string()
                                << " lost its load-throughput win (median "
                                << r << "x over trials from "
                                << a.at("load_ratio_min").as_number()
                                << "x to "
                                << a.at("load_ratio_max").as_number()
                                << "x)");
    DSHUF_CHECK_EQ(a.at("lookup_allocs_per_op").as_number(), 0.0,
                   a.at("arm").as_string() << " lookups allocate");
    DSHUF_CHECK_EQ(a.at("rewrite_files_created_per_epoch").as_number(), 0.0,
                   a.at("arm").as_string()
                       << " creates segment files in steady-state rewrite "
                          "epochs");
  }
  std::cout << "bench_shard: " << path << " OK (median load ratio >= 10x at n="
            << largest.at("n").as_number()
            << ", 0 files created per steady-state rewrite epoch there)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_shard",
                 "Mmap segment store vs per-file store shard baseline");
  args.flag("out", "", "write JSON results to this path");
  args.flag("check", "", "validate a previously written JSON file and exit");
  args.flag("quick", "false", "cap shard size at 1e5 (CI smoke)");
  args.flag("dir", "", "scratch directory (default: /dev/shm or $TMPDIR)");
  if (!args.parse(argc, argv)) return 0;

  if (!args.get("check").empty()) return run_check(args.get("check"));

  const bool quick = args.get_bool("quick");
  fs::path scratch(args.get("dir"));
  if (scratch.empty()) {
    scratch = fs::is_directory("/dev/shm") ? fs::path("/dev/shm")
                                           : fs::temp_directory_path();
  }
  const fs::path root =
      scratch / ("dshuf_bench_shard_" + std::to_string(::getpid()));
  fs::remove_all(root);

  std::vector<std::size_t> sizes{10'000, 100'000};
  if (!quick) sizes.push_back(1'000'000);

  std::vector<std::vector<ArmResult>> results;
  for (const std::size_t n : sizes) {
    std::vector<ArmResult> arms = run_size(root, n);
    for (const ArmResult& a : arms) {
      std::cout << "n=" << n << " " << a.arm << ": insert "
                << fmt(a.insert_sps) << "/s, lookup " << fmt(a.lookup_sps)
                << "/s (" << fmt(a.lookup_allocs_per_op)
                << " allocs/op), scan " << fmt(a.scan_sps) << "/s, remove "
                << fmt(a.remove_sps) << "/s, resident " << a.resident_bytes
                << " B, live " << a.disk_bytes << " B";
      if (a.arm != "file") {
        std::cout << ", load ratio " << fmt(a.load_ratio_vs_file) << "x ["
                  << fmt(a.load_ratio_min) << ", " << fmt(a.load_ratio_max)
                  << "], rewrite save " << fmt(a.rewrite_save_sps) << "/s ("
                  << fmt(a.rewrite_files_created_per_epoch)
                  << " files created/epoch)";
      }
      std::cout << "\n";
    }
    results.push_back(std::move(arms));
    fs::remove_all(root);  // cap peak scratch usage between sizes
  }

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream j;
    j << "{\n  \"schema\": \"dshuf.bench_shard.v4\",\n"
      << "  \"config\": {\"payload_bytes\": " << kPayloadBytes
      << ", \"lookup_ops\": " << kLookupOps
      << ", \"lookup_trials\": " << kLookupTrials
      << ", \"scan_ops_cap\": " << kScanOpsCap
      << ", \"remove_ops_cap\": " << kRemoveOpsCap
      << ", \"rewrite_warmup_epochs\": " << kRewriteWarmupEpochs
      << ", \"rewrite_epochs\": " << kRewriteEpochs
      << ", \"quick\": " << (quick ? "true" : "false")
      << "},\n  \"sizes\": [\n";
    for (std::size_t s = 0; s < results.size(); ++s) {
      j << "    {\"n\": " << results[s].front().n << ", \"arms\": [\n";
      for (std::size_t i = 0; i < results[s].size(); ++i) {
        const ArmResult& a = results[s][i];
        j << "      {\"arm\": \"" << a.arm
          << "\", \"insert_sps\": " << fmt(a.insert_sps)
          << ", \"lookup_sps\": " << fmt(a.lookup_sps)
          << ", \"lookup_trials\": " << a.lookup_trial_sps.size()
          << ", \"lookup_allocs_per_op\": " << fmt(a.lookup_allocs_per_op)
          << ", \"scan_sps\": " << fmt(a.scan_sps)
          << ", \"remove_sps\": " << fmt(a.remove_sps)
          << ", \"resident_bytes\": " << a.resident_bytes
          << ", \"disk_bytes\": " << a.disk_bytes
          << ", \"load_ratio_vs_file\": " << fmt(a.load_ratio_vs_file)
          << ", \"load_ratio_min\": " << fmt(a.load_ratio_min)
          << ", \"load_ratio_max\": " << fmt(a.load_ratio_max)
          << ", \"rewrite_save_sps\": " << fmt(a.rewrite_save_sps)
          << ", \"rewrite_files_created_per_epoch\": "
          << fmt(a.rewrite_files_created_per_epoch) << "}"
          << (i + 1 < results[s].size() ? "," : "") << "\n";
      }
      j << "    ]}" << (s + 1 < results.size() ? "," : "") << "\n";
    }
    j << "  ]\n}\n";
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
