// Differential and property tests for the incremental max-min flow
// engine. simulate_flows now runs on FlowEngine; simulate_flows_reference
// is the original recompute-everything loop, kept as the semantic oracle.
// Anyone touching the engine's tolerances must keep the two in agreement
// here before trusting any BENCH_scale number.
#include "netsim/flow_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "netsim/flowsim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf::netsim {
namespace {

void expect_same_outcome(const SimOutcome& got, const SimOutcome& want) {
  ASSERT_EQ(got.flow_finish_s.size(), want.flow_finish_s.size());
  for (std::size_t i = 0; i < got.flow_finish_s.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want.flow_finish_s[i]));
    EXPECT_NEAR(got.flow_finish_s[i], want.flow_finish_s[i], 1e-6 * scale)
        << "flow " << i;
  }
  ASSERT_EQ(got.rank_finish_s.size(), want.rank_finish_s.size());
  for (std::size_t r = 0; r < got.rank_finish_s.size(); ++r) {
    const double scale = std::max(1.0, std::abs(want.rank_finish_s[r]));
    EXPECT_NEAR(got.rank_finish_s[r], want.rank_finish_s[r], 1e-6 * scale)
        << "rank " << r;
  }
  EXPECT_NEAR(got.makespan_s, want.makespan_s,
              1e-6 * std::max(1.0, want.makespan_s));
}

std::vector<Flow> random_flows(std::uint64_t seed, int ranks, int count,
                               bool staggered) {
  Rng rng(seed);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Flow f;
    f.src = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(ranks)));
    f.dst = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(ranks)));
    // Mix of sizes spanning three orders of magnitude, plus the empty
    // control-message case.
    const auto kind = rng.uniform_u64(8);
    f.bytes = kind == 0 ? 0.0 : std::floor(rng.uniform() * 1e6) + 1;
    f.start_s = staggered ? rng.uniform() * 0.05 : 0.0;
    f.uses_fabric = rng.uniform_u64(4) != 0;
    flows.push_back(f);
  }
  return flows;
}

TEST(FlowEngineDifferential, MatchesReferenceAllAtOnce) {
  LinkCaps caps;
  caps.nic_out_bps = 1e9;
  caps.nic_in_bps = 1e9;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto flows = random_flows(seed, 12, 160, /*staggered=*/false);
    expect_same_outcome(simulate_flows(flows, caps, 12),
                        simulate_flows_reference(flows, caps, 12));
  }
}

TEST(FlowEngineDifferential, MatchesReferenceStaggeredArrivals) {
  LinkCaps caps;
  caps.nic_out_bps = 4e8;
  caps.nic_in_bps = 2e8;
  caps.per_message_latency_s = 1e-4;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    const auto flows = random_flows(seed, 10, 120, /*staggered=*/true);
    expect_same_outcome(simulate_flows(flows, caps, 10),
                        simulate_flows_reference(flows, caps, 10));
  }
}

TEST(FlowEngineDifferential, MatchesReferenceUnderFabricContention) {
  LinkCaps caps;
  caps.nic_out_bps = 1e9;
  caps.nic_in_bps = 1e9;
  // Fabric far below aggregate NIC capacity — every fabric flow contends.
  caps.fabric_bps = 2e8;
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    const auto flows = random_flows(seed, 8, 100, /*staggered=*/true);
    expect_same_outcome(simulate_flows(flows, caps, 8),
                        simulate_flows_reference(flows, caps, 8));
  }
}

// Pins the documented LinkCaps contract: fabric_bps = 0 means NO fabric
// link at all (unconstrained), not a zero-capacity fabric. A huge finite
// fabric must agree with the absent one.
TEST(FlowEngineCaps, FabricZeroMeansUnconstrained) {
  const auto flows = random_flows(31, 8, 80, /*staggered=*/false);
  LinkCaps none;
  none.fabric_bps = 0;
  LinkCaps huge = none;
  huge.fabric_bps = 1e18;
  const auto a = simulate_flows(flows, none, 8);
  const auto b = simulate_flows(flows, huge, 8);
  expect_same_outcome(a, b);

  LinkCaps tight = none;
  tight.fabric_bps = 1e7;  // well under one NIC — must slow things down
  const auto c = simulate_flows(flows, tight, 8);
  EXPECT_GT(c.makespan_s, a.makespan_s * 2);
}

// Pins the self-flow contract: src == dst never touches a link and
// completes after exactly the per-message latency, regardless of how
// overloaded the rank's NICs are.
TEST(FlowEngineCaps, SelfFlowsAreLatencyOnly) {
  LinkCaps caps;
  caps.nic_out_bps = 1e3;  // absurdly slow NICs
  caps.nic_in_bps = 1e3;
  caps.per_message_latency_s = 2e-3;
  std::vector<Flow> flows;
  flows.push_back(Flow{0, 0, 1e12, 0.5, true});   // giant self flow
  flows.push_back(Flow{1, 1, 0.0, 0.25, false});  // empty self flow
  const auto out = simulate_flows(flows, caps, 2);
  EXPECT_DOUBLE_EQ(out.flow_finish_s[0], 0.5 + 2e-3);
  EXPECT_DOUBLE_EQ(out.flow_finish_s[1], 0.25 + 2e-3);
  const auto ref = simulate_flows_reference(flows, caps, 2);
  expect_same_outcome(out, ref);
}

TEST(FlowEngine, ScopedRefillsTouchOnlyTheDirtyComponent) {
  // Two link-disjoint flows: admitting both costs one settle each, and
  // retiring the first must not re-fill the other's component.
  FlowEngine eng({1.0, 1.0, 1.0, 1.0});
  eng.add_flow(1.0, {0, 1});
  eng.add_flow(2.0, {2, 3});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(10.0, done);
  ASSERT_EQ(done.size(), 2U);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 2.0);
  // One refill covering both admissions (2 flows settled); the first
  // completion dirties links with no live flows left, the second likewise
  // — no survivor is ever re-rated.
  EXPECT_EQ(eng.refill_work(), 2U);
  EXPECT_EQ(eng.active_flows(), 0U);
}

TEST(FlowEngine, EqualFlowsRetireInAdmissionOrder) {
  FlowEngine eng({10.0});
  const auto a = eng.add_flow(5.0, {0});
  const auto b = eng.add_flow(5.0, {0});
  const auto c = eng.add_flow(5.0, {0});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(100.0, done);
  ASSERT_EQ(done.size(), 3U);
  EXPECT_EQ(done[0].first, a);
  EXPECT_EQ(done[1].first, b);
  EXPECT_EQ(done[2].first, c);
  // All three share one link at 10 B/s: 15 bytes total => 1.5 s.
  EXPECT_DOUBLE_EQ(done[2].second, 1.5);
}

TEST(FlowEngine, SharedLinkRatesRebalanceOnCompletion) {
  // One short and one long flow share a link; once the short one leaves,
  // the survivor takes the whole capacity.
  FlowEngine eng({10.0});
  eng.add_flow(5.0, {0});   // done at t=1 (5 B at 5 B/s)
  eng.add_flow(15.0, {0});  // 5 B by t=1, then 10 B at 10 B/s => t=2
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(100.0, done);
  ASSERT_EQ(done.size(), 2U);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 2.0);
}

// ---- Exact-bits golden ----
//
// The differential suite compares at 1e-6 and BENCH_scale prints six
// digits; neither sees a tie resolved in a different order. These
// scenarios pin every completion time's bit pattern. They use the
// virtual backend's link layout ([0,M) egress NICs, [M,2M) ingress NICs,
// then G group uplinks, G downlinks, an optional fabric pool) with caps
// that tie to within 1e-13 relative, so several links share one filling
// level and the within-level fixing order decides the rates.

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenFlow {
  double start_s = 0;
  double bytes = 0;
  std::vector<int> links;
};

struct GoldenScenario {
  std::vector<double> caps;
  std::vector<GoldenFlow> flows;  // sorted by start_s
};

GoldenScenario golden_scenario(std::uint64_t seed) {
  Rng rng(seed);
  GoldenScenario s;
  const int m = 8 + static_cast<int>(rng.uniform_u64(25));
  const int shape = static_cast<int>(seed % 3);  // flat, fabric, groups
  const int groups = shape == 2 ? 2 + static_cast<int>(rng.uniform_u64(7)) : 0;
  const bool leaders = shape == 2 && rng.uniform_u64(2) == 0;
  const bool fabric = shape == 1 || (shape == 2 && rng.uniform_u64(2) == 0);
  const int group_size = groups > 0 ? (m + groups - 1) / groups : m;

  // Near-tie caps: most links sit within a few 1e-13 of a shared base, so
  // their shares land inside one level's 1e-12 tolerance.
  auto cap = [&](double base) {
    if (rng.uniform_u64(5) == 0) return base * (0.25 + rng.uniform());
    const double k = static_cast<double>(rng.uniform_int(-2, 2));
    return base * (1 + k * 1e-13);
  };
  for (int l = 0; l < 2 * m; ++l) s.caps.push_back(cap(1e9));
  for (int l = 0; l < 2 * groups; ++l) {
    s.caps.push_back(cap(1e9 * static_cast<double>(group_size) / 2));
  }
  const int fabric_link = fabric ? static_cast<int>(s.caps.size()) : -1;
  if (fabric) s.caps.push_back(cap(1e9 * m / 4));

  const int count = 3 * m + static_cast<int>(rng.uniform_u64(64));
  for (int i = 0; i < count; ++i) {
    GoldenFlow f;
    const int src = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(m)));
    int dst = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(m - 1)));
    if (dst >= src) ++dst;
    const auto kind = rng.uniform_u64(8);
    f.bytes = kind == 0   ? 0.0
              : kind <= 2 ? 65536.0  // equal sizes: simultaneous finishes
                          : std::floor(rng.uniform() * 1e6) + 1;
    f.start_s = rng.uniform_u64(2) == 0
                    ? 0.0
                    : 1e-5 * static_cast<double>(rng.uniform_u64(100));
    f.links = {src, m + dst};
    if (groups > 0) {
      const int gs = src / group_size;
      const int gd = dst / group_size;
      if (gs != gd) {
        f.links.push_back(2 * m + gs);
        f.links.push_back(2 * m + groups + gd);
        if (leaders) {
          const int ls = gs * group_size;
          const int ld = std::min(gd * group_size, m - 1);
          if (ls != src) f.links.insert(f.links.end(), {m + ls, ls});
          if (ld != dst) f.links.insert(f.links.end(), {m + ld, ld});
        }
        if (fabric) f.links.push_back(fabric_link);
      }
    } else if (fabric && rng.uniform_u64(4) != 0) {
      f.links.push_back(fabric_link);
    }
    s.flows.push_back(std::move(f));
  }
  std::stable_sort(s.flows.begin(), s.flows.end(),
                   [](const GoldenFlow& a, const GoldenFlow& b) {
                     return a.start_s < b.start_s;
                   });
  return s;
}

/// Drives one scenario the way the virtual world does: step to the
/// earlier of the next prediction (rounded up to a 20 us quantum in lazy
/// mode) and the next arrival, admit what is due, repeat.
std::uint64_t golden_digest(const GoldenScenario& s, bool lazy,
                            std::uint64_t h) {
  FlowEngine eng(s.caps);
  eng.set_lazy_rebalance(lazy);
  constexpr double kQuantum = 2e-5;
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  std::size_t next = 0;
  std::size_t retired = 0;
  while (true) {
    const double tf = eng.next_finish_s();
    const double ta = next < s.flows.size()
                          ? s.flows[next].start_s
                          : std::numeric_limits<double>::infinity();
    if (!std::isfinite(tf) && !std::isfinite(ta)) break;
    double t = ta;
    if (std::isfinite(tf)) {
      const double tq =
          lazy ? std::max(tf, std::ceil(tf / kQuantum) * kQuantum) : tf;
      if (tq <= ta) t = tq;
    }
    done.clear();
    eng.advance_to(t, done);
    for (const auto& [id, fin] : done) {
      h = fnv1a_mix(h, id);
      h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(fin));
    }
    retired += done.size();
    while (next < s.flows.size() && s.flows[next].start_s <= t) {
      eng.add_flow(s.flows[next].bytes, s.flows[next].links);
      ++next;
    }
  }
  EXPECT_EQ(retired, s.flows.size());
  return fnv1a_mix(h, eng.refill_work());
}

TEST(FlowEngineGolden, CompletionsMatchPinnedDigest) {
  std::uint64_t exact = 1469598103934665603ULL;
  std::uint64_t lazy = exact;
  for (std::uint64_t seed = 1; seed <= 36; ++seed) {
    const GoldenScenario s = golden_scenario(seed);
    exact = golden_digest(s, /*lazy=*/false, exact);
    lazy = golden_digest(s, /*lazy=*/true, lazy);
  }
  // Recorded on the level-scan engine before the bottleneck-ordered
  // filling replaced it. A change here is a change in the engine's bits.
  EXPECT_EQ(exact, 5331760384413574652ULL);
  EXPECT_EQ(lazy, 6822801456072687080ULL);
}

// Two rounding cases the random scenarios never reach, with caps found by
// searching for them. Fixing a flow at level share s raises a link's
// share in exact arithmetic, but with thousands of flows on the link the
// rise is below one ulp and rounding can LOWER it:
//   * join: link B starts one ulp above the tolerance and one fix on the
//     bottleneck link A rounds it into it, so B's later flows are fixed in
//     the same level;
//   * fall: 50 fixes round B four ulps down while it stays above the
//     tolerance. Link C's share lies between B's old and new share, so
//     the next level's share is B's only if the engine tracked the fall.
TEST(FlowEngineGolden, RoundingEdgeCasesMatchPinnedDigest) {
  GoldenScenario join;
  join.caps = {0.8531205611771137, 8531.20561177967};  // A, B
  join.flows.push_back(GoldenFlow{0, 1000, {0, 1}});
  for (int i = 1; i < 10000; ++i) {
    join.flows.push_back(GoldenFlow{0, 1000.0 + i % 7, {1}});
  }

  GoldenScenario fall;
  // A, B, C (one flow, share between B's old and new), E (unbinding,
  // joins C into B's component).
  fall.caps = {46.04208343656687, 18416.83337464518,
               std::nextafter(0.9208416687322585, 1.0), 1e6};
  for (int i = 0; i < 50; ++i) {
    fall.flows.push_back(GoldenFlow{0, 1000, {0, 1}});
  }
  fall.flows.push_back(GoldenFlow{0, 1000, {1, 3}});
  for (int i = 51; i < 20000; ++i) {
    fall.flows.push_back(GoldenFlow{0, 1000.0 + i % 5, {1}});
  }
  fall.flows.push_back(GoldenFlow{0, 1000, {2, 3}});

  const std::uint64_t basis = 1469598103934665603ULL;
  // Recorded on the level-scan engine, like the digests above.
  EXPECT_EQ(golden_digest(join, /*lazy=*/false, basis),
            2159227924691627390ULL);
  EXPECT_EQ(golden_digest(fall, /*lazy=*/false, basis),
            9875911826922526526ULL);
}

TEST(FlowEngine, RefusesRewindsAndBadFlows) {
  FlowEngine eng({1.0});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(1.0, done);
  EXPECT_THROW(eng.advance_to(0.5, done), CheckError);
  EXPECT_THROW(eng.add_flow(1.0, {}), CheckError);
  EXPECT_THROW(eng.add_flow(-1.0, {0}), CheckError);
  EXPECT_THROW(eng.add_flow(1.0, {7}), CheckError);
}

}  // namespace
}  // namespace dshuf::netsim
