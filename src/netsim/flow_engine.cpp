#include "netsim/flow_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.hpp"
#include "util/noalloc.hpp"

namespace dshuf::netsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FlowEngine::FlowEngine(std::vector<double> link_caps_bps) {
  links_.resize(link_caps_bps.size());
  for (std::size_t l = 0; l < link_caps_bps.size(); ++l) {
    DSHUF_CHECK_GT(link_caps_bps[l], 0.0, "link capacity must be positive");
    links_[l].cap_bps = link_caps_bps[l];
  }
}

FlowEngine::FlowId FlowEngine::add_flow(double bytes,
                                        const std::vector<int>& links) {
  DSHUF_CHECK_GE(bytes, 0.0, "flow bytes must be non-negative");
  DSHUF_CHECK(!links.empty(),
              "linkless flows never contend; price them caller-side");
  FlowId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = flows_.size();
    flows_.emplace_back();
    flow_seq_.push_back(0);
  }
  FlowRec& f = flows_[id];
  f.links = links;
  f.remaining = bytes;
  f.rate = 0;
  f.last_settle_s = now_s_;
  f.live = true;
  f.has_prediction = false;
  ++f.gen;
  flow_seq_[id] = next_seq_++;
  for (int l : links) {
    DSHUF_CHECK(l >= 0 && static_cast<std::size_t>(l) < links_.size(),
                "flow references an unknown link");
    links_[static_cast<std::size_t>(l)].flows.push_back(id);
    ++links_[static_cast<std::size_t>(l)].live;
  }
  ++live_;
  mark_dirty(links);
  return id;
}

void FlowEngine::mark_dirty(const std::vector<int>& links) {
  for (int l : links) {
    LinkRec& rec = links_[static_cast<std::size_t>(l)];
    if (!rec.dirty) {
      rec.dirty = true;
      dirty_links_.push_back(l);
    }
  }
}

void FlowEngine::settle(FlowRec& f) {
  const double dt = now_s_ - f.last_settle_s;
  if (dt > 0 && f.rate > 0) {
    f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  f.last_settle_s = now_s_;
}

void FlowEngine::push_prediction(FlowId id) {
  FlowRec& f = flows_[id];
  if (f.rate <= 0) return;  // a stall surfaces as next_finish_s() == inf
  const double finish =
      f.remaining <= 0 ? now_s_ : now_s_ + f.remaining / f.rate;
  // analyze:alloc-ok prediction heap keeps its capacity across refills
  heap_.push_back(HeapEntry{finish, flow_seq_[id], id, f.gen});
  std::push_heap(heap_.begin(), heap_.end());
  f.has_prediction = true;
}

void FlowEngine::push_share(int l) {
  LinkRec& rec = links_[static_cast<std::size_t>(l)];
  rec.share_key = rec.headroom / rec.unfixed;
  // analyze:alloc-ok share heap keeps its capacity across refills
  share_heap_.push_back(ShareEntry{rec.share_key, l, rec.share_ver});
  std::push_heap(share_heap_.begin(), share_heap_.end());
}

void FlowEngine::join_level(int l, std::uint32_t from_pos) {
  LinkRec& rec = links_[static_cast<std::size_t>(l)];
  rec.in_level = true;
  ++rec.share_ver;  // its heap entries are void until the level ends
  // analyze:alloc-ok level scratch keeps its capacity across refills
  level_links_.push_back(l);
  for (FlowId id : rec.flows) {
    const FlowRec& f = flows_[id];
    if (f.live && !f.fixed && f.comp_pos >= from_pos) {
      const std::size_t w = f.comp_pos / 64;
      level_bits_[w] |= std::uint64_t{1} << (f.comp_pos % 64);
      level_lo_ = std::min(level_lo_, w);
      level_hi_ = std::max(level_hi_, w);
    }
  }
}

bool FlowEngine::fix_if_bottlenecked(std::uint32_t pos, double share,
                                     double tol) {
  FlowRec& f = flows_[comp_flows_[pos]];
  bool at_bottleneck = false;
  for (int l : f.links) {
    const LinkRec& rec = links_[static_cast<std::size_t>(l)];
    if (rec.unfixed > 0 && rec.headroom / rec.unfixed <= tol) {
      at_bottleneck = true;
      break;
    }
  }
  if (!at_bottleneck) return false;
  f.fixed = true;
  f.rate = share;
  for (int l : f.links) {
    LinkRec& rec = links_[static_cast<std::size_t>(l)];
    rec.headroom -= share;
    --rec.unfixed;
    if (rec.in_level || rec.unfixed == 0) continue;
    const double now_share = rec.headroom / rec.unfixed;
    if (now_share <= tol) {
      // Rounded into the tolerance: its flows after this one join the
      // level, in component order.
      join_level(l, pos + 1);
    } else if (now_share < rec.share_key) {
      // Rounded below its heap key: re-key so the heap stays a lower bound.
      ++rec.share_ver;
      push_share(l);
    }
  }
  return true;
}

DSHUF_NOALLOC void FlowEngine::refill_dirty() {
  if (dirty_links_.empty()) return;

  // Component discovery: everything reachable from the dirty links through
  // shared-link contention. Flows outside keep their rates — max-min is
  // separable across link-disjoint components.
  comp_links_.clear();
  comp_flows_.clear();
  for (int l : dirty_links_) {
    LinkRec& rec = links_[static_cast<std::size_t>(l)];
    rec.dirty = false;
    if (!rec.in_component) {
      rec.in_component = true;
      // analyze:alloc-ok component scratch keeps its capacity
      comp_links_.push_back(l);
    }
  }
  dirty_links_.clear();
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    LinkRec& rec = links_[static_cast<std::size_t>(comp_links_[i])];
    for (FlowId id : rec.flows) {
      FlowRec& f = flows_[id];
      if (!f.live || f.in_component) continue;
      f.in_component = true;
      f.comp_pos = static_cast<std::uint32_t>(comp_flows_.size());
      // analyze:alloc-ok component scratch keeps its capacity
      comp_flows_.push_back(id);
      for (int l2 : f.links) {
        LinkRec& rec2 = links_[static_cast<std::size_t>(l2)];
        if (!rec2.in_component) {
          rec2.in_component = true;
          // analyze:alloc-ok component scratch keeps its capacity
          comp_links_.push_back(l2);
        }
      }
    }
  }

  // Settle the component to `now` (rates were constant since each flow's
  // last settle — rates only ever change inside a refill), remember the
  // old rates, and reset the filling scratch.
  old_rates_.clear();
  for (FlowId id : comp_flows_) {
    FlowRec& f = flows_[id];
    settle(f);
    // analyze:alloc-ok parallel to comp_flows_, capacity retained
    old_rates_.push_back(f.rate);
    f.rate = 0;
    f.fixed = false;
  }
  for (int l : comp_links_) {
    LinkRec& rec = links_[static_cast<std::size_t>(l)];
    rec.headroom = rec.cap_bps;
    rec.unfixed = 0;
  }
  for (FlowId id : comp_flows_) {
    for (int l : flows_[id].links) {
      ++links_[static_cast<std::size_t>(l)].unfixed;
    }
  }
  refill_work_ += comp_flows_.size();

  // Progressive filling, bottleneck-ordered. Each level fixes, at the
  // component's smallest link share, every flow crossing a link whose
  // share is within the 1e-12 tie tolerance of it. Bit-identical to
  // scanning every unfixed flow per level, at the cost of only the
  // level's own flows:
  //   * The share heap holds, for every link with unfixed flows outside
  //     the current level, an entry no larger than its share. Fixing a
  //     flow at level share s can only raise a link's share (for a link
  //     at share x >= s, (h - s) / (u - 1) - h / u = (x - s) / (u - 1)),
  //     so stale entries are refreshed when they surface; only a
  //     rounding fall pushes a new entry.
  //   * The level's flows are visited in component order — the order the
  //     scan used — with the same per-flow check against the CURRENT
  //     headroom: a fix can lift a tied link out of the tolerance (its
  //     later flows stay unfixed) or round one into it (its later flows
  //     join the level).
  // analyze:alloc-ok level bitset keeps its capacity across refills
  level_bits_.assign((comp_flows_.size() + 63) / 64, 0);
  share_heap_.clear();
  for (int l : comp_links_) {
    if (links_[static_cast<std::size_t>(l)].unfixed > 0) push_share(l);
  }
  std::size_t left = comp_flows_.size();
  while (left > 0) {
    // Pop the level's bottlenecks: the smallest current share, then every
    // link within the tolerance of it. A surfacing entry is dropped when
    // orphaned or drained, and re-keyed when its link's share has risen.
    double best_share = kInf;
    double tol = kInf;
    level_lo_ = SIZE_MAX;
    level_hi_ = 0;
    while (!share_heap_.empty() && share_heap_.front().share <= tol) {
      const ShareEntry top = share_heap_.front();
      std::pop_heap(share_heap_.begin(), share_heap_.end());
      share_heap_.pop_back();
      const LinkRec& rec = links_[static_cast<std::size_t>(top.link)];
      if (top.ver != rec.share_ver || rec.unfixed == 0) continue;
      const double share = rec.headroom / rec.unfixed;
      const bool bottleneck =
          best_share == kInf ? share == top.share : share <= tol;
      if (!bottleneck) {
        push_share(top.link);
        continue;
      }
      if (best_share == kInf) {
        best_share = share;
        tol = best_share * (1 + 1e-12);
      }
      join_level(top.link, 0);
    }
    DSHUF_CHECK(best_share < kInf, "no bottleneck found with flows left");

    // Visit the marked flows in ascending component position. A mid-level
    // join marks only positions past the current one, so the word scan
    // picks them up in order (level_hi_ may grow under it).
    const std::size_t left_before = left;
    for (std::size_t w = level_lo_; w <= level_hi_; ++w) {
      std::uint64_t& word = level_bits_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (fix_if_bottlenecked(static_cast<std::uint32_t>(w * 64 + bit),
                                best_share, tol)) {
          --left;
        }
      }
    }
    DSHUF_CHECK(left < left_before, "progressive filling made no progress");
    for (int l : level_links_) {
      LinkRec& rec = links_[static_cast<std::size_t>(l)];
      rec.in_level = false;
      if (rec.unfixed > 0) push_share(l);
    }
    level_links_.clear();
  }

  for (std::size_t i = 0; i < comp_flows_.size(); ++i) {
    const FlowId id = comp_flows_[i];
    FlowRec& f = flows_[id];
    f.in_component = false;
    // A flow whose rate came back (numerically) identical keeps its live
    // heap entry: with the same rate and the settle above, the predicted
    // finish is unchanged, so re-pushing would only grow the heap with
    // duplicates — at 4096 ranks that churn dominated memory and time.
    const double old = old_rates_[i];
    if (f.has_prediction && f.rate > 0 && old > 0 &&
        std::abs(f.rate - old) <= 1e-12 * f.rate) {
      continue;
    }
    ++f.gen;  // orphan any stale heap prediction
    f.has_prediction = false;
    push_prediction(id);
  }
  for (int l : comp_links_) {
    links_[static_cast<std::size_t>(l)].in_component = false;
  }
}

double FlowEngine::next_finish_s() {
  refill_dirty();
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const FlowRec& f = flows_[top.id];
    if (f.live && f.gen == top.gen) return top.finish_s;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
  return kInf;
}

void FlowEngine::retire(FlowId id) {
  FlowRec& f = flows_[id];
  f.live = false;
  f.has_prediction = false;
  ++f.gen;
  --live_;
  mark_dirty(f.links);
  for (int l : f.links) {
    LinkRec& rec = links_[static_cast<std::size_t>(l)];
    --rec.live;
    // Bucketed membership: retired ids linger until the bucket is mostly
    // dead, then one sweep compacts it — O(1) amortised.
    if (rec.flows.size() > 2 * rec.live + 8) {
      rec.flows.erase(
          std::remove_if(rec.flows.begin(), rec.flows.end(),
                         [&](FlowId fid) { return !flows_[fid].live; }),
          rec.flows.end());
    }
  }
  free_slots_.push_back(id);
}

void FlowEngine::advance_to(
    double t, std::vector<std::pair<FlowId, double>>& finished) {
  DSHUF_CHECK_GE(t, now_s_, "flow time cannot rewind");
  if (lazy_) {
    // Lazy mode: retire the whole window's completions against the rates
    // of the LAST refill, in deterministic (time, admission) order, and
    // leave the freed capacity dirty — the next query refills once for
    // the whole window. Survivors integrate a never-faster rate across
    // the window, so every completion is exact or pessimistic by at most
    // the window length (the virtual backend's event quantum).
    refill_dirty();
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      FlowRec& f = flows_[top.id];
      if (!f.live || f.gen != top.gen) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
        continue;
      }
      if (top.finish_s > t) break;
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      now_s_ = std::max(now_s_, top.finish_s);
      settle(f);
      retire(top.id);
      finished.emplace_back(top.id, top.finish_s);
    }
    now_s_ = std::max(now_s_, t);
    return;
  }
  while (true) {
    // Rates (and hence predictions) must be current at now_s_ before any
    // further time passes — settles integrate a constant rate.
    refill_dirty();
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      const FlowRec& f = flows_[top.id];
      if (f.live && f.gen == top.gen) break;
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().finish_s > t) break;

    // Retire the whole batch of simultaneous completions, then loop: the
    // freed capacity rebalances survivors AT the batch time, so their
    // remaining bytes integrate the higher rate from here on — exactly
    // what the recompute-at-every-event reference does.
    const double batch_t = heap_.front().finish_s;
    now_s_ = std::max(now_s_, batch_t);
    while (!heap_.empty()) {
      const HeapEntry top = heap_.front();
      FlowRec& f = flows_[top.id];
      if (!f.live || f.gen != top.gen) {
        std::pop_heap(heap_.begin(), heap_.end());
        heap_.pop_back();
        continue;
      }
      if (top.finish_s > batch_t) break;
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
      settle(f);
      retire(top.id);
      finished.emplace_back(top.id, batch_t);
    }
  }
  now_s_ = std::max(now_s_, t);
}

}  // namespace dshuf::netsim
