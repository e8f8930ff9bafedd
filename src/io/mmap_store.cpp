#include "io/mmap_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/noalloc.hpp"

namespace dshuf::io {

namespace fs = std::filesystem;

namespace {

// Record header: [u32 enc][u32 id]. enc = 0 is the zero-filled
// end-of-segment sentinel, 0xFFFFFFFF a tombstone, len+1 a live record.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::uint32_t kTombstone = 0xFFFFFFFFu;
constexpr std::uint32_t kMaxPayload = 0xFFFFFFFDu;

// Slot ref packing: (segment index << 40) | offset of the record header.
// 24 bits of segment sequence, 40 bits of offset (a segment can hold a
// single TB-scale oversized payload without overflowing the ref).
constexpr unsigned kRefOffsetBits = 40;
constexpr std::uint64_t kRefOffsetMask =
    (std::uint64_t{1} << kRefOffsetBits) - 1;

std::uint64_t pack_ref(std::size_t seg, std::size_t off) {
  return (static_cast<std::uint64_t>(seg) << kRefOffsetBits) |
         static_cast<std::uint64_t>(off);
}
std::size_t ref_seg(std::uint64_t ref) {
  return static_cast<std::size_t>(ref >> kRefOffsetBits);
}
std::size_t ref_off(std::uint64_t ref) {
  return static_cast<std::size_t>(ref & kRefOffsetMask);
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void store_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

std::size_t page_size() {
  static const std::size_t pg =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return pg;
}

std::string segment_name(std::size_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg%08zu.dshuf", seq);
  return buf;
}

/// Parse "seg<8 digits>.dshuf" -> seq; SIZE_MAX for foreign files.
std::size_t parse_segment_name(const std::string& name) {
  if (name.size() != 3 + 8 + 6 || name.rfind("seg", 0) != 0 ||
      name.compare(11, 6, ".dshuf") != 0) {
    return SIZE_MAX;
  }
  std::size_t seq = 0;
  for (std::size_t i = 3; i < 11; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return SIZE_MAX;
    seq = seq * 10 + static_cast<std::size_t>(c - '0');
  }
  return seq;
}

}  // namespace

MmapSampleStore::MmapSampleStore(MmapStoreConfig cfg) : cfg_(std::move(cfg)) {
  DSHUF_CHECK_GE(cfg_.segment_bytes, kHeaderBytes + 1,
                 "segment_bytes too small to hold a record");
  fs::create_directories(cfg_.dir);
  std::lock_guard<RankedMutex> lk(mu_);
  // analyze:blocking-ok one-time directory walk + mmap replay at store open
  open_existing_locked();
  update_gauges_locked();
}

MmapSampleStore::MmapSampleStore(fs::path dir)
    : MmapSampleStore(MmapStoreConfig{.dir = std::move(dir)}) {}

MmapSampleStore::~MmapSampleStore() {
  std::lock_guard<RankedMutex> lk(mu_);
  for (auto& seg : segs_) {
    if (seg.base != nullptr) {
      ::munmap(seg.base, seg.map_len);
      seg.base = nullptr;
    }
  }
}

void MmapSampleStore::open_existing_locked() {
  // Collect (seq, path) pairs; replay in sequence order so a later save of
  // the same id (or a tombstone) wins, exactly as it happened live.
  std::vector<std::pair<std::size_t, fs::path>> found;
  // analyze:blocking-ok one-time directory walk at store open
  for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::size_t seq = parse_segment_name(entry.path().filename());
    if (seq == SIZE_MAX) {
      LOG_WARN << "mmap_store: ignoring foreign file " << entry.path();
      continue;
    }
    found.emplace_back(seq, entry.path());
  }
  if (found.empty()) return;
  std::sort(found.begin(), found.end());
  segs_.resize(found.back().first + 1);

  for (const auto& [seq, path] : found) {
    // analyze:blocking-ok one-time mmap replay at store open
    const int fd = ::open(path.c_str(), O_RDWR);
    DSHUF_CHECK_GE(fd, 0, "mmap_store: cannot open " << path);
    struct stat st {};
    DSHUF_CHECK_EQ(::fstat(fd, &st), 0, "mmap_store: fstat " << path);
    const auto len = static_cast<std::size_t>(st.st_size);
    void* base =
        ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    DSHUF_CHECK(base != MAP_FAILED, "mmap_store: mmap " << path);
    Segment& seg = segs_[seq];
    seg.base = static_cast<std::byte*>(base);
    seg.map_len = len;
    seg.path = path;
    seg.sealed = true;  // reopened segments are never appended to

    // Replay records into the index (later records overwrite earlier).
    std::size_t off = 0;
    while (off + kHeaderBytes <= len) {
      const std::uint32_t enc = load_u32(seg.base + off);
      if (enc == 0) break;  // zero-filled tail
      const auto id =
          static_cast<data::SampleId>(load_u32(seg.base + off + 4));
      if (enc == kTombstone) {
        index_.erase(id);
        off += kHeaderBytes;
        continue;
      }
      const std::size_t plen = enc - 1;
      DSHUF_CHECK_LE(off + kHeaderBytes + plen, len,
                     "mmap_store: truncated record in " << path);
      index_.put(id, pack_ref(seq, off));
      off += kHeaderBytes + plen;
    }
    seg.bump = off;
  }

  // Per-segment live stats derive from the FINAL index state: dead space
  // left behind by replayed overwrites/tombstones is simply not counted,
  // so compaction sees it immediately.
  live_bytes_ = 0;
  index_.for_each([this](data::SampleId, std::uint64_t ref) {
    Segment& seg = segs_[ref_seg(ref)];
    const std::size_t plen = load_u32(seg.base + ref_off(ref)) - 1;
    seg.live_records += 1;
    seg.live_payload += plen;
    live_bytes_ += plen;
  });
  // Fully dead reopened segments can be freed right away: no reader can
  // hold a pin before the constructor returns. Ascending order matters:
  // once an earlier segment's file is gone, tombstones masking it in a
  // later segment are no longer needed and can be dropped instead of
  // re-logged. Freeing may re-log still-needed tombstones into a fresh
  // active segment — snapshot the count and skip the active so the
  // re-log target is not itself swept.
  const std::size_t n = segs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != active_ && segs_[i].base != nullptr &&
        segs_[i].live_records == 0) {
      free_segment_locked(i);
    }
  }
}

MmapSampleStore::Segment& MmapSampleStore::new_segment_locked(
    std::size_t min_payload_bytes) {
  std::size_t want = kHeaderBytes + min_payload_bytes;
  std::size_t len = std::max(cfg_.segment_bytes, want);
  const std::size_t pg = page_size();
  len = (len + pg - 1) / pg * pg;

  const std::size_t seq = segs_.size();
  const fs::path path = cfg_.dir / segment_name(seq);
  // analyze:blocking-ok segment creation is a rare, amortised event
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  DSHUF_CHECK_GE(fd, 0, "mmap_store: cannot create " << path);
  DSHUF_CHECK_EQ(::ftruncate(fd, static_cast<off_t>(len)), 0,
                 "mmap_store: ftruncate " << path);
  void* base = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  DSHUF_CHECK(base != MAP_FAILED, "mmap_store: mmap " << path);

  if (active_ != SIZE_MAX) segs_[active_].sealed = true;
  // analyze:alloc-ok segment bookkeeping grows once per segment file
  Segment seg;
  seg.base = static_cast<std::byte*>(base);
  seg.map_len = len;
  seg.path = path;
  segs_.push_back(std::move(seg));
  active_ = seq;
  DSHUF_COUNTER("store.segments_created").add(1);
  return segs_[active_];
}

std::uint64_t MmapSampleStore::append_locked(
    data::SampleId id, std::span<const std::byte> payload) {
  DSHUF_CHECK_LE(payload.size(), kMaxPayload, "mmap_store: payload too large");
  const std::size_t need = kHeaderBytes + payload.size();
  if (active_ == SIZE_MAX || segs_[active_].bump + need >
                                 segs_[active_].map_len) {
    new_segment_locked(payload.size());
  }
  Segment& seg = segs_[active_];
  const std::size_t off = seg.bump;
  std::byte* rec = seg.base + off;
  store_u32(rec + 4, static_cast<std::uint32_t>(id));
  if (!payload.empty()) {
    std::memcpy(rec + kHeaderBytes, payload.data(), payload.size());
  }
  // Length goes last: a crash mid-append leaves enc == 0 and the partial
  // record reads as end-of-segment on replay.
  store_u32(rec, static_cast<std::uint32_t>(payload.size()) + 1);
  seg.bump += need;
  seg.live_records += 1;
  seg.live_payload += payload.size();
  return pack_ref(active_, off);
}

void MmapSampleStore::append_tombstone_locked(data::SampleId id) {
  if (active_ == SIZE_MAX ||
      segs_[active_].bump + kHeaderBytes > segs_[active_].map_len) {
    new_segment_locked(0);
  }
  Segment& act = segs_[active_];
  std::byte* rec = act.base + act.bump;
  store_u32(rec + 4, static_cast<std::uint32_t>(id));
  store_u32(rec, kTombstone);
  act.bump += kHeaderBytes;
}

void MmapSampleStore::quarantine_locked(std::uint64_t ref, std::uint32_t len) {
  Segment& seg = segs_[ref_seg(ref)];
  seg.live_records -= 1;
  seg.live_payload -= len;
  seg.quarantined_records += 1;
  // analyze:alloc-ok quarantine FIFO reuses its buffer across reclaim waves
  quarantine_.push_back({ref, len, epoch_});
  quarantined_bytes_ += len;
}

void MmapSampleStore::save(data::SampleId id,
                           std::span<const std::byte> payload) {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t old_ref = 0;
  const bool had = index_.find(id, old_ref);
  const std::size_t old_len =
      had ? load_u32(segs_[ref_seg(old_ref)].base + ref_off(old_ref)) - 1 : 0;
  if (cfg_.capacity_bytes != 0) {
    // Byte-exact (1+Q)*N/M bound on LIVE payload: an overwrite only
    // charges the delta, exactly like FileSampleStore's directory.
    DSHUF_CHECK_LE(live_bytes_ - old_len + payload.size(),
                   cfg_.capacity_bytes,
                   "mmap_store: save(" << id
                                       << ") exceeds capacity_bytes bound");
  }
  const std::uint64_t ref = append_locked(id, payload);
  index_.put(id, ref);
  if (had) quarantine_locked(old_ref, static_cast<std::uint32_t>(old_len));
  live_bytes_ += payload.size() - old_len;
  DSHUF_COUNTER("store.saves").add(1);
}

std::span<const std::byte> MmapSampleStore::payload_at(
    std::uint64_t ref) const {
  const Segment& seg = segs_[ref_seg(ref)];
  const std::byte* rec = seg.base + ref_off(ref);
  const std::uint32_t enc = load_u32(rec);
  return {rec + kHeaderBytes, enc - 1};
}

MmapSampleStore::PinnedView MmapSampleStore::pin(data::SampleId id) const {
  std::unique_lock<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  DSHUF_CHECK(index_.find(id, ref),
              "mmap_store: sample " << id << " not stored");
  const auto bytes = payload_at(ref);
  // Claim a pin slot while still holding the lock: reclaim (also under
  // the lock) either sees this pin or runs before the span was handed
  // out — either way it cannot free bytes a reader can still touch.
  for (std::size_t s = 0; s < kMaxPins; ++s) {
    std::uint64_t expected = 0;
    if (pins_[s].compare_exchange_strong(expected, epoch_,
                                         std::memory_order_acq_rel)) {
      DSHUF_COUNTER("store.reads").add(1);
      return PinnedView(this, s, bytes);
    }
  }
  DSHUF_CHECK(false, "mmap_store: more than " << kMaxPins
                                              << " concurrent pinned views");
  __builtin_unreachable();
}

MmapSampleStore::PinnedView::~PinnedView() {
  if (store_ != nullptr) {
    // Release ordering: every read of the span happens-before a reclaimer
    // observing the slot as free.
    store_->pins_[slot_].store(0, std::memory_order_release);
  }
}

DSHUF_NOALLOC void MmapSampleStore::read(data::SampleId id, ReadFn fn) const {
  PinnedView view = pin(id);
  // Lock dropped; the pin keeps the span stable, so fn may reenter the
  // store (e.g. the exchange deposit path saving into the same store).
  fn(view.bytes());
}

void MmapSampleStore::load_into(data::SampleId id,
                                std::vector<std::byte>& out) const {
  read(id, [&out](std::span<const std::byte> p) {
    out.insert(out.end(), p.begin(), p.end());
  });
}

void MmapSampleStore::remove(data::SampleId id) {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  DSHUF_CHECK(index_.find(id, ref),
              "remove: sample " << id << " not stored");
  index_.erase(id);
  const std::uint32_t len =
      load_u32(segs_[ref_seg(ref)].base + ref_off(ref)) - 1;
  // The record's bytes stay untouched (a pinned reader may still be on
  // them); a tombstone appended to the active segment makes the removal
  // durable across reopen.
  append_tombstone_locked(id);
  quarantine_locked(ref, len);
  live_bytes_ -= len;
  DSHUF_COUNTER("store.removes").add(1);
}

bool MmapSampleStore::contains(data::SampleId id) const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  return index_.find(id, ref);
}

std::vector<data::SampleId> MmapSampleStore::list() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::vector<data::SampleId> ids;
  ids.reserve(index_.size());
  index_.for_each(
      [&ids](data::SampleId id, std::uint64_t) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MmapSampleStore::size() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return index_.size();
}

std::size_t MmapSampleStore::disk_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return live_bytes_;
}

std::uint64_t MmapSampleStore::min_pinned_locked() const {
  std::uint64_t min = UINT64_MAX;
  for (const auto& p : pins_) {
    const std::uint64_t e = p.load(std::memory_order_acquire);
    if (e != 0 && e < min) min = e;
  }
  return min;
}

void MmapSampleStore::free_segment_locked(std::size_t seg_idx) {
  // A tombstone in this segment may be the only thing masking an older
  // record for the same id in an earlier, still-retained segment file:
  // unlinking the file as-is would resurrect that record (or a stale
  // overwritten payload) on the next reopen/replay. Re-log such
  // tombstones into the active segment first. Ids the index still holds
  // need no mask — their latest record replays after anything it
  // shadows, so sequence order already wins; and with no earlier
  // retained segment there is nothing left to mask.
  bool earlier_retained = false;
  for (std::size_t j = 0; j < seg_idx; ++j) {
    if (segs_[j].base != nullptr) {
      earlier_retained = true;
      break;
    }
  }
  if (earlier_retained) {
    // append_tombstone_locked may grow segs_; walk via stable copies.
    std::byte* const base = segs_[seg_idx].base;
    const std::size_t bump = segs_[seg_idx].bump;
    std::size_t off = 0;
    while (off + kHeaderBytes <= bump) {
      const std::uint32_t enc = load_u32(base + off);
      if (enc == 0) break;
      if (enc == kTombstone) {
        const auto id = static_cast<data::SampleId>(load_u32(base + off + 4));
        std::uint64_t cur = 0;
        if (!index_.find(id, cur)) append_tombstone_locked(id);
        off += kHeaderBytes;
      } else {
        off += kHeaderBytes + (enc - 1);
      }
    }
  }
  Segment& seg = segs_[seg_idx];  // re-fetched: the re-log may grow segs_
  ::munmap(seg.base, seg.map_len);
  seg.base = nullptr;
  // analyze:blocking-ok unlink of a dead segment file is rare + amortised
  std::error_code ec;
  fs::remove(seg.path, ec);
  if (ec) {
    LOG_WARN << "mmap_store: cannot unlink " << seg.path;
  }
  seg.map_len = 0;
  seg.bump = 0;
  if (active_ == seg_idx) active_ = SIZE_MAX;
  DSHUF_COUNTER("store.segments_freed").add(1);
}

void MmapSampleStore::reclaim_locked() {
  const std::uint64_t min_pin = min_pinned_locked();
  std::size_t retired = 0;
  while (quarantine_head_ < quarantine_.size()) {
    const Quarantined& q = quarantine_[quarantine_head_];
    // A pin taken in epoch E can only hold spans live (or quarantined)
    // at E; retiring strictly-older quarantine entries is safe.
    if (q.retire_epoch >= min_pin) break;
    Segment& seg = segs_[ref_seg(q.ref)];
    seg.quarantined_records -= 1;
    quarantined_bytes_ -= q.len;
    ++quarantine_head_;
    ++retired;
  }
  if (quarantine_head_ == quarantine_.size()) {
    quarantine_.clear();
    quarantine_head_ = 0;
  }
  // Sweep dead sealed segments: those whose last quarantined record just
  // retired, AND tombstone-only segments (zero live, zero quarantined
  // from birth) the drain above never references — without this sweep,
  // remove-heavy workloads leak mapped tombstone-only segments until
  // process exit. No pin can point into a candidate: pinning requires a
  // live record at pin time, and its later quarantine entry cannot
  // retire while the pin is held. Ascending order lets a later
  // segment's tombstones drop once everything they mask is unlinked;
  // free_segment_locked may re-log tombstones and grow segs_, so probe
  // by index against a snapshot of the count.
  const std::size_t n = segs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != active_ && segs_[i].base != nullptr && segs_[i].sealed &&
        segs_[i].live_records == 0 && segs_[i].quarantined_records == 0) {
      free_segment_locked(i);
    }
  }
  if (retired > 0) DSHUF_COUNTER("store.reclaims").add(retired);
}

void MmapSampleStore::compact_locked() {
  // Copy survivors of cold sealed segments into the active segment and
  // quarantine the originals: the same retire machinery then frees the
  // file once in-flight readers drain.
  const std::size_t n = segs_.size();  // new segments are not candidates
  for (std::size_t i = 0; i < n; ++i) {
    Segment& seg = segs_[i];
    if (seg.base == nullptr || !seg.sealed || i == active_) continue;
    if (seg.live_records == 0) continue;
    if (static_cast<double>(seg.live_payload) >=
        cfg_.compact_live_fraction * static_cast<double>(seg.bump)) {
      continue;
    }
    // append_locked below may grow segs_ and invalidate `seg`; the
    // mapping itself is stable, so walk via stable copies.
    std::byte* const base = seg.base;
    const std::size_t bump = seg.bump;
    std::size_t off = 0;
    while (off + kHeaderBytes <= bump) {
      const std::uint32_t enc = load_u32(base + off);
      if (enc == 0) break;
      if (enc == kTombstone) {
        off += kHeaderBytes;
        continue;
      }
      const std::size_t plen = enc - 1;
      const auto id = static_cast<data::SampleId>(load_u32(base + off + 4));
      std::uint64_t cur = 0;
      // Only records the index still points at are live; stale extents
      // (overwritten or removed) are already in quarantine.
      if (index_.find(id, cur) && cur == pack_ref(i, off)) {
        const std::span<const std::byte> payload{base + off + kHeaderBytes,
                                                 plen};
        const std::uint64_t moved = append_locked(id, payload);
        index_.put(id, moved);
        quarantine_locked(pack_ref(i, off),
                          static_cast<std::uint32_t>(plen));
      }
      off += kHeaderBytes + plen;
    }
    DSHUF_COUNTER("store.compactions").add(1);
  }
}

std::uint64_t MmapSampleStore::advance_epoch() {
  std::lock_guard<RankedMutex> lk(mu_);
  epoch_ += 1;
  reclaim_locked();
  compact_locked();
  update_gauges_locked();
  return epoch_;
}

void MmapSampleStore::reclaim() {
  std::lock_guard<RankedMutex> lk(mu_);
  reclaim_locked();
  update_gauges_locked();
}

void MmapSampleStore::update_gauges_locked() const {
  std::size_t resident = 0;
  std::size_t mapped = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) {
      resident += seg.map_len;
      ++mapped;
    }
  }
  DSHUF_GAUGE("store.resident_bytes").set(static_cast<std::int64_t>(resident));
  DSHUF_GAUGE("store.live_bytes").set(static_cast<std::int64_t>(live_bytes_));
  DSHUF_GAUGE("store.quarantine_bytes")
      .set(static_cast<std::int64_t>(quarantined_bytes_));
  DSHUF_GAUGE("store.segments").set(static_cast<std::int64_t>(mapped));
  const std::uint64_t lag =
      quarantine_head_ < quarantine_.size()
          ? epoch_ - quarantine_[quarantine_head_].retire_epoch
          : 0;
  DSHUF_GAUGE("store.reclaim_lag_epochs").set(static_cast<std::int64_t>(lag));
}

std::size_t MmapSampleStore::resident_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::size_t total = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) total += seg.map_len;
  }
  return total;
}

std::size_t MmapSampleStore::quarantined_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return quarantined_bytes_;
}

std::uint64_t MmapSampleStore::epoch() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return epoch_;
}

std::uint64_t MmapSampleStore::reclaim_lag() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return quarantine_head_ < quarantine_.size()
             ? epoch_ - quarantine_[quarantine_head_].retire_epoch
             : 0;
}

std::size_t MmapSampleStore::segment_count() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) ++n;
  }
  return n;
}

SlotIndexStats MmapSampleStore::index_stats() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return index_.stats();
}

}  // namespace dshuf::io
