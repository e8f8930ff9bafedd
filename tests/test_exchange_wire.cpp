// Wire-format contract of the coalesced exchange frame: golden bytes
// (little-endian layout is part of the format, not an implementation
// detail), round-trips through FrameWriter/parse_frame including the
// degenerate corners, rejection of truncated or inconsistent frames, the
// pinned per-epoch tag layout, and end-to-end bit-identity of framed
// exchanges with the sequential driver.
#include "shuffle/exchange_wire.hpp"

#include <gtest/gtest.h>

#include "shuffle/exchange_tags.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "util/error.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::byte> bytes_from(std::initializer_list<unsigned> raw) {
  std::vector<std::byte> out;
  for (unsigned v : raw) out.push_back(static_cast<std::byte>(v));
  return out;
}

// ------------------------------------------------------------------ codec --

TEST(ExchangeFrameFormat, GoldenFrameBytes) {
  // Two samples: id 7 with payload {0xAA, 0xBB}, id 0xFFFFFFFF (the
  // maximum SampleId) with an empty payload, framed with the v2 trace
  // context (origin 3, flow id frame_flow_id(5, 3, 1)). Every byte below
  // is pinned: changing the layout must break this test.
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/5, /*origin=*/3,
                frame_flow_id(/*epoch=*/5, /*origin=*/3, /*dest=*/1),
                /*count=*/2);
  w.begin_sample(7);
  buf.push_back(std::byte{0xAA});
  buf.push_back(std::byte{0xBB});
  w.begin_sample(0xFFFFFFFFU);
  w.finish();

  // frame_flow_id(5, 3, 1) = (5 << 26) | (3 << 13) | 1 = 0x14006001.
  const auto golden = bytes_from({
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch = 5 (u64 LE)
      0x03, 0x00, 0x00, 0x00,                          // origin = 3
      0x01, 0x60, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00,  // flow id (u64 LE)
      0x02, 0x00, 0x00, 0x00,                          // count = 2
      0x00, 0x00, 0x00, 0x00,                          // offsets[0] = 0
      0x06, 0x00, 0x00, 0x00,                          // offsets[1] = 6
      0x0A, 0x00, 0x00, 0x00,                          // offsets[2] = 10
      0x07, 0x00, 0x00, 0x00, 0xAA, 0xBB,              // sample 0
      0xFF, 0xFF, 0xFF, 0xFF,                          // sample 1 (no body)
  });
  EXPECT_EQ(buf, golden);
  EXPECT_EQ(buf.size(), frame_header_bytes(2) + 10);

  const FrameView v = parse_frame(buf);
  EXPECT_EQ(v.epoch(), 5U);
  EXPECT_EQ(v.origin(), 3U);
  EXPECT_EQ(v.flow_id(), frame_flow_id(5, 3, 1));
  EXPECT_EQ(v.count(), 2U);
  EXPECT_EQ(v.id(0), 7U);
  EXPECT_EQ(v.id(1), 0xFFFFFFFFU);
  ASSERT_EQ(v.payload(0).size(), 2U);
  EXPECT_EQ(v.payload(0)[0], std::byte{0xAA});
  EXPECT_EQ(v.payload(0)[1], std::byte{0xBB});
  EXPECT_TRUE(v.payload(1).empty());
}

TEST(ExchangeFrameFormat, FrameFlowIdsAreDeterministic) {
  // Frame ids are a pure function of (epoch, origin, dest): both endpoints
  // must derive the same value, and distinct frames distinct ones.
  EXPECT_EQ(frame_flow_id(5, 3, 1), frame_flow_id(5, 3, 1));
  EXPECT_NE(frame_flow_id(5, 3, 1), frame_flow_id(5, 1, 3));
  EXPECT_NE(frame_flow_id(5, 3, 1), frame_flow_id(6, 3, 1));
}

// ------------------------------------------------------------------- tags --

TEST(ExchangeFrameFormat, FrameTagsKeepTheirPinnedValues) {
  // FaultPlan::decide hashes the message tag, so every seeded chaos
  // schedule depends on these exact numbers. The window still reserves
  // the unused 2*quota low region ahead of the frame tags.
  EXPECT_EQ(epoch_tag_span(5, 4), 18U);
  EXPECT_EQ(epoch_tag_base(0, 5, 4), 0U);
  EXPECT_EQ(epoch_tag_base(3, 5, 4), 54U);
  EXPECT_EQ(frame_data_tag(54, 5, 0), 64);
  EXPECT_EQ(frame_data_tag(54, 5, 2), 68);
  EXPECT_EQ(frame_ack_tag(54, 5, 2), 69);
  EXPECT_EQ(frame_ack_tag(54, 5, 3), 71);
  // Quota 16 over 4 ranks (the alloc-test shape), epoch 7.
  EXPECT_EQ(epoch_tag_base(7, 16, 4), 280U);
  EXPECT_EQ(frame_data_tag(280, 16, 1), 314);
  // The window must fit in the int-typed tag space.
  EXPECT_THROW((void)epoch_tag_base(std::size_t{1} << 30, 16, 4),
               CheckError);
}

TEST(ExchangeFrameFormat, FrameTagsStayInsideTheirEpochWindow) {
  for (const std::size_t quota : {std::size_t{1}, std::size_t{6}}) {
    for (const int workers : {1, 3, 8}) {
      const std::uint64_t span = epoch_tag_span(quota, workers);
      for (std::size_t epoch = 0; epoch < 3; ++epoch) {
        const std::uint64_t base = epoch_tag_base(epoch, quota, workers);
        const std::uint64_t next = epoch_tag_base(epoch + 1, quota, workers);
        EXPECT_EQ(next, base + span);
        // The low region carries no frame.
        for (std::uint64_t t = base; t < base + 2 * quota; ++t) {
          EXPECT_FALSE(is_epoch_frame_data_tag(static_cast<int>(t), base,
                                               quota, workers));
        }
        for (int origin = 0; origin < workers; ++origin) {
          const int data = frame_data_tag(base, quota, origin);
          const int ack = frame_ack_tag(base, quota, origin);
          EXPECT_TRUE(is_epoch_frame_data_tag(data, base, quota, workers));
          EXPECT_FALSE(is_epoch_frame_data_tag(ack, base, quota, workers));
          EXPECT_EQ(origin_of_frame_data_tag(data, base, quota), origin);
          EXPECT_LT(static_cast<std::uint64_t>(ack), next);
          // Another epoch's window never claims this frame.
          EXPECT_FALSE(is_epoch_frame_data_tag(data, next, quota, workers));
        }
      }
    }
  }
  EXPECT_FALSE(is_epoch_frame_data_tag(-2, 0, 1, 2));
}

TEST(ExchangeFrameFormat, ZeroCountFrameRoundTrips) {
  // A zero-quota epoch never sends frames, but the format still defines
  // the empty frame: header only, offsets = {0}.
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/0, /*origin=*/0, /*flow_id=*/0, /*count=*/0);
  w.finish();
  EXPECT_EQ(buf.size(), frame_header_bytes(0));
  const FrameView v = parse_frame(buf);
  EXPECT_EQ(v.epoch(), 0U);
  EXPECT_EQ(v.count(), 0U);
}

TEST(ExchangeFrameFormat, AllEmptyPayloadsRoundTrip) {
  std::vector<std::byte> buf;
  const std::uint32_t count = 17;
  FrameWriter w(buf, /*epoch=*/42, /*origin=*/2, frame_flow_id(42, 2, 0), count);
  for (std::uint32_t j = 0; j < count; ++j) w.begin_sample(j * 3 + 1);
  w.finish();
  EXPECT_EQ(buf.size(),
            frame_header_bytes(count) + count * sizeof(SampleId));
  const FrameView v = parse_frame(buf);
  ASSERT_EQ(v.count(), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    EXPECT_EQ(v.id(j), j * 3 + 1);
    EXPECT_TRUE(v.payload(j).empty());
  }
}

TEST(ExchangeFrameFormat, VariableLengthPayloadsRoundTrip) {
  std::vector<std::byte> buf;
  const std::uint32_t count = 9;
  FrameWriter w(buf, /*epoch=*/1234567, /*origin=*/1, frame_flow_id(1234567, 1, 2), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    w.begin_sample(1000 + j);
    // Sample j carries j bytes of payload — mixed sizes in one frame.
    for (std::uint32_t b = 0; b < j; ++b) {
      buf.push_back(static_cast<std::byte>(j ^ b));
    }
  }
  w.finish();
  const FrameView v = parse_frame(buf);
  ASSERT_EQ(v.count(), count);
  for (std::uint32_t j = 0; j < count; ++j) {
    EXPECT_EQ(v.id(j), 1000 + j);
    ASSERT_EQ(v.payload(j).size(), j);
    for (std::uint32_t b = 0; b < j; ++b) {
      EXPECT_EQ(v.payload(j)[b], static_cast<std::byte>(j ^ b));
    }
  }
}

TEST(ExchangeFrameFormat, TruncatedFramesAreRejected) {
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/5, /*origin=*/0, frame_flow_id(5, 0, 1),
                /*count=*/2);
  w.begin_sample(7);
  buf.push_back(std::byte{0xAA});
  w.begin_sample(8);
  w.finish();

  // Any strict prefix must be rejected: short body, short offset table,
  // short fixed header, empty frame.
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_THROW(
        (void)parse_frame(std::span<const std::byte>(buf.data(), len)),
        CheckError)
        << "prefix of " << len << " bytes parsed";
  }
  // The full frame parses.
  EXPECT_NO_THROW((void)parse_frame(buf));
}

TEST(ExchangeFrameFormat, CorruptOffsetTablesAreRejected) {
  const auto make = [] {
    std::vector<std::byte> buf;
    FrameWriter w(buf, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0,
                  /*count=*/2);
    w.begin_sample(1);
    buf.push_back(std::byte{0x11});
    w.begin_sample(2);
    w.finish();
    return buf;
  };

  {
    // offsets[0] != 0.
    auto buf = make();
    buf[kFrameOffsetsOff] = std::byte{1};
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
  {
    // Non-monotonic interior offset (sample shorter than its SampleId).
    auto buf = make();
    buf[kFrameOffsetsOff + 4] = std::byte{2};
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
  {
    // offsets[count] disagrees with the actual body size.
    auto buf = make();
    buf.push_back(std::byte{0x99});
    EXPECT_THROW((void)parse_frame(buf), CheckError);
  }
}

TEST(ExchangeFrameFormat, WriterEnforcesTheDeclaredCount) {
  std::vector<std::byte> buf;
  FrameWriter w(buf, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0, /*count=*/1);
  w.begin_sample(3);
  EXPECT_THROW(w.begin_sample(4), CheckError);  // one too many

  std::vector<std::byte> buf2;
  FrameWriter w2(buf2, /*epoch=*/1, /*origin=*/0, /*flow_id=*/0,
                 /*count=*/2);
  w2.begin_sample(3);
  EXPECT_THROW(w2.finish(), CheckError);  // one too few
}

// ------------------------------------------------ end-to-end identity --

std::vector<std::vector<SampleId>> make_shards(std::size_t n, int workers) {
  std::vector<std::vector<SampleId>> shards(
      static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(workers)].push_back(
        static_cast<SampleId>(i));
  }
  return shards;
}

// Run `epochs` fast-path exchange epochs (with payloads and the shared
// post-shuffle) and return the final shards.
std::vector<std::vector<SampleId>> run_fast_epochs(std::size_t n, int m,
                                                   double q,
                                                   std::uint64_t seed,
                                                   std::size_t epochs) {
  auto shards = make_shards(n, m);
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;
    stores.emplace_back(std::move(s), cap);
  }
  comm::World world(m);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(
          c, store, seed, epoch, q, min_shard,
          /*payload=*/
          [](SampleId id, std::vector<std::byte>& out) {
            out.insert(out.end(), (id % 5) + 1,
                       static_cast<std::byte>(id & 0xFF));
          },
          /*deposit=*/
          [](SampleId id, std::span<const std::byte> body) {
            ASSERT_EQ(body.size(), (id % 5) + 1);
            for (auto b : body) {
              ASSERT_EQ(b, static_cast<std::byte>(id & 0xFF));
            }
          });
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }
  std::vector<std::vector<SampleId>> out;
  for (const auto& s : stores) out.push_back(s.ids());
  return out;
}

TEST(ExchangeFrameEquivalence, FastPathsBitIdenticalAcrossSeedsAndQuotas) {
  // Framing is a pure re-encoding of the plan's rounds: for every
  // (seed, Q, M) the post-epoch shard SEQUENCES (not just sets) must match
  // the sequential driver exactly, variable-length payloads included.
  const struct {
    std::size_t n;
    int m;
    double q;
    std::uint64_t seed;
  } cases[] = {
      {48, 6, 0.25, 3},
      {48, 6, 1.0, 4},
      {40, 5, 0.5, 99},
      {16, 4, 0.1, 7},
      {6, 6, 1.0, 11},  // shard = 1: every sample in flight
  };
  for (const auto& c : cases) {
    PartialLocalShuffler pls(make_shards(c.n, c.m), c.q, c.seed);
    for (std::size_t epoch = 0; epoch < 3; ++epoch) pls.begin_epoch(epoch);
    std::vector<std::vector<SampleId>> reference;
    for (const auto& s : pls.stores()) reference.push_back(s.ids());
    EXPECT_EQ(run_fast_epochs(c.n, c.m, c.q, c.seed, 3), reference)
        << "framed exchange diverged at n=" << c.n << " m=" << c.m
        << " q=" << c.q << " seed=" << c.seed;
  }
}

}  // namespace
}  // namespace dshuf::shuffle
