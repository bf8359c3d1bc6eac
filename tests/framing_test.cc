// Tests for the shared wire codec (common/wire_codec): kind classification,
// length-prefix framing, hello frames, and the incremental FrameDecoder that
// both the simnet byte-charging path and the real TCP transport rely on.
// Includes a deterministic fuzz-ish round-trip: random frame batches are
// re-chunked at every possible boundary pattern and must reassemble exactly.
#include <gtest/gtest.h>

#include <cstring>

#include "common/json.h"
#include "common/rng.h"
#include "common/wire_codec.h"

namespace marlin::wire {
namespace {

Bytes make_payload(Rng& rng, std::size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

// ---------------------------------------------------------------------------
// Kind classification (shared with simnet per-kind stats)
// ---------------------------------------------------------------------------

TEST(WireCodec, KindSlotMapsWireKindByte) {
  EXPECT_EQ(kind_slot(BytesView{}), 0u);  // empty → unknown
  Bytes p{3, 0xaa};                       // kProposal
  EXPECT_EQ(kind_slot(BytesView(p.data(), p.size())), 3u);
  Bytes v{4};
  EXPECT_EQ(kind_slot(BytesView(v.data(), v.size())), 4u);
  Bytes oob{200};  // out-of-range kind byte → unknown slot
  EXPECT_EQ(kind_slot(BytesView(oob.data(), oob.size())), 0u);
}

TEST(WireCodec, KindSlotNamesMatchSimnetPins) {
  // These names are pinned by golden traces and metric labels; changing
  // them breaks the observability contract shared by both transports.
  EXPECT_EQ(kind_slot_name(0), "unknown");
  EXPECT_EQ(kind_slot_name(1), "client_request");
  EXPECT_EQ(kind_slot_name(2), "client_reply");
  EXPECT_EQ(kind_slot_name(3), "proposal");
  EXPECT_EQ(kind_slot_name(4), "vote");
  EXPECT_EQ(kind_slot_name(5), "qc_notice");
  EXPECT_EQ(kind_slot_name(6), "view_change");
  EXPECT_EQ(kind_slot_name(7), "fetch_request");
  EXPECT_EQ(kind_slot_name(8), "fetch_response");
  EXPECT_EQ(kind_slot_name(9), "snapshot_request");
  EXPECT_EQ(kind_slot_name(10), "snapshot_response");
  EXPECT_EQ(kind_slot_name(99), "unknown");  // clamped
}

// ---------------------------------------------------------------------------
// Header / frame encoding
// ---------------------------------------------------------------------------

TEST(WireCodec, HeaderIsLittleEndianU32) {
  const auto h = encode_header(0x01020304u);
  EXPECT_EQ(h[0], 0x04);
  EXPECT_EQ(h[1], 0x03);
  EXPECT_EQ(h[2], 0x02);
  EXPECT_EQ(h[3], 0x01);
}

TEST(WireCodec, AppendFramePrefixesLength) {
  Bytes out;
  Bytes payload{9, 1, 2, 3};
  append_frame(out, BytesView(payload.data(), payload.size()));
  ASSERT_EQ(out.size(), kHeaderSize + payload.size());
  EXPECT_EQ(out[0], 4);  // length LSB
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[4], 9);  // kind byte follows the header
}

TEST(WireCodec, HelloRoundTrip) {
  const Bytes hello = hello_payload(0xdeadbeefu);
  std::uint32_t id = 0;
  ASSERT_TRUE(parse_hello(BytesView(hello.data(), hello.size()), &id));
  EXPECT_EQ(id, 0xdeadbeefu);

  Bytes not_hello{3, 1, 2, 3, 4};
  EXPECT_FALSE(parse_hello(BytesView(not_hello.data(), not_hello.size()), &id));
  Bytes short_hello{kHelloKind, 1};
  EXPECT_FALSE(
      parse_hello(BytesView(short_hello.data(), short_hello.size()), &id));
}

// ---------------------------------------------------------------------------
// FrameDecoder: reassembly
// ---------------------------------------------------------------------------

TEST(FrameDecoder, SingleFrameRoundTrip) {
  Bytes stream;
  Bytes payload{4, 10, 20, 30};
  append_frame(stream, BytesView(payload.data(), payload.size()));

  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(BytesView(stream.data(), stream.size())).is_ok());
  Bytes frame;
  ASSERT_TRUE(dec.next(frame));
  EXPECT_EQ(frame, payload);
  EXPECT_FALSE(dec.next(frame));
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoder, EmptyPayloadFrame) {
  Bytes stream;
  append_frame(stream, BytesView{});
  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(BytesView(stream.data(), stream.size())).is_ok());
  Bytes frame{1, 2, 3};  // must be overwritten with empty
  ASSERT_TRUE(dec.next(frame));
  EXPECT_TRUE(frame.empty());
}

TEST(FrameDecoder, PartialReadReassembly) {
  // Feed a frame one byte at a time; it must only complete at the end.
  Bytes stream;
  Bytes payload{5, 7, 7, 7, 7, 7};
  append_frame(stream, BytesView(payload.data(), payload.size()));

  FrameDecoder dec;
  Bytes frame;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    ASSERT_TRUE(dec.feed(BytesView(stream.data() + i, 1)).is_ok());
    EXPECT_FALSE(dec.next(frame)) << "completed early at byte " << i;
  }
  ASSERT_TRUE(dec.feed(BytesView(stream.data() + stream.size() - 1, 1)).is_ok());
  ASSERT_TRUE(dec.next(frame));
  EXPECT_EQ(frame, payload);
}

TEST(FrameDecoder, TruncatedFrameStaysPending) {
  Bytes stream;
  Bytes payload = {3};
  payload.resize(100, 0x5a);
  append_frame(stream, BytesView(payload.data(), payload.size()));
  stream.resize(stream.size() - 1);  // drop the last byte

  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(BytesView(stream.data(), stream.size())).is_ok());
  Bytes frame;
  EXPECT_FALSE(dec.next(frame));
  EXPECT_GT(dec.buffered(), 0u);  // bytes retained, waiting for the rest
}

TEST(FrameDecoder, OversizeDeclarationPoisons) {
  FrameDecoder dec(/*max_payload=*/1024);
  const auto header = encode_header(1025);
  Bytes stream(header.begin(), header.end());
  const Status s = dec.feed(BytesView(stream.data(), stream.size()));
  EXPECT_FALSE(s.is_ok());
  EXPECT_TRUE(dec.poisoned());
  // A poisoned decoder never yields frames and rejects further input.
  Bytes frame;
  EXPECT_FALSE(dec.next(frame));
  Bytes more{1, 2, 3};
  EXPECT_FALSE(dec.feed(BytesView(more.data(), more.size())).is_ok());
}

TEST(FrameDecoder, OversizeDetectedEvenWhenHeaderArrivesInPieces) {
  FrameDecoder dec(/*max_payload=*/16);
  const auto header = encode_header(1u << 20);
  // First two header bytes: not enough to validate yet.
  Bytes part1(header.begin(), header.begin() + 2);
  ASSERT_TRUE(dec.feed(BytesView(part1.data(), part1.size())).is_ok());
  EXPECT_FALSE(dec.poisoned());
  Bytes part2(header.begin() + 2, header.end());
  EXPECT_FALSE(dec.feed(BytesView(part2.data(), part2.size())).is_ok());
  EXPECT_TRUE(dec.poisoned());
}

TEST(FrameDecoder, BackToBackFramesInOneChunk) {
  Bytes stream;
  Bytes a{1, 0xaa};
  Bytes b{4, 0xbb, 0xcc};
  Bytes c{2};
  append_frame(stream, BytesView(a.data(), a.size()));
  append_frame(stream, BytesView(b.data(), b.size()));
  append_frame(stream, BytesView(c.data(), c.size()));

  FrameDecoder dec;
  ASSERT_TRUE(dec.feed(BytesView(stream.data(), stream.size())).is_ok());
  Bytes frame;
  ASSERT_TRUE(dec.next(frame));
  EXPECT_EQ(frame, a);
  ASSERT_TRUE(dec.next(frame));
  EXPECT_EQ(frame, b);
  ASSERT_TRUE(dec.next(frame));
  EXPECT_EQ(frame, c);
  EXPECT_FALSE(dec.next(frame));
}

// Deterministic fuzz: random frame batches, re-chunked with random split
// points, interleaving feed() and next() — decoded frames must equal the
// originals in order, every time.
TEST(FrameDecoder, RandomizedChunkingRoundTrip) {
  Rng rng(0xf5a31ull);
  for (int round = 0; round < 200; ++round) {
    const std::size_t nframes = 1 + rng.next_below(8);
    std::vector<Bytes> frames;
    Bytes stream;
    for (std::size_t i = 0; i < nframes; ++i) {
      // Mix tiny and multi-KiB payloads so splits land inside headers,
      // inside bodies, and exactly on frame boundaries.
      const std::size_t size =
          rng.next_bool(0.3) ? rng.next_below(4)
                             : rng.next_below(4096);
      frames.push_back(make_payload(rng, size));
      append_frame(stream, BytesView(frames.back().data(), frames.back().size()));
    }

    FrameDecoder dec;
    std::vector<Bytes> decoded;
    std::size_t off = 0;
    Bytes frame;
    while (off < stream.size()) {
      const std::size_t chunk =
          1 + rng.next_below(std::min<std::uint64_t>(stream.size() - off, 977));
      ASSERT_TRUE(dec.feed(BytesView(stream.data() + off, chunk)).is_ok());
      off += chunk;
      if (rng.next_bool(0.7)) {
        while (dec.next(frame)) decoded.push_back(frame);
      }
    }
    while (dec.next(frame)) decoded.push_back(frame);

    ASSERT_EQ(decoded.size(), frames.size()) << "round " << round;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(decoded[i], frames[i]) << "round " << round << " frame " << i;
    }
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

// Long-lived connection: the decoder must not accrete consumed bytes.
TEST(FrameDecoder, CompactsConsumedPrefix) {
  Rng rng(7);
  FrameDecoder dec;
  Bytes frame;
  for (int i = 0; i < 2000; ++i) {
    Bytes payload = make_payload(rng, 512);
    Bytes stream;
    append_frame(stream, BytesView(payload.data(), payload.size()));
    ASSERT_TRUE(dec.feed(BytesView(stream.data(), stream.size())).is_ok());
    ASSERT_TRUE(dec.next(frame));
    ASSERT_EQ(frame, payload);
  }
  // ~1 MiB passed through; retained buffer must stay bounded (well under
  // the 64 KiB compaction threshold plus one frame).
  EXPECT_LT(dec.buffered(), (80u << 10));
}

// ---------------------------------------------------------------------------
// common/json — the extracted document parser (shared by fault plans and
// cluster configs) keeps its error behaviour.
// ---------------------------------------------------------------------------

TEST(Json, ParsesDocument) {
  auto doc = json::parse(R"({"n": 4, "name": "x", "flags": [true, null]})");
  ASSERT_TRUE(doc.is_ok());
  const json::Object* o = doc.value().object();
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(json::get_num(*o, "n", 0), 4.0);
  EXPECT_EQ(json::get_str(*o, "name", ""), "x");
  ASSERT_NE(o->find("flags"), o->end());
  EXPECT_NE(o->at("flags").array(), nullptr);
}

TEST(Json, MalformedDocumentsReportBytePosition) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{} trailing"}) {
    auto doc = json::parse(bad);
    EXPECT_FALSE(doc.is_ok()) << bad;
    EXPECT_NE(doc.status().message().find("at byte"), std::string::npos) << bad;
  }
}

TEST(Json, TypedAccessorsFallBackOnTypeMismatch) {
  auto doc = json::parse(R"({"s": "str", "n": 3, "b": true, "o": {"k": 1}})");
  ASSERT_TRUE(doc.is_ok());
  const json::Object& o = *doc.value().object();
  EXPECT_EQ(json::get_num(o, "s", -1.0), -1.0);   // string, not number
  EXPECT_EQ(json::get_str(o, "n", "dflt"), "dflt");
  EXPECT_TRUE(json::get_bool(o, "missing", true));
  EXPECT_FALSE(json::get_bool(o, "n", false));
  ASSERT_NE(json::get_object(o, "o"), nullptr);
  EXPECT_EQ(json::get_object(o, "s"), nullptr);
}

TEST(Json, EscaperRoundTripsControlCharactersAndParserRejectsRawOnes) {
  const std::string raw = "q\"b\\n\nt\tr\r\x01\x1f";
  std::string doc = "{\"k\": \"";
  json::append_escaped(doc, raw);
  doc += "\"}";
  auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(json::get_str(*parsed.value().object(), "k", ""), raw);
  // RFC 8259: control characters inside a string must be escaped.
  EXPECT_FALSE(json::parse("{\"k\": \"a\nb\"}").is_ok());
}

}  // namespace
}  // namespace marlin::wire
