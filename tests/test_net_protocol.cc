// Protocol-layer tests: JSON parse/dump over adversarial input, the
// escape scanner against a byte-at-a-time writer across every word
// boundary, frame reassembly split at EVERY byte boundary, oversized/
// zero-frame rejection, request/response codec round trips, the response
// writer against the JsonValue tree, and the id and budget ranges — the
// pure-computation half of the network front-end (no sockets; see
// test_net_serve.cc for the wire).
#include "serve/net/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"

namespace cqads::serve::net {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalarsAndStructures) {
  auto v = JsonValue::Parse(
      R"({"a":1,"b":-2.5,"c":"x","d":true,"e":null,"f":[1,2,3],"g":{"h":0}})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue& o = v.value();
  EXPECT_EQ(o.GetNumber("a"), 1.0);
  EXPECT_EQ(o.GetNumber("b"), -2.5);
  EXPECT_EQ(o.GetString("c"), "x");
  EXPECT_TRUE(o.GetBool("d"));
  ASSERT_NE(o.Find("e"), nullptr);
  EXPECT_TRUE(o.Find("e")->is_null());
  ASSERT_NE(o.Find("f"), nullptr);
  EXPECT_EQ(o.Find("f")->array_items().size(), 3u);
  ASSERT_NE(o.Find("g"), nullptr);
  EXPECT_EQ(o.Find("g")->GetNumber("h", -1.0), 0.0);
}

TEST(JsonTest, DumpParsesBackIdentically) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(1234567890123.0));
  v.Set("text", JsonValue::Str("line\nquote\"back\\slash\ttab"));
  v.Set("neg", JsonValue::Number(-0.125));
  v.Set("flag", JsonValue::Bool(false));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str(""));
  arr.Append(JsonValue::Null());
  v.Set("arr", std::move(arr));
  const std::string dumped = v.Dump();
  auto back = JsonValue::Parse(dumped);
  ASSERT_TRUE(back.ok()) << back.status() << " from " << dumped;
  // A second dump must be byte-identical: the writer is deterministic and
  // the parser preserves member order.
  EXPECT_EQ(back.value().Dump(), dumped);
  EXPECT_EQ(back.value().GetString("text"), "line\nquote\"back\\slash\ttab");
  EXPECT_EQ(back.value().GetNumber("id"), 1234567890123.0);
}

TEST(JsonTest, IntegralNumbersRoundTripExactly) {
  // Request ids ride JSON numbers; they must not pick up exponent forms.
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(9007199254740991.0));  // 2^53 - 1
  EXPECT_EQ(v.Dump(), "{\"id\":9007199254740991}");
  auto back = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().GetNumber("id"), 9007199254740991.0);
}

TEST(JsonTest, DecodesEscapesIncludingSurrogatePairs) {
  auto v = JsonValue::Parse(R"("a\u0041\n\u00e9\u20ac\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v.value().string_value(),
            "aA\n\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(JsonTest, ControlBytesSurviveEscapedRoundTrip) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\x7f\xc3\xa9";  // DEL passes through; UTF-8 passes through
  std::string dumped;
  JsonEscape(raw, &dumped);
  auto back = JsonValue::Parse(dumped);
  ASSERT_TRUE(back.ok()) << back.status() << " from " << dumped;
  EXPECT_EQ(back.value().string_value(), raw);
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // truncated object
      "[1,2",                  // truncated array
      "\"abc",                 // unterminated string
      "{\"a\":}",              // missing value
      "{\"a\":1,}",            // trailing comma
      "{a:1}",                 // unquoted key
      "[1] garbage",           // trailing bytes
      "nul",                   // bad literal
      "01x",                   // bad number tail
      "\"\\q\"",               // bad escape
      "\"\\u12\"",             // truncated \u
      "\"\\ud800\"",           // unpaired high surrogate
      "\"\\udc00\"",           // unpaired low surrogate
      "\"raw\ncontrol\"",      // raw control byte in string
      "{\"a\" 1}",             // missing colon
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
}

// JSON string escaping one byte at a time — the reference JsonEscape must
// match byte for byte.
std::string ReferenceEscape(std::string_view s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out += '"';
  return out;
}

TEST(JsonTest, EscapeAndParseAgreeWithByteAtATimeAcrossWordBoundaries) {
  // Clean filler bytes, among them the neighbours of the quote (0x22), the
  // backslash (0x5c) and 0x20, DEL, and bytes with the high bit set.
  const std::string filler = "a!#[] \x7f\x80\xff\xc3\xa9Z";
  for (std::size_t len = 0; len <= 40; ++len) {
    std::string base;
    for (std::size_t i = 0; i < len; ++i) {
      base.push_back(filler[i % filler.size()]);
    }
    std::vector<std::string> cases = {base};
    for (int c = 0; c < 256; ++c) cases.emplace_back(len, static_cast<char>(c));
    for (std::size_t offset = 0; offset < std::min<std::size_t>(len, 18);
         ++offset) {
      for (int c = 0; c < 256; ++c) {
        cases.push_back(base);
        cases.back()[offset] = static_cast<char>(c);
        if (c >= 0x20) continue;
        // A raw control byte inside a literal is rejected where it sits.
        const auto raw = JsonValue::Parse("\"" + cases.back() + "\"");
        ASSERT_FALSE(raw.ok()) << "len " << len << " offset " << offset;
        EXPECT_NE(raw.status().message().find(
                      "raw control byte in string at byte " +
                      std::to_string(offset + 1)),
                  std::string::npos)
            << raw.status();
      }
    }
    for (const std::string& s : cases) {
      std::string escaped;
      JsonEscape(s, &escaped);
      ASSERT_EQ(escaped, ReferenceEscape(s)) << "len " << len;
      const auto back = JsonValue::Parse(escaped);
      ASSERT_TRUE(back.ok()) << back.status() << " from " << escaped;
      ASSERT_EQ(back.value().string_value(), s) << "len " << len;
    }
    // Unterminated, with and without a dangling backslash.
    EXPECT_FALSE(JsonValue::Parse("\"" + base).ok()) << "len " << len;
    EXPECT_FALSE(JsonValue::Parse("\"" + base + "\\").ok()) << "len " << len;
  }
}

TEST(JsonTest, NumbersMatchPrintf) {
  // Integral values below 2^53 print as "%" PRId64, other finite values as
  // "%.17g", inf and nan as null.
  const auto reference = [](double d) -> std::string {
    if (!std::isfinite(d)) return "null";
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {
      std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    return buf;
  };
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e16, 1e17, 1e21, 1e300,
      9007199254740991.0, 9007199254740992.0, -9007199254740992.0,
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      Limits::denorm_min(), Limits::min(), Limits::max(), -Limits::max()};
  std::mt19937_64 bits(53);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t pattern = bits();
    double d = 0.0;
    std::memcpy(&d, &pattern, sizeof(d));
    values.push_back(d);
    values.push_back(static_cast<double>(static_cast<std::int64_t>(pattern) >>
                                         (pattern % 64)));
  }
  for (double d : values) {
    std::string out;
    JsonAppendNumber(d, &out);
    ASSERT_EQ(out, reference(d));
  }
}

TEST(JsonTest, RejectsExcessiveNestingWithoutCrashing) {
  std::string deep(2000, '[');
  deep.append(2000, ']');
  auto v = JsonValue::Parse(deep);
  EXPECT_FALSE(v.ok());
}

// ---------------------------------------------------------------- frames

TEST(FrameTest, EncodesLittleEndianLengthPrefix) {
  std::string out;
  AppendFrame("abc", &out);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 0);
  EXPECT_EQ(out.substr(4), "abc");
}

TEST(FrameTest, ReassemblesAcrossEverySplitBoundary) {
  // Two frames, split into (first k bytes, rest) for every k: the decoder
  // must produce exactly the same two payloads regardless of where the
  // transport happened to cut the stream.
  std::string wire;
  AppendFrame("hello world", &wire);
  AppendFrame(std::string(300, 'x') + "\x01\x02\xff", &wire);
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), split);
    std::vector<std::string> frames;
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
    decoder.Feed(wire.data() + split, wire.size() - split);
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0], "hello world") << "split at " << split;
    EXPECT_EQ(frames[1], std::string(300, 'x') + "\x01\x02\xff")
        << "split at " << split;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "split at " << split;
  }
}

TEST(FrameTest, ReassemblesFedOneByteAtATime) {
  std::string wire;
  AppendFrame("q", &wire);
  AppendFrame("rs", &wire);
  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (char c : wire) {
    decoder.Feed(&c, 1);
    std::string payload;
    while (decoder.Pop(&payload) == FrameDecoder::Next::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "q");
  EXPECT_EQ(frames[1], "rs");
}

TEST(FrameTest, RejectsZeroLengthFrame) {
  FrameDecoder decoder;
  const char zeros[4] = {0, 0, 0, 0};
  decoder.Feed(zeros, 4);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("zero-length"), std::string::npos);
  // The error state is sticky: more bytes never resynchronize.
  std::string more;
  AppendFrame("ok", &more);
  decoder.Feed(more.data(), more.size());
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
}

TEST(FrameTest, RejectsOversizedFrameFromHeaderAlone) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // Header declares 1025 bytes; the decoder must reject on the header,
  // before any payload arrives (never buffering toward a hostile length).
  const char header[4] = {0x01, 0x04, 0, 0};
  decoder.Feed(header, 4);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("exceeds cap"), std::string::npos);
}

TEST(FrameTest, PartialHeaderNeedsMore) {
  FrameDecoder decoder;
  const char partial[3] = {9, 0, 0};
  decoder.Feed(partial, 3);
  std::string payload;
  EXPECT_EQ(decoder.Pop(&payload), FrameDecoder::Next::kNeedMore);
}

// ---------------------------------------------------------------- codec

TEST(CodecTest, RequestRoundTrips) {
  Request request;
  request.id = 42;
  request.method = "ask_in_domain";
  request.domain = "cars";
  request.question = "red honda \"accord\" under $9,000\nwith sunroof";
  request.budget_ms = 25.5;
  auto back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().id, 42u);
  EXPECT_EQ(back.value().method, "ask_in_domain");
  EXPECT_EQ(back.value().domain, "cars");
  EXPECT_EQ(back.value().question, request.question);
  EXPECT_DOUBLE_EQ(back.value().budget_ms, 25.5);
}

TEST(CodecTest, NegativeBudgetRoundTrips) {
  Request request;
  request.id = 1;
  request.method = "ask";
  request.question = "q";
  request.budget_ms = -1.0;  // the already-expired test hook
  auto back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back.value().budget_ms, -1.0);
}

TEST(CodecTest, RejectsMalformedRequests) {
  EXPECT_FALSE(DecodeRequest("not json").ok());
  EXPECT_FALSE(DecodeRequest("[1,2,3]").ok());          // not an object
  EXPECT_FALSE(DecodeRequest("{\"id\":1}").ok());       // no method
  EXPECT_FALSE(DecodeRequest("{\"method\":7}").ok());   // non-string method
  EXPECT_FALSE(DecodeRequest("{\"id\":-3,\"method\":\"ask\"}").ok());
}

TEST(CodecTest, ResponseRoundTripsEveryStatus) {
  const StatusCode codes[] = {
      StatusCode::kOk,         StatusCode::kInvalidArgument,
      StatusCode::kNotFound,   StatusCode::kDeadlineExceeded,
      StatusCode::kOverloaded, StatusCode::kInternal,
      StatusCode::kDataLoss,
  };
  for (StatusCode code : codes) {
    Response response;
    response.id = 7;
    response.status = WireStatusName(code);
    if (code != StatusCode::kOk) response.error = "why";
    response.degraded = (code == StatusCode::kOk);
    response.domain = "jewellery";
    response.canonical = "domain=jewellery\nrow=3 exact=1\n";
    auto back = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value().id, 7u);
    EXPECT_EQ(back.value().status, WireStatusName(code));
    EXPECT_EQ(WireStatusCode(back.value().status), code);
    EXPECT_EQ(back.value().degraded, response.degraded);
    EXPECT_EQ(back.value().canonical, response.canonical);
  }
}

TEST(CodecTest, StatszStatsNestAsRealJson) {
  Response response;
  response.id = 9;
  response.stats_json = "{\"answered\":12,\"net\":{\"frames_in\":34}}";
  const std::string encoded = EncodeResponse(response);
  auto doc = JsonValue::Parse(encoded);
  ASSERT_TRUE(doc.ok());
  const JsonValue* stats = doc.value().Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->is_object()) << "stats must nest as an object, not a "
                                     "quoted blob: "
                                  << encoded;
  EXPECT_EQ(stats->GetNumber("answered"), 12.0);
  auto back = DecodeResponse(encoded);
  ASSERT_TRUE(back.ok());
  auto inner = JsonValue::Parse(back.value().stats_json);
  ASSERT_TRUE(inner.ok());
  ASSERT_NE(inner.value().Find("net"), nullptr);
  EXPECT_EQ(inner.value().Find("net")->GetNumber("frames_in"), 34.0);
}

// The response as the JsonValue tree writes it — EncodeResponse must keep
// these bytes.
std::string ReferenceEncodeResponse(const Response& response) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(response.id)));
  v.Set("status", JsonValue::Str(response.status));
  if (!response.error.empty()) {
    v.Set("error", JsonValue::Str(response.error));
  }
  if (response.degraded) v.Set("degraded", JsonValue::Bool(true));
  if (!response.domain.empty()) {
    v.Set("domain", JsonValue::Str(response.domain));
  }
  if (!response.canonical.empty()) {
    v.Set("canonical", JsonValue::Str(response.canonical));
  }
  if (!response.stats_json.empty()) {
    auto stats = JsonValue::Parse(response.stats_json);
    v.Set("stats", stats.ok() ? std::move(stats).value()
                              : JsonValue::Str(response.stats_json));
  }
  return v.Dump();
}

TEST(CodecTest, EncodeResponseMatchesTreeWriter) {
  const std::uint64_t ids[] = {0, (std::uint64_t{1} << 53) - 1,
                               std::uint64_t{1} << 53};
  const std::string canonical =
      "domain=cars\nsql=SELECT * FROM cars WHERE make = 'honda'\n"
      "interpretation=\"red\" \\ honda\x01\t\xc3\xa9\ncontradiction=0\n"
      "exact_count=1\nrow=4294967295 exact=1 rank_sim=2 measure=\n"
      "row=0 exact=0 rank_sim=0.83333333333333337 measure=TI_Sim on Make\n";
  const std::string stats[] = {
      "", "{\"answered\":12,\"ratio\":0.1,\"net\":{\"frames_in\":34}}",
      "not json: \"quoted\"\n"};
  for (std::uint64_t id : ids) {
    for (int mask = 0; mask < 16; ++mask) {
      for (const std::string& stats_json : stats) {
        Response response;
        response.id = id;
        if ((mask & 1) != 0) {
          response.status = "overloaded";
          response.error = "queue \"full\"\n";
        }
        response.degraded = (mask & 2) != 0;
        if ((mask & 4) != 0) response.domain = "jewellery";
        if ((mask & 8) != 0) response.canonical = canonical;
        response.stats_json = stats_json;
        const std::string encoded = EncodeResponse(response);
        ASSERT_EQ(encoded, ReferenceEncodeResponse(response))
            << "id " << id << " mask " << mask << " stats " << stats_json;
        auto back = DecodeResponse(encoded);
        ASSERT_TRUE(back.ok()) << back.status() << " from " << encoded;
        EXPECT_EQ(back.value().id, id);
        EXPECT_EQ(back.value().status, response.status);
        EXPECT_EQ(back.value().error, response.error);
        EXPECT_EQ(back.value().degraded, response.degraded);
        EXPECT_EQ(back.value().domain, response.domain);
        EXPECT_EQ(back.value().canonical, response.canonical);
      }
    }
  }
}

TEST(CodecTest, IdsOutsideZeroTo2Pow53AreRejected) {
  // Casting a double beyond uint64_t's range to it is undefined behaviour;
  // past 2^53 a JSON number no longer carries every integer.
  const char* bad[] = {"-1",    "-0.5",  "9007199254740994", "1e19",
                       "1e300", "-1e300", "18446744073709551616"};
  for (const char* id : bad) {
    auto request = DecodeRequest(std::string("{\"id\":") + id +
                                 ",\"method\":\"ask\",\"question\":\"q\"}");
    ASSERT_FALSE(request.ok()) << id;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << id;
    auto response =
        DecodeResponse(std::string("{\"id\":") + id + ",\"status\":\"ok\"}");
    ASSERT_FALSE(response.ok()) << id;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument) << id;
  }
  const auto overflowing = DecodeRequest(
      R"({"id":1e300,"method":"ask","question":"q","budget_ms":1e300})");
  ASSERT_FALSE(overflowing.ok());
  EXPECT_EQ(overflowing.status().code(), StatusCode::kInvalidArgument);

  const std::pair<const char*, std::uint64_t> good[] = {
      {"0", 0},
      {"-0", 0},
      {"9007199254740991", (std::uint64_t{1} << 53) - 1},
      {"9007199254740992", std::uint64_t{1} << 53}};
  for (const auto& [text, id] : good) {
    auto request = DecodeRequest(std::string("{\"id\":") + text +
                                 ",\"method\":\"ping\"}");
    ASSERT_TRUE(request.ok()) << text << ": " << request.status();
    EXPECT_EQ(request.value().id, id);
    auto response =
        DecodeResponse(std::string("{\"id\":") + text + ",\"status\":\"ok\"}");
    ASSERT_TRUE(response.ok()) << text << ": " << response.status();
    EXPECT_EQ(response.value().id, id);
  }
}

TEST(CodecTest, BudgetsBeyondTheClockMeanNoDeadline) {
  using std::chrono::milliseconds;
  EXPECT_TRUE(BudgetToDeadline(0.0).is_infinite());
  EXPECT_TRUE(BudgetToDeadline(std::nan("")).is_infinite());
  EXPECT_TRUE(BudgetToDeadline(kMaxBudgetMs).is_infinite());
  EXPECT_TRUE(BudgetToDeadline(1e300).is_infinite());
  EXPECT_TRUE(
      BudgetToDeadline(std::numeric_limits<double>::infinity()).is_infinite());

  const Deadline longest = BudgetToDeadline(std::nextafter(kMaxBudgetMs, 0.0));
  EXPECT_FALSE(longest.is_infinite());
  EXPECT_FALSE(longest.expired());
  EXPECT_GT(longest.remaining(), std::chrono::hours(24 * 365 * 145));

  const Deadline brief = BudgetToDeadline(25.0);
  EXPECT_FALSE(brief.is_infinite());
  EXPECT_LE(brief.remaining(), milliseconds(25));

  EXPECT_TRUE(BudgetToDeadline(-1.0).expired());
  EXPECT_TRUE(BudgetToDeadline(-1e300).expired());
}

TEST(CodecTest, WireStatusNamesInvert) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    EXPECT_EQ(WireStatusCode(WireStatusName(code)), code);
  }
  EXPECT_EQ(WireStatusCode("no_such_status"), StatusCode::kInternal);
}

// ------------------------------------------------------------- histogram

TEST(HistogramTest, PercentilesTrackKnownDistribution) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.max_micros(), 10000.0);
  // Log-linear buckets guarantee ~3% relative error.
  EXPECT_NEAR(h.PercentileMicros(0.50), 5000.0, 5000.0 * 0.04);
  EXPECT_NEAR(h.PercentileMicros(0.99), 9900.0, 9900.0 * 0.04);
  EXPECT_NEAR(h.PercentileMicros(0.999), 9990.0, 9990.0 * 0.04);
  EXPECT_NEAR(h.mean_micros(), 5000.5, 0.01);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const double v = 17.0 * i + 3.0;
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.max_micros(), combined.max_micros());
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.PercentileMicros(q), combined.PercentileMicros(q));
  }
}

TEST(HistogramTest, HandlesExtremes) {
  LatencyHistogram h;
  h.Record(0.0);
  h.Record(-5.0);  // clamps to zero
  h.Record(1e12);  // clamps into the top bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.PercentileMicros(1.0), 1e8);
  EXPECT_LT(h.PercentileMicros(0.01), 1.0);
}

}  // namespace
}  // namespace cqads::serve::net
