// Unit tests for src/common: errors, strings, JSON codec, RNG, clocks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "nn/serialize.h"
#include "nn/zoo.h"

namespace openei::common {
namespace {

TEST(ErrorTest, CheckMacroThrowsWithMessage) {
  try {
    OPENEI_CHECK(1 == 2, "context ", 42);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw NotFound("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw ResourceExhausted("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitNonemptyDropsEmptyFields) {
  auto parts = split_nonempty("/ei_algorithms//safety/detection/", '/');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0], "ei_algorithms");
  EXPECT_EQ(parts[1], "safety");
  EXPECT_EQ(parts[2], "detection");
}

TEST(StringsTest, TrimStripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("GET /path", "GET"));
  EXPECT_FALSE(starts_with("GE", "GET"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringsTest, ToLower) { EXPECT_EQ(to_lower("Content-TYPE"), "content-type"); }

TEST(StringsTest, UriDecodeHandlesEscapesAndPlus) {
  EXPECT_EQ(uri_decode("a%20b+c"), "a b c");
  EXPECT_EQ(uri_decode("%2Fpath%3Fq"), "/path?q");
}

TEST(StringsTest, UriDecodeRejectsMalformedEscapes) {
  EXPECT_THROW(uri_decode("%2"), ParseError);
  EXPECT_THROW(uri_decode("%zz"), ParseError);
}

TEST(StringsTest, UriEncodeRoundTrips) {
  std::string original = "camera 1/stream?t=5&x=%";
  EXPECT_EQ(uri_decode(uri_encode(original)), original);
}

TEST(StringsTest, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(join({}, "/"), "");
  EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  Json v = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "text"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3U);
  EXPECT_TRUE(v.at("a").at(2).at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "text");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("missing"));
}

TEST(JsonTest, AtThrowsNotFoundForMissingKey) {
  Json v = Json::parse(R"({"a": 1})");
  EXPECT_THROW(v.at("b"), NotFound);
}

TEST(JsonTest, TypeMismatchThrows) {
  Json v = Json::parse("42");
  EXPECT_THROW(v.as_string(), InvalidArgument);
  EXPECT_THROW(v.as_array(), InvalidArgument);
  EXPECT_THROW(v.as_object(), InvalidArgument);
}

TEST(JsonTest, DumpRoundTripsStructures) {
  std::string text = R"({"name":"openei","alem":[0.91,12.5,0.8,64],"ok":true,"n":null})";
  Json v = Json::parse(text);
  Json again = Json::parse(v.dump());
  EXPECT_EQ(v, again);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  Json v(std::string("line1\nline2\t\"quoted\"\\slash"));
  Json back = Json::parse(v.dump());
  EXPECT_EQ(back.as_string(), "line1\nline2\t\"quoted\"\\slash");
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  Json v = Json::parse(R"("é中")");
  EXPECT_EQ(v.as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::parse("tru"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("--3"), ParseError);
  // RFC 8259 number grammar: no dangling exponent, no leading zero, a digit
  // on both sides of the '.'.
  for (const char* bad : {"1e", "1e+", "01", ".5", "-.5", "[1.,.5]", "1."}) {
    EXPECT_THROW(Json::parse(bad), ParseError) << bad;
  }
}

TEST(JsonTest, DeepNestingIsRejectedNotStackOverflowed) {
  std::string bomb(100000, '[');
  EXPECT_THROW(Json::parse(bomb), ParseError);
  // A structure just under the limit still parses.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_NO_THROW(Json::parse(deep));
}

TEST(JsonTest, SetInsertsAndReplacesPreservingOrder) {
  Json v;  // null -> becomes object on first set
  v.set("b", Json(1));
  v.set("a", Json(2));
  v.set("b", Json(3));
  EXPECT_EQ(v.as_object().size(), 2U);
  EXPECT_EQ(v.as_object()[0].first, "b");
  EXPECT_EQ(v.at("b").as_int(), 3);
  EXPECT_EQ(v.at("a").as_int(), 2);
}

TEST(JsonTest, IntegersSerializeWithoutDecimalPoint) {
  Json v(JsonObject{{"n", Json(42)}});
  EXPECT_EQ(v.dump(), R"({"n":42})");
}

TEST(JsonTest, NanSerializesAsNull) {
  Json v(std::nan(""));
  EXPECT_EQ(v.dump(), "null");
}

TEST(JsonTest, PrettyOutputParsesBack) {
  Json v = Json::parse(R"({"a":[1,2],"b":{"c":null}})");
  EXPECT_EQ(Json::parse(v.pretty()), v);
}

std::string printf_double(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// Model weights reach the edge as JSON text, so every number the codec reads
// must be the double strtod reads from the same token, bit for bit.
TEST(JsonTest, NumbersParseBitIdenticalToStrtod) {
  std::vector<std::string> corpus = {
      "0", "-0", "-0.0", "1E+5", "1e-5", "2.5e+0", "1.0", "-0.5", "9007199254740993",
      "1e400", "-1e400", "1e-400", "-1e-400", "1e-320",
      "4.9406564584124654e-324", "2.4703282292062327e-324", "2.2250738585072009e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
      "3.14159265358979323846264338327950288419716939937510582097494459",
      "0.000000000000000000000000000000000000000012345678901234567890123456789",
      "123456789012345678901234567890123456789012345678901234567890e-40",
      "0.10000000000000000555111512312578270211815834045410156250000001"};
  std::mt19937_64 bits(20190707);
  std::normal_distribution<float> weight(0.0F, 0.5F);
  for (int i = 0; i < 20000; ++i) {
    double random = std::bit_cast<double>(bits());
    if (std::isfinite(random)) {
      corpus.push_back(printf_double("%.17g", random));
      corpus.push_back(printf_double("%g", random));
    }
    // Subnormal bit patterns: exponent field zero.
    double tiny = std::bit_cast<double>(bits() & 0x800FFFFFFFFFFFFFULL);
    corpus.push_back(printf_double("%.17g", tiny));
    // Float-derived values, as model weights are written.
    double w = weight(bits);
    corpus.push_back(printf_double("%.17g", w));
    corpus.push_back(printf_double("%.9g", w));
  }
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (const std::string& token : corpus) {
    double expected = std::strtod(token.c_str(), nullptr);
    double parsed = Json::parse(token).as_number();
    if (std::bit_cast<std::uint64_t>(parsed) != std::bit_cast<std::uint64_t>(expected)) {
      if (mismatches++ == 0) first_mismatch = token;
    }
  }
  EXPECT_EQ(mismatches, 0U) << "first mismatch: " << first_mismatch;
  // The out-of-range tokens keep strtod's results: +-inf and signed zero.
  EXPECT_EQ(Json::parse("1e400").as_number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::parse("-1e400").as_number(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(Json::parse("-1e-400").as_number()));
}

// Golden bytes: integers below 1e15 print as "%lld", everything else finite
// as "%.17g", and NaN/inf as null.
TEST(JsonTest, DumpMatchesGoldenBytes) {
  const std::vector<std::pair<double, std::string>> golden = {
      {0.0, "0"},
      {-0.0, "0"},
      {42.0, "42"},
      {-17.0, "-17"},
      {999999999999999.0, "999999999999999"},
      {-999999999999999.0, "-999999999999999"},
      {1e15, "1000000000000000"},
      {-1e15, "-1000000000000000"},
      {1e16, "10000000000000000"},
      {123456789012345678.0, "1.2345678901234568e+17"},
      {1e17, "1e+17"},
      {1e300, "1.0000000000000001e+300"},
      {0.1, "0.10000000000000001"},
      {1.5, "1.5"},
      {2.5, "2.5"},
      {-0.5, "-0.5"},
      {1.0 / 3.0, "0.33333333333333331"},
      {-2.5e-8, "-2.4999999999999999e-08"},
      {static_cast<double>(0.1F), "0.10000000149011612"},
      {3.0e-310, "2.9999999999999908e-310"},
      {5e-324, "4.9406564584124654e-324"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
      {std::nan(""), "null"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
  };
  for (const auto& [value, text] : golden) EXPECT_EQ(Json(value).dump(), text) << text;
  Json doc(JsonObject{{"w", Json(JsonArray{Json(1), Json(0.25), Json(std::nan(""))})},
                      {"n", Json(std::int64_t{-3})}});
  EXPECT_EQ(doc.dump(), R"({"w":[1,0.25,null],"n":-3})");
}

// One node per weight: the node size bounds a model document's memory.
TEST(JsonTest, ValueNodeIsCompact) { EXPECT_LE(sizeof(Json), 40U); }

// Hostile bytes on the wire (a corrupted model upload, a mangled request
// body) must end in a value or a ParseError, never another exception or a
// crash; the sanitizer builds run this too.
TEST(JsonTest, HostileMutantsParseOrThrowParseError) {
  Rng rng(14);
  JsonArray rows;
  for (int r = 0; r < 4; ++r) {
    JsonArray row;
    for (int c = 0; c < 6; ++c) row.emplace_back(rng.normal());
    rows.emplace_back(std::move(row));
  }
  const std::vector<std::string> payloads = {
      nn::save_model(nn::zoo::make_mlp("hostile", 6, 3, {8}, rng)), Json(rows).dump()};
  const std::string alphabet = "{}[],:\"\\-+.eE0123456789 tfnu";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& payload : payloads) {
    for (int m = 0; m < 500; ++m) {
      std::string mutant = payload;
      for (std::int64_t e = rng.uniform_int(1, 4); e > 0; --e) {
        auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mutant.size())));
        auto byte = static_cast<char>(
            rng.flip() ? alphabet[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(alphabet.size()) - 1))]
                       : rng.uniform_int(0, 255));
        switch (rng.uniform_int(0, 3)) {
          case 0:  // byte flip
            if (at < mutant.size()) mutant[at] = byte;
            break;
          case 1:  // truncation
            mutant.resize(at);
            break;
          case 2:  // insert
            mutant.insert(at, 1, byte);
            break;
          default:  // delete a short run
            mutant.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        }
      }
      try {
        Json::parse(mutant);
        ++parsed;
      } catch (const ParseError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << m << " threw " << e.what();
      }
    }
  }
  EXPECT_EQ(parsed + rejected, 1000U);
  EXPECT_GT(parsed, 0U);
  EXPECT_GT(rejected, 0U);
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRejectsReversedBounds) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidArgument);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(11);
  auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (auto idx : perm) {
    ASSERT_LT(idx, 50U);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(9);
  Rng child1 = parent1.fork();
  Rng parent2(9);
  Rng child2 = parent2.fork();
  // Draw from parent2 only; children must still agree.
  parent2.uniform();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
}

TEST(ClockTest, SimClockAdvances) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 0.0);
  clock.advance(1.5);
  clock.advance(0.25);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 1.75);
}

TEST(ClockTest, SimClockRejectsNegativeAdvance) {
  SimClock clock;
  EXPECT_THROW(clock.advance(-1.0), InvalidArgument);
}

TEST(ClockTest, AdvanceToNeverMovesBackwards) {
  SimClock clock;
  clock.advance_to(5.0);
  clock.advance_to(2.0);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 5.0);
}

TEST(ClockTest, StopwatchMeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(LoggingTest, LevelGatesOutput) {
  LogLevel original = log_level();
  set_log_level(LogLevel::kWarn);

  ::testing::internal::CaptureStderr();
  log_debug("hidden debug ", 1);
  log_info("hidden info");
  log_warn("visible warn ", 42);
  log_error("visible error");
  std::string output = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(output.find("hidden"), std::string::npos);
  EXPECT_NE(output.find("visible warn 42"), std::string::npos);
  EXPECT_NE(output.find("[openei ERROR] visible error"), std::string::npos);

  set_log_level(LogLevel::kOff);
  ::testing::internal::CaptureStderr();
  log_error("muted");
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());

  set_log_level(original);
}

}  // namespace
}  // namespace openei::common
