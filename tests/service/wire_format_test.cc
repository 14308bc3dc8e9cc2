// Bit-exactness of the protocol's score wire format. The service promises
// that FormatScore/ParseScore is a lossless pair for every double the
// estimators can produce — including the awkward corners of IEEE 754:
// denormals, signed zeros, and values one ulp from overflow.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "estimate/registry.h"
#include "ir/query.h"
#include "ir/search_engine.h"
#include "represent/builder.h"
#include "service/protocol.h"
#include "text/analyzer.h"
#include "util/random.h"

namespace useful::service {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectRoundTrips(double value) {
  std::string wire = FormatScore(value);
  auto parsed = ParseScore(wire);
  ASSERT_TRUE(parsed.ok()) << wire;
  EXPECT_EQ(Bits(parsed.value()), Bits(value))
      << wire << " parsed to " << parsed.value();
}

TEST(WireFormatTest, SignedZerosRoundTripBitExactly) {
  ExpectRoundTrips(0.0);
  ExpectRoundTrips(-0.0);
  EXPECT_EQ(FormatScore(-0.0), "-0");  // the sign must survive the wire
}

TEST(WireFormatTest, DenormalsRoundTripBitExactly) {
  ExpectRoundTrips(std::numeric_limits<double>::denorm_min());  // 5e-324
  ExpectRoundTrips(4.9406564584124654e-324);
  ExpectRoundTrips(2.2250738585072011e-308);  // largest denormal
  ExpectRoundTrips(std::numeric_limits<double>::min());  // smallest normal
  ExpectRoundTrips(-std::numeric_limits<double>::denorm_min());
}

TEST(WireFormatTest, ValuesNearDblMaxRoundTripBitExactly) {
  ExpectRoundTrips(DBL_MAX);
  ExpectRoundTrips(std::nextafter(DBL_MAX, 0.0));
  ExpectRoundTrips(-DBL_MAX);
  ExpectRoundTrips(DBL_MAX / 2.0);
}

TEST(WireFormatTest, RepeatingFractionsRoundTripBitExactly) {
  ExpectRoundTrips(1.0 / 3.0);
  ExpectRoundTrips(0.1);
  ExpectRoundTrips(2.0 / 7.0);
  ExpectRoundTrips(1e17 + 1.0);  // needs all 17 significant digits
  ExpectRoundTrips(3.141592653589793);
}

TEST(WireFormatTest, InfinitiesRoundTrip) {
  ExpectRoundTrips(std::numeric_limits<double>::infinity());
  ExpectRoundTrips(-std::numeric_limits<double>::infinity());
}

TEST(WireFormatTest, RandomBitPatternsRoundTrip) {
  Pcg32 rng(2024, 7);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits =
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    double value = std::bit_cast<double>(bits);
    if (std::isnan(value)) continue;  // estimators never produce NaN
    ExpectRoundTrips(value);
  }
}

// FormatScore must print exactly the bytes printf("%.17g") prints, so
// replies stay byte-identical to the printf-based format.
std::string PrintfScore(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TEST(WireFormatTest, FormatScoreMatchesPrintfOnSpecials) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN / 3.0,
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0,
                             0.1,
                             1e16,
                             1e17,
                             123456789012345680.0,
                             1e-5,
                             0.0001,
                             0.20000000000000001};
  for (double v : specials) EXPECT_EQ(FormatScore(v), PrintfScore(v)) << v;
}

TEST(WireFormatTest, FormatScoreMatchesPrintfOnRandomBitPatterns) {
  Pcg32 rng(1999, 3);
  for (int i = 0; i < 1000000; ++i) {
    std::uint64_t bits =
        (static_cast<std::uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    double value = std::bit_cast<double>(bits);
    if (std::isnan(value)) continue;  // printf spells a NaN's sign its own way
    ASSERT_EQ(FormatScore(value), PrintfScore(value)) << std::hex << bits;
  }
}

TEST(WireFormatTest, ParseScoreRejectsPartialTokens) {
  EXPECT_FALSE(ParseScore("").ok());
  EXPECT_FALSE(ParseScore("1.5x").ok());
  EXPECT_FALSE(ParseScore("0.2 0.3").ok());
  EXPECT_FALSE(ParseScore("abc").ok());
  EXPECT_TRUE(ParseScore("1e-320").ok());  // denormal text is fine
}

// Every score every registered estimator actually emits must survive the
// wire — the end-to-end version of the synthetic corner cases above.
TEST(WireFormatTest, EveryEstimatorScoreRoundTrips) {
  text::Analyzer analyzer;
  ir::SearchEngine engine("wire", &analyzer);
  ASSERT_TRUE(engine.Add({"d0", "zq0x zq1x zq2x"}).ok());
  ASSERT_TRUE(engine.Add({"d1", "zq0x zq0x zq1x zq3x"}).ok());
  ASSERT_TRUE(engine.Add({"d2", "zq2x zq4x zq4x zq4x"}).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  represent::Representative rep =
      represent::BuildRepresentative(engine).value();

  std::vector<std::string> names = estimate::KnownEstimators();
  names.push_back("subrange-k4");
  for (const std::string& name : names) {
    auto estimator = estimate::MakeEstimator(name).value();
    for (const char* text : {"zq0x", "zq1x zq2x", "zq0x zq1x zq2x zq4x"}) {
      ir::Query q = ir::ParseQuery(analyzer, text);
      for (double t : {0.0, 0.1, 0.25, 0.5, 0.9}) {
        auto est = estimator->Estimate(rep, q, t);
        ExpectRoundTrips(est.no_doc);
        ExpectRoundTrips(est.avg_sim);
      }
    }
  }
}

}  // namespace
}  // namespace useful::service
