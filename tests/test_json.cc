/**
 * @file
 * Tests for the JSON value/writer/parser and the Result schema that
 * back the golden-result regression harness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/result.hh"

using namespace vsmooth;

TEST(Json, ScalarsRoundTripThroughText)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");

    std::string error;
    const Json j = Json::parse("{\"a\": [1, 2.5, \"x\"], \"b\": null}",
                               &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(j.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(j.at("a").asArray()[1].asNumber(), 2.5);
    EXPECT_TRUE(j.at("b").isNull());
}

TEST(Json, DoublesRoundTripExactly)
{
    // The writer must emit enough digits that parse(dump(x)) == x bit
    // for bit — golden comparisons rely on it.
    for (double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23,
                     -2.2250738585072014e-308, 123456789.123456789}) {
        std::string error;
        const Json back = Json::parse(Json(v).dump(), &error);
        EXPECT_TRUE(error.empty()) << error;
        EXPECT_EQ(back.asNumber(), v);
    }
}

TEST(Json, IntegralDoublesPrintWithoutExponent)
{
    EXPECT_EQ(Json(1e6).dump(), "1000000");
    EXPECT_EQ(Json(-3.0).dump(), "-3");
}

TEST(Json, NonFiniteBecomesNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    obj.set("apple", 9); // overwrite keeps the slot
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, StringEscapes)
{
    const Json j("tab\there \"quoted\" back\\slash\n");
    std::string error;
    const Json back = Json::parse(j.dump(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.asString(), j.asString());

    const Json uni = Json::parse("\"\\u00e9\\u0041\"", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(uni.asString(), "\xc3\xa9"
                              "A");
}

TEST(Json, ParseErrorsNameTheOffset)
{
    std::string error;
    Json j = Json::parse("{\"a\": }", &error);
    EXPECT_TRUE(j.isNull());
    EXPECT_FALSE(error.empty());

    j = Json::parse("[1, 2,]", &error);
    EXPECT_FALSE(error.empty());

    j = Json::parse("[1] trailing", &error);
    EXPECT_FALSE(error.empty());
}

TEST(Json, DeepNestingIsAParseErrorNotACrash)
{
    auto nested = [](std::size_t depth) {
        std::string s;
        for (std::size_t i = 0; i < depth; ++i)
            s += i % 2 ? "{\"k\": " : "[";
        s += "0";
        for (std::size_t i = depth; i-- > 0;)
            s += i % 2 ? "}" : "]";
        return s;
    };
    const auto limit = static_cast<std::size_t>(Json::kMaxParseDepth);

    std::string error;
    EXPECT_TRUE(Json::parse(nested(limit), &error).isArray()) << error;
    EXPECT_TRUE(error.empty()) << error;

    Json j = Json::parse(nested(limit + 1), &error);
    EXPECT_TRUE(j.isNull());
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;

    // The serve daemon's frame cap admits a line this deep; it must
    // come back as the same structured error, not a stack overflow.
    error.clear();
    j = Json::parse(std::string(400'000, '[') + std::string(400'000, ']'),
                    &error);
    EXPECT_TRUE(j.isNull());
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;
}

TEST(Json, PrettyPrintParsesBack)
{
    Json obj = Json::object();
    obj.set("metrics", Json::object());
    Json arr = Json::array();
    arr.push(1.5);
    arr.push(2.5);
    obj.set("series", std::move(arr));
    std::ostringstream os;
    obj.write(os, 2);
    std::string error;
    const Json back = Json::parse(os.str(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.dump(), obj.dump());
}

TEST(Json, Uint64CountsRoundTripLosslessly)
{
    // Counters near UINT64_MAX differ in bits a double cannot hold:
    // both values below round to the same double, so a %.17g detour
    // collapses them. Integer tokens must survive bit-for-bit.
    const std::uint64_t a = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t b = a - 1;
    ASSERT_EQ(static_cast<double>(a), static_cast<double>(b));

    for (std::uint64_t v : {a, b}) {
        std::string error;
        const Json back = Json::parse(Json(v).dump(), &error);
        ASSERT_TRUE(error.empty()) << error;
        ASSERT_TRUE(back.isUint());
        EXPECT_EQ(back.asUint64(), v);
    }
    EXPECT_NE(Json(a).dump(), Json(b).dump());

    // Negative integer tokens take the signed path.
    const std::int64_t n = std::numeric_limits<std::int64_t>::min();
    const Json backN = Json::parse(Json(n).dump());
    ASSERT_TRUE(backN.isInt());
    EXPECT_EQ(backN.dump(), std::to_string(n));
}

TEST(Json, ExactUint64Accessor)
{
    std::uint64_t out = 0;

    // Integer-kind values in range.
    EXPECT_TRUE(Json(std::uint64_t{1} << 60).exactUint64(&out));
    EXPECT_EQ(out, std::uint64_t{1} << 60);
    EXPECT_TRUE(Json(std::int64_t{42}).exactUint64(&out));
    EXPECT_EQ(out, 42u);
    EXPECT_FALSE(Json(std::int64_t{-1}).exactUint64(&out));

    // Doubles: integral and <= 2^53 only.
    EXPECT_TRUE(Json(9007199254740992.0).exactUint64(&out));
    EXPECT_EQ(out, 9007199254740992ull);
    EXPECT_FALSE(Json(9007199254740994.0).exactUint64(&out));
    EXPECT_FALSE(Json(2.5).exactUint64(&out));
    EXPECT_FALSE(Json(-1.0).exactUint64(&out));
    EXPECT_FALSE(Json("42").exactUint64(&out));
}

TEST(Json, IntegerTokensKeepLegacyByteLayout)
{
    // Pre-existing goldens were written via %.0f; the integer path
    // must emit identical bytes so checked-in files stay stable.
    EXPECT_EQ(Json(std::uint64_t{0}).dump(), "0");
    EXPECT_EQ(Json(std::int64_t{-17}).dump(), "-17");
    EXPECT_EQ(Json::parse("1000000").dump(), "1000000");
    // "-0" has no exact integer reading that preserves its sign;
    // it stays a double and keeps printing as -0.
    EXPECT_EQ(Json::parse("-0").dump(), "-0");
    EXPECT_FALSE(Json::parse("-0").isInt());
}

TEST(Result, JsonRoundTrip)
{
    Result r("fig99_example");
    r.setSeed(12345);
    r.setJobs(4);
    r.setGitDescribe("abc1234");
    r.metric("pearson_r", 0.97);
    r.metric("max_droop_pct", 9.6);
    r.series("droops_per_1k", {40.0, 80.5, 120.25});

    Result back;
    std::string error;
    ASSERT_TRUE(Result::fromJson(
        Json::parse(r.toJson().dump(2), &error), back, &error))
        << error;
    EXPECT_EQ(back.experiment(), "fig99_example");
    EXPECT_EQ(back.seed(), 12345u);
    EXPECT_EQ(back.jobs(), 4u);
    EXPECT_EQ(back.gitDescribe(), "abc1234");
    EXPECT_DOUBLE_EQ(back.metricValue("pearson_r"), 0.97);
    ASSERT_EQ(back.allSeries().size(), 1u);
    EXPECT_EQ(back.allSeries()[0].second.size(), 3u);
    EXPECT_EQ(back.allSeries()[0].second[1], 80.5);
}

TEST(Result, CountMetricsRoundTripExactly)
{
    const std::uint64_t big =
        std::numeric_limits<std::uint64_t>::max() - 2;
    Result r("counts");
    r.metricCount("total_cycles", big);
    r.metric("tail_fraction", 1e-12);

    Result back;
    std::string error;
    ASSERT_TRUE(Result::fromJson(
        Json::parse(r.toJson().dump(2), &error), back, &error))
        << error;
    ASSERT_TRUE(back.hasCount("total_cycles"));
    EXPECT_EQ(back.countValue("total_cycles"), big);
    EXPECT_FALSE(back.hasCount("tail_fraction"));
    EXPECT_DOUBLE_EQ(back.metricValue("tail_fraction"), 1e-12);

    // Re-assigning a count as a plain double demotes it.
    back.metric("total_cycles", 3.5);
    EXPECT_FALSE(back.hasCount("total_cycles"));
}

TEST(Result, CompareTreatsCountsExactly)
{
    // Above 2^53 these two counters round to the same double, so the
    // old double-band comparison could not tell them apart; and even
    // below 2^53 the default rel = 1e-6 band would allow a 1e9-event
    // counter to drift by 1000. Counts must compare as integers.
    const std::uint64_t base = std::uint64_t{1} << 60;
    Result golden("exp");
    golden.metricCount("emergencies", base);
    Result actual("exp");
    actual.metricCount("emergencies", base + 1);
    ASSERT_EQ(static_cast<double>(base),
              static_cast<double>(base + 1));

    auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 1u);
    EXPECT_EQ(report.diffs[0].name, "emergencies");
    EXPECT_NE(report.diffs[0].note.find("exact count"),
              std::string::npos);

    // Equal counts pass.
    actual = golden;
    EXPECT_TRUE(compareResults(golden, actual).pass);

    // A small drift is still exact-failed by default...
    golden = Result("exp");
    golden.metricCount("emergencies", 1'000'000'000ull);
    actual = Result("exp");
    actual.metricCount("emergencies", 1'000'000'500ull);
    EXPECT_FALSE(compareResults(golden, actual).pass);

    // ... but an explicit golden tolerance entry widens it.
    std::string error;
    const Json tol =
        Json::parse("{\"emergencies\": {\"abs\": 1000}}", &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(compareResults(golden, actual, &tol).pass);

    // A sampled-execution bound widens it too.
    Result sampled = actual;
    ResultSampling sampling;
    sampling.mode = "phase";
    sampling.simulatedFraction = 0.25;
    sampling.bounds.emplace_back("emergencies", 1000.0);
    sampled.setSampling(sampling);
    EXPECT_TRUE(compareResults(golden, sampled).pass);
}

TEST(Result, CountOnOneSideOnlyFallsBackToDoubles)
{
    // A golden written before counts existed (plain double) compared
    // against a count-producing run keeps the old tolerance path.
    Result golden("exp");
    golden.metric("events", 1000.0);
    Result actual("exp");
    actual.metricCount("events", 1000);
    EXPECT_TRUE(compareResults(golden, actual).pass);
}

TEST(Result, FromJsonRejectsMalformedSchemas)
{
    std::string error;
    Result out;
    EXPECT_FALSE(Result::fromJson(Json::parse("[]"), out, &error));
    EXPECT_FALSE(Result::fromJson(
        Json::parse("{\"metrics\": {}}"), out, &error)); // no experiment
    EXPECT_FALSE(Result::fromJson(
        Json::parse("{\"experiment\": \"x\", \"metrics\": 3}"), out,
        &error));
    EXPECT_FALSE(Result::fromJson(
        Json::parse("{\"experiment\": \"x\","
                    " \"series\": {\"s\": [1, \"two\"]}}"),
        out, &error));
}

TEST(Result, CompareDetectsDriftAndHonorsTolerances)
{
    Result golden("exp");
    golden.metric("a", 100.0);
    golden.metric("b", 0.5);
    Result actual = golden;

    // Identical: passes with default (tight) tolerances.
    EXPECT_TRUE(compareResults(golden, actual).pass);

    // Drift one metric beyond the default band.
    actual = golden;
    actual.metric("a", 100.001);
    auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 1u);
    EXPECT_EQ(report.diffs[0].name, "a");
    EXPECT_DOUBLE_EQ(report.diffs[0].golden, 100.0);
    EXPECT_DOUBLE_EQ(report.diffs[0].actual, 100.001);

    // A per-metric tolerance from the golden file lets it through.
    std::string error;
    const Json tol =
        Json::parse("{\"a\": {\"abs\": 0.01}}", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(compareResults(golden, actual, &tol).pass);

    // ... but does not loosen other metrics.
    actual.metric("b", 0.6);
    EXPECT_FALSE(compareResults(golden, actual, &tol).pass);
}

TEST(Result, CompareFlagsMissingAndExtraMetrics)
{
    Result golden("exp");
    golden.metric("a", 1.0);
    golden.series("s", {1.0, 2.0});

    Result actual("exp"); // metric + series missing
    auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);

    actual = golden;
    actual.metric("extra", 7.0); // extra metric also fails
    EXPECT_FALSE(compareResults(golden, actual).pass);

    actual = golden;
    actual.series("s", {1.0, 2.0, 3.0}); // length mismatch
    report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_FALSE(report.diffs.empty());
    EXPECT_FALSE(report.diffs[0].note.empty());
}

TEST(Result, CompareChecksSeriesElementwise)
{
    Result golden("exp");
    golden.series("s", {1.0, 2.0, 3.0});
    Result actual = golden;
    actual.series("s", {1.0, 2.5, 3.0});
    const auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 1u);
    EXPECT_EQ(report.diffs[0].name, "s[1]");
}

TEST(Result, CompareRejectsNanEvenWhenBothSidesAreNan)
{
    // NaN-vs-NaN used to compare equal, hiding a broken producer
    // behind an equally broken golden. It must now fail loudly, as a
    // named structural diff with a diagnostic note.
    const double nan = std::nan("");
    Result golden("exp");
    golden.metric("droop", nan);
    Result actual("exp");
    actual.metric("droop", nan);

    const auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 1u);
    EXPECT_EQ(report.diffs[0].name, "droop");
    EXPECT_NE(report.diffs[0].note.find("non-finite"),
              std::string::npos);
}

TEST(Result, CompareRejectsNonFiniteMetricsOnEitherSide)
{
    const double inf = std::numeric_limits<double>::infinity();
    Result golden("exp");
    golden.metric("a", 1.0);
    golden.metric("b", inf);
    Result actual("exp");
    actual.metric("a", std::nan(""));
    actual.metric("b", inf); // Inf == Inf must not pass either

    const auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 2u);
    for (const auto &d : report.diffs)
        EXPECT_NE(d.note.find("non-finite"), std::string::npos) << d.name;
}

TEST(Result, CompareReportsFirstNonFiniteSeriesElementOnly)
{
    // A fully-NaN series reports one named structural failure, not one
    // diff per element.
    const double nan = std::nan("");
    Result golden("exp");
    golden.series("s", {1.0, nan, nan, nan});
    Result actual = golden;

    const auto report = compareResults(golden, actual);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.diffs.size(), 1u);
    EXPECT_EQ(report.diffs[0].name, "s[1]");
    EXPECT_NE(report.diffs[0].note.find("non-finite"),
              std::string::npos);
}

TEST(Result, CompareStillPassesFiniteValuesAfterHardening)
{
    Result golden("exp");
    golden.metric("a", 1.0);
    golden.series("s", {0.0, -0.5, 1e308});
    Result actual = golden;
    EXPECT_TRUE(compareResults(golden, actual).pass);
}

TEST(Result, FromJsonRejectsInexactSeedAndJobs)
{
    // A negative, fractional or rounded seed used to be cast to
    // whatever uint64 the double happened to truncate to.
    std::string error;
    Result out;
    for (const char *text :
         {"{\"experiment\": \"x\", \"seed\": -1}",
          "{\"experiment\": \"x\", \"seed\": 1.5}",
          "{\"experiment\": \"x\", \"seed\": 1e300}",
          "{\"experiment\": \"x\", \"jobs\": -4}"}) {
        error.clear();
        EXPECT_FALSE(Result::fromJson(Json::parse(text), out, &error))
            << text;
        EXPECT_NE(error.find("exact non-negative integer"),
                  std::string::npos)
            << text << ": " << error;
    }
    ASSERT_TRUE(Result::fromJson(
        Json::parse("{\"experiment\": \"x\","
                    " \"seed\": 18446744073709551615, \"jobs\": 3}"),
        out, &error))
        << error;
    EXPECT_EQ(out.seed(), 18446744073709551615ull);
    EXPECT_EQ(out.jobs(), 3u);
}
