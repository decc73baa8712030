/**
 * @file
 * Analyze-engine tests: the exact-vs-tolerance key split, the JSON
 * diff walker (changed, missing, type, length, banded) and the
 * machine-readable summary.
 */

#include <gtest/gtest.h>

#include <string>

#include "analyze/analyze.hh"
#include "harness/json.hh"

namespace hawksim::analyze {
namespace {

using harness::Json;

Json
parse(const std::string &text)
{
    std::string err;
    Json j = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    return j;
}

TEST(ToleranceKeys, WallClockLeavesAreBandedSimLeavesAreNot)
{
    // The two host timings --profile writes.
    EXPECT_TRUE(isToleranceKey("wall_ms"));
    EXPECT_TRUE(isToleranceKey("total_wall_ms"));

    // Nothing else is banded, however timing-like its name: a future
    // report scalar must not slip through the gate at 25%.
    EXPECT_FALSE(isToleranceKey("speedup"));
    EXPECT_FALSE(isToleranceKey("points_per_sec"));
    EXPECT_FALSE(isToleranceKey("elapsed_ms"));
    EXPECT_FALSE(isToleranceKey("walk_ns_median"));

    // Deterministic fields stay bit-exact.
    EXPECT_FALSE(isToleranceKey("sim_time_ns"));
    EXPECT_FALSE(isToleranceKey("seed"));
    EXPECT_FALSE(isToleranceKey("master_seed"));
    EXPECT_FALSE(isToleranceKey("faults"));
    EXPECT_FALSE(isToleranceKey("total_ns"));
    EXPECT_FALSE(isToleranceKey("schema"));
}

TEST(DiffJson, IdenticalDocumentsAreClean)
{
    const Json a = parse(
        R"({"schema":"s","runs":[{"seed":1,"v":[1,2,3]}]})");
    const DiffResult r = diffJson(a, a, 25.0);
    EXPECT_TRUE(r.clean());
    EXPECT_TRUE(r.tolerated.empty());
    EXPECT_EQ(r.fieldsCompared, 5u);
}

TEST(DiffJson, PinnedFieldChangeIsARegression)
{
    const Json a = parse(R"({"runs":[{"seed":1}]})");
    const Json b = parse(R"({"runs":[{"seed":2}]})");
    const DiffResult r = diffJson(a, b, 25.0);
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_EQ(r.regressions[0].path, "$.runs[0].seed");
    EXPECT_EQ(r.regressions[0].kind, "changed");
    EXPECT_EQ(r.regressions[0].a, "1");
    EXPECT_EQ(r.regressions[0].b, "2");
}

TEST(DiffJson, ToleranceBandsWallClockKeys)
{
    const Json a = parse(R"({"wall_ms":100.0,"seed":1})");
    const Json in = parse(R"({"wall_ms":109.0,"seed":1})");
    const Json out = parse(R"({"wall_ms":150.0,"seed":1})");

    DiffResult r = diffJson(a, in, 10.0);
    EXPECT_TRUE(r.clean());
    ASSERT_EQ(r.tolerated.size(), 1u);
    EXPECT_EQ(r.tolerated[0].kind, "within-band");
    EXPECT_NEAR(r.tolerated[0].relPct, 8.26, 0.01);

    r = diffJson(a, out, 10.0);
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_EQ(r.regressions[0].kind, "out-of-band");
    EXPECT_NEAR(r.regressions[0].relPct, 33.3, 0.1);
}

TEST(DiffJson, StructuralDifferencesAreRegressions)
{
    const Json a =
        parse(R"({"x":1,"arr":[1,2],"obj":{"k":1},"t":1})");
    const Json b =
        parse(R"({"arr":[1,2,3],"obj":{"k":1,"extra":2},"t":"1"})");
    const DiffResult r = diffJson(a, b, 25.0);

    bool missingInB = false, missingInA = false, length = false,
         type = false;
    for (const DiffEntry &e : r.regressions) {
        if (e.kind == "missing-in-b" && e.path == "$.x")
            missingInB = true;
        if (e.kind == "missing-in-a" && e.path == "$.obj.extra")
            missingInA = true;
        if (e.kind == "length" && e.path == "$.arr")
            length = true;
        if (e.kind == "type" && e.path == "$.t")
            type = true;
    }
    EXPECT_TRUE(missingInB);
    EXPECT_TRUE(missingInA);
    EXPECT_TRUE(length);
    EXPECT_TRUE(type);
}

TEST(DiffJson, ToleranceAppliesToLeafNameNotFullPath)
{
    // A banded leaf nested under arrays/objects still matches.
    const Json a = parse(R"({"runs":[{"wall_ms":10.0}]})");
    const Json b = parse(R"({"runs":[{"wall_ms":11.0}]})");
    const DiffResult r = diffJson(a, b, 25.0);
    EXPECT_TRUE(r.clean());
    ASSERT_EQ(r.tolerated.size(), 1u);
    EXPECT_EQ(r.tolerated[0].path, "$.runs[0].wall_ms");
}

TEST(DiffSummary, MachineReadableShape)
{
    const Json a = parse(R"({"seed":1,"wall_ms":10.0})");
    const Json b = parse(R"({"seed":2,"wall_ms":11.0})");
    const DiffResult r = diffJson(a, b, 25.0);
    const Json s = diffSummaryJson(r, "a.json", "b.json", 25.0);
    EXPECT_EQ(s["schema"].asString(), kAnalyzeSchema);
    EXPECT_EQ(s["baseline"].asString(), "a.json");
    EXPECT_EQ(s["candidate"].asString(), "b.json");
    EXPECT_FALSE(s["clean"].asBool());
    EXPECT_EQ(s["regressions"].asInt(), 1);
    EXPECT_EQ(s["tolerated"].asInt(), 1);
    EXPECT_EQ(s["fields_compared"].asInt(), 2);
    ASSERT_EQ(s["regression_entries"].size(), 1u);
    EXPECT_EQ(s["regression_entries"].at(0)["path"].asString(),
              "$.seed");
    // Round-trips through the canonical JSON layer.
    std::string err;
    Json::parse(s.dump(), &err);
    EXPECT_TRUE(err.empty()) << err;
}

} // namespace
} // namespace hawksim::analyze
