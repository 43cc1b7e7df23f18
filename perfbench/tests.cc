// The benchmark's own tests: its order statistics, that a wrong
// expected output fails a run, and that the seed changes the inputs
// but not the set of metrics.

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <set>

#include <unistd.h>

#include "bench.h"
#include "obs/json.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond)
{
    auto p = [](size_t n) {
        std::optional<Tail> t = tail(iota(n));
        return t ? t->percentile : -1.0;
    };
    EXPECT_EQ(p(1000), 99);  // 10 samples above rank 990
    EXPECT_EQ(p(999), 95);   // p99 would leave 9
    EXPECT_EQ(p(10000), 99.9);
    EXPECT_EQ(p(200), 95);
    EXPECT_EQ(p(199), 90);
    EXPECT_EQ(p(100), 90);
    EXPECT_EQ(p(20), 50);
    EXPECT_EQ(p(19), -1);    // no percentile qualifies
    EXPECT_EQ(tail(iota(1000))->value, 990);
}

TEST(Stats, MedianAndQuartilesMatchPythonStatistics)
{
    EXPECT_EQ(median(iota(10)), 5.5);
    EXPECT_EQ(median({3, 1, 2}), 2);
    // statistics.quantiles(v, n=4) on the same inputs.
    EXPECT_EQ(quartiles(iota(10)), (std::array<double, 3>{2.75, 5.5, 8.25}));
    EXPECT_EQ(quartiles(iota(4)), (std::array<double, 3>{1.25, 2.5, 3.75}));
    EXPECT_EQ(quartiles(iota(11)), (std::array<double, 3>{3, 6, 9}));
    EXPECT_EQ(quartiles({3, 1, 2}), (std::array<double, 3>{1, 2, 3}));
    EXPECT_EQ(quartiles({5, 1}), (std::array<double, 3>{0, 3, 6}));
    EXPECT_THROW(median({}), std::invalid_argument);
}

std::string
tempDir(const std::string &tag)
{
    // Relative to the working directory: run.py runs the tests from
    // the benchmark's build directory.
    auto dir = std::filesystem::path("test-work") /
               (tag + "-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    return dir.string();
}

TEST(Checks, CorruptedExpectedOutputFailsTheRun)
{
    Inputs in = makeInputs("serve-mixed", 3, tempDir("corrupt"));
    in.run.resize(1);
    in.runAnalyses = {"mem"};
    RunPipeline run(in);
    Tally t;
    run.check(t);
    ASSERT_EQ(t.failed, 0u) << (t.errors.empty() ? "" : t.errors[0]);
    run.pass(t, nullptr);
    EXPECT_EQ(t.failed, 0u);
    run.corruptExpected();
    run.pass(t, nullptr);
    EXPECT_GT(t.failed, 0u);
}

/** The metric names on the result line of a whole run. */
std::set<std::string>
metricNames(uint64_t seed, int trace)
{
    Options o{"serve-mixed", tempDir("names" + std::to_string(seed)), seed,
              0.5, trace};
    testing::internal::CaptureStdout();
    const int status = runBenchmark(o);
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 0) << out;
    out.pop_back();
    std::string error;
    auto v = wasabi::obs::json::parse(out.substr(out.rfind('\n') + 1),
                                      &error);
    std::set<std::string> names;
    if (!v || !v->find("metrics"))
        return names;
    EXPECT_TRUE(v->find("correct")->boolean);
    for (const auto &[name, value] : v->find("metrics")->object)
        names.insert(name);
    return names;
}

TEST(Seed, ChangesInputsButNotMetricNames)
{
    for (const std::string &w : workloadNames()) {
        if (w == "apps-static")
            continue; // generating the large apps twice is slow
        Inputs a = makeInputs(w, 1, tempDir("seed-a"));
        Inputs b = makeInputs(w, 2, tempDir("seed-b"));
        Inputs a2 = makeInputs(w, 1, tempDir("seed-a2"));
        auto bytes = [](const Inputs &in) {
            std::vector<std::vector<uint8_t>> out;
            for (const Module &m : in.servePool)
                out.push_back(m.bytes);
            for (const Module &m : in.run)
                out.push_back(m.bytes);
            return out;
        };
        EXPECT_NE(bytes(a), bytes(b)) << w;
        EXPECT_EQ(bytes(a), bytes(a2)) << w;
    }
    const std::set<std::string> e2e = metricNames(1, 0);
    EXPECT_EQ(e2e.size(), 12u);
    EXPECT_EQ(metricNames(2, 0), e2e);
    const std::set<std::string> layers = metricNames(1, 1);
    EXPECT_GT(layers.size(), 20u);
    EXPECT_EQ(metricNames(2, 1), layers);
}

} // namespace
} // namespace perfbench
