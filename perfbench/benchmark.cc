/**
 * @file
 * The repository benchmark's command line and measurement loop.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --workdir DIR
 *
 * Generates workload W's inputs from seed N (the program under test
 * receives only those inputs), checks every pipeline's outputs before
 * anything is timed, then measures for about S seconds and prints one
 * JSON object as the last line of stdout:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end metrics below; with
 * --trace 1 they are the per-layer metrics of one traced pass, whose
 * spans are written to DIR/spans.json. End-to-end figures come only
 * from untraced runs.
 *
 * End-to-end metrics (every workload reports all of them, measured on
 * its own inputs; timings are medians over passes or requests):
 *   setup_s            input generation in memory, median of repeats
 *                      spread over the measured time
 *   peak_rss_mb        peak resident set of this process
 *   rewrite_run_s      one pass of the rewrite-mode run pipeline
 *   overhead_x         geomean over (module, analysis) of instrumented
 *                      over uninstrumented execute time (Fig. 9)
 *   instrument_s       decode, validate, instrument (all hooks, one
 *                      thread per core, at most one per 64 KiB of
 *                      module), encode: one pass
 *   opt_check_s        optimize, encode, manifest out and in,
 *                      checkOptimization: one pass, in CPU seconds of
 *                      the process (see StaticPipeline::step)
 *   code_size_ratio    instrumented / original bytes, geomean (Fig. 8)
 *   opt_size_ratio     optimized / original bytes, geomean
 *   serve_warm_p50_ms  handle() latency of requests for seen modules
 *                      (median over passes of the pass's median)
 *   serve_warm_p99_ms  p99 of the same latencies (median over passes
 *                      of the pass's p99, each of 1000 or more)
 *   serve_cold_p50_ms  handle() latency of requests for unseen modules
 *                      (median over passes of the pass's median)
 *   serve_rps          requests per second, one client per core
 * Operations whose output check failed or that errored count in
 * "failed"; failed / attempted is the run's failed_ratio.
 *
 * Exit status: 0 for a correct run, 1 when an output check failed,
 * 2 for a usage error or a build that must not be benchmarked
 * (unoptimized or sanitized).
 */

#include <sys/resource.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"
#include "stats.h"
#include "support/file_io.h"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 why.c_str());
    std::exit(2);
}

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v);
            else if (a == "--workdir")
                o.workdir = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload \"" + o.workload + "\"");
    if (!(o.seconds > 0) || (o.trace != 0 && o.trace != 1) ||
        o.workdir.empty())
        usage("--seconds, --trace and --workdir are required");
    return o;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Why this build must not be benchmarked; empty when it may be. */
std::string
buildRefusal()
{
#if !defined(__OPTIMIZE__)
    return "built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with sanitizers";
#else
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize")
               ? "built with sanitizers"
               : "";
#endif
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The per-layer metrics of a traced run, in output order. Times are
 * self times summed over one traced pass of every pipeline, except
 * the serve.*_us figures and interp.restore_ms, which are medians per
 * replayed request. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"wasm.decode_ms", "ms"},
    {"wasm.validate_ms", "ms"},
    {"wasm.encode_ms", "ms"},
    {"core.instrument_ms", "ms"},
    {"core.instrument_1t_ms", "ms"},
    {"core.hooks_generated", "count"},
    {"core.hookmap_misses", "count"},
    {"core.intrinsic_info_ms", "ms"},
    {"static.opt_ms", "ms"},
    {"static.manifest_parse_ms", "ms"},
    {"static.check_opt_ms", "ms"},
    {"static.opt_claims", "count"},
    {"interp.instantiate_ms", "ms"},
    {"interp.translate_ms", "ms"},
    {"interp.translations", "count"},
    {"interp.restore_ms", "ms"},
    {"interp.vm_ms", "ms"},
    {"interp.instructions", "count"},
    {"runtime.hooks", "count"},
    {"runtime.dispatch_ns_per_hook", "ns"},
    {"analyses.body_ns_per_hook", "ns"},
    {"analyses.report_ms", "ms"},
    {"obs.profile_execute_x", "x"},
    {"serve.parse_us", "us"},
    {"serve.read_us", "us"},
    {"serve.acquire_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.pool_hit_ratio", "ratio"},
    {"serve.translations_per_warm_request", "count"},
    {"serve.residual_us", "us"},
    {"serve.scaling_efficiency", "ratio"},
    {"trace.overhead_ms", "ms"},
};

struct Metric {
    std::string name, unit;
    double value = 0;
    std::string basis; ///< the samples behind the value
};

/** "median of N <what>" with the quartiles, and the tail percentile
 * when one has ten samples beyond it. */
std::string
distribution(const std::vector<double> &v, const char *what)
{
    std::string out =
        "median of " + std::to_string(v.size()) + " " + what;
    char buf[96];
    if (v.size() >= 2) {
        const std::array<double, 3> q = quartiles(v);
        std::snprintf(buf, sizeof buf, "; quartiles %.6f %.6f", q[0],
                      q[2]);
        out += buf;
    }
    if (std::optional<Tail> t = tail(v))
        std::snprintf(buf, sizeof buf, "; p%g %.6f", t->percentile,
                      t->value);
    else
        std::snprintf(buf, sizeof buf,
                      "; no percentile has ten samples beyond it");
    return out + buf;
}

std::string
passes(int n)
{
    return "per-operation medians over " + std::to_string(n) + " passes";
}

void
writeSpans(const std::string &path, const std::vector<Tracer> &tracers)
{
    std::string out = "[\n";
    bool first = true;
    for (size_t t = 0; t < tracers.size(); ++t)
        for (size_t i = 0; i < tracers[t].spans.size(); ++i) {
            const Span &s = tracers[t].spans[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s{\"tracer\": %zu, \"span\": %zu, \"name\": "
                          "\"%s\", \"start_ns\": %" PRId64
                          ", \"end_ns\": %" PRId64 ", \"self_ns\": %" PRId64
                          ", \"parent\": %d, \"request\": %" PRId64 "}",
                          first ? "" : ",\n", t, i, s.name.c_str(), s.start,
                          s.end, s.selfNs(), s.parent, s.request);
            out += buf;
            first = false;
        }
    wasabi::support::writeTextFile(path, out + "\n]\n");
}

} // namespace

int
runBenchmark(const Options &opt)
{
    if (std::string why = buildRefusal(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to benchmark a build %s\n",
                     why.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.workdir);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    std::printf("{\"host\": {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"flags\": %s}, \"workload\": %s, "
                "\"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d}\n",
                nproc, jsonString(cpuModel()).c_str(),
                jsonString(std::string("gcc ") + __VERSION__).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(PERFBENCH_CXX_FLAGS).c_str(),
                jsonString(opt.workload).c_str(), opt.seed, opt.seconds,
                opt.trace);

    // Set-up: generating the inputs in memory. The first set-up makes
    // the inputs; the timed run repeats it between its passes, spread
    // over the measured time, so that the median of set-ups does not
    // rest on one moment of the host. The serve modules are written to
    // disk once, untimed: file-system latency is not the program's.
    std::vector<double> setup;
    auto setUp = [&] {
        const int64_t t0 = nowNs();
        Inputs made = makeInputs(opt.workload, opt.seed, opt.workdir);
        setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        return made;
    };
    Inputs in = setUp();
    // At least nine set-ups, and as many as fit in a twentieth of the
    // measured time, at most 200.
    const size_t setups = std::clamp<size_t>(
        static_cast<size_t>(0.05 * opt.seconds / setup[0]), 9, 200);
    writeServeModules(in);

    Tally tally;
    RunPipeline run(in);
    StaticPipeline statics(in);
    ServeLoop serve(in, nproc);
    struct Stage {
        const char *name;
        double share;
        size_t ops;
        std::function<void(Tally &)> check;
        std::function<double(Tally &, size_t)> step;
        std::function<double(Tally &)> pass;
        std::function<double(Tally &, Layers &, std::vector<Tracer> &)>
            layers;
        double spent = 0;
        size_t steps = 0;
        int passes() const { return static_cast<int>(steps / ops); }
    };
    std::vector<Stage> stages = {
        {"run", in.runShare, run.ops(), [&](Tally &t) { run.check(t); },
         [&](Tally &t, size_t op) { return run.step(t, op, nullptr); },
         [&](Tally &t) { return run.pass(t, nullptr); },
         [&](Tally &t, Layers &l, std::vector<Tracer> &s) {
             return run.layers(t, l, s);
         }},
        {"static", in.staticShare, statics.ops(),
         [&](Tally &t) { statics.check(t); },
         [&](Tally &t, size_t op) { return statics.step(t, op, nullptr); },
         [&](Tally &t) { return statics.pass(t, nullptr); },
         [&](Tally &t, Layers &l, std::vector<Tracer> &s) {
             return statics.layers(t, l, s);
         }},
        {"serve", in.serveShare, 1, [&](Tally &t) { serve.check(t); },
         [&](Tally &t, size_t) { return serve.pass(t); },
         [&](Tally &t) { return serve.pass(t); },
         [&](Tally &t, Layers &l, std::vector<Tracer> &s) {
             return serve.layers(t, l, s);
         }},
    };
    try {
        for (Stage &s : stages)
            s.check(tally);
    } catch (const std::exception &e) {
        tally.fail(std::string("output check errored: ") + e.what());
    }
    const bool checked = tally.failed == 0;

    std::vector<Metric> metrics;
    std::vector<Tracer> spans;
    try {
        if (checked && opt.trace == 0) {
            // Operations interleave, so that every stage samples the
            // whole run: the stage furthest behind its share of the time
            // takes its next operation, until the measured time is up
            // and every stage has made three full passes. Set-ups keep
            // pace with the slower of the two.
            const int64_t start = nowNs();
            auto progress = [&] {
                double done = static_cast<double>(nowNs() - start) * 1e-9 /
                              opt.seconds;
                for (const Stage &s : stages)
                    done = std::min(done, static_cast<double>(s.steps) /
                                              static_cast<double>(3 * s.ops));
                return done;
            };
            auto setUpOnSchedule = [&](double done) {
                while (static_cast<double>(setup.size()) <
                       static_cast<double>(setups) * std::min(done, 1.0))
                    setUp();
            };
            for (double done; (done = progress()) < 1;) {
                setUpOnSchedule(done);
                Stage *next = &stages[0];
                for (Stage &s : stages)
                    if (s.spent / s.share < next->spent / next->share)
                        next = &s;
                const int64_t t0 = nowNs();
                next->step(tally, next->steps % next->ops);
                next->spent += static_cast<double>(nowNs() - t0) * 1e-9;
                ++next->steps;
            }
            setUpOnSchedule(1.0);
            const std::string per_pass =
                "median over " + std::to_string(stages[2].passes()) +
                " passes of the pass's ";
            metrics = {
                {"setup_s", "s", median(setup),
                 distribution(setup, "set-ups")},
                {"peak_rss_mb", "MB", peakRssMb(), "getrusage"},
                {"rewrite_run_s", "s", run.rewriteRunSeconds(),
                 passes(stages[0].passes())},
                {"overhead_x", "x", run.overheadX(),
                 passes(stages[0].passes())},
                {"instrument_s", "s", statics.instrumentSeconds(),
                 passes(stages[1].passes())},
                {"opt_check_s", "s", statics.optCheckSeconds(),
                 "process CPU time, " + passes(stages[1].passes())},
                {"code_size_ratio", "x", statics.codeSizeRatio(), "exact"},
                {"opt_size_ratio", "x", statics.optSizeRatio(), "exact"},
                {"serve_warm_p50_ms", "ms", serve.warmP50Ms(),
                 per_pass + "median; pooled: " +
                     distribution(serve.warmMs(), "warm requests")},
                {"serve_warm_p99_ms", "ms", serve.warmP99Ms(),
                 per_pass + "nearest-rank p99, each of " +
                     std::to_string(in.serveStream.size() -
                                    in.serveCold.size()) +
                     " warm requests"},
                {"serve_cold_p50_ms", "ms", serve.coldP50Ms(),
                 per_pass + "median; pooled: " +
                     distribution(serve.coldMs(), "cold requests")},
                {"serve_rps", "1/s", serve.rps(),
                 "median over " + std::to_string(stages[2].passes()) +
                     " passes of " + std::to_string(nproc) +
                     " clients"},
            };
            for (const Stage &s : stages)
                std::printf("%s: %d passes in %.3f s\n", s.name, s.passes(),
                            s.spent);
        } else if (checked) {
            // One untraced and one traced pass per pipeline; the
            // difference is the tracing overhead.
            Layers layers;
            double overhead = 0;
            for (Stage &s : stages) {
                const double untraced = s.pass(tally);
                overhead += s.layers(tally, layers, spans) - untraced;
            }
            std::map<std::string, int64_t> self;
            for (const Tracer &t : spans)
                for (const auto &[name, ns] : t.selfTotals())
                    self[name] += ns;
            for (const char *name :
                 {"wasm.decode", "wasm.validate", "wasm.encode",
                  "core.instrument", "core.instrument_1t", "static.opt",
                  "static.manifest_parse", "static.check_opt",
                  "interp.instantiate", "interp.translate", "interp.vm",
                  "analyses.report"})
                layers[std::string(name) + "_ms"] =
                    static_cast<double>(self[name]) * 1e-6;
            layers["trace.overhead_ms"] = overhead * 1e3;
            for (const auto &[name, unit] : kLayerMetrics) {
                auto it = layers.find(name);
                if (it == layers.end())
                    throw std::logic_error(std::string("no figure for ") +
                                           name);
                metrics.push_back({name, unit, it->second, "one traced pass"});
            }
            writeSpans(opt.workdir + "/spans.json", spans);
            std::printf("spans: %s/spans.json\n", opt.workdir.c_str());
        }
    } catch (const std::exception &e) {
        tally.fail(std::string("measurement errored: ") + e.what());
    }

    for (const std::string &e : tally.errors)
        std::printf("FAILED: %s\n", e.c_str());
    const bool correct = tally.failed == 0;
    std::printf("failed_ratio %.6f (%" PRIu64 " of %" PRIu64
                " operations)\n",
                tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0,
                tally.failed, tally.attempted);
    std::string json = "{\"correct\": " + std::string(correct ? "true"
                                                              : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
    if (correct) {
        for (size_t i = 0; i < metrics.size(); ++i) {
            std::printf("  %-36s %14.6f %-5s %s\n", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str(),
                        metrics[i].basis.c_str());
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit.c_str());
            json += buf;
        }
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace perfbench
