/**
 * @file
 * The repository benchmark's inputs and pipelines (see benchmark.cc
 * for the command line and the metric definitions).
 *
 * Every workload drives the same three pipelines, each a sequence of
 * calls into the program's public functions:
 *   - run:    the `wasabi run` path in rewrite mode (decode, validate,
 *             core::instrument, instantiate, invokeExport,
 *             analysisReport), plus the uninstrumented execution that
 *             is overhead_x's denominator;
 *   - static: decode, validate, core::instrument with all hooks,
 *             encode, rewrite::optimize, manifest out and back in,
 *             checkOptimization;
 *   - serve:  a closed loop of clients calling serve::Server::handle.
 * A workload chooses each pipeline's inputs and what share of the
 * measured time each pipeline gets, so every run reports every
 * metric, measured on that workload's own inputs.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "wasm/module.h"

namespace wasabi::interp {
class Instance;
}
namespace wasabi::serve {
class Server;
}

namespace perfbench {

namespace wasm = wasabi::wasm;

/** One generated module. */
struct Module {
    std::string name;
    std::vector<uint8_t> bytes; ///< encoded binary
    std::string entry;
    std::vector<wasm::Value> args;
    std::string path; ///< on-disk copy (serve modules only)
};

/** One serve request of the generated stream. */
struct Request {
    std::string line;
    bool cold = false;       ///< names a module no earlier request named
    bool tripsQuota = false; ///< carries a fuel quota the run exceeds
};

struct Inputs {
    std::vector<Module> run;
    std::vector<std::string> runAnalyses;

    std::vector<Module> statics;

    std::vector<Module> servePool; ///< named by warm requests
    std::vector<Module> serveCold; ///< each named once per stream
    std::vector<Request> serveWarmup;
    std::vector<Request> serveStream;

    /** Share of the measured seconds per pipeline (sums to 1). */
    double runShare = 0, staticShare = 0, serveShare = 0;
};

const std::vector<std::string> &workloadNames();

/** Generate @p workload's inputs from @p seed, in memory; serve
 * modules get paths under @p workdir. @throws std::invalid_argument
 * for an unknown workload. */
Inputs makeInputs(const std::string &workload, uint64_t seed,
                  const std::string &workdir);

/** Write the serve modules to their paths (requests name files). */
void writeServeModules(const Inputs &in);

/** Translate every defined function of @p inst now, inside an
 * "interp.translate" span (for @p request) when @p tr is set, so
 * translation is timed apart from the execution that would otherwise
 * do it lazily. */
void forceTranslation(wasabi::interp::Instance &inst, Tracer *tr,
                      int64_t request = -1);

/** Operations attempted and output checks failed. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< first few failure messages

    void fail(const std::string &what);
    /** Count one operation; a false @p ok fails it with @p what. */
    void op(bool ok, const std::string &what);
};

/** Per-layer figures of one traced pass, keyed by metric name. */
using Layers = std::map<std::string, double>;

/**
 * The rewrite-mode run pipeline. check() derives the expected outputs
 * (legacy-engine results, intrinsic-mode reports) and verifies one
 * untimed pass against them; pass() is one timed pass over every
 * (module, analysis) pair.
 */
class RunPipeline {
  public:
    explicit RunPipeline(const Inputs &in) : in_(in) {}
    void check(Tally &t);
    /** Operations in a pass: one per (module, analysis) pair. */
    size_t ops() const;
    /** Operation @p op of a pass: the uninstrumented execution, then
     * the pipeline. Returns the pipeline's wall seconds. */
    double step(Tally &t, size_t op, Tracer *tr);
    /** Every operation in order; the sum of their seconds. */
    double pass(Tally &t, Tracer *tr);
    /**
     * One traced pass (its spans go to @p spans) plus extra executions
     * that split execute into VM, hook dispatch and analysis body.
     * Every pipeline's layers() fills @p out and returns the traced
     * pass's wall seconds.
     */
    double layers(Tally &t, Layers &out, std::vector<Tracer> &spans);

    double rewriteRunSeconds() const;
    double overheadX() const;
    /** Test seam: corrupt the first expected result. */
    void corruptExpected();

  private:
    const Inputs &in_;
    std::vector<std::shared_ptr<const wasm::Module>> decoded_;
    std::vector<std::vector<wasm::Value>> results_;
    std::vector<std::vector<std::string>> reports_; ///< [module][analysis]
    /** [module][analysis][pass]: pipeline seconds, and instrumented
     * over uninstrumented execute time. */
    std::vector<std::vector<std::vector<double>>> pipeSeconds_, overhead_;
    uint64_t instructions_ = 0, hooks_ = 0, translations_ = 0;
};

/** The static toolchain pipeline (no execution when timed). */
class StaticPipeline {
  public:
    explicit StaticPipeline(const Inputs &in) : in_(in) {}
    void check(Tally &t);
    /** Operations in a pass: one per module. */
    size_t ops() const;
    /** Module @p i through the pipeline; returns its timed seconds. */
    double step(Tally &t, size_t i, Tracer *tr);
    double pass(Tally &t, Tracer *tr);
    double layers(Tally &t, Layers &out, std::vector<Tracer> &spans);

    double instrumentSeconds() const;
    double optCheckSeconds() const;
    double codeSizeRatio() const;
    double optSizeRatio() const;

  private:
    const Inputs &in_;
    std::vector<std::vector<uint8_t>> instrumented_, optimized_;
    std::vector<uint64_t> hooksExpected_;
    /** [module][pass]: instrument wall seconds, optimize-and-check
     * process CPU seconds. */
    std::vector<std::vector<double>> instrSeconds_, optCpuSeconds_;
    uint64_t hooksGenerated_ = 0, hookMapMisses_ = 0, optClaims_ = 0;
};

/** The serve closed loop over one shared Server per pass. */
class ServeLoop {
  public:
    explicit ServeLoop(const Inputs &in, unsigned clients)
        : in_(in), clients_(clients)
    {
    }
    void check(Tally &t);
    /** Fresh Server, untimed warm-up, then the timed stream with one
     * closed-loop client per core. Returns wall seconds of the timed
     * stream. */
    double pass(Tally &t);
    /** Traced 1-client and N-client passes plus a layer-by-layer
     * replay of sampled warm requests. */
    double layers(Tally &t, Layers &out, std::vector<Tracer> &spans);

    /** Medians over passes of each pass's figure: a slow spell of the
     * host that spans a minority of passes does not move them. A
     * pooled tail would take its slowest requests from those slow
     * passes. Each pass's p99 rests on at least 1000 warm requests,
     * so on ten or more beyond it. */
    double warmP50Ms() const;
    double warmP99Ms() const;
    double coldP50Ms() const;
    double rps() const;
    /** Every pass's latencies pooled. */
    const std::vector<double> &warmMs() const { return warmMs_; }
    const std::vector<double> &coldMs() const { return coldMs_; }

  private:
    double runStream(wasabi::serve::Server &server,
                     const std::vector<Request> &stream, unsigned clients,
                     Tally &t, std::vector<Tracer> *tracers,
                     std::vector<double> *warm, std::vector<double> *cold);

    const Inputs &in_;
    unsigned clients_;
    std::map<std::string, std::string> expected_; ///< line -> response
    std::vector<double> warmMs_, coldMs_;
    std::vector<double> warmP50_, warmP99_, coldP50_, rps_; ///< per pass
};

struct Options {
    std::string workload, workdir;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
};

/** Parse the command line (see benchmark.cc); exits 2 on a usage error. */
Options parseOptions(int argc, char **argv);

/** Run the benchmark, printing the result object as the last line of
 * stdout. Returns the process exit status. */
int runBenchmark(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
