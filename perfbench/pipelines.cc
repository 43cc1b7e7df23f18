#include <algorithm>
#include <stdexcept>
#include <thread>

#include "analyses/registry.h"
#include "bench.h"
#include "bench/bench_common.h"
#include "core/instrument.h"
#include "core/intrinsic_info.h"
#include "interp/engine/code.h"
#include "interp/interpreter.h"
#include "runtime/runtime.h"
#include "static/check.h"
#include "static/rewrite/opt.h"
#include "stats.h"
#include "support/module_io.h"
#include "wasm/encoder.h"
#include "wasm/validator.h"

namespace perfbench {

using namespace wasabi;
using Scope = Tracer::Scope;

void
forceTranslation(interp::Instance &inst, Tracer *tr, int64_t request)
{
    Scope s(tr, "interp.translate", request);
    const wasm::Module &m = inst.module();
    for (uint32_t f = m.numImportedFunctions(); f < m.numFunctions(); ++f)
        inst.engineCode().function(f);
}

namespace {

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

wasm::Module
decodeValidated(const Module &mod, Tracer *tr)
{
    wasm::Module m;
    {
        Scope s(tr, "wasm.decode");
        m = support::loadModuleFromBytes(mod.bytes, mod.name);
    }
    Scope s(tr, "wasm.validate");
    if (auto err = wasm::validationError(m))
        throw std::runtime_error(mod.name + " is invalid: " + *err);
    return m;
}

/** Forwards every hook to an inner analysis and adds up the time
 * spent inside it: the analysis body, apart from dispatch. */
class TimedAnalysis final : public runtime::Analysis {
  public:
    explicit TimedAnalysis(runtime::Analysis &inner) : inner_(inner) {}
    core::HookSet hooks() const override { return inner_.hooks(); }
    int64_t bodyNs = 0;

#define PERFBENCH_FORWARD(method, params, args)                             \
    void method params override                                            \
    {                                                                      \
        const int64_t t0 = nowNs();                                        \
        inner_.method args;                                                \
        bodyNs += nowNs() - t0;                                            \
    }
    PERFBENCH_FORWARD(onStart, (runtime::Location l), (l))
    PERFBENCH_FORWARD(onNop, (runtime::Location l), (l))
    PERFBENCH_FORWARD(onUnreachable, (runtime::Location l), (l))
    PERFBENCH_FORWARD(onIf, (runtime::Location l, bool c), (l, c))
    PERFBENCH_FORWARD(onBr, (runtime::Location l, runtime::BranchTarget t),
                      (l, t))
    PERFBENCH_FORWARD(onBrIf,
                      (runtime::Location l, runtime::BranchTarget t, bool c),
                      (l, t, c))
    PERFBENCH_FORWARD(onBrTable,
                      (runtime::Location l,
                       std::span<const runtime::BranchTarget> table,
                       runtime::BranchTarget d, uint32_t i),
                      (l, table, d, i))
    PERFBENCH_FORWARD(onBegin, (runtime::Location l, runtime::BlockKind k),
                      (l, k))
    PERFBENCH_FORWARD(onEnd,
                      (runtime::Location l, runtime::BlockKind k,
                       runtime::Location b),
                      (l, k, b))
    PERFBENCH_FORWARD(onConst,
                      (runtime::Location l, wasm::Opcode op, wasm::Value v),
                      (l, op, v))
    PERFBENCH_FORWARD(onUnary,
                      (runtime::Location l, wasm::Opcode op, wasm::Value in,
                       wasm::Value out),
                      (l, op, in, out))
    PERFBENCH_FORWARD(onBinary,
                      (runtime::Location l, wasm::Opcode op, wasm::Value a,
                       wasm::Value b, wasm::Value out),
                      (l, op, a, b, out))
    PERFBENCH_FORWARD(onDrop, (runtime::Location l, wasm::Value v), (l, v))
    PERFBENCH_FORWARD(onSelect,
                      (runtime::Location l, bool c, wasm::Value a,
                       wasm::Value b),
                      (l, c, a, b))
    PERFBENCH_FORWARD(onLocal,
                      (runtime::Location l, wasm::Opcode op, uint32_t i,
                       wasm::Value v),
                      (l, op, i, v))
    PERFBENCH_FORWARD(onGlobal,
                      (runtime::Location l, wasm::Opcode op, uint32_t i,
                       wasm::Value v),
                      (l, op, i, v))
    PERFBENCH_FORWARD(onLoad,
                      (runtime::Location l, wasm::Opcode op,
                       runtime::MemArg m, wasm::Value v),
                      (l, op, m, v))
    PERFBENCH_FORWARD(onStore,
                      (runtime::Location l, wasm::Opcode op,
                       runtime::MemArg m, wasm::Value v),
                      (l, op, m, v))
    PERFBENCH_FORWARD(onMemorySize, (runtime::Location l, uint32_t p),
                      (l, p))
    PERFBENCH_FORWARD(onMemoryGrow,
                      (runtime::Location l, uint32_t d, uint32_t p),
                      (l, d, p))
    PERFBENCH_FORWARD(onCallPre,
                      (runtime::Location l, uint32_t f,
                       std::span<const wasm::Value> a,
                       std::optional<uint32_t> t),
                      (l, f, a, t))
    PERFBENCH_FORWARD(onCallPost,
                      (runtime::Location l, std::span<const wasm::Value> r),
                      (l, r))
    PERFBENCH_FORWARD(onReturn,
                      (runtime::Location l, std::span<const wasm::Value> r),
                      (l, r))
#undef PERFBENCH_FORWARD

  private:
    runtime::Analysis &inner_;
};

enum class Variant { Plain, Empty, Timed };

struct RunOutcome {
    std::vector<wasm::Value> results;
    std::string report;
    uint64_t hooks = 0;
    uint64_t translations = 0;
    int64_t executeNs = 0;
    int64_t bodyNs = 0;
};

/** The `wasabi run` pipeline in rewrite mode, as cmdRun calls it. */
RunOutcome
rewriteRun(const Module &mod, const std::string &analysis, Tracer *tr,
           Variant variant = Variant::Plain)
{
    wasm::Module m = decodeValidated(mod, tr);
    std::unique_ptr<runtime::Analysis> a = analyses::makeAnalysis(analysis);
    core::HookSet hooks = runtime::WasabiRuntime::requiredHooks({a.get()});
    bench::EmptyAnalysis empty(hooks);
    TimedAnalysis timed(*a);
    runtime::Analysis *attached = variant == Variant::Empty   ? &empty
                                  : variant == Variant::Timed ? &timed
                                                              : a.get();
    core::InstrumentResult r;
    {
        Scope s(tr, "core.instrument");
        r = core::instrument(m, hooks);
    }
    runtime::WasabiRuntime rt(r.info);
    rt.addAnalysis(attached, analysis);
    std::unique_ptr<interp::Instance> inst;
    {
        Scope s(tr, "interp.instantiate");
        inst = rt.instantiate(r.module);
    }
    if (tr)
        forceTranslation(*inst, tr);
    RunOutcome out;
    interp::Interpreter interp;
    {
        Scope s(tr, "interp.execute");
        const int64_t t0 = nowNs();
        out.results = interp.invokeExport(*inst, mod.entry, mod.args);
        out.executeNs = nowNs() - t0;
    }
    out.hooks = rt.hookInvocations();
    out.translations = inst->engineCode().translationsPerformed();
    out.bodyNs = timed.bodyNs;
    if (variant != Variant::Empty) {
        Scope s(tr, "analyses.report");
        out.report = analyses::analysisReport(analysis, *a, m);
    }
    return out;
}

/** Results of @p m's entry, uninstrumented, on @p engine. */
std::vector<wasm::Value>
uninstrumented(std::shared_ptr<const wasm::Module> m, const Module &mod,
               interp::EngineKind engine, Tracer *tr = nullptr,
               int64_t *execute_ns = nullptr,
               uint64_t *instructions = nullptr)
{
    auto inst = interp::Instance::instantiate(std::move(m), interp::Linker());
    if (tr)
        forceTranslation(*inst, tr);
    interp::Interpreter interp;
    interp.engine = engine;
    Scope s(tr, "interp.vm");
    const int64_t t0 = nowNs();
    std::vector<wasm::Value> results =
        interp.invokeExport(*inst, mod.entry, mod.args);
    if (execute_ns)
        *execute_ns = nowNs() - t0;
    if (instructions)
        *instructions = interp.stats().instructions;
    return results;
}

std::string
where(const Module &mod, const std::string &analysis = "")
{
    return mod.name + (analysis.empty() ? "" : " under " + analysis);
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Module bytes per instrumenting thread (see StaticPipeline::step). */
constexpr size_t kBytesPerThread = 64 * 1024;

} // namespace

// ---------------------------------------------------------------- run

void
RunPipeline::check(Tally &t)
{
    const size_t nm = in_.run.size(), na = in_.runAnalyses.size();
    results_.assign(nm, {});
    reports_.assign(nm, std::vector<std::string>(na));
    decoded_.clear();
    pipeSeconds_.assign(nm, std::vector<std::vector<double>>(na));
    overhead_.assign(nm, std::vector<std::vector<double>>(na));
    for (size_t i = 0; i < nm; ++i) {
        const Module &mod = in_.run[i];
        auto m = std::make_shared<const wasm::Module>(
            decodeValidated(mod, nullptr));
        decoded_.push_back(m);
        // The legacy engine is an independent interpreter: its
        // uninstrumented result is the reference.
        results_[i] = uninstrumented(m, mod, interp::EngineKind::Legacy);
        t.op(uninstrumented(m, mod, interp::EngineKind::Fast) ==
                 results_[i],
             where(mod) + ": fast engine differs from the legacy engine");
        for (size_t a = 0; a < na; ++a) {
            const std::string &name = in_.runAnalyses[a];
            auto analysis = analyses::makeAnalysis(name);
            core::HookSet hooks =
                runtime::WasabiRuntime::requiredHooks({analysis.get()});
            runtime::WasabiRuntime rt(core::buildIntrinsicInfo(*m, hooks));
            rt.addAnalysis(analysis.get(), name);
            auto inst = rt.instantiateIntrinsic(m);
            interp::Interpreter interp;
            t.op(interp.invokeExport(*inst, mod.entry, mod.args) ==
                     results_[i],
                 where(mod, name) + ": intrinsic-mode result differs");
            reports_[i][a] = analyses::analysisReport(name, *analysis, *m);
        }
    }
    pass(t, nullptr);
    // The checking pass is warm-up, not a sample.
    for (size_t i = 0; i < nm; ++i)
        for (size_t a = 0; a < na; ++a) {
            pipeSeconds_[i][a].clear();
            overhead_[i][a].clear();
        }
}

size_t
RunPipeline::ops() const
{
    return in_.run.size() * in_.runAnalyses.size();
}

double
RunPipeline::step(Tally &t, size_t op, Tracer *tr)
{
    const size_t i = op / in_.runAnalyses.size();
    const size_t a = op % in_.runAnalyses.size();
    const Module &mod = in_.run[i];
    const std::string &name = in_.runAnalyses[a];
    // The uninstrumented execution runs right before the pipeline, so
    // a slow spell of the host hits both sides of the overhead ratio
    // alike.
    int64_t exec = 0;
    uint64_t instructions = 0;
    t.op(uninstrumented(decoded_[i], mod, interp::EngineKind::Fast, tr,
                        &exec, &instructions) == results_[i],
         where(mod) + ": uninstrumented result differs");
    instructions_ += instructions;
    const int64_t t0 = nowNs();
    RunOutcome o = rewriteRun(mod, name, tr);
    const int64_t pipe = nowNs() - t0;
    t.op(o.results == results_[i],
         where(mod, name) + ": instrumented result differs");
    t.op(o.report == reports_[i][a],
         where(mod, name) +
             ": rewrite-mode report differs from intrinsic mode");
    pipeSeconds_[i][a].push_back(seconds(pipe));
    overhead_[i][a].push_back(static_cast<double>(o.executeNs) /
                              static_cast<double>(exec));
    hooks_ += o.hooks;
    translations_ += o.translations;
    return seconds(pipe);
}

double
RunPipeline::pass(Tally &t, Tracer *tr)
{
    double total = 0;
    for (size_t op = 0; op < ops(); ++op)
        total += step(t, op, tr);
    return total;
}

double
RunPipeline::layers(Tally &t, Layers &out, std::vector<Tracer> &spans)
{
    instructions_ = hooks_ = translations_ = 0;
    spans.emplace_back();
    const double wall = pass(t, &spans.back());
    int64_t empty_ns = 0, vm_ns = 0, body_ns = 0;
    uint64_t hooks = 0;
    for (size_t i = 0; i < in_.run.size(); ++i) {
        const Module &mod = in_.run[i];
        for (size_t a = 0; a < in_.runAnalyses.size(); ++a) {
            const std::string &name = in_.runAnalyses[a];
            int64_t vm = 0;
            uninstrumented(decoded_[i], mod, interp::EngineKind::Fast,
                           nullptr, &vm);
            RunOutcome e = rewriteRun(mod, name, nullptr, Variant::Empty);
            RunOutcome b = rewriteRun(mod, name, nullptr, Variant::Timed);
            t.op(e.results == results_[i] && b.results == results_[i] &&
                     b.report == reports_[i][a],
                 where(mod, name) + ": layer-split run differs");
            vm_ns += vm;
            empty_ns += e.executeNs;
            body_ns += b.bodyNs;
            hooks += e.hooks;
        }
    }
    out["interp.instructions"] = static_cast<double>(instructions_);
    out["runtime.hooks"] = static_cast<double>(hooks_);
    out["interp.translations"] += static_cast<double>(translations_);
    out["runtime.dispatch_ns_per_hook"] =
        hooks ? static_cast<double>(empty_ns - vm_ns) /
                    static_cast<double>(hooks)
              : 0;
    out["analyses.body_ns_per_hook"] =
        hooks ? static_cast<double>(body_ns) / static_cast<double>(hooks)
              : 0;
    return wall;
}

double
RunPipeline::rewriteRunSeconds() const
{
    double sum = 0;
    for (const auto &per_analysis : pipeSeconds_)
        for (const std::vector<double> &v : per_analysis)
            sum += median(v);
    return sum;
}

double
RunPipeline::overheadX() const
{
    std::vector<double> ratios;
    for (const auto &per_analysis : overhead_)
        for (const std::vector<double> &v : per_analysis)
            ratios.push_back(median(v));
    return bench::geomean(ratios);
}

void
RunPipeline::corruptExpected()
{
    results_.at(0).push_back(wasm::Value::makeI32(0xBAD));
}

// ------------------------------------------------------------- static

void
StaticPipeline::check(Tally &t)
{
    namespace rw = static_analysis::rewrite;
    // The first pass records the reference outputs; every pass runs
    // checkInstrumentation and checkOptimization on its own outputs.
    instrumented_.clear();
    optimized_.clear();
    hooksExpected_.clear();
    instrSeconds_.assign(in_.statics.size(), {});
    optCpuSeconds_.assign(in_.statics.size(), {});
    pass(t, nullptr);
    for (size_t i = 0; i < in_.statics.size(); ++i) {
        instrSeconds_[i].clear();
        optCpuSeconds_[i].clear();
    }
    // The optimized entry must return what the original returns, on
    // the legacy engine. The run pipeline's modules stand in for the
    // static ones: executing every static module twice per run costs
    // too much (the large apps' mains run 10^9 instructions).
    for (const Module &mod : in_.run) {
        auto m = std::make_shared<const wasm::Module>(
            decodeValidated(mod, nullptr));
        auto o = std::make_shared<const wasm::Module>(
            rw::optimize(*m, rw::allOptPasses()).module);
        t.op(uninstrumented(m, mod, interp::EngineKind::Legacy) ==
                 uninstrumented(o, mod, interp::EngineKind::Legacy),
             where(mod) + ": optimized entry returns a different result");
    }
}

size_t
StaticPipeline::ops() const
{
    return in_.statics.size();
}

double
StaticPipeline::step(Tally &t, size_t i, Tracer *tr)
{
    namespace rw = static_analysis::rewrite;
    const Module &mod = in_.statics[i];
    int64_t t0 = nowNs();
    wasm::Module m = decodeValidated(mod, tr);
    // One thread per core, as `wasabi instrument --threads=N`
    // would be run on this host, but no more threads than 64 KiB
    // pieces of the module: on a small module the timing would
    // otherwise be of thread start-up and of how soon a shared host
    // schedules each thread, not of instrumentation. The large apps
    // get a thread per core; small apps, kernels and random programs
    // are instrumented on one thread, as `wasabi run` and the server
    // instrument them.
    core::InstrumentOptions opts;
    opts.numThreads = static_cast<unsigned>(std::clamp<size_t>(
        mod.bytes.size() / kBytesPerThread, 1, hostThreads()));
    core::InstrumentResult r;
    {
        Scope s(tr, "core.instrument");
        r = core::instrument(m, core::HookSet::all(), opts);
    }
    std::vector<uint8_t> instrumented;
    {
        Scope s(tr, "wasm.encode");
        instrumented = wasm::encodeModule(r.module);
    }
    const int64_t instr_ns = nowNs() - t0;
    instrSeconds_[i].push_back(seconds(instr_ns));
    const bool first = instrumented_.size() == i;
    if (first) {
        instrumented_.push_back(instrumented);
        hooksExpected_.push_back(r.stats.hooksGenerated);
    }
    // Hook ids are handed out in the order worker threads reach
    // them, so with several threads the bytes differ from run to
    // run: each output is checked on its own instead.
    t.op(r.stats.hooksGenerated == hooksExpected_[i] &&
             static_analysis::checkInstrumentation(*r.info, r.module)
                 .empty(),
         where(mod) + ": checkInstrumentation rejects the output");
    hooksGenerated_ += r.stats.hooksGenerated;
    hookMapMisses_ += r.stats.hookMap.misses;

    // opt_check_s is CPU time: the optimizer and checker start one
    // thread per core for their interprocedural solvers, even on a
    // 6 KB module, so their wall time on a shared host is mostly how
    // soon each of those threads gets a core.
    t0 = nowNs();
    const int64_t cpu0 = processCpuNs();
    rw::OptResult o;
    {
        Scope s(tr, "static.opt");
        o = rw::optimize(m, rw::allOptPasses());
    }
    std::vector<uint8_t> optimized;
    {
        Scope s(tr, "wasm.encode");
        optimized = wasm::encodeModule(o.module);
    }
    std::string manifest;
    {
        Scope s(tr, "static.manifest_write");
        manifest = rw::claimsToManifest(o.claims);
    }
    rw::OptClaims claims;
    std::string error;
    bool parsed;
    {
        Scope s(tr, "static.manifest_parse");
        parsed = rw::claimsFromManifest(manifest, claims, &error);
    }
    bool proved;
    {
        Scope s(tr, "static.check_opt");
        proved = parsed &&
                 rw::checkOptimization(m, optimized, claims).empty();
    }
    const int64_t opt_ns = nowNs() - t0;
    optCpuSeconds_[i].push_back(seconds(processCpuNs() - cpu0));
    if (first)
        optimized_.push_back(optimized);
    t.op(proved && optimized == optimized_[i],
         where(mod) + ": optimized output or its manifest differs");
    optClaims_ += o.claims.totalClaims();
    return seconds(instr_ns + opt_ns);
}

double
StaticPipeline::pass(Tally &t, Tracer *tr)
{
    hooksGenerated_ = hookMapMisses_ = optClaims_ = 0;
    double total = 0;
    for (size_t i = 0; i < ops(); ++i)
        total += step(t, i, tr);
    return total;
}

double
StaticPipeline::layers(Tally &t, Layers &out, std::vector<Tracer> &spans)
{
    spans.emplace_back();
    Tracer &tr = spans.back();
    const double wall = pass(t, &tr);
    for (size_t i = 0; i < in_.statics.size(); ++i) {
        wasm::Module m = decodeValidated(in_.statics[i], nullptr);
        core::InstrumentResult r;
        {
            Scope s(&tr, "core.instrument_1t");
            r = core::instrument(m, core::HookSet::all());
        }
        t.op(static_analysis::checkInstrumentation(*r.info, r.module)
                 .empty(),
             where(in_.statics[i]) +
                 ": checkInstrumentation rejects the 1-thread output");
    }
    out["core.hooks_generated"] = static_cast<double>(hooksGenerated_);
    out["core.hookmap_misses"] = static_cast<double>(hookMapMisses_);
    out["static.opt_claims"] = static_cast<double>(optClaims_);
    return wall;
}

double
StaticPipeline::instrumentSeconds() const
{
    double sum = 0;
    for (const std::vector<double> &v : instrSeconds_)
        sum += median(v);
    return sum;
}

double
StaticPipeline::optCheckSeconds() const
{
    double sum = 0;
    for (const std::vector<double> &v : optCpuSeconds_)
        sum += median(v);
    return sum;
}

double
StaticPipeline::codeSizeRatio() const
{
    std::vector<double> r;
    for (size_t i = 0; i < in_.statics.size(); ++i)
        r.push_back(static_cast<double>(instrumented_[i].size()) /
                    static_cast<double>(in_.statics[i].bytes.size()));
    return bench::geomean(r);
}

double
StaticPipeline::optSizeRatio() const
{
    std::vector<double> r;
    for (size_t i = 0; i < in_.statics.size(); ++i)
        r.push_back(static_cast<double>(optimized_[i].size()) /
                    static_cast<double>(in_.statics[i].bytes.size()));
    return bench::geomean(r);
}

} // namespace perfbench
