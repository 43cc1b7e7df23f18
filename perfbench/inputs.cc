#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "support/file_io.h"
#include "wasm/encoder.h"
#include "workloads/polybench.h"
#include "workloads/random_program.h"
#include "workloads/synthetic_app.h"

namespace perfbench {

namespace wl = wasabi::workloads;

namespace {

/**
 * The 30 PolyBench kernels with two problem sizes: `run`, at which one
 * uninstrumented fast-engine run takes about 10 ms, and `serve`, at
 * which it takes about 0.2 ms (measured on a 4-core Xeon,
 * RelWithDebInfo build). Rows are ordered by the time of one
 * mix-instrumented run at the `run` size (350 to 790 ms there), so
 * drawing one kernel from each run of five rows (a stratified draw)
 * keeps rewrite_run_s close across seeds.
 */
struct KernelSize {
    const char *name;
    int run;
    int serve;
};
constexpr KernelSize kKernels[] = {
    {"heat-3d", 18, 7}, {"fdtd-2d", 53, 15}, {"jacobi-2d", 56, 16},
    {"syrk", 52, 14}, {"correlation", 48, 14}, {"gesummv", 183, 27},
    {"symm", 46, 13}, {"jacobi-1d", 590, 94}, {"lu", 59, 17},
    {"cholesky", 72, 20}, {"gemm", 42, 12}, {"seidel-2d", 64, 19},
    {"3mm", 29, 8}, {"bicg", 208, 31}, {"gramschmidt", 42, 12},
    {"atax", 208, 30}, {"adi", 48, 13}, {"mvt", 186, 29},
    {"deriche", 105, 16}, {"ludcmp", 60, 16}, {"syr2k", 46, 12},
    {"nussinov", 68, 18}, {"floyd-warshall", 43, 12}, {"2mm", 35, 9},
    {"doitgen", 17, 7}, {"trmm", 55, 14}, {"gemver", 163, 23},
    {"covariance", 55, 14}, {"trisolv", 324, 46}, {"durbin", 369, 49},
};
constexpr size_t kStrata = 6;
constexpr size_t kPerStratum = std::size(kKernels) / kStrata;

/** The five analyses serve requests alternate across. */
const std::vector<std::string> kServeAnalyses = {"mix", "mem", "icov",
                                                 "branch", "callgraph"};

/** splitmix64: a portable seeded stream (std distributions are not
 * portable across standard libraries). */
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t s_;
};

Module
fromWorkload(wl::Workload w, const std::string &name)
{
    return Module{name, wasabi::wasm::encodeModule(w.module), w.entry,
                  std::move(w.args), ""};
}

Module
kernel(const std::string &name, int n)
{
    return fromWorkload(wl::polybench(name, n),
                        name + ":n=" + std::to_string(n));
}

Module
appSmall(uint64_t seed)
{
    return fromWorkload(wl::syntheticApp(wl::AppSize::Small, seed),
                        "app-small:seed=" + std::to_string(seed));
}

Module
randomProgram(uint64_t seed)
{
    wl::RandomProgramOptions opts;
    opts.seed = seed;
    return fromWorkload(wl::randomProgram(opts),
                        "random:seed=" + std::to_string(seed));
}

/**
 * @p m with a custom section appended that makes its bytes unique: a
 * never-seen module to the content-hash cache, with exactly @p m's
 * code, so a cold request costs the same whatever the seed.
 */
Module
unseen(const Module &m, uint64_t tag)
{
    Module out = m;
    out.name += ":unseen=" + std::to_string(tag);
    const std::string name = "perfbench";
    std::vector<uint8_t> payload = {static_cast<uint8_t>(name.size())};
    payload.insert(payload.end(), name.begin(), name.end());
    for (int i = 0; i < 8; ++i)
        payload.push_back(static_cast<uint8_t>(tag >> (8 * i)));
    out.bytes.push_back(0); // custom section id
    out.bytes.push_back(static_cast<uint8_t>(payload.size()));
    out.bytes.insert(out.bytes.end(), payload.begin(), payload.end());
    return out;
}

/** @p count never-seen variants of @p pool's modules, in turn. */
std::vector<Module>
unseenModules(const std::vector<Module> &pool, size_t count, uint64_t seed)
{
    std::vector<Module> out;
    for (size_t j = 0; j < count; ++j)
        out.push_back(unseen(pool[j % pool.size()], seed * 1000 + j));
    return out;
}

/** One kernel index per stratum, drawn by @p rng. */
std::vector<size_t>
stratifiedDraw(Rng &rng)
{
    std::vector<size_t> out;
    for (size_t s = 0; s < kStrata; ++s)
        out.push_back(s * kPerStratum + rng.below(kPerStratum));
    return out;
}

std::string
requestLine(const char *op, const Module &m, const std::string &analysis,
            const char *fuel)
{
    std::string line = std::string("{\"op\": \"") + op +
                       "\", \"module\": \"" + m.path +
                       "\", \"analysis\": \"" + analysis +
                       "\", \"entry\": \"" + m.entry + "\", \"args\": [";
    for (size_t i = 0; i < m.args.size(); ++i)
        line += std::string(i ? ", " : "") + "\"" +
                wasabi::wasm::toString(m.args[i]) + "\"";
    line += "]";
    if (fuel)
        line += std::string(", \"fuel\": ") + fuel;
    return line + "}";
}

void
assignPaths(std::vector<Module> &mods, const std::string &dir,
            const char *tag)
{
    for (size_t i = 0; i < mods.size(); ++i) {
        std::string file = mods[i].name;
        std::replace_if(
            file.begin(), file.end(),
            [](char c) { return c == ':' || c == '='; }, '-');
        mods[i].path =
            dir + "/" + tag + std::to_string(i) + "-" + file + ".wasm";
    }
}

/**
 * The serve request stream: @p length requests in a seeded order.
 * About 3% name a never-seen module (one cold module each), 4% are
 * `profile` ops, 2% carry a fuel quota of 1000 instructions that every
 * module here exceeds, and the rest are `run` ops. Warm requests cycle
 * through every (pool module, analysis) pair, so which requests the
 * stream holds is the same for every seed; the seed sets their order.
 */
void
makeStream(Inputs &in, size_t length, Rng &rng)
{
    const size_t pool = in.servePool.size();
    const size_t na = kServeAnalyses.size();
    const size_t cold = in.serveCold.size();
    const size_t profile = std::max<size_t>(1, length * 4 / 100);
    const size_t trip = std::max<size_t>(1, length * 2 / 100);
    for (size_t k = 0; k < length - cold; ++k) {
        const size_t pair = k % (pool * na);
        const Module &m = in.servePool[pair % pool];
        const std::string &analysis = kServeAnalyses[pair / pool];
        const bool is_profile = k < profile;
        const bool is_trip = !is_profile && k < profile + trip;
        in.serveStream.push_back(Request{
            requestLine(is_profile ? "profile" : "run", m, analysis,
                        is_trip ? "1000" : nullptr),
            false, is_trip});
    }
    for (size_t c = 0; c < cold; ++c)
        in.serveStream.push_back(
            Request{requestLine("run", in.serveCold[c],
                                kServeAnalyses[c % na], nullptr),
                    true, false});
    rng.shuffle(in.serveStream);
    // Warm-up: every (pool module, analysis) pair twice, so the pool
    // holds parked instances before the timed stream starts.
    for (int rep = 0; rep < 2; ++rep)
        for (const Module &m : in.servePool)
            for (const std::string &a : kServeAnalyses)
                in.serveWarmup.push_back(
                    Request{requestLine("run", m, a, nullptr), false,
                            false});
}

/** The small synthetic apps the run and serve pipelines share. Their
 * generator seeds are fixed: one app-small's main executes 44k to
 * 237k instructions depending on its seed, which would swamp the
 * run-to-run comparison. */
std::vector<Module>
smallApps()
{
    std::vector<Module> out;
    for (uint64_t s = 1; s <= 4; ++s)
        out.push_back(appSmall(s));
    return out;
}

/** serve-mixed's module pool: the small apps, one kernel per stratum
 * at its serve size, and six random programs from @p random_seed on. */
std::vector<Module>
mixedPool(Rng &rng, uint64_t random_seed)
{
    std::vector<Module> out = smallApps();
    for (size_t k : stratifiedDraw(rng))
        out.push_back(kernel(kKernels[k].name, kKernels[k].serve));
    for (uint64_t i = 0; i < 6; ++i)
        out.push_back(randomProgram(random_seed + i));
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "kernels-rewrite", "apps-static", "serve-mixed"};
    return names;
}

Inputs
makeInputs(const std::string &workload, uint64_t seed,
           const std::string &workdir)
{
    Inputs in;
    in.runAnalyses = {"mix", "mem"};
    Rng rng(seed ^ 0x5EEDBE4C4ull);
    // At least 1031 requests, 3% of them cold: each pass then has 1000
    // warm requests, ten beyond its p99 (ServeLoop::warmP99Ms).
    size_t stream_length = 0;

    if (workload == "kernels-rewrite") {
        // Fig. 9's traffic: six ~10 ms kernels, one per stratum, under
        // every hook kind (mix) and under load/store hooks only (mem).
        // The static and serve pipelines take all 30 kernels (at their
        // ~0.2 ms size for serve), so their cost does not depend on
        // the draw.
        for (size_t k : stratifiedDraw(rng))
            in.run.push_back(kernel(kKernels[k].name, kKernels[k].run));
        for (const KernelSize &k : kKernels) {
            in.statics.push_back(kernel(k.name, k.run));
            in.servePool.push_back(kernel(k.name, k.serve));
        }
        stream_length = 1050;
        in.runShare = 0.55, in.staticShare = 0.15, in.serveShare = 0.3;
    } else if (workload == "apps-static") {
        // Table 5 / Fig. 8's traffic: the two large synthetic apps
        // through the static toolchain. Executing their mains takes
        // 10^9 instructions, so the run and serve pipelines take the
        // small apps.
        in.statics.push_back(fromWorkload(
            wl::syntheticApp(wl::AppSize::PdfkitLike, seed),
            "pspdfkit-like:seed=" + std::to_string(seed)));
        in.statics.push_back(fromWorkload(
            wl::syntheticApp(wl::AppSize::UnrealLike, seed),
            "unreal-like:seed=" + std::to_string(seed)));
        in.run = smallApps();
        in.servePool = in.run;
        stream_length = 1050;
        // Three static passes take over 30 s; the other pipelines
        // are spread over those passes. Serve gets a fifth, so that
        // its tail and cold-request figures rest on about ten passes.
        in.runShare = 0.05, in.staticShare = 0.75, in.serveShare = 0.2;
    } else if (workload == "serve-mixed") {
        // The north-star path: many short requests over a pool of
        // small apps, small kernels and random programs, with a few
        // never-seen modules, profile requests and quota trips. The
        // run and static pipelines take a pool of the same make drawn
        // with a fixed seed: which kernels and random programs a seed
        // draws moves their cost by up to 20%.
        in.servePool = mixedPool(rng, seed * 1000);
        Rng fixed(0);
        in.run = mixedPool(fixed, 0);
        in.statics = in.run;
        stream_length = 1200;
        in.runShare = 0.2, in.staticShare = 0.15, in.serveShare = 0.65;
    } else {
        throw std::invalid_argument("unknown workload \"" + workload +
                                    "\"");
    }
    in.serveCold =
        unseenModules(in.servePool, stream_length * 3 / 100, seed);
    assignPaths(in.servePool, workdir, "pool");
    assignPaths(in.serveCold, workdir, "cold");
    makeStream(in, stream_length, rng);
    return in;
}

void
writeServeModules(const Inputs &in)
{
    for (const std::vector<Module> *mods : {&in.servePool, &in.serveCold})
        for (const Module &m : *mods)
            wasabi::support::writeBinaryFile(m.path, m.bytes);
}

void
Tally::fail(const std::string &what)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(what);
}

void
Tally::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok)
        fail(what);
}

} // namespace perfbench
