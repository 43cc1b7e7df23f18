#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "analyses/registry.h"
#include "bench.h"
#include "core/intrinsic_info.h"
#include "interp/interpreter.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "runtime/runtime.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "support/file_io.h"
#include "support/module_io.h"

namespace perfbench {

using namespace wasabi;
using Scope = Tracer::Scope;

namespace {

bool
isOk(const std::string &response)
{
    return response.rfind("{\"ok\": true", 0) == 0;
}

bool
isFuelTrip(const std::string &response)
{
    return response.find("\"code\": \"serve.quota-exceeded\"") !=
               std::string::npos &&
           response.find("\"resource\": \"fuel\"") != std::string::npos;
}

/** What one replayed request produced. */
struct Replayed {
    std::vector<wasm::Value> results;
    std::string report;
    int64_t executeNs = 0;
};

/**
 * One `run` (or, with @p profile, `profile`) request replayed through
 * the public calls Server::opRun makes, in its order, with a span
 * around each. Requests here always name their entry and never set
 * hooks, memoryPages or fuel.
 */
Replayed
replay(serve::Server &server, const std::string &line, bool profile,
       Tracer *tr, int64_t request)
{
    serve::Request r;
    {
        Scope s(tr, "serve.parse", request);
        r = serve::parseRequest(line);
    }
    std::vector<uint8_t> bytes;
    {
        Scope s(tr, "serve.read", request);
        bytes = support::readBinaryFile(r.module);
    }
    std::shared_ptr<serve::CachedModule> entry;
    {
        Scope s(tr, "serve.acquire", request);
        entry = server.cache().acquire(bytes, r.module);
    }
    std::unique_ptr<runtime::Analysis> analysis;
    {
        Scope s(tr, "analyses.make", request);
        analysis = analyses::makeAnalysis(r.analysis);
    }
    core::HookSet hooks =
        runtime::WasabiRuntime::requiredHooks({analysis.get()});
    std::shared_ptr<const core::StaticInfo> info;
    {
        Scope s(tr, "serve.intrinsic_info", request);
        info = entry->intrinsicInfo(hooks);
    }
    runtime::WasabiRuntime rt(info);
    rt.addAnalysis(analysis.get(), r.analysis);
    obs::ProfileCollector collector(profile);
    if (profile) {
        collector.setInstrumentMode("intrinsic");
        rt.setProfiler(&collector);
    }
    serve::InstanceLease lease;
    {
        Scope s(tr, "serve.pool_acquire", request);
        lease = server.pool().acquire(*entry);
    }
    interp::Instance &inst = *lease.instance;
    {
        Scope s(tr, "runtime.attach", request);
        rt.attachIntrinsic(inst);
    }
    forceTranslation(inst, tr, request);
    Replayed out;
    interp::Interpreter interp;
    {
        Scope s(tr, "interp.execute", request);
        obs::ProfileCollector::ScopedPhase p(profile ? &collector : nullptr,
                                             "execute");
        const int64_t t0 = nowNs();
        out.results = interp.invokeExport(inst, r.entry, r.args);
        out.executeNs = nowNs() - t0;
    }
    {
        Scope s(tr, "analyses.report", request);
        out.report =
            analyses::analysisReport(r.analysis, *analysis, *entry->module());
    }
    {
        Scope s(tr, "serve.pool_release", request);
        server.pool().release(std::move(lease));
    }
    return out;
}

/** Whether @p response carries @p replayed's results and report. */
bool
sameAsResponse(const Replayed &replayed, const std::string &response)
{
    std::string error;
    std::optional<obs::json::Value> v = obs::json::parse(response, &error);
    if (!v)
        return false;
    const obs::json::Value *results = v->find("results");
    const obs::json::Value *report = v->find("report");
    if (!results || !report || !results->isArray() ||
        results->array.size() != replayed.results.size())
        return false;
    for (size_t i = 0; i < replayed.results.size(); ++i)
        if (results->array[i].str != wasm::toString(replayed.results[i]))
            return false;
    return report->str == replayed.report;
}

double
msSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-6;
}

} // namespace

void
ServeLoop::check(Tally &t)
{
    // Expected responses: each distinct request once, single-threaded,
    // on a fresh server.
    expected_.clear();
    serve::Server server;
    std::set<std::string> trips;
    for (const std::vector<Request> *list :
         {&in_.serveWarmup, &in_.serveStream})
        for (const Request &r : *list) {
            if (r.tripsQuota)
                trips.insert(r.line);
            if (!expected_.count(r.line))
                expected_[r.line] = server.handle(r.line).response;
        }
    for (const auto &[line, response] : expected_)
        t.op(trips.count(line) ? isFuelTrip(response) : isOk(response),
             "unexpected serve response " + response.substr(0, 200) +
                 " to " + line);
    warmMs_.clear();
    coldMs_.clear();
    warmP50_.clear();
    warmP99_.clear();
    coldP50_.clear();
    rps_.clear();
}

double
ServeLoop::runStream(serve::Server &server,
                     const std::vector<Request> &stream, unsigned clients,
                     Tally &t, std::vector<Tracer> *tracers,
                     std::vector<double> *warm, std::vector<double> *cold)
{
    struct Client {
        std::vector<double> warm, cold;
        uint64_t attempted = 0;
        std::vector<size_t> mismatches;
        std::string error;
    };
    std::vector<Client> out(clients);
    if (tracers)
        tracers->resize(tracers->size() + clients);
    Tracer *first_tracer =
        tracers ? &(*tracers)[tracers->size() - clients] : nullptr;
    std::atomic<size_t> next{0};
    const int64_t start = nowNs();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Client &me = out[c];
            Tracer *tr = first_tracer ? first_tracer + c : nullptr;
            try {
                for (size_t i; (i = next++) < stream.size();) {
                    const Request &r = stream[i];
                    const int64_t t0 = nowNs();
                    std::string response;
                    {
                        Scope s(tr, "serve.handle",
                                static_cast<int64_t>(i));
                        response = server.handle(r.line).response;
                    }
                    const double ms = msSince(t0);
                    (r.cold ? me.cold : me.warm).push_back(ms);
                    ++me.attempted;
                    if (response != expected_.at(r.line))
                        me.mismatches.push_back(i);
                }
            } catch (const std::exception &e) {
                me.error = e.what();
            }
        });
    for (std::thread &th : threads)
        th.join();
    const double wall = static_cast<double>(nowNs() - start) * 1e-9;
    for (Client &c : out) {
        t.attempted += c.attempted;
        for (size_t i : c.mismatches)
            t.fail("serve response differs from expected for " +
                   stream[i].line);
        if (!c.error.empty())
            t.fail("serve client failed: " + c.error);
        if (warm)
            warm->insert(warm->end(), c.warm.begin(), c.warm.end());
        if (cold)
            cold->insert(cold->end(), c.cold.begin(), c.cold.end());
    }
    return wall;
}

double
ServeLoop::pass(Tally &t)
{
    serve::Server server;
    runStream(server, in_.serveWarmup, clients_, t, nullptr, nullptr,
              nullptr);
    std::vector<double> warm, cold;
    const double wall = runStream(server, in_.serveStream, clients_, t,
                                  nullptr, &warm, &cold);
    rps_.push_back(static_cast<double>(in_.serveStream.size()) / wall);
    // Nearest-rank p99 has ten samples beyond it from 1000 samples on.
    if (warm.size() < 1000)
        throw std::logic_error("p99 of fewer than 1000 warm requests");
    warmP50_.push_back(median(warm));
    warmP99_.push_back(percentile(warm, 99));
    coldP50_.push_back(median(cold));
    warmMs_.insert(warmMs_.end(), warm.begin(), warm.end());
    coldMs_.insert(coldMs_.end(), cold.begin(), cold.end());
    return wall;
}

double
ServeLoop::layers(Tally &t, Layers &out, std::vector<Tracer> &spans)
{
    // N clients, handle() spans only: the counters of a loaded server.
    serve::Server server;
    runStream(server, in_.serveWarmup, clients_, t, nullptr, nullptr,
              nullptr);
    const uint64_t ch = server.cache().hits(), cm = server.cache().misses();
    const uint64_t ph = server.pool().hits(), pm = server.pool().misses();
    const uint64_t tr0 = server.translations();
    const double wall = runStream(server, in_.serveStream, clients_, t,
                                  &spans, nullptr, nullptr);
    const double rps_n = static_cast<double>(in_.serveStream.size()) / wall;
    auto ratio = [](uint64_t hits, uint64_t misses) {
        return hits + misses ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0;
    };
    out["serve.cache_hit_ratio"] =
        ratio(server.cache().hits() - ch, server.cache().misses() - cm);
    out["serve.pool_hit_ratio"] =
        ratio(server.pool().hits() - ph, server.pool().misses() - pm);
    out["interp.translations"] +=
        static_cast<double>(server.translations() - tr0);

    // One client on a fresh server: uncontended handle() latency, its
    // translations per warm request, and a layer-by-layer replay of
    // every 8th warm request. A sampled request is replayed first, so
    // the replay finds the instance as the previous request left it
    // (these spans give the per-layer figures), then handled, then
    // replayed again. handle() and the second replay both run right
    // after the same request, with its code translated and the caches
    // warm, so they compare like for like: the residual is handle()
    // minus the second replay's layers, request by request. Only
    // unsampled requests count towards translations per request.
    serve::Server solo;
    runStream(solo, in_.serveWarmup, 1, t, nullptr, nullptr, nullptr);
    spans.emplace_back();
    Tracer &tr = spans.back();
    Tracer again;
    std::vector<double> residual_us;
    uint64_t warm_requests = 0, warm_translations = 0;
    int64_t run_exec = 0, profile_exec = 0;
    for (size_t i = 0; i < in_.serveStream.size(); ++i) {
        const Request &r = in_.serveStream[i];
        const int64_t id = static_cast<int64_t>(i);
        const bool sampled = !r.cold && !r.tripsQuota && i % 8 == 0;
        const bool profile = r.line.rfind("{\"op\": \"profile\"", 0) == 0;
        std::optional<Replayed> first;
        if (sampled)
            first = replay(solo, r.line, profile, &tr, id);
        const uint64_t before = solo.translations();
        const int64_t t0 = nowNs();
        std::string response;
        {
            Scope s(&tr, "serve.handle", id);
            response = solo.handle(r.line).response;
        }
        const double ms = msSince(t0);
        t.op(response == expected_.at(r.line),
             "serve response differs from expected for " + r.line);
        if (r.cold)
            continue;
        if (!sampled) {
            ++warm_requests;
            warm_translations += solo.translations() - before;
            continue;
        }
        const size_t from = again.spans.size();
        Replayed second = replay(solo, r.line, profile, &again, id);
        // What handle() spends beyond the calls it makes: writing the
        // response, error mapping, bookkeeping.
        int64_t layers_ns = 0;
        for (size_t k = from; k < again.spans.size(); ++k)
            layers_ns += again.spans[k].selfNs();
        residual_us.push_back(ms * 1e3 -
                              static_cast<double>(layers_ns) * 1e-3);
        // The same request once more as the other op, in the same
        // state: profile's execute time against run's, same module
        // and analysis.
        Replayed other = replay(solo, r.line, !profile, nullptr, -1);
        for (const Replayed *rep : {&*first, &second, &other})
            t.op(sameAsResponse(*rep, response),
                 "replayed request differs from handle() for " + r.line);
        run_exec += profile ? other.executeNs : second.executeNs;
        profile_exec += profile ? second.executeNs : other.executeNs;
    }

    // One client, no tracing, no replay: the 1-client throughput.
    serve::Server one;
    runStream(one, in_.serveWarmup, 1, t, nullptr, nullptr, nullptr);
    const double rps_1 =
        static_cast<double>(in_.serveStream.size()) /
        runStream(one, in_.serveStream, 1, t, nullptr, nullptr, nullptr);
    out["serve.scaling_efficiency"] =
        rps_n / (static_cast<double>(clients_) * rps_1);
    out["serve.translations_per_warm_request"] =
        warm_requests ? static_cast<double>(warm_translations) /
                            static_cast<double>(warm_requests)
                      : 0;
    out["obs.profile_execute_x"] =
        run_exec ? static_cast<double>(profile_exec) /
                       static_cast<double>(run_exec)
                 : 0;

    // Per-request medians of the replayed layers.
    std::map<std::string, std::vector<double>> per_layer_us;
    for (const Span &s : tr.spans)
        if (s.name != "serve.handle")
            per_layer_us[s.name].push_back(
                static_cast<double>(s.selfNs()) * 1e-3);
    auto med = [&](const char *name) {
        auto it = per_layer_us.find(name);
        return it == per_layer_us.end() ? 0.0 : median(it->second);
    };
    out["serve.parse_us"] = med("serve.parse");
    out["serve.read_us"] = med("serve.read");
    out["serve.acquire_us"] = med("serve.acquire");
    out["interp.restore_ms"] = med("serve.pool_release") * 1e-3;
    out["serve.residual_us"] = residual_us.empty() ? 0 : median(residual_us);

    // buildIntrinsicInfo, the static-facts step of a cold request.
    std::vector<double> info_ms;
    for (const Module &mod : in_.serveCold) {
        wasm::Module m = support::loadModuleFromBytes(mod.bytes, mod.name);
        const int64_t t0 = nowNs();
        core::buildIntrinsicInfo(m, core::HookSet::all());
        info_ms.push_back(msSince(t0));
    }
    out["core.intrinsic_info_ms"] = info_ms.empty() ? 0 : median(info_ms);
    return wall;
}

double
ServeLoop::warmP50Ms() const
{
    return median(warmP50_);
}

double
ServeLoop::warmP99Ms() const
{
    return median(warmP99_);
}

double
ServeLoop::coldP50Ms() const
{
    return median(coldP50_);
}

double
ServeLoop::rps() const
{
    return median(rps_);
}

} // namespace perfbench
