/**
 * @file
 * servebench — the steady serving benchmark of the CEGMA runtime.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-dir DIR]
 *
 * One workload per process: generate the inputs from the seed, set the
 * service up several times (setup_s is the median), warm it, run the
 * timed phases (closed loop, then open loop at a fixed absolute rate),
 * and check the outputs against computations made apart from the
 * service. With --trace 1 the timed phases run twice — untraced, then
 * with the program's spans and attribution on — and the per-layer
 * metrics are printed instead of the end-to-end ones. The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; the line before it holds the per-phase operation counts,
 * the host fingerprint and the CPU probe. See README.md.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "gmn/memo.hh"
#include "obs/trace.hh"
#include "servebench.hh"
#include "tensor/workspace.hh"

namespace sb {

using cegma::DatasetId;
using cegma::ModelId;
using cegma::RetrievalMode;

namespace {

constexpr uint64_t kModelSeed = 1234;
constexpr uint64_t kCorpusSeed = 7;
constexpr double kThinkSec = 0.002; ///< closed-loop mean think time
constexpr uint32_t kRounds = 8;      ///< timed rounds per run
constexpr uint32_t kTopK = 10;

// name, model, dataset, mode, corpus, shortlist, open qps, closed
// share, setup reps, warm-up, keep stride, oracle results, reference
// pairs, recall floor, mutation qps, mutations per epoch
const WorkloadSpec kWorkloads[] = {
    {"rdb-graphsim", ModelId::GraphSim, DatasetId::RD_B,
     RetrievalMode::Exhaustive, 4, 256, 20.0, 0.25, 5, 8, 4, 8, 8, 1.0, 0.0,
     0},
    {"aids-cascade", ModelId::SimGnn, DatasetId::AIDS, RetrievalMode::Cascade,
     10000, 256, 14.0, 0.25, 3, 8, 8, 8, 24, 0.9, 0.0, 0},
    {"aids-live", ModelId::SimGnn, DatasetId::AIDS, RetrievalMode::Cascade,
     10000, 256, 14.0, 0.25, 3, 8, 8, 8, 24, 0.9, 20.0, 4},
};

/** Closed-loop capacity bound per workload, for sizing the query pool. */
double
closedQpsBound(const WorkloadSpec &spec)
{
    return spec.openQps * 10.0;
}

uint64_t
derive(uint64_t seed, uint64_t salt)
{
    cegma::Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
    return rng.next64();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile (q in (0, 1]) of `v`; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

[[noreturn]] void
die(const char *fmt, const char *arg = "")
{
    std::fprintf(stderr, "servebench: ");
    std::fprintf(stderr, fmt, arg);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

// ---------------------------------------------------------------------
// Host fingerprint and CPU probe.

struct Host
{
    unsigned nproc = 1;
    std::string cpu;
    std::string simd;
    long l2Bytes = 0;
    double probeS = 0.0;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/**
 * A fixed single-thread integer loop, timed. Recorded beside the
 * metrics and never used to scale them: it separates a slow host from
 * a slow program.
 */
double
cpuProbe()
{
    Clock::time_point t0 = Clock::now();
    uint64_t x = 88172645463325252ull;
    for (uint32_t i = 0; i < 200000000u; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
    return msBetween(t0, Clock::now()) / 1e3;
}

/** Jiffies of all CPUs so far: {total, steal}, from /proc/stat. */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v;
    for (int i = 0; i < 8 && in >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {total, steal};
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** The knobs that silently swap in a different program. */
void
guardEnvironment()
{
    for (const char *var :
         {"CEGMA_THREADS", "CEGMA_SIMD", "CEGMA_WORKSPACE", "CEGMA_WINDOW"}) {
        if (std::getenv(var) != nullptr)
            die("%s is set; unset it — the benchmark measures the default "
                "program",
                var);
    }
}

// ---------------------------------------------------------------------
// Registry and counter deltas over a phase.

double
registryNumber(const cegma::obs::RegistrySnapshot &snap, const char *name)
{
    for (const cegma::obs::MetricValue &m : snap.metrics) {
        if (m.name != name)
            continue;
        switch (m.kind) {
        case cegma::obs::MetricValue::Kind::Counter:
            return static_cast<double>(m.counter);
        case cegma::obs::MetricValue::Kind::Gauge:
            return static_cast<double>(m.gauge);
        case cegma::obs::MetricValue::Kind::FloatGauge:
            return m.fgauge;
        case cegma::obs::MetricValue::Kind::Histogram:
            return static_cast<double>(m.hist.count);
        }
    }
    return 0.0;
}

/** Counter readings taken at a phase boundary. */
struct Counters
{
    cegma::obs::RegistrySnapshot reg;
    uint64_t memoHits = 0, memoMisses = 0;
    cegma::WorkspaceStats ws;

    static Counters take(const cegma::SearchService &service)
    {
        Counters c;
        c.reg = service.registry().snapshot();
        c.memoHits = service.memo().hits();
        c.memoMisses = service.memo().misses();
        c.ws = cegma::WorkspacePool::instance().stats();
        return c;
    }

    double delta(const Counters &before, const char *name) const
    {
        return registryNumber(reg, name) - registryNumber(before.reg, name);
    }
};

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
esc(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

// ---------------------------------------------------------------------
// The timed rounds.

/** One round: a closed-loop slice, then an open-loop slice. */
struct Round
{
    PhaseResult closed, open;
    Counters before, afterClosed, afterOpen;
};

/**
 * The rounds of one kind (untraced or traced). Throughput and p50 are
 * medians over rounds rather than figures over one long phase, so that
 * a burst of host contention spoils a few rounds and the median drops
 * them.
 */
struct Pass
{
    std::vector<Round> rounds;
    MutationLog mutations;

    std::vector<const Served *> served(PhaseResult Round::*phase) const
    {
        std::vector<const Served *> out;
        for (const Round &r : rounds)
            for (const Served &s : (r.*phase).served)
                if (!s.failed)
                    out.push_back(&s);
        return out;
    }

    /** Sum over rounds of `to - from` for registry metric `name`. */
    double delta(Counters Round::*from, Counters Round::*to,
                 const char *name) const
    {
        double sum = 0.0;
        for (const Round &r : rounds)
            sum += (r.*to).delta(r.*from, name);
        return sum;
    }

    /** Sum over rounds of `to - from` of a raw counter reading. */
    template <typename Get>
    double sumOver(Get &&get) const
    {
        double sum = 0.0;
        for (const Round &r : rounds)
            sum += get(r.afterOpen) - get(r.before);
        return sum;
    }

    /** Median over rounds of the closed slices' completion rate. */
    double closedQps() const
    {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(static_cast<double>(r.closed.attempted -
                                            r.closed.failed) /
                        r.closed.seconds);
        return median(v);
    }

    double openQuantileMs(double q) const
    {
        std::vector<double> v;
        for (const Served *s : served(&Round::open))
            v.push_back(s->latencyMs);
        return quantile(v, q);
    }

    /** Median over rounds of each open slice's p50 latency. */
    double openP50Ms() const
    {
        std::vector<double> p50s;
        for (const Round &r : rounds) {
            std::vector<double> v;
            for (const Served &s : r.open.served)
                if (!s.failed)
                    v.push_back(s.latencyMs);
            p50s.push_back(quantile(v, 0.5));
        }
        return median(p50s);
    }
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            die("missing value for %s", flag.c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                die("--trace takes 0 or 1");
        } else if (flag == "--trace-dir") {
            a.traceDir = v;
        } else {
            die("unknown flag %s", flag.c_str());
        }
        if (end != nullptr && *end != '\0')
            die("bad number for %s", flag.c_str());
    }
    if (!have_workload)
        die("--workload is required");
    if (!(a.seconds >= 1.0 && a.seconds <= 600.0))
        die("--seconds must lie in [1, 600]");
    return a;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

int
run(int argc, char **argv)
{
    guardEnvironment();
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (spec == nullptr)
        die("unknown workload %s", args.workload.c_str());

    Host host;
    host.nproc = std::max(1u, std::thread::hardware_concurrency());
    cegma::ThreadPool::instance().setThreads(host.nproc);
    host.cpu = cpuModel();
    host.simd = cegma::simdLevelName(cegma::simdLevel());
#ifdef _SC_LEVEL2_CACHE_SIZE
    host.l2Bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    host.probeS = cpuProbe();

    const bool live = spec->mutationQps > 0.0;
    // The timed part is kRounds rounds of (closed slice, open slice).
    // The traced run alternates untraced and traced rounds in the same
    // time, so it costs no more than an untraced run and both kinds see
    // the same host.
    const uint32_t passes = args.trace ? 2 : 1;
    const double closed_sec = args.seconds * spec->closedShare / kRounds;
    const size_t open_count = static_cast<size_t>(std::llround(
        spec->openQps * args.seconds * (1.0 - spec->closedShare) / kRounds));
    const double open_sec = static_cast<double>(open_count) / spec->openQps;

    // ---- inputs (excluded from setup_s) ----
    const size_t per_round =
        static_cast<size_t>(closedQpsBound(*spec) * closed_sec) +
        open_count + 16;
    const size_t num_queries = spec->setupReps * spec->warmup +
                               kRounds * per_round + (args.trace ? 16 : 0);
    // The corpus is the same for every seed, so that a run's cost does
    // not hinge on which few graph sizes a seed draws; the queries (one
    // edge substituted in candidate i mod C), the arrival schedules and
    // the mutation plan come from --seed.
    cegma::CloneSearchCorpus inputs =
        cegma::makeCloneSearchCorpus(spec->dataset, 0, spec->corpus, kCorpusSeed);
    std::vector<cegma::Graph> queries(num_queries);
    cegma::parallelFor(0, num_queries, 1, [&](size_t a, size_t b) {
        for (size_t i = a; i < b; ++i) {
            cegma::Rng rng(derive(args.seed, 1000 + i));
            queries[i] =
                inputs.candidates[i % spec->corpus].substituteEdges(1, rng);
        }
    });
    QueryPool pool(std::move(queries));

    WriterPlan writer;
    cegma::MutationPool mutation_pool;
    std::vector<WriterSlice> slices; // [round * 2 + phase]
    if (live) {
        std::vector<double> phase_secs;
        for (uint32_t r = 0; r < kRounds; ++r)
            phase_secs.insert(phase_secs.end(), {closed_sec, open_sec});
        std::vector<std::pair<size_t, size_t>> ranges;
        for (size_t k = 0; k < phase_secs.size(); ++k) {
            std::vector<double> off = poissonOffsets(
                spec->mutationQps, phase_secs[k], derive(args.seed, 100 + k));
            ranges.push_back({writer.offsetsSec.size(),
                              writer.offsetsSec.size() + off.size()});
            writer.offsetsSec.insert(writer.offsetsSec.end(), off.begin(),
                                     off.end());
        }
        const uint32_t ticks = static_cast<uint32_t>(writer.offsetsSec.size());
        mutation_pool = cegma::makeMutationPool(spec->dataset, ticks + 1,
                                                kCorpusSeed);
        cegma::MutationMix mix;
        mix.perQuery = 1.0;
        mix.insertFraction = 0.5;
        mix.publishBatch = spec->publishEvery;
        writer.pool = &mutation_pool;
        writer.plan = cegma::planMutations(inputs.candidateIds,
                                           mutation_pool, ticks, mix,
                                           derive(args.seed, 7));
        for (auto [b, e] : ranges)
            slices.push_back(WriterSlice{&writer, b, e});
    }

    cegma::ServeConfig config;
    config.model = spec->model;
    config.modelSeed = kModelSeed;
    config.topK = kTopK;
    config.retrieval.mode = spec->mode;
    config.retrieval.shortlist = spec->shortlist;

    std::string phases_json;
    uint64_t attempted = 0, failed = 0;
    auto notePhase = [&](const std::string &name, uint64_t a, uint64_t f) {
        phases_json += (phases_json.empty() ? "" : ", ") +
                       std::string("\"") + name + "\": {\"attempted\": " +
                       std::to_string(a) + ", \"failed\": " +
                       std::to_string(f) + "}";
        attempted += a;
        failed += f;
    };

    // ---- setup: construction + warm-up, repeated; median reported ----
    std::vector<double> setup_s;
    std::unique_ptr<cegma::SearchService> service;
    uint64_t warm_failed = 0;
    for (uint32_t r = 0; r < spec->setupReps; ++r) {
        service.reset();
        std::vector<cegma::Graph> corpus = inputs.candidates;
        std::vector<uint64_t> ids = inputs.candidateIds;
        Clock::time_point t0 = Clock::now();
        service = std::make_unique<cegma::SearchService>(
            config, std::move(corpus), std::move(ids));
        warm_failed += warmUp(*service, pool, spec->warmup, host.nproc);
        setup_s.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    notePhase("warmup", spec->setupReps * spec->warmup, warm_failed);

    // ---- timed phases ----
    const std::pair<double, double> jiffies0 = cpuJiffies();
    const uint32_t clients = live ? std::max(1u, host.nproc - 1) : host.nproc;
    std::vector<Pass> runs(passes);
    cegma::obs::setTraceRingCapacity(size_t{1} << 16);
    for (uint32_t r = 0; r < kRounds; ++r) {
        const uint32_t p = r % passes; // traced run: odd rounds traced
        const bool traced = p == 1;
        cegma::obs::setTracingEnabled(traced);
        cegma::obs::setAttributionEnabled(traced);
        Pass &pass = runs[p];
        Round &round = pass.rounds.emplace_back();
        round.before = Counters::take(*service);
        round.closed = runClosed(*service, pool, clients, closed_sec,
                                 kThinkSec, derive(args.seed, 150 + r),
                                 spec->keepStride, kTopK,
                                 live ? &slices[r * 2] : nullptr,
                                 &pass.mutations);
        round.afterClosed = Counters::take(*service);
        round.open = runOpen(*service, pool, spec->openQps, open_count,
                             derive(args.seed, 200 + r), spec->keepStride,
                             kTopK, live ? &slices[r * 2 + 1] : nullptr,
                             &pass.mutations);
        round.afterOpen = Counters::take(*service);
    }
    cegma::obs::setTracingEnabled(false);
    cegma::obs::setAttributionEnabled(false);
    for (uint32_t p = 0; p < passes; ++p) {
        const Pass &pass = runs[p];
        std::string suffix =
            passes > 1 ? (p == 0 ? "_untraced" : "_traced") : "";
        for (PhaseResult Round::*phase : {&Round::closed, &Round::open}) {
            uint64_t a = 0, f = 0;
            for (const Round &round : pass.rounds) {
                a += (round.*phase).attempted;
                f += (round.*phase).failed;
            }
            notePhase((phase == &Round::closed ? "closed" : "open") + suffix,
                      a, f);
        }
        if (live)
            notePhase("mutations" + suffix, pass.mutations.attempted,
                      pass.mutations.failed);
    }
    const double peak_rss = peakRssMib();
    const std::pair<double, double> jiffies1 = cpuJiffies();
    const double steal_share =
        (jiffies1.second - jiffies0.second) /
        std::max(jiffies1.first - jiffies0.first, 1.0);
    const Pass &main_pass = runs.back();

    // ---- traced run: per-layer replays, then the Chrome trace ----
    LayerReplay layers;
    MutationLog replayed;
    std::string trace_path, replay_path;
    uint64_t dropped = 0;
    if (args.trace) {
        // The traced rounds' spans first (one file per workload,
        // overwritten by the next traced run), then the replays, untraced,
        // with the benchmark's own spans in a file of their own.
        dropped = cegma::obs::droppedSpans();
        trace_path = args.traceDir + "/" + spec->name + ".json";
        cegma::obs::writeChromeTrace(trace_path);
        cegma::obs::clearTrace();
        SpanLog replay_spans;
        std::vector<uint32_t> sample;
        for (uint32_t i = 0; i < 16; ++i) {
            int64_t q = pool.take();
            if (q >= 0)
                sample.push_back(static_cast<uint32_t>(q));
        }
        layers = replayLayers(*spec, kModelSeed, inputs.candidates, pool,
                              sample, *service, replay_spans);
        if (!live) {
            cegma::MutationPool extra =
                cegma::makeMutationPool(spec->dataset, 8, kCorpusSeed);
            replayed = replayMutations(*service, extra, replay_spans);
            notePhase("mutation_replay", replayed.attempted,
                      replayed.failed);
        }
        replay_path = args.traceDir + "/" + spec->name + "-replay.json";
        if (!replay_spans.write(replay_path))
            die("cannot write %s", replay_path.c_str());
    }
    cegma::MetricsSnapshot final_snap = service->metrics();
    const uint64_t epochs = service->corpus().epoch();
    const uint64_t reclaimed = service->corpus().epochsReclaimed();
    const uint64_t tombstones = service->corpus().tombstones();
    service->shutdown();

    // ---- checks, apart from the service ----
    std::vector<std::string> problems;
    uint64_t topk_violations = 0;
    for (const Pass &p : runs)
        for (const Round &r : p.rounds)
            topk_violations +=
                r.closed.topkViolations + r.open.topkViolations;
    if (topk_violations > 0)
        problems.push_back(std::to_string(topk_violations) +
                           " results whose top-k is not the best k of "
                           "their scores");
    if (pool.spent())
        problems.push_back("query pool spent: a timed phase ran out of "
                           "fresh queries");

    std::vector<std::vector<uint64_t>> live_ids;
    CheckContext ctx;
    ctx.spec = spec;
    ctx.topK = kTopK;
    if (live) {
        live_ids = cegma::liveIdsByEpoch(inputs.candidateIds, mutation_pool,
                                         writer.plan);
        ctx.liveIds = &live_ids;
        size_t bad = 0;
        for (const Pass &p : runs)
            for (PhaseResult Round::*phase : {&Round::closed, &Round::open})
                for (const Served *s : p.served(phase))
                    if (!checkEpochIds(ctx, *s).ok)
                        ++bad;
        if (bad > 0)
            problems.push_back(std::to_string(bad) +
                               " live results whose ids are not their "
                               "epoch's");
    }

    // The results checked in depth: kept results spread evenly over
    // the rounds and phases of the last pass.
    std::vector<const Served *> kept;
    for (PhaseResult Round::*phase : {&Round::closed, &Round::open})
        for (const Served *s : main_pass.served(phase))
            if (s->kept)
                kept.push_back(s);
    std::vector<const Served *> checked;
    for (uint32_t i = 0; i < spec->oracleQueries && !kept.empty(); ++i)
        checked.push_back(kept[i * kept.size() / spec->oracleQueries]);
    if (checked.empty())
        problems.push_back("no result kept for the checks");

    std::unordered_map<uint64_t, const cegma::Graph *> graph_of;
    for (size_t c = 0; c < inputs.candidates.size(); ++c)
        graph_of[inputs.candidateIds[c]] = &inputs.candidates[c];
    for (size_t i = 0; i < mutation_pool.graphs.size(); ++i)
        graph_of[mutation_pool.ids[i]] = &mutation_pool.graphs[i];

    // Oracle: a fresh model instance (dedup + memo, which are
    // bit-neutral) scores every candidate of each checked result's
    // epoch; tie-aware 10th-best per result.
    Oracle oracle;
    {
        std::unique_ptr<cegma::GmnModel> model =
            cegma::makeModel(spec->model, kModelSeed);
        cegma::MemoConfig memo_cfg;
        memo_cfg.maxBytes = size_t{256} << 20;
        cegma::MemoCache memo(memo_cfg);
        cegma::InferenceOptions opts;
        opts.dedupMatching = true;
        opts.memo = &memo;
        model->setInferenceOptions(opts);
        for (const Served *s : checked) {
            const std::vector<uint64_t> &ids = *s->ids;
            std::vector<double> exact(ids.size());
            const cegma::Graph &q = pool.at(s->query);
            cegma::parallelFor(0, ids.size(), 1, [&](size_t a, size_t b) {
                for (size_t c = a; c < b; ++c)
                    exact[c] = model->score(
                        cegma::GraphPairView(*graph_of.at(ids[c]), q));
            });
            std::map<uint64_t, double> by_id;
            for (size_t c = 0; c < ids.size(); ++c)
                by_id[ids[c]] = exact[c];
            std::vector<double> sorted = exact;
            size_t k = std::min<size_t>(kTopK, sorted.size());
            std::nth_element(sorted.begin(), sorted.begin() + (k - 1),
                             sorted.end(), std::greater<>());
            oracle.exact.push_back(std::move(by_id));
            oracle.kth.push_back(sorted[k - 1]);
        }
    }

    // Serial reference: a fresh model, one thread, scalar kernels, no
    // dedup, no memo. Each checked result contributes its best hits in
    // turn until `refPairs` pairs are replayed.
    cegma::ThreadPool::instance().setThreads(1);
    cegma::setSimdLevel(cegma::SimdLevel::Scalar);
    {
        std::unique_ptr<cegma::GmnModel> ref =
            cegma::makeModel(spec->model, kModelSeed);
        uint32_t done = 0;
        for (size_t rank = 0; rank < kTopK && done < spec->refPairs; ++rank) {
            for (size_t j = 0; j < checked.size() && done < spec->refPairs;
                 ++j) {
                const Served &s = *checked[j];
                if (rank >= s.result.topK.size())
                    continue;
                const cegma::SearchHit &hit = s.result.topK[rank];
                uint64_t id = (*s.ids)[hit.candidate];
                double want = ref->score(
                    cegma::GraphPairView(*graph_of.at(id), pool.at(s.query)));
                ++done;
                if (std::memcmp(&want, &hit.score, sizeof want) != 0 ||
                    std::memcmp(&want, &oracle.exact[j].at(id),
                                sizeof want) != 0) {
                    problems.push_back("served score differs from the "
                                       "serial scalar reference");
                    break;
                }
            }
        }
        if (done == 0)
            problems.push_back("no pair replayed through the reference");
    }

    double recall_hits = 0.0, recall_slots = 0.0;
    for (size_t j = 0; j < checked.size(); ++j) {
        Verdict v = checkKept(ctx, *checked[j], oracle.exact[j],
                              oracle.kth[j], &recall_hits);
        recall_slots += static_cast<double>(
            std::min<size_t>(kTopK, checked[j]->ids->size()));
        if (!v.ok)
            problems.push_back(v.why);
    }
    const double recall = recall_slots > 0 ? recall_hits / recall_slots : 0.0;
    if (recall < spec->recallFloor)
        problems.push_back("recall@10 " + num(recall) + " below the floor " +
                           num(spec->recallFloor));
    std::vector<std::string> self_test_missed;
    if (!checked.empty())
        self_test_missed =
            selfTest(ctx, *checked[0], oracle.exact[0], oracle.kth[0]);
    for (const std::string &m : self_test_missed)
        problems.push_back("checker accepted a " + m);

    // ---- metrics ----
    std::vector<Metric> metrics;
    const std::vector<const Served *> open_served =
        main_pass.served(&Round::open);
    const double p95 = main_pass.openQuantileMs(0.95);
    size_t beyond_p95 = 0;
    for (const Served *s : open_served)
        beyond_p95 += s->latencyMs > p95 ? 1 : 0;
    if (!args.trace) {
        metrics.push_back({"setup_s", median(setup_s), "s"});
        metrics.push_back({"throughput_qps", main_pass.closedQps(), "1/s"});
        metrics.push_back({"open_p50_ms", main_pass.openP50Ms(), "ms"});
        metrics.push_back({"peak_rss_mib", peak_rss, "MiB"});
        metrics.push_back({"recall_at_10", recall, "ratio"});
    } else {
        // Timings from outside and counts come from the untraced rounds;
        // the per-request stage thread-times need attribution, which only
        // the traced rounds have.
        const Pass &b = runs[0];
        std::vector<double> queue, service_ms, embed, match, dedup, head,
            memo;
        for (const Served *s : b.served(&Round::closed))
            service_ms.push_back(s->serviceMs);
        for (const Served *s : b.served(&Round::open))
            queue.push_back(s->queueMs);
        for (PhaseResult Round::*phase : {&Round::closed, &Round::open}) {
            for (const Served *s : runs[1].served(phase)) {
                embed.push_back(s->breakdown.embedUs / 1e3);
                match.push_back(s->breakdown.matchUs / 1e3);
                dedup.push_back(s->breakdown.dedupUs / 1e3);
                head.push_back(s->breakdown.headUs / 1e3);
                memo.push_back(s->breakdown.memoUs / 1e3);
            }
        }
        const double closed_done =
            static_cast<double>(b.served(&Round::closed).size());
        const double done = closed_done + static_cast<double>(queue.size());
        auto per_query = [&](const char *name) {
            return b.delta(&Round::before, &Round::afterOpen, name) /
                   std::max(done, 1.0);
        };
        const double batches =
            b.delta(&Round::before, &Round::afterClosed, "serve.batches");
        const double memo_hits =
            b.sumOver([](const Counters &c) { return c.memoHits; });
        const double memo_lookups =
            memo_hits +
            b.sumOver([](const Counters &c) { return c.memoMisses; });
        const double ws_hits =
            b.sumOver([](const Counters &c) { return c.ws.hits; });
        const double ws_misses =
            b.sumOver([](const Counters &c) { return c.ws.misses; });
        const MutationLog &mut = live ? b.mutations : replayed;

        metrics.push_back({"serve.queue_ms", quantile(queue, 0.5), "ms"});
        metrics.push_back(
            {"serve.service_ms", quantile(service_ms, 0.5), "ms"});
        metrics.push_back({"serve.batch_mean",
                           closed_done / std::max(batches, 1.0), "count"});
        metrics.push_back({"serve.pipeline.overlap_ms",
                           b.delta(&Round::afterClosed, &Round::afterOpen,
                                   "serve.pipeline.overlap_us") /
                               1e3,
                           "ms"});
        metrics.push_back({"gmn.embed_ms", mean(embed), "ms"});
        metrics.push_back({"gmn.match_ms", mean(match), "ms"});
        metrics.push_back({"gmn.dedup_ms", mean(dedup), "ms"});
        metrics.push_back({"gmn.head_ms", mean(head), "ms"});
        metrics.push_back({"gmn.memo_ms", mean(memo), "ms"});
        metrics.push_back({"gmn.pair_us", layers.pairUs, "us"});
        metrics.push_back(
            {"gmn.memo_hit_ratio",
             memo_lookups > 0 ? memo_hits / memo_lookups : 0.0, "ratio"});
        metrics.push_back({"gmn.window_windows",
                           b.delta(&Round::before, &Round::afterOpen,
                                   "serve.window.windows"),
                           "count"});
        metrics.push_back(
            {"emf.rows_total", per_query("serve.dedup.rows_total"), "count"});
        metrics.push_back({"emf.rows_unique",
                           per_query("serve.dedup.rows_unique"), "count"});
        metrics.push_back({"emf.tag_us", layers.tagUs, "us"});
        metrics.push_back({"tensor.gemm_gflops", layers.gemmGflops, "GFLOP/s"});
        metrics.push_back({"tensor.gemm_gbps", layers.gemmGbps, "GB/s"});
        metrics.push_back(
            {"tensor.similarity_gflops", layers.simGflops, "GFLOP/s"});
        metrics.push_back(
            {"tensor.similarity_gbps", layers.simGbps, "GB/s"});
        metrics.push_back({"tensor.workspace_miss_ratio",
                           ws_hits + ws_misses > 0
                               ? ws_misses / (ws_hits + ws_misses)
                               : 0.0,
                           "ratio"});
        metrics.push_back(
            {"retrieval.shortlist_ms", layers.shortlistMs, "ms"});
        metrics.push_back({"retrieval.scanned",
                           per_query("serve.retrieval.candidates"), "count"});
        metrics.push_back({"retrieval.verified",
                           per_query("serve.retrieval.verified"), "count"});
        metrics.push_back(
            {"retrieval.index_build_s", layers.indexBuildS, "s"});
        metrics.push_back({"corpus.insert_us", median(mut.insertUs), "us"});
        metrics.push_back({"corpus.remove_us", median(mut.removeUs), "us"});
        metrics.push_back({"corpus.flush_us", median(mut.flushUs), "us"});
        metrics.push_back({"corpus.epochs_published",
                           static_cast<double>(epochs), "count"});
        metrics.push_back({"corpus.epochs_reclaimed",
                           static_cast<double>(reclaimed), "count"});
        metrics.push_back({"corpus.tombstones",
                           static_cast<double>(tombstones), "count"});
        metrics.push_back(
            {"obs.trace_overhead_qps",
             runs[0].closedQps() / std::max(runs[1].closedQps(), 1e-9),
             "ratio"});
        metrics.push_back(
            {"obs.trace_overhead_p50",
             runs[1].openP50Ms() / std::max(runs[0].openP50Ms(), 1e-9),
             "ratio"});
        metrics.push_back(
            {"obs.trace_dropped", static_cast<double>(dropped), "count"});
    }

    // ---- report: detail line, then the result line ----
    auto mean_nodes = [](auto &&graph_at, size_t n) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            sum += graph_at(i).numNodes();
        return n ? sum / static_cast<double>(n) : 0.0;
    };
    const double corpus_nodes = mean_nodes(
        [&](size_t i) -> const cegma::Graph & { return inputs.candidates[i]; },
        inputs.candidates.size());
    const double query_nodes = mean_nodes(
        [&](size_t i) -> const cegma::Graph & { return pool.at(i); },
        pool.used());
    std::vector<double> late;
    double closed_seconds = 0.0;
    for (const Round &r : main_pass.rounds) {
        late.insert(late.end(), r.open.lateMs.begin(), r.open.lateMs.end());
        closed_seconds += r.closed.seconds;
    }
    std::ostringstream info;
    info << "{\"workload\": \"" << spec->name << "\", \"seed\": " << args.seed
         << ", \"inputs\": {\"corpus\": " << inputs.candidates.size()
         << ", \"corpus_nodes_mean\": " << num(corpus_nodes)
         << ", \"query_nodes_mean\": " << num(query_nodes)
         << ", \"mutations_planned\": " << writer.plan.totalMutations
         << ", \"inserts_planned\": " << writer.plan.totalInserts
         << ", \"removes_planned\": " << writer.plan.totalRemoves
         << ", \"epochs_planned\": " << writer.plan.totalFlushes << "}"
         << ", \"seconds\": " << num(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"phases\": {"
         << phases_json << "}, \"host\": {\"nproc\": " << host.nproc
         << ", \"cpu\": \"" << esc(host.cpu) << "\", \"simd\": \""
         << host.simd << "\", \"l2_bytes\": " << host.l2Bytes
         << ", \"cpu_probe_s\": " << num(host.probeS)
         << ", \"steal_share\": " << num(steal_share)
         << "}, \"setup_s\": [";
    for (size_t i = 0; i < setup_s.size(); ++i)
        info << (i ? ", " : "") << num(setup_s[i]);
    info << "], \"open\": {\"offered_qps\": " << num(spec->openQps)
         << ", \"samples\": " << open_served.size()
         << ", \"p95_ms\": " << num(p95)
         << ", \"beyond_p95\": " << beyond_p95
         << ", \"sender_late_p50_ms\": " << num(quantile(late, 0.5))
         << ", \"sender_late_p99_ms\": " << num(quantile(late, 0.99))
         << ", \"sender_late_max_ms\": " << num(quantile(late, 1.0))
         << "}, \"closed\": {\"clients\": " << clients
         << ", \"seconds\": " << num(closed_seconds)
         << ", \"rounds_qps\": [";
    for (size_t i = 0; i < main_pass.rounds.size(); ++i) {
        const PhaseResult &c = main_pass.rounds[i].closed;
        info << (i ? ", " : "")
             << num(static_cast<double>(c.attempted - c.failed) / c.seconds);
    }
    info << "]}, \"queries_used\": " << pool.used()
         << ", \"queries_generated\": " << pool.size()
         << ", \"service\": " << final_snap.toJson();
    if (!trace_path.empty())
        info << ", \"chrome_trace\": \"" << esc(trace_path)
             << "\", \"replay_trace\": \"" << esc(replay_path)
             << "\", \"dropped_spans\": " << dropped;
    info << ", \"self_test_missed\": " << self_test_missed.size()
         << ", \"checked_results\": " << checked.size()
         << ", \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i)
        info << (i ? ", " : "") << "\"" << esc(problems[i]) << "\"";
    info << "]}";
    std::printf("%s\n", info.str().c_str());

    std::ostringstream out;
    out << "{\"correct\": " << (problems.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    for (const std::string &p : problems)
        std::fprintf(stderr, "servebench: check failed: %s\n", p.c_str());
    return 0;
}

} // namespace sb

int
main(int argc, char **argv)
{
    return sb::run(argc, argv);
}
