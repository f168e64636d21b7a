/**
 * @file
 * Shared types of the serving benchmark: the workload table, the
 * client-side load drivers (closed loop, open loop timed from each
 * request's scheduled send time, the live-corpus writer), the
 * correctness checker, and the per-layer replays.
 *
 * Everything here drives `SearchService` through its public API only
 * and reads the counters the program already exports; nothing reaches
 * into the service's internals.
 */

#ifndef SERVEBENCH_SERVEBENCH_HH
#define SERVEBENCH_SERVEBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/dataset.hh"
#include "obs/trace.hh"
#include "serve/loadgen.hh"
#include "serve/service.hh"

namespace sb {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One workload: what is served, how, and at what offered load. */
struct WorkloadSpec
{
    const char *name;
    cegma::ModelId model;
    cegma::DatasetId dataset;
    cegma::RetrievalMode mode;
    uint32_t corpus;      ///< bootstrap corpus size
    uint32_t shortlist;   ///< cascade exact-verify budget
    double openQps;       ///< fixed absolute Poisson rate of the open phase
    double closedShare;   ///< share of --seconds given to the closed phase;
                          ///< the open phase offers openQps x the rest
    uint32_t setupReps;   ///< set-ups per run; setup_s is their median
    uint32_t warmup;      ///< warm-up requests per set-up
    uint32_t keepStride;  ///< keep every n-th result whole for the checks
    uint32_t oracleQueries; ///< results checked against the exhaustive oracle
    uint32_t refPairs;    ///< pairs replayed through the serial reference
    double recallFloor;   ///< minimum tie-aware recall@10
    double mutationQps;   ///< live writer: mutations per second (0 = none)
    uint32_t publishEvery; ///< live writer: mutations per published epoch
};

const WorkloadSpec *findWorkload(const std::string &name);

/** One completed (or failed) request as the client saw it. */
struct Served
{
    uint32_t query = 0;       ///< index into the query pool
    bool failed = false;
    double latencyMs = 0.0;   ///< client-side, see the driver docs
    double queueMs = 0.0;     ///< service-reported submit -> flush
    double serviceMs = 0.0;   ///< service-reported flush -> result
    uint32_t batchSize = 0;
    uint64_t epoch = 0;
    std::shared_ptr<const std::vector<uint64_t>> ids;
    cegma::obs::CriticalPath breakdown;
    bool kept = false;        ///< `result` holds the whole result
    cegma::QueryResult result;
};

/** What one timed phase produced. */
struct PhaseResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double seconds = 0.0;     ///< phase start -> last result
    std::vector<Served> served;
    std::vector<double> lateMs; ///< open loop: send time - scheduled time
    uint64_t topkViolations = 0; ///< results whose top-k disagreed
};

/** The pre-generated queries; each is handed out at most once. */
class QueryPool
{
  public:
    explicit QueryPool(std::vector<cegma::Graph> queries)
        : queries_(std::move(queries))
    {
    }

    /** Next unused query index, or -1 once the pool is spent. */
    int64_t take()
    {
        size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        return i < queries_.size() ? static_cast<int64_t>(i) : -1;
    }

    const cegma::Graph &at(size_t i) const { return queries_[i]; }
    size_t size() const { return queries_.size(); }
    size_t used() const
    {
        return std::min(next_.load(), queries_.size());
    }

    /** True once a `take()` came back empty-handed. */
    bool spent() const { return next_.load() > queries_.size(); }

  private:
    std::vector<cegma::Graph> queries_;
    std::atomic<size_t> next_{0};
};

/** Timings of the live-corpus writer (or of the mutation replay). */
struct MutationLog
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t flushes = 0;
    std::vector<double> insertUs, removeUs, flushUs;
};

/**
 * The live-corpus writer: a seeded mutation plan applied on its own
 * Poisson schedule beside the query sender. Tick i stages
 * `plan.before[i]` and publishes when `plan.flushBefore[i]` says so,
 * so epoch k of the service is entry k of `liveIdsByEpoch(plan)`.
 */
struct WriterPlan
{
    const cegma::MutationPool *pool = nullptr;
    cegma::MutationPlan plan;
    /** Tick i's offset in seconds from the start of its phase. */
    std::vector<double> offsetsSec;
};

/** The ticks [begin, end) of a `WriterPlan` that one phase applies. */
struct WriterSlice
{
    const WriterPlan *plan = nullptr;
    size_t begin = 0;
    size_t end = 0;
};

/// @name Load drivers (load.cc)
/// @{

/**
 * Closed loop: `clients` threads each issue requests with fresh
 * queries, one at a time, until `seconds` have passed; every request
 * submitted before the deadline is waited for and counted. Each client
 * thinks for a seeded exponential time of mean `think_sec` before each
 * submit.
 */
PhaseResult runClosed(cegma::SearchService &service, QueryPool &pool,
                      uint32_t clients, double seconds, double think_sec,
                      uint64_t seed, uint32_t keep_stride, uint32_t top_k,
                      const WriterSlice *writer, MutationLog *mutations);

/**
 * Open loop: `count` requests at a fixed absolute Poisson rate. One
 * sender thread submits at pre-drawn scheduled times; a reaper waits for results in
 * submission order (the service is FIFO) and times each request from
 * its *scheduled* send time, so a late sender shows up as latency
 * instead of hiding it. When `writer` is set, a writer thread applies
 * its slice of the mutation plan on its own schedule beside the
 * sender (so does `runClosed`).
 */
PhaseResult runOpen(cegma::SearchService &service, QueryPool &pool,
                    double qps, size_t count, uint64_t seed,
                    uint32_t keep_stride, uint32_t top_k,
                    const WriterSlice *writer, MutationLog *mutations);

/** Poisson arrival offsets (seconds from phase start) below `seconds`. */
std::vector<double> poissonOffsets(double qps, double seconds, uint64_t seed);

/**
 * Warm-up: `count` fresh queries from `clients` closed-loop threads.
 * @return failed requests
 */
uint64_t warmUp(cegma::SearchService &service, QueryPool &pool,
                uint32_t count, uint32_t clients);
/// @}

/// @name Checks (check.cc)
/// @{

/**
 * Reference top-k of `scores`: score-descending, ties by lower index,
 * NaN strictly last. Computed here, apart from the service.
 */
std::vector<cegma::SearchHit> referenceTopK(const std::vector<double> &scores,
                                            uint32_t k);

/** True when `hits` is exactly the best k of `scores`. */
bool topKMatches(const std::vector<double> &scores,
                 const std::vector<cegma::SearchHit> &hits, uint32_t k);

/**
 * Exact scores computed apart from the service: per checked result,
 * the score of every candidate live at that result's epoch, keyed by
 * stable id.
 */
struct Oracle
{
    /** Per checked result: id -> exact score over its epoch's corpus. */
    std::vector<std::map<uint64_t, double>> exact;
    /** Per checked result: the tie-aware 10th-best exact score. */
    std::vector<double> kth;
};

/** One checker verdict: ok, or the first thing found wrong. */
struct Verdict
{
    bool ok = true;
    std::string why;
};

/** Inputs shared by every check of a run. */
struct CheckContext
{
    const WorkloadSpec *spec = nullptr;
    uint32_t topK = 10;
    /** aids-live only: the live ids of every epoch of the plan. */
    const std::vector<std::vector<uint64_t>> *liveIds = nullptr;
};

/** Check one kept result against its oracle entry (scores, top-k, recall). */
Verdict checkKept(const CheckContext &ctx, const Served &s,
                  const std::map<uint64_t, double> &exact, double kth,
                  double *recall_hits);

/** Check one result's ids against the plan's epoch (aids-live). */
Verdict checkEpochIds(const CheckContext &ctx, const Served &s);

/**
 * Feed the checker deliberately wrong answers derived from `s`: one
 * flipped score bit, a mis-ordered top-k, a dropped true top-10 hit,
 * and (live only) a foreign epoch's ids. @return the corruptions the
 * checker failed to reject (empty = the checker works).
 */
std::vector<std::string> selfTest(const CheckContext &ctx, const Served &s,
                                  const std::map<uint64_t, double> &exact,
                                  double kth);
/// @}

/// @name Per-layer replays for the traced run (layers.cc)
/// @{

/**
 * Spans of the benchmark's own replays. The replays run with the
 * program's tracing off, so their timings carry no tracing overhead;
 * their spans are kept here and written as a Chrome trace of their own.
 */
struct SpanLog
{
    std::vector<cegma::obs::SpanRecord> spans;

    /** Run `fn`, record it as span `name`, and return its seconds. */
    template <typename Fn>
    double time(const char *name, Fn &&fn, const char *arg = nullptr,
                uint64_t value = 0)
    {
        uint64_t t0 = cegma::obs::nowNs();
        fn();
        uint64_t dur = cegma::obs::nowNs() - t0;
        spans.push_back({name, "bench", t0, dur, 0, arg, value});
        return static_cast<double>(dur) / 1e9;
    }

    /** Write the spans as Chrome trace_event JSON; false on I/O error. */
    bool write(const std::string &path) const;
};

/** Directly timed layer figures (see the README's layer table). */
struct LayerReplay
{
    double pairUs = 0.0;      ///< median `GmnModel::score` per pair
    double tagUs = 0.0;       ///< median `computeEmfTags` per layer matrix
    double gemmGflops = 0.0;  ///< `matmul` at the layer-1 node shape
    double gemmGbps = 0.0;    ///< its bytes (from the shapes) per second
    double simGflops = 0.0;   ///< `similarityMatrix` at the layer-1 shapes
    double simGbps = 0.0;     ///< its bytes (from the shapes) per second
    double shortlistMs = 0.0; ///< median shortlist per query
    double indexBuildS = 0.0; ///< `RetrievalIndex::build` over the corpus
};

/** Replay `queries` (pool indices) through each layer, timed. */
LayerReplay replayLayers(const WorkloadSpec &spec, uint64_t model_seed,
                         const std::vector<cegma::Graph> &corpus,
                         const QueryPool &pool,
                         const std::vector<uint32_t> &queries,
                         const cegma::SearchService &service, SpanLog &log);

/**
 * Insert every `pool` graph, publish, remove them again and publish:
 * the corpus layer's calls timed one by one, for workloads without a
 * live writer.
 */
MutationLog replayMutations(cegma::SearchService &service,
                            const cegma::MutationPool &pool, SpanLog &spans);
/// @}

} // namespace sb

#endif // SERVEBENCH_SERVEBENCH_HH
