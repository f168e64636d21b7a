/**
 * @file
 * Per-layer replays for the traced run: sampled requests replayed
 * directly through the shortlist, `GmnModel::forwardDetailed`/`score`,
 * EMF tagging, the tensor kernels and the corpus mutation calls, each
 * timed from outside and wrapped in a span of its own.
 */

#include <algorithm>
#include <cstdio>

#include "common/rng.hh"
#include "emf/emf.hh"
#include "gmn/model.hh"
#include "gmn/similarity.hh"
#include "obs/trace.hh"
#include "retrieval/retrieval.hh"
#include "servebench.hh"
#include "tensor/matrix.hh"

namespace sb {

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median seconds per call of `fn`, over at least 5 calls and 50 ms,
 * and at most 1000 calls (the AIDS-sized kernels take microseconds).
 */
template <typename Fn>
double
medianCallSec(SpanLog &log, const char *span, Fn &&fn)
{
    std::vector<double> secs;
    double total = 0.0;
    while (secs.size() < 5 || (total < 0.05 && secs.size() < 1000)) {
        secs.push_back(log.time(span, fn));
        total += secs.back();
    }
    return median(secs);
}

} // namespace

LayerReplay
replayLayers(const WorkloadSpec &spec, uint64_t model_seed,
             const std::vector<cegma::Graph> &corpus, const QueryPool &pool,
             const std::vector<uint32_t> &queries,
             const cegma::SearchService &service, SpanLog &log)
{
    LayerReplay out;
    std::unique_ptr<cegma::GmnModel> model =
        cegma::makeModel(spec.model, model_seed);
    cegma::InferenceOptions dedup;
    dedup.dedupMatching = true;
    model->setInferenceOptions(dedup);

    // gmn.pair_us: serial score() replay of sampled (query, candidate)
    // pairs, candidates drawn round-robin over the corpus.
    std::vector<double> pair_us;
    for (size_t i = 0; i < queries.size(); ++i) {
        const cegma::Graph &q = pool.at(queries[i]);
        const cegma::Graph &c = corpus[(i * 7919) % corpus.size()];
        pair_us.push_back(
            log.time("bench.replay.score",
                     [&] { (void)model->score(cegma::GraphPairView(c, q)); },
                     "query", queries[i]) *
            1e6);
    }
    out.pairUs = median(pair_us);

    // emf.tag_us over every layer's features of one detailed forward
    // pass; the tensor kernels at that pass's layer-1 shapes.
    const cegma::Graph &q0 = pool.at(queries.front());
    cegma::GmnModel::Detail detail;
    log.time("bench.replay.forward", [&] {
        detail = model->forwardDetailed(cegma::GraphPairView(corpus[0], q0));
    });
    std::vector<double> tag_us;
    for (const std::vector<cegma::Matrix> *side :
         {&detail.xLayers, &detail.yLayers}) {
        for (const cegma::Matrix &m : *side) {
            tag_us.push_back(
                medianCallSec(log, "bench.replay.emf",
                              [&] { (void)cegma::computeEmfTags(m); }) *
                1e6);
        }
    }
    out.tagUs = median(tag_us);

    const cegma::Matrix &x = detail.xLayers.at(1);
    const cegma::Matrix &y = detail.yLayers.at(1);
    const size_t d = x.cols();
    cegma::Matrix w(d, d);
    cegma::Rng rng(model_seed);
    w.fillXavier(rng);
    // FLOPs and bytes come from the shapes: a float is read or written
    // once per operand element (X, W -> XW; X, Y -> S).
    const double n = static_cast<double>(x.rows());
    const double m = static_cast<double>(y.rows());
    const double f = static_cast<double>(d);
    double gemm_sec = medianCallSec(
        log, "bench.replay.gemm", [&] { (void)cegma::matmul(x, w); });
    out.gemmGflops = 2.0 * n * f * f / gemm_sec / 1e9;
    out.gemmGbps = 4.0 * (2.0 * n * f + f * f) / gemm_sec / 1e9;
    const cegma::SimilarityKind kind = model->config().similarity;
    double sim_sec = medianCallSec(log, "bench.replay.similarity", [&] {
        (void)cegma::similarityMatrix(x, y, kind);
    });
    out.simGflops = static_cast<double>(cegma::similarityFlops(
                        x.rows(), y.rows(), d, kind)) /
                    sim_sec / 1e9;
    out.simGbps = 4.0 * (n * f + m * f + n * m) / sim_sec / 1e9;

    // retrieval: the cascade index over this workload's corpus, built
    // and queried directly; cascade workloads also time the shortlist
    // on a snapshot pinned from the service's own live corpus.
    std::unique_ptr<cegma::GmnModel> plain =
        cegma::makeModel(spec.model, model_seed);
    cegma::RetrievalConfig cascade;
    cascade.mode = cegma::RetrievalMode::Cascade;
    cascade.shortlist = spec.shortlist;
    cegma::RetrievalIndex index;
    out.indexBuildS = log.time("bench.replay.index_build",
                               [&] { index.build(corpus, *plain, cascade); });
    const bool live_index =
        spec.mode == cegma::RetrievalMode::Cascade;
    cegma::LiveCorpus::SnapshotPtr snap = service.corpus().pin();
    std::vector<double> shortlist_ms;
    for (uint32_t qi : queries) {
        const cegma::Graph &q = pool.at(qi);
        shortlist_ms.push_back(log.time(
                                   "bench.replay.shortlist",
                                   [&] {
                                       if (live_index)
                                           (void)service.corpus().shortlist(
                                               *snap, q, *plain);
                                       else
                                           (void)index.shortlist(q, *plain);
                                   },
                                   "query", qi) *
                               1e3);
    }
    out.shortlistMs = median(shortlist_ms);
    return out;
}

MutationLog
replayMutations(cegma::SearchService &service,
                const cegma::MutationPool &pool, SpanLog &spans)
{
    MutationLog log;
    auto timed = [&](const char *span, std::vector<double> &into,
                     auto &&fn) {
        bool ok = false;
        into.push_back(spans.time(span, [&] { ok = fn(); }) * 1e6);
        ++log.attempted;
        log.failed += ok ? 0 : 1;
    };
    for (size_t i = 0; i < pool.graphs.size(); ++i) {
        cegma::Graph g = pool.graphs[i];
        timed("bench.insert", log.insertUs,
              [&] { return service.insert(pool.ids[i], std::move(g)); });
    }
    timed("bench.flush", log.flushUs, [&] {
        service.flushMutations();
        return true;
    });
    for (uint64_t id : pool.ids)
        timed("bench.remove", log.removeUs,
              [&] { return service.remove(id); });
    timed("bench.flush", log.flushUs, [&] {
        service.flushMutations();
        return true;
    });
    log.flushes = 2;
    return log;
}

bool
SpanLog::write(const std::string &path) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"traceEvents\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
        const cegma::obs::SpanRecord &s = spans[i];
        std::fprintf(out,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 0",
                     i ? "," : "", s.name, s.cat, s.startNs / 1e3,
                     s.durNs / 1e3);
        if (s.argName != nullptr)
            std::fprintf(out, ", \"args\": {\"%s\": %llu}", s.argName,
                         static_cast<unsigned long long>(s.argValue));
        std::fprintf(out, "}");
    }
    std::fprintf(out, "\n], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(out) == 0;
}

} // namespace sb
