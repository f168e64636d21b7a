/**
 * @file
 * The output checker and its self-test. Every comparison is against
 * numbers computed apart from the service: a reference top-k written
 * here, exact scores from an oracle model instance, and the live ids
 * replayed from the mutation plan.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "servebench.hh"

namespace sb {

using cegma::SearchHit;

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

std::vector<SearchHit>
referenceTopK(const std::vector<double> &scores, uint32_t k)
{
    std::vector<uint32_t> order(scores.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        bool na = std::isnan(scores[a]), nb = std::isnan(scores[b]);
        if (na != nb)
            return nb; // NaN strictly last
        if (na)
            return false; // NaNs keep index order
        return scores[a] > scores[b];
    });
    std::vector<SearchHit> hits;
    for (size_t i = 0; i < std::min<size_t>(k, order.size()); ++i)
        hits.push_back(SearchHit{order[i], scores[order[i]]});
    return hits;
}

bool
topKMatches(const std::vector<double> &scores,
            const std::vector<SearchHit> &hits, uint32_t k)
{
    std::vector<SearchHit> want = referenceTopK(scores, k);
    if (want.size() != hits.size())
        return false;
    for (size_t i = 0; i < want.size(); ++i) {
        if (want[i].candidate != hits[i].candidate ||
            !sameBits(want[i].score, hits[i].score))
            return false;
    }
    return true;
}

Verdict
checkKept(const CheckContext &ctx, const Served &s,
          const std::map<uint64_t, double> &exact, double kth,
          double *recall_hits)
{
    const cegma::QueryResult &r = s.result;
    const std::vector<uint64_t> &ids = *s.ids;
    if (r.scores.size() != ids.size() || ids.size() != exact.size())
        return {false, "result does not cover its epoch's corpus"};
    const bool exhaustive = ctx.spec->mode == cegma::RetrievalMode::Exhaustive;
    for (size_t c = 0; c < ids.size(); ++c) {
        auto it = exact.find(ids[c]);
        if (it == exact.end())
            return {false, "result carries an id outside its epoch"};
        if (std::isnan(r.scores[c])) {
            if (exhaustive)
                return {false, "exhaustive result left a candidate unscored"};
            continue;
        }
        if (!sameBits(r.scores[c], it->second))
            return {false, "served score differs from the oracle"};
    }
    if (!topKMatches(r.scores, r.topK, ctx.topK))
        return {false, "top-k is not the best k of the returned scores"};
    Verdict ids_ok = checkEpochIds(ctx, s);
    if (!ids_ok.ok)
        return ids_ok;
    size_t slots = std::min<size_t>(10, ids.size());
    for (size_t i = 0; i < std::min(slots, r.topK.size()); ++i)
        if (r.topK[i].score >= kth)
            *recall_hits += 1.0;
    return {};
}

Verdict
checkEpochIds(const CheckContext &ctx, const Served &s)
{
    if (ctx.liveIds == nullptr)
        return {};
    if (s.epoch >= ctx.liveIds->size())
        return {false, "result epoch was never published"};
    if (*s.ids != (*ctx.liveIds)[s.epoch])
        return {false, "result ids differ from the plan's epoch"};
    return {};
}

std::vector<std::string>
selfTest(const CheckContext &ctx, const Served &s,
         const std::map<uint64_t, double> &exact, double kth)
{
    std::vector<std::string> missed;
    auto expectReject = [&](const char *name, const Served &bad) {
        double sink = 0.0;
        if (checkKept(ctx, bad, exact, kth, &sink).ok)
            missed.push_back(name);
    };

    if (!s.result.topK.empty()) {
        Served bad = s;
        uint32_t c = bad.result.topK[0].candidate;
        uint64_t bits;
        std::memcpy(&bits, &bad.result.scores[c], sizeof bits);
        bits ^= 1;
        std::memcpy(&bad.result.scores[c], &bits, sizeof bits);
        bad.result.topK[0].score = bad.result.scores[c];
        expectReject("flipped score bit", bad);
    }
    if (s.result.topK.size() >= 2) {
        Served bad = s;
        std::swap(bad.result.topK[0], bad.result.topK[1]);
        expectReject("mis-ordered top-k", bad);
    }
    {
        // Drop the best hit and backfill with the next-best candidate.
        Served bad = s;
        std::vector<SearchHit> wider =
            referenceTopK(bad.result.scores, ctx.topK + 1);
        if (!wider.empty()) {
            wider.erase(wider.begin());
            bad.result.topK = wider;
            expectReject("dropped true top-10 hit", bad);
        }
    }
    if (ctx.liveIds != nullptr) {
        // The ids of another epoch whose live set differs.
        Served bad = s;
        for (const std::vector<uint64_t> &other : *ctx.liveIds) {
            if (other != *s.ids) {
                bad.ids = std::make_shared<const std::vector<uint64_t>>(other);
                break;
            }
        }
        if (bad.ids == s.ids || checkEpochIds(ctx, bad).ok)
            missed.push_back("foreign epoch ids");
    }
    return missed;
}

} // namespace sb
