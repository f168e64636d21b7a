/**
 * @file
 * Client-side load drivers: closed loop, open loop timed from the
 * scheduled send time, and the live-corpus writer beside it.
 */

#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "common/rng.hh"
#include "obs/trace.hh"
#include "servebench.hh"

namespace sb {

using cegma::QueryResult;

namespace {

uint64_t
steadyNs(Clock::time_point t)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

/**
 * Wait for one request and record it. `from` is where its latency
 * starts: the submit for the closed loop, the scheduled send time for
 * the open loop. The top-k of every result is checked here, right
 * after the completion stamp; only every `keep`-th result keeps its
 * score vector for the deeper checks.
 */
Served
reap(std::future<QueryResult> &future, Clock::time_point from,
     Clock::time_point sent, uint32_t query, bool keep, uint32_t top_k,
     uint64_t &topk_violations)
{
    Served s;
    s.query = query;
    try {
        QueryResult r = future.get();
        Clock::time_point done = Clock::now();
        s.latencyMs = msBetween(from, done);
        cegma::obs::recordSpan("bench.request", "bench", steadyNs(sent),
                               steadyNs(done) - steadyNs(sent), "req",
                               r.breakdown.requestId);
        s.queueMs = r.queueMs;
        s.serviceMs = r.totalMs - r.queueMs;
        s.batchSize = r.batchSize;
        s.epoch = r.epoch;
        s.ids = r.ids;
        s.breakdown = r.breakdown;
        if (!topKMatches(r.scores, r.topK, top_k))
            ++topk_violations;
        if (keep) {
            s.kept = true;
            s.result = std::move(r);
        }
    } catch (const std::exception &) {
        s.failed = true;
    }
    return s;
}

Clock::time_point
at(Clock::time_point start, double offset_sec)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_sec));
}

double
usSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now()) * 1e3;
}

/** Apply one slice of the writer's plan on its own schedule. */
void
runWriter(cegma::SearchService &service, const WriterSlice &slice,
          Clock::time_point start, MutationLog &log)
{
    const WriterPlan &w = *slice.plan;
    // Epoch k is the plan's k-th flush: count the earlier slices' ones.
    uint64_t epoch_expected = 0;
    for (size_t i = 0; i < slice.begin; ++i)
        epoch_expected += w.plan.flushBefore[i] ? 1 : 0;
    for (size_t i = slice.begin; i < slice.end; ++i) {
        std::this_thread::sleep_until(at(start, w.offsetsSec[i]));
        for (const cegma::MutationOp &op : w.plan.before[i]) {
            ++log.attempted;
            bool ok;
            if (op.isInsert) {
                cegma::Graph g = w.pool->graphs[op.poolIndex];
                cegma::obs::TraceScope span("bench.insert", "bench", "id",
                                            op.id);
                Clock::time_point t0 = Clock::now();
                ok = service.insert(op.id, std::move(g));
                log.insertUs.push_back(usSince(t0));
            } else {
                cegma::obs::TraceScope span("bench.remove", "bench", "id",
                                            op.id);
                Clock::time_point t0 = Clock::now();
                ok = service.remove(op.id);
                log.removeUs.push_back(usSince(t0));
            }
            if (!ok)
                ++log.failed;
        }
        if (w.plan.flushBefore[i]) {
            ++log.attempted;
            cegma::obs::TraceScope span("bench.flush", "bench");
            Clock::time_point t0 = Clock::now();
            uint64_t epoch = service.flushMutations();
            log.flushUs.push_back(usSince(t0));
            ++log.flushes;
            if (epoch != ++epoch_expected)
                ++log.failed; // the plan's epoch numbering broke
        }
    }
}

} // namespace

std::vector<double>
poissonOffsets(double qps, double seconds, uint64_t seed)
{
    std::vector<double> out;
    cegma::Rng rng(seed);
    for (double t = 0.0;;) {
        t += -std::log1p(-rng.nextDouble()) / qps;
        if (t >= seconds)
            return out;
        out.push_back(t);
    }
}

PhaseResult
runClosed(cegma::SearchService &service, QueryPool &pool, uint32_t clients,
          double seconds, double think_sec, uint64_t seed,
          uint32_t keep_stride, uint32_t top_k, const WriterSlice *writer,
          MutationLog *mutations)
{
    PhaseResult out;
    std::atomic<uint64_t> seq{0};
    std::vector<std::vector<Served>> per(clients);
    std::vector<uint64_t> violations(clients, 0);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = at(start, seconds);
    std::thread writer_thread;
    if (writer != nullptr)
        writer_thread = std::thread(
            [&] { runWriter(service, *writer, start, *mutations); });
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            cegma::Rng think(seed + c);
            while (Clock::now() < deadline) {
                // A short seeded think time keeps the clients from
                // phase-locking into one batch pattern for a whole run.
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    -std::log1p(-think.nextDouble()) * think_sec));
                int64_t q = pool.take();
                if (q < 0)
                    return;
                uint64_t i = seq.fetch_add(1);
                Clock::time_point sent = Clock::now();
                std::future<QueryResult> f =
                    service.submit(pool.at(static_cast<size_t>(q)));
                per[c].push_back(reap(f, sent, sent,
                                      static_cast<uint32_t>(q),
                                      i % keep_stride == 0, top_k,
                                      violations[c]));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    out.seconds = msBetween(start, Clock::now()) / 1e3;
    if (writer_thread.joinable())
        writer_thread.join();
    for (uint32_t c = 0; c < clients; ++c) {
        out.topkViolations += violations[c];
        for (Served &s : per[c])
            out.served.push_back(std::move(s));
    }
    out.attempted = out.served.size();
    for (const Served &s : out.served)
        out.failed += s.failed ? 1 : 0;
    return out;
}

PhaseResult
runOpen(cegma::SearchService &service, QueryPool &pool, double qps,
        size_t count, uint64_t seed, uint32_t keep_stride, uint32_t top_k,
        const WriterSlice *writer, MutationLog *mutations)
{
    PhaseResult out;
    // A fixed count of arrivals, so every run times the same number of
    // requests whatever the seed.
    std::vector<double> offsets;
    cegma::Rng rng(seed);
    for (double t = 0.0; offsets.size() < count;) {
        t += -std::log1p(-rng.nextDouble()) / qps;
        offsets.push_back(t);
    }
    const size_t n = offsets.size();
    std::vector<std::future<QueryResult>> futures(n);
    std::vector<Clock::time_point> sent(n);
    std::vector<int64_t> query(n, -1);
    out.lateMs.resize(n);
    std::mutex mutex;
    std::condition_variable cv;
    size_t submitted = 0;

    const Clock::time_point start = Clock::now();
    std::thread sender([&] {
        for (size_t i = 0; i < n; ++i) {
            Clock::time_point scheduled = at(start, offsets[i]);
            std::this_thread::sleep_until(scheduled);
            query[i] = pool.take();
            sent[i] = Clock::now();
            out.lateMs[i] = msBetween(scheduled, sent[i]);
            if (query[i] >= 0)
                futures[i] =
                    service.submit(pool.at(static_cast<size_t>(query[i])));
            {
                std::lock_guard<std::mutex> lock(mutex);
                submitted = i + 1;
            }
            cv.notify_one();
        }
    });
    std::thread writer_thread;
    if (writer != nullptr)
        writer_thread = std::thread(
            [&] { runWriter(service, *writer, start, *mutations); });

    for (size_t i = 0; i < n; ++i) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return submitted > i; });
        }
        if (query[i] < 0) { // query pool spent: a sizing fault
            Served s;
            s.failed = true;
            out.served.push_back(s);
            continue;
        }
        out.served.push_back(reap(futures[i], at(start, offsets[i]),
                                  sent[i],
                                  static_cast<uint32_t>(query[i]),
                                  i % keep_stride == 0, top_k,
                                  out.topkViolations));
    }
    sender.join();
    if (writer_thread.joinable())
        writer_thread.join();
    out.seconds = msBetween(start, Clock::now()) / 1e3;
    out.attempted = n;
    for (const Served &s : out.served)
        out.failed += s.failed ? 1 : 0;
    return out;
}

uint64_t
warmUp(cegma::SearchService &service, QueryPool &pool, uint32_t count,
       uint32_t clients)
{
    std::atomic<uint32_t> issued{0};
    std::atomic<uint64_t> failed{0};
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            while (issued.fetch_add(1) < count) {
                int64_t q = pool.take();
                if (q < 0) {
                    ++failed;
                    continue;
                }
                try {
                    service.submit(pool.at(static_cast<size_t>(q))).get();
                } catch (const std::exception &) {
                    ++failed;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return failed.load();
}

} // namespace sb
