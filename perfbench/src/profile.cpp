#include "profile.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "dataflow/cost_model.hpp"
#include "dataflow/tiling.hpp"

namespace perfbench {

using chrysalis::obs::TraceEvent;

TraceCapture::TraceCapture()
{
    chrysalis::obs::attach_metrics(&registry_);
    chrysalis::obs::attach_trace(&session_);
}

TraceCapture::~TraceCapture()
{
    detach();
}

void
TraceCapture::detach()
{
    if (!attached_)
        return;
    chrysalis::obs::attach_metrics(nullptr);
    chrysalis::obs::attach_trace(nullptr);
    attached_ = false;
}

std::uint64_t
TraceCapture::counter(const std::string& name) const
{
    for (const auto& sample : registry_.samples()) {
        if (sample.name == name &&
            sample.kind == chrysalis::obs::MetricKind::kCounter)
            return sample.count;
    }
    return 0;
}

std::vector<TraceEvent>
TraceCapture::events() const
{
    return session_.merged();
}

void
TraceCapture::write(const std::string& path) const
{
    session_.write_chrome_trace_file(path);
}

namespace {

double
start_s(const TraceEvent& event)
{
    return event.start_us * 1e-6;
}

double
duration_s(const TraceEvent& event)
{
    return event.duration_us * 1e-6;
}

double
end_s(const TraceEvent& event)
{
    return start_s(event) + duration_s(event);
}

std::string
group_name(const std::string& name)
{
    return name.rfind("case:", 0) == 0 ? "case:*" : name;
}

/// Events sorted by thread, then start, then depth (parents first).
std::vector<const TraceEvent*>
by_thread(const std::vector<TraceEvent>& events)
{
    std::vector<const TraceEvent*> sorted;
    sorted.reserve(events.size());
    for (const auto& event : events)
        sorted.push_back(&event);
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->start_us != b->start_us)
                      return a->start_us < b->start_us;
                  return a->depth < b->depth;
              });
    return sorted;
}

/// Aggregate of every span sharing a name.
struct SpanStats {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< duration minus child coverage
};

/// Aggregates spans by name; "case:<label>" spans fold into "case:*".
std::map<std::string, SpanStats>
aggregate_spans(const std::vector<TraceEvent>& events)
{
    const std::vector<const TraceEvent*> sorted = by_thread(events);
    // Walk each thread's spans in start order with a stack of the spans
    // still open; a span that ends inside the innermost open one is its
    // child and covers that much of the parent's duration.
    std::vector<double> covered_s(sorted.size(), 0.0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const TraceEvent& event = *sorted[i];
        if (i > 0 && sorted[i - 1]->tid != event.tid)
            open.clear();
        while (!open.empty() && end_s(*sorted[open.back()]) <= start_s(event))
            open.pop_back();
        if (!open.empty() && end_s(event) <= end_s(*sorted[open.back()]))
            covered_s[open.back()] += duration_s(event);
        open.push_back(i);
    }
    std::map<std::string, SpanStats> stats;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        SpanStats& entry = stats[group_name(sorted[i]->name)];
        entry.count += 1;
        entry.total_s += duration_s(*sorted[i]);
        entry.self_s += std::max(0.0, duration_s(*sorted[i]) - covered_s[i]);
    }
    return stats;
}

/// Sum over spans named \p outer of the time spans named \p inner on the
/// same thread cover inside them.
double
covered_time_s(const std::vector<TraceEvent>& events,
               const std::string& outer, const std::string& inner)
{
    std::map<std::uint32_t, std::vector<const TraceEvent*>> inners;
    for (const TraceEvent* event : by_thread(events)) {
        if (event->name == inner)
            inners[event->tid].push_back(event);  // in start order
    }
    double covered = 0.0;
    for (const auto& event : events) {
        if (event.name != outer)
            continue;
        const auto it = inners.find(event.tid);
        if (it == inners.end())
            continue;
        const auto& list = it->second;
        auto first = std::lower_bound(
            list.begin(), list.end(), event.start_us,
            [](const TraceEvent* a, double start) {
                return a->start_us < start;
            });
        for (; first != list.end() && start_s(**first) < end_s(event);
             ++first) {
            if (end_s(**first) <= end_s(event))
                covered += duration_s(**first);
        }
    }
    return covered;
}

/// Time spans named \p name keep their threads busy: the union of their
/// intervals per thread, summed over threads.
double
busy_time_s(const std::vector<TraceEvent>& events, const std::string& name)
{
    std::vector<const TraceEvent*> matching;
    for (const TraceEvent* event : by_thread(events)) {
        if (group_name(event->name) == name)
            matching.push_back(event);
    }
    // Union of the intervals per thread: a span nested in another of the
    // same name (the serve handler's eval inside the stage span) adds
    // nothing.
    double busy = 0.0;
    double covered_until = 0.0;
    for (std::size_t i = 0; i < matching.size(); ++i) {
        const TraceEvent& event = *matching[i];
        if (i == 0 || matching[i - 1]->tid != event.tid)
            covered_until = start_s(event);
        const double from = std::max(start_s(event), covered_until);
        if (end_s(event) > from) {
            busy += end_s(event) - from;
            covered_until = end_s(event);
        }
    }
    return busy;
}

/// Threads, other than the benchmark's own (those that recorded a
/// "bench/" span), that recorded at least one span.
std::uint64_t
program_threads(const std::vector<TraceEvent>& events)
{
    std::set<std::uint32_t> bench;
    std::set<std::uint32_t> all;
    for (const auto& event : events) {
        all.insert(event.tid);
        if (event.name.rfind("bench/", 0) == 0)
            bench.insert(event.tid);
    }
    return all.size() - bench.size();
}

}  // namespace

void
add_shared_layer_metrics(const TraceCapture& capture,
                         const std::vector<TraceEvent>& events,
                         const std::string& pool_busy_span,
                         double pass_wall_s, RunResult& result)
{
    const auto spans = aggregate_spans(events);
    const auto total = [&](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.total_s;
    };
    const auto ratio = [](double part, double whole) {
        return whole > 0.0 ? part / whole : 0.0;
    };
    auto& layer = result.layer;

    const auto inner_calls =
        static_cast<double>(capture.counter("search/inner/searches"));
    const auto layer_evals =
        static_cast<double>(capture.counter("search/inner/evaluations"));
    layer["search.inner.calls"] = inner_calls;
    layer["search.inner.layer_evals"] = layer_evals;
    layer["search.inner.evals_per_call"] = ratio(layer_evals, inner_calls);
    layer["search.inner.busy_s"] = total("search/inner");

    const double explore_busy = total("search/explore");
    layer["search.explore.calls"] =
        static_cast<double>(capture.counter("search/explorations"));
    layer["search.explore.busy_s"] = explore_busy;
    layer["search.explore.self_s"] =
        explore_busy -
        covered_time_s(events, "search/explore", "search/inner");
    layer["search.fitness.calls"] =
        static_cast<double>(capture.counter("search/evaluations"));
    layer["search.ga.generations"] =
        static_cast<double>(capture.counter("search/ga/generations"));

    layer["sim.analytic.calls"] =
        static_cast<double>(capture.counter("sim/analytic_evals"));
    layer["sim.step.busy_s"] = total("sim/inference");

    const auto hits =
        static_cast<double>(capture.counter("runtime/cache/hits"));
    const auto misses =
        static_cast<double>(capture.counter("runtime/cache/misses"));
    const auto insertions =
        static_cast<double>(capture.counter("runtime/cache/insertions"));
    layer["runtime.memo.lookups"] = hits + misses;
    layer["runtime.memo.hit_rate"] = ratio(hits, hits + misses);
    layer["runtime.memo.duplicate_computes"] =
        std::max(0.0, misses - insertions);

    const auto batches =
        static_cast<double>(capture.counter("runtime/pool/batches"));
    const auto tasks =
        static_cast<double>(capture.counter("runtime/pool/tasks"));
    layer["runtime.pool.batches"] = batches;
    layer["runtime.pool.tasks_per_batch"] = ratio(tasks, batches);
    layer["runtime.pool.utilization"] =
        ratio(busy_time_s(events, pool_busy_span),
              kComputeThreads * pass_wall_s);
    layer["runtime.pool.threads_started"] =
        static_cast<double>(program_threads(events));
}

void
add_profile_notes(const std::vector<TraceEvent>& events, RunResult& result)
{
    const auto spans = aggregate_spans(events);
    std::vector<std::pair<std::string, SpanStats>> rows(spans.begin(),
                                                        spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.total_s > b.second.total_s;
    });
    result.notes.push_back("span profile of the first traced pass "
                           "(name: count, total s, self s):");
    for (const auto& [name, stats] : rows) {
        std::ostringstream line;
        line << "  " << name << ": " << stats.count << ", " << stats.total_s
             << ", " << stats.self_s;
        result.notes.push_back(line.str());
    }
}

double
analyze_layer_probe_s(const std::vector<ProbeTarget>& targets,
                      double budget_s)
{
    namespace df = chrysalis::dataflow;
    struct Job {
        const chrysalis::dnn::Layer* layer;
        std::vector<df::LayerMapping> mappings;
        df::CostParams params;
    };
    std::vector<Job> jobs;
    for (const auto& target : targets) {
        const auto hardware = target.hardware.build_hardware();
        const df::CostParams params = hardware->cost_params();
        const auto dataflows = hardware->supported_dataflows();
        for (std::size_t i = 0; i < target.model->layer_count(); ++i) {
            const auto& layer = target.model->layer(i);
            jobs.push_back({&layer,
                            df::enumerate_mappings(
                                layer, dataflows,
                                target.max_candidates_per_dim),
                            params});
        }
    }
    double sink = 0.0;
    std::uint64_t calls = 0;
    const Stopwatch watch;
    do {
        for (const auto& job : jobs) {
            for (const auto& mapping : job.mappings) {
                sink += df::analyze_layer(*job.layer, mapping, job.params)
                            .time_s;
                ++calls;
            }
        }
    } while (watch.elapsed_s() < budget_s);
    const double elapsed = watch.elapsed_s();
    volatile double keep = sink;
    (void)keep;
    return calls == 0 ? 0.0 : elapsed / static_cast<double>(calls);
}

void
run_passes(const RunConfig& config, RunResult& result, const PassFn& pass)
{
    std::unique_ptr<TraceCapture> kept;  // first traced pass, written last
    for (;;) {
        const bool traced =
            config.trace &&
            result.pass_wall_s.size() > result.traced_wall_s.size();
        auto capture = traced ? std::make_unique<TraceCapture>() : nullptr;
        const PassTiming timing = pass(capture.get());
        if (capture) {
            capture->detach();
            if (!kept)
                kept = std::move(capture);
        }
        if (result.timed_start_mono_s == 0.0)
            result.timed_start_mono_s = timing.start_mono_s;
        if (traced) {
            result.traced_wall_s.push_back(timing.wall_s);
        } else {
            result.pass_wall_s.push_back(timing.wall_s);
            result.pass_cpu_s.push_back(timing.cpu_s);
        }
        result.peak_rss_mb = peak_rss_mb();
        const double elapsed = monotonic_s() - result.timed_start_mono_s;
        const bool need_traced = config.trace && result.traced_wall_s.empty();
        if (!need_traced && elapsed + 0.5 * timing.wall_s >= config.seconds)
            break;
    }
    if (kept) {
        const std::string path =
            config.out_dir + "/trace_" + config.workload + ".json";
        kept->write(path);
        result.notes.push_back("spans of the first traced pass: " + path);
    }
}

}  // namespace perfbench
