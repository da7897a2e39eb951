#include "common/bench_util.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/flat_json.hpp"
#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/string_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::bench {

namespace {

/// State behind begin_report/headline; written out by an atexit hook, so
/// a return from main (or exit()) writes the report and fatal(), which
/// runs no exit hook, leaves an earlier report as it was.
struct BenchReport {
    Mutex mutex;
    bool active CHRYSALIS_GUARDED_BY(mutex) = false;
    std::string experiment CHRYSALIS_GUARDED_BY(mutex);
    std::string description CHRYSALIS_GUARDED_BY(mutex);
    std::string metrics_path CHRYSALIS_GUARDED_BY(mutex);
    /// empty = no trace requested
    std::string trace_path CHRYSALIS_GUARDED_BY(mutex);
    // The registry and trace session are internally synchronized and
    // published to the obs globals, so they are deliberately not
    // guarded by the report mutex.
    obs::MetricsRegistry registry;
    obs::TraceSession trace;
    std::vector<std::pair<std::string, double>> headlines
        CHRYSALIS_GUARDED_BY(mutex);
};

BenchReport&
report_state()
{
    static BenchReport report;
    return report;
}

/// Executable name minus a leading "bench_": the <name> in
/// BENCH_<name>.json. Falls back to "report" off glibc.
std::string
report_slug()
{
#if defined(__GLIBC__)
    std::string name = program_invocation_short_name;
    if (name.rfind("bench_", 0) == 0)
        name.erase(0, std::strlen("bench_"));
    if (!name.empty())
        return name;
#endif
    return "report";
}

void
write_report()
{
    BenchReport& report = report_state();
    MutexLock lock(report.mutex);
    if (!report.active)
        return;
    // Quiescence: by atexit time all benchmark work has joined.
    obs::attach_metrics(nullptr);
    obs::attach_trace(nullptr);

    std::FILE* file = std::fopen(report.metrics_path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "[bench] cannot write report '%s': %s\n",
                     report.metrics_path.c_str(), errno_text(errno));
        return;
    }
    std::string json = "{";
    json_append_field(json, "schema", "chrysalis-bench-v1");
    json_append_field(json, "experiment", report.experiment);
    json_append_field(json, "description", report.description);
    json_append_key(json, "headline");
    json += '{';
    std::sort(report.headlines.begin(), report.headlines.end());
    for (const auto& [key, value] : report.headlines)
        json_append_double(json, key, value);
    json += '}';
    // The metrics document goes in whole, its trailing newline included.
    json_append_raw_field(json, "metrics", report.registry.to_json());
    json += "}\n";
    std::fputs(json.c_str(), file);
    std::fclose(file);

    if (!report.trace_path.empty())
        report.trace.write_chrome_trace_file(report.trace_path);
}

}  // namespace

void
begin_report(const std::string& experiment, const std::string& description,
             bool attach_metrics, const std::string& slug)
{
    BenchReport& report = report_state();
    MutexLock lock(report.mutex);
    if (report.active)
        return;  // first banner wins; later sections share the report
    report.active = true;
    report.experiment = experiment;
    report.description = description;
    const char* metrics_out = std::getenv("CHRYSALIS_BENCH_METRICS_OUT");
    report.metrics_path =
        metrics_out != nullptr && *metrics_out != '\0'
            ? metrics_out
            : "BENCH_" + (slug.empty() ? report_slug() : slug) + ".json";
    if (const char* trace_out = std::getenv("CHRYSALIS_BENCH_TRACE_OUT")) {
        if (*trace_out != '\0') {
            report.trace_path = trace_out;
            obs::attach_trace(&report.trace);
        }
    }
    if (attach_metrics)
        obs::attach_metrics(&report.registry);
    std::atexit(write_report);
}

void
headline(const std::string& key, double value)
{
    BenchReport& report = report_state();
    MutexLock lock(report.mutex);
    if (!report.active)
        return;
    report.headlines.emplace_back(key, value);
}

Budget
Budget::from_env()
{
    Budget budget;
    const char* raw = std::getenv("CHRYSALIS_BENCH_BUDGET");
    const std::string mode = raw != nullptr ? to_lower(raw) : "quick";
    if (mode == "full") {
        budget.population = 48;
        budget.generations = 40;
        budget.mapping_candidates = 8;
    } else if (mode != "quick") {
        std::fprintf(stderr,
                     "[bench] unknown CHRYSALIS_BENCH_BUDGET '%s', using "
                     "'quick'\n",
                     mode.c_str());
    }
    // Checked like the CLIs' numeric flags: junk, a trailing suffix or
    // a negative value exits 1 naming the variable before any work.
    if (const char* threads_raw = std::getenv("CHRYSALIS_BENCH_THREADS")) {
        budget.threads =
            parse_int_flag("CHRYSALIS_BENCH_THREADS", threads_raw);
        if (budget.threads < 0)
            fatal("CHRYSALIS_BENCH_THREADS must be >= 0 (0 = all hardware "
                  "threads), got ", budget.threads);
    }
    if (const char* cache_raw = std::getenv("CHRYSALIS_BENCH_CACHE")) {
        budget.cache_capacity = static_cast<std::size_t>(
            parse_uint64_flag("CHRYSALIS_BENCH_CACHE", cache_raw));
    }
    return budget;
}

void
print_banner(const std::string& experiment, const std::string& description)
{
    begin_report(experiment, description);
    std::printf("\n================================================"
                "================\n");
    std::printf("%s\n%s\n", experiment.c_str(), description.c_str());
    std::printf("================================================"
                "================\n");
}

search::ExplorerOptions
make_options(const Budget& budget, std::uint64_t seed)
{
    search::ExplorerOptions options;
    options.outer.population = budget.population;
    options.outer.generations = budget.generations;
    options.outer.seed = seed;
    options.outer.threads = budget.threads;
    options.inner.max_candidates_per_dim = budget.mapping_candidates;
    options.cache_capacity = budget.cache_capacity;
    return options;
}

core::AuTSolution
run_search(const dnn::Model& model, const search::DesignSpace& space,
           const search::Objective& objective, const Budget& budget,
           std::uint64_t seed,
           const std::vector<search::HwCandidate>& warm_starts)
{
    core::ChrysalisInputs inputs{model, space, objective,
                                 make_options(budget, seed)};
    const core::Chrysalis tool(std::move(inputs));
    return tool.generate(warm_starts);
}

search::HwCandidate
inas_reference_candidate()
{
    // P_in = 6 mW at the brighter 2 mW/cm^2 preset -> 3 cm^2 panel;
    // "if the design approach of iNAS are to be adopted ... C >= 1 mF".
    search::HwCandidate candidate;
    candidate.family = search::HardwareFamily::kMsp430;
    candidate.solar_cm2 = 3.0;
    candidate.capacitance_f = 1e-3;
    return candidate;
}

}  // namespace chrysalis::bench
