/// \file
/// The traced run's instruments: a metrics registry and a trace session
/// attached to the program's obs globals for one pass, span aggregation
/// into count / total / self time, and the per-layer metrics every
/// workload shares (search, sim, runtime) read from them.

#ifndef CHRYSALIS_PERFBENCH_SRC_PROFILE_HPP
#define CHRYSALIS_PERFBENCH_SRC_PROFILE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "dnn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/design_space.hpp"

namespace perfbench {

/// Attaches a fresh registry and trace session to the obs globals on
/// construction. Construct before the pass starts any program thread;
/// call detach() (or destroy) after every such thread has joined — the
/// obs quiescence rule.
class TraceCapture
{
  public:
    TraceCapture();
    ~TraceCapture();
    TraceCapture(const TraceCapture&) = delete;
    TraceCapture& operator=(const TraceCapture&) = delete;

    void detach();

    /// Value of a registry counter; 0 when the program never bumped it.
    std::uint64_t counter(const std::string& name) const;

    /// Every span recorded so far (quiescence required).
    std::vector<chrysalis::obs::TraceEvent> events() const;

    /// Writes the spans as a Chrome trace (quiescence required).
    void write(const std::string& path) const;

  private:
    chrysalis::obs::MetricsRegistry registry_;
    chrysalis::obs::TraceSession session_;
    bool attached_ = true;
};

/// Per-layer metrics every workload reports, from one traced pass:
/// search, sim and runtime counters and busy times. \p pool_busy_span
/// names the span that covers the work of one pool task (search/inner,
/// case:*, serve/eval); pool utilization is its busy time over
/// (kComputeThreads x \p pass_wall_s).
void add_shared_layer_metrics(const TraceCapture& capture,
                              const std::vector<chrysalis::obs::TraceEvent>& events,
                              const std::string& pool_busy_span,
                              double pass_wall_s, RunResult& result);

/// The span table (count, total and self time per span name; self time
/// is duration minus the part child spans on the same thread cover), as
/// report lines.
void add_profile_notes(const std::vector<chrysalis::obs::TraceEvent>& events,
                       RunResult& result);

/// One workload network on one design point: the inputs of the dataflow
/// probe.
struct ProbeTarget {
    const chrysalis::dnn::Model* model = nullptr;
    chrysalis::search::HwCandidate hardware;
    std::size_t max_candidates_per_dim = 6;
};

/// Times dataflow::analyze_layer over the enumerate_mappings output of
/// every layer of every target, repeated for about \p budget_s; returns
/// seconds per call.
double analyze_layer_probe_s(const std::vector<ProbeTarget>& targets,
                             double budget_s = 0.2);

/// Runs passes until cfg.seconds of timed work are done. \p pass runs
/// one pass and returns its timing; \p capture is non-null for traced
/// passes. A traced run alternates untraced and traced passes (so the
/// tracing overhead is the difference of their medians) and always runs
/// at least one of each.
struct PassTiming {
    double start_mono_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};
using PassFn = std::function<PassTiming(TraceCapture* capture)>;
void run_passes(const RunConfig& config, RunResult& result,
                const PassFn& pass);

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_PROFILE_HPP
