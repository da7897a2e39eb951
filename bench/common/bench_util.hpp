/// \file
/// Shared helpers for the paper-reproduction benchmark binaries: budget
/// control, consistent headers, and the standard search/evaluation recipes
/// used across figures.

#ifndef CHRYSALIS_BENCH_COMMON_BENCH_UTIL_HPP
#define CHRYSALIS_BENCH_COMMON_BENCH_UTIL_HPP

#include <string>

#include "core/chrysalis.hpp"
#include "search/bilevel_explorer.hpp"

namespace chrysalis::bench {

/// Search budget for benchmark runs. Controlled by the environment
/// variable CHRYSALIS_BENCH_BUDGET: "quick" (CI-sized, default), or
/// "full" (paper-sized; minutes per figure).
struct Budget {
    int population = 24;
    int generations = 16;
    std::size_t mapping_candidates = 5;
    /// Evaluation threads per search (0 = all hardware threads).
    /// Results are bit-identical at any value; only wall time changes.
    int threads = 0;
    /// Evaluation-memo capacity (0 disables). Results are identical
    /// with or without the memo; hits skip repeat inner searches.
    std::size_t cache_capacity = 4096;

    /// Reads CHRYSALIS_BENCH_BUDGET ("quick"/"full"),
    /// CHRYSALIS_BENCH_THREADS (integer >= 0) and CHRYSALIS_BENCH_CACHE
    /// (capacity in designs) from the environment; fatal() when either
    /// number does not parse in full or the thread count is negative.
    static Budget from_env();
};

/// Starts the benchmark's machine-readable run report. Called by
/// print_banner, so every figure binary gets one for free: at process
/// exit a `BENCH_<name>.json` file (working directory; <name> is the
/// executable name minus the `bench_` prefix) is written with the
/// experiment id, the headline() numbers and a metrics snapshot.
///
/// Knobs (environment):
///   CHRYSALIS_BENCH_METRICS_OUT=FILE   override the report path
///   CHRYSALIS_BENCH_TRACE_OUT=FILE     also write a Chrome trace
///
/// \p attach_metrics=false starts the report without attaching the
/// global metrics registry — used by micro-benchmarks that measure the
/// no-sink fast path and must not observe publish costs.
///
/// \p slug overrides the executable-derived report name (the <name> in
/// BENCH_<name>.json) for binaries whose name does not match their
/// report, e.g. chrysalis_bench_load writing BENCH_serve_load.json.
void begin_report(const std::string& experiment,
                  const std::string& description,
                  bool attach_metrics = true,
                  const std::string& slug = "");

/// Records one headline number (e.g. the paper-claim ratio a figure
/// reproduces) into the run report. No-op before begin_report.
void headline(const std::string& key, double value);

/// Prints the standard benchmark banner (figure id + description) and
/// starts the run report (see begin_report).
void print_banner(const std::string& experiment,
                  const std::string& description);

/// Builds ExplorerOptions from a budget with the paper's two-environment
/// setup (brighter + darker).
search::ExplorerOptions make_options(const Budget& budget,
                                     std::uint64_t seed);

/// Runs one full CHRYSALIS exploration for (model, space, objective).
/// \p warm_starts optionally seed the GA (portfolio seeding with
/// solutions found in subspaces).
core::AuTSolution run_search(
    const dnn::Model& model, const search::DesignSpace& space,
    const search::Objective& objective, const Budget& budget,
    std::uint64_t seed,
    const std::vector<search::HwCandidate>& warm_starts = {});

/// The paper's fixed iNAS-style reference point for the existing-AuT
/// platform (P_in = 6 mW at the brighter preset, C = 1 mF).
search::HwCandidate inas_reference_candidate();

}  // namespace chrysalis::bench

#endif  // CHRYSALIS_BENCH_COMMON_BENCH_UTIL_HPP
