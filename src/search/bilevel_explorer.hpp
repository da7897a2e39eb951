/// \file
/// The CHRYSALIS Explorer: bi-level search over the joint EA/IA design
/// space (§III-C).
///
/// The HW-level optimizer (genetic by default) proposes hardware
/// configurations; for each, the SW-level mapping search finds the best
/// intermittent mapping, and the analytic evaluator scores the resulting
/// design against the objective function in each target environment
/// (average latency across the brighter/darker environments, feasibility
/// required in both, as in §V-A). The explorer returns the best design,
/// the full evaluation history and the (solar-panel-size, latency) Pareto
/// front used by Figure 6.

#ifndef CHRYSALIS_SEARCH_BILEVEL_EXPLORER_HPP
#define CHRYSALIS_SEARCH_BILEVEL_EXPLORER_HPP

#include <memory>
#include <optional>
#include <vector>

#include "dnn/model.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/eval_cache.hpp"
#include "energy/capacitor.hpp"
#include "energy/power_management.hpp"
#include "search/design_space.hpp"
#include "search/mapping_search.hpp"
#include "search/objective.hpp"
#include "search/optimizer.hpp"
#include "search/pareto.hpp"
#include "sim/analytic_evaluator.hpp"

namespace chrysalis::search {

/// Explorer controls.
struct ExplorerOptions {
    OptimizerStrategy strategy = OptimizerStrategy::kGenetic;
    OptimizerOptions outer;           ///< HW-level optimizer budget
    MappingSearchOptions inner;       ///< SW-level search controls
    /// Target environments' light coefficients k_eh [W/cm^2]; the paper's
    /// evaluation uses a brighter and a darker preset.
    std::vector<double> k_eh_envs = {2.0e-3, 0.5e-3};
    /// Capacitor technology (capacitance is overridden per candidate).
    energy::Capacitor::Config capacitor_base;
    /// PMIC model shared by all candidates.
    energy::PowerManagementIc::Config pmic;
    /// Evaluation-memo capacity (designs); 0 disables the cache. GA
    /// variation re-proposes genomes it has already scored (surviving
    /// clones, warm-start duplicates), and each hit skips a full inner
    /// mapping search. Evaluation parallelism is `outer.threads`.
    std::size_t cache_capacity = 4096;
    /// Optional fault injector: when set, every candidate is evaluated
    /// under fault-derated environments (harvest derate, capacitor
    /// ageing, PMIC drift via sim::with_faults), so the search optimizes
    /// for resilience. Not owned; must outlive the explorer. The fault
    /// spec is folded into the memo key, so faulted and fault-free
    /// evaluations never alias.
    const fault::FaultInjector* faults = nullptr;
};

/// Folds everything besides the candidate that shapes an evaluation into
/// \p hash: the model's identity, the objective, the environments, the
/// capacitor and PMIC technology, the inner search's grid width and the
/// fault spec. The explorer's memo key and the campaign journal's case
/// key both hash their context here, so the two cannot disagree on what
/// tells two evaluations apart.
void add_evaluation_context(StableHash& hash, const dnn::Model& model,
                            const Objective& objective,
                            const ExplorerOptions& options);

/// One fully evaluated design point. Immutable once shared: the
/// explorer's memo, its history and the NSGA-II front hold one record
/// per evaluation through `std::shared_ptr<const EvaluatedDesign>`, so a
/// memo hit copies a pointer, not the record.
struct EvaluatedDesign {
    HwCandidate candidate;
    MappingSearchResult mapping;
    std::vector<sim::AnalyticResult> per_env;  ///< one per environment
    double mean_latency_s = 0.0;  ///< average across environments
    double score = 0.0;           ///< objective score (lower better)
    bool feasible = false;        ///< feasible in every environment
    fault::SimFailure failure;    ///< first failure when infeasible
};

/// Result of a full exploration.
struct ExplorationResult {
    EvaluatedDesign best;
    /// Every evaluated design, in evaluation order. A design the memo
    /// served is the record it first computed, shared, not a copy.
    std::vector<std::shared_ptr<const EvaluatedDesign>> history;
    std::vector<ParetoPoint> pareto;  ///< (sp, lat) front over history
    int evaluations = 0;
    runtime::EvalCacheStats cache;  ///< memo activity during this run
    double wall_time_s = 0.0;       ///< search wall-clock time
};

/// Bi-level explorer: owns the workload, design space and objective.
///
/// The constructor does the inner search's hardware-free work once, and
/// every candidate gets exactly what search_mappings() returns for it:
///   - When the space fixes the inference hardware
///     (DesignSpace::fixes_hardware()), the constructor scores that
///     hardware's MappingGrid, and every candidate ranks the stored
///     scores against its own environments.
///   - Otherwise the constructor builds a GeometryTable over every
///     dataflow, and every candidate runs the hardware pass of its own
///     hardware over it, fused with the ranking.
class BiLevelExplorer
{
  public:
    BiLevelExplorer(dnn::Model model, DesignSpace space, Objective objective,
                    ExplorerOptions options);

    /// Builds the per-candidate energy environments (one per k_eh).
    std::vector<sim::EnergyEnv> environments(const HwCandidate& candidate)
        const;

    /// Evaluates one candidate end-to-end (mapping search + scoring).
    EvaluatedDesign evaluate(const HwCandidate& candidate) const;

    /// Like evaluate(), but memoized on the design's cache key; the
    /// fitness path of explore()/explore_pareto() goes through here.
    /// Thread-safe. A hit returns the memo's record itself; with the
    /// cache disabled every call evaluates into a fresh record.
    std::shared_ptr<const EvaluatedDesign> evaluate_cached(
        const HwCandidate& candidate) const;

    /// Stable memo key of a candidate: a hash of the clamped candidate
    /// plus the evaluation context (workload identity, objective,
    /// environments, energy technology and inner-search options), so
    /// caches could even be shared across explorer instances.
    CacheKey candidate_key(const HwCandidate& candidate) const;

    /// Lifetime memo counters (all explore()/evaluate_cached() calls).
    runtime::EvalCacheStats cache_stats() const;

    /// Runs the full bi-level search. \p warm_starts are additional
    /// candidates injected into the initial population (beyond the
    /// space's defaults, which are always seeded) — e.g. portfolio
    /// seeding with solutions found in subspaces.
    ExplorationResult explore(
        const std::vector<HwCandidate>& warm_starts = {}) const;

    /// Runs a dedicated multi-objective (NSGA-II) search for the
    /// (solar-panel size, latency) Pareto front instead of optimizing a
    /// scalar objective. Returns the evaluated designs on the final
    /// non-dominated front, sorted by panel size. The scalar objective's
    /// constraints are ignored; infeasible designs never enter the front.
    std::vector<EvaluatedDesign> explore_pareto() const;

    /// Decodes a normalized gene vector into a (clamped) candidate.
    /// Gene order: [solar, log-capacitance, arch, log-PE, log-cache].
    HwCandidate decode(const std::vector<double>& genes) const;

    /// Encodes a candidate back into normalized genes (inverse of
    /// decode, up to clamping); used to warm-start the GA with the
    /// space's frozen defaults.
    std::vector<double> encode(const HwCandidate& candidate) const;

    /// Number of genes used by the encoding (always 5; frozen knobs are
    /// ignored during decode).
    static constexpr int kGeneCount = 5;

    const dnn::Model& model() const { return model_; }
    const DesignSpace& space() const { return space_; }
    const Objective& objective() const { return objective_; }
    const ExplorerOptions& options() const { return options_; }

  private:
    dnn::Model model_;
    DesignSpace space_;
    Objective objective_;
    ExplorerOptions options_;
    StableHash context_hash_;  ///< premixed non-candidate inputs
    mutable std::unique_ptr<
        runtime::EvalCache<std::shared_ptr<const EvaluatedDesign>>>
        cache_;
    // The constructor sets exactly one of the two.
    std::optional<MappingGrid> grid_;     ///< fixed hardware
    std::optional<GeometryTable> table_;  ///< searched hardware
};

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_BILEVEL_EXPLORER_HPP
