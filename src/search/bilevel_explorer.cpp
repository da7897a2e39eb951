#include "search/bilevel_explorer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/math_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::search {

namespace {

/// Stores \p design at its evaluation index. The optimizer may call the
/// fitness from several pool threads, so \p designs grows under \p mutex;
/// indices are assigned before each batch runs, so the history matches
/// the serial path at any thread count.
void
store_design(Mutex& mutex,
             std::vector<std::shared_ptr<const EvaluatedDesign>>& designs,
             std::size_t index,
             std::shared_ptr<const EvaluatedDesign> design)
{
    MutexLock lock(mutex);
    if (index >= designs.size())
        designs.resize(index + 1);
    designs[index] = std::move(design);
}

/// The outer optimizer's options, warm-started with the space's frozen
/// defaults first, so a search over a superset space never scores worse
/// than the frozen configuration, and then with \p warm_starts.
OptimizerOptions
seeded_outer(const BiLevelExplorer& explorer,
             const std::vector<HwCandidate>& warm_starts)
{
    OptimizerOptions outer = explorer.options().outer;
    outer.seed_genes.push_back(explorer.encode(explorer.space().defaults));
    for (const auto& candidate : warm_starts)
        outer.seed_genes.push_back(explorer.encode(candidate));
    return outer;
}

/// Publishes one exploration's counters: explorations, evaluations, memo
/// activity and the fault injector's activations.
void
publish_exploration(const ExplorerOptions& options, int evaluations,
                    const runtime::EvalCacheStats& cache)
{
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry == nullptr)
        return;
    registry->counter("search/explorations").add(1);
    registry->counter("search/evaluations")
        .add(static_cast<std::uint64_t>(evaluations));
    cache.publish(*registry);
    if (options.faults != nullptr)
        options.faults->publish(*registry);
}

}  // namespace

void
add_evaluation_context(StableHash& hash, const dnn::Model& model,
                       const Objective& objective,
                       const ExplorerOptions& options)
{
    hash.add(std::string_view(model.name()))
        .add(model.element_bytes())
        .add(model.input().c)
        .add(model.input().h)
        .add(model.input().w)
        .add(static_cast<std::uint64_t>(model.layer_count()))
        .add(model.total_params())
        .add(model.total_macs())
        .add(model.total_data_bytes());
    hash.add(static_cast<int>(objective.kind))
        .add(objective.sp_limit_cm2)
        .add(objective.lat_limit_s);
    hash.add_range(options.k_eh_envs);
    const auto& cap = options.capacitor_base;
    hash.add(cap.capacitance_f)
        .add(cap.rated_voltage_v)
        .add(cap.k_cap)
        .add(cap.initial_voltage_v)
        .add(cap.temperature_c)
        .add(cap.leakage_doubling_c);
    const auto& pmic = options.pmic;
    hash.add(pmic.v_on)
        .add(pmic.v_off)
        .add(pmic.charge_efficiency)
        .add(pmic.discharge_efficiency)
        .add(pmic.quiescent_power_w);
    hash.add(static_cast<std::uint64_t>(options.inner.max_candidates_per_dim));
    // Faulted and fault-free evaluations must never share a key.
    hash.add(options.faults != nullptr);
    if (options.faults != nullptr)
        options.faults->add_to_hash(hash);
}

BiLevelExplorer::BiLevelExplorer(dnn::Model model, DesignSpace space,
                                 Objective objective,
                                 ExplorerOptions options)
    : model_(std::move(model)), space_(std::move(space)),
      objective_(objective), options_(std::move(options))
{
    if (options_.k_eh_envs.empty())
        fatal("BiLevelExplorer: at least one environment required");
    for (double k_eh : options_.k_eh_envs) {
        if (k_eh <= 0.0)
            fatal("BiLevelExplorer: k_eh must be > 0, got ", k_eh);
    }

    if (options_.faults != nullptr)
        options_.faults->spec().validate();
    // Premix the evaluation context, so candidate_key() only has to fold
    // in the genome.
    add_evaluation_context(context_hash_, model_, objective_, options_);

    if (options_.cache_capacity > 0) {
        cache_ = std::make_unique<
            runtime::EvalCache<std::shared_ptr<const EvaluatedDesign>>>(
            options_.cache_capacity);
    }

    OBS_SPAN("search/inner");
    const std::size_t width = options_.inner.max_candidates_per_dim;
    if (space_.fixes_hardware()) {
        grid_.emplace(model_, *space_.clamp(space_.defaults).build_hardware(),
                      width);
    } else {
        table_.emplace(model_, dataflow::all_dataflows(), width);
    }
}

CacheKey
BiLevelExplorer::candidate_key(const HwCandidate& raw) const
{
    const HwCandidate candidate = space_.clamp(raw);
    StableHash hash = context_hash_;
    hash.add(static_cast<int>(candidate.family))
        .add(candidate.solar_cm2)
        .add(candidate.capacitance_f)
        .add(static_cast<int>(candidate.arch))
        .add(candidate.n_pe)
        .add(candidate.cache_bytes);
    return hash.key();
}

std::shared_ptr<const EvaluatedDesign>
BiLevelExplorer::evaluate_cached(const HwCandidate& raw) const
{
    if (!cache_)
        return std::make_shared<const EvaluatedDesign>(evaluate(raw));
    const HwCandidate candidate = space_.clamp(raw);
    return cache_->get_or_compute(candidate_key(candidate), [&] {
        return std::make_shared<const EvaluatedDesign>(evaluate(candidate));
    });
}

runtime::EvalCacheStats
BiLevelExplorer::cache_stats() const
{
    return cache_ ? cache_->stats() : runtime::EvalCacheStats{};
}

std::vector<sim::EnergyEnv>
BiLevelExplorer::environments(const HwCandidate& candidate) const
{
    std::vector<sim::EnergyEnv> envs;
    envs.reserve(options_.k_eh_envs.size());
    for (double k_eh : options_.k_eh_envs) {
        sim::EnergyEnv env;
        env.p_eh_w = candidate.solar_cm2 * k_eh;  // Eq. 1
        env.capacitor = options_.capacitor_base;
        env.capacitor.capacitance_f = candidate.capacitance_f;
        env.pmic = options_.pmic;
        if (options_.faults != nullptr)
            env = sim::with_faults(env, *options_.faults);
        envs.push_back(env);
    }
    return envs;
}

EvaluatedDesign
BiLevelExplorer::evaluate(const HwCandidate& raw_candidate) const
{
    EvaluatedDesign design;
    design.candidate = space_.clamp(raw_candidate);
    const auto envs = environments(design.candidate);
    {
        OBS_SPAN("search/inner");
        design.mapping =
            grid_ ? grid_->rank(envs)
                  : table_->rank(*design.candidate.build_hardware(), envs);
    }

    design.feasible = design.mapping.feasible;
    design.failure = design.mapping.failure;
    design.per_env.reserve(envs.size());
    double latency_sum = 0.0;
    double violation = design.mapping.violation_j;
    for (const auto& env : envs) {
        sim::AnalyticResult eval =
            sim::analytic_evaluate(design.mapping.cost, env);
        if (eval.feasible) {
            latency_sum += eval.latency_s;
        } else {
            design.feasible = false;
            violation += std::max(
                0.0, eval.max_tile_energy_j - eval.cycle_energy_j);
            // Keep the worst-ranked failure so the penalty band reflects
            // the hardest problem with this design.
            if (fault::penalty_rank(eval.failure.code) >
                fault::penalty_rank(design.failure.code)) {
                design.failure = eval.failure;
            }
        }
        design.per_env.push_back(std::move(eval));
    }

    if (design.feasible) {
        design.mean_latency_s =
            latency_sum / static_cast<double>(envs.size());
        design.score = objective_.score(design.mean_latency_s,
                                        design.candidate.solar_cm2);
    } else {
        design.mean_latency_s = 0.0;
        if (!design.failure) {
            design.failure = fault::make_failure(
                fault::FailureCode::kMappingInfeasible,
                "design infeasible in at least one environment");
        }
        design.score = objective_.penalty_score(design.failure, violation);
    }
    return design;
}

HwCandidate
BiLevelExplorer::decode(const std::vector<double>& genes) const
{
    if (genes.size() != static_cast<std::size_t>(kGeneCount))
        panic("BiLevelExplorer::decode: expected ", kGeneCount,
              " genes, got ", genes.size());
    const auto lerp_log = [](double gene, double lo, double hi) {
        return lo * std::pow(hi / lo, gene);
    };

    HwCandidate candidate;
    candidate.family = space_.family;
    candidate.solar_cm2 =
        space_.solar_min_cm2 +
        genes[0] * (space_.solar_max_cm2 - space_.solar_min_cm2);
    candidate.capacitance_f =
        lerp_log(genes[1], space_.cap_min_f, space_.cap_max_f);
    candidate.arch = genes[2] < 0.5 ? hw::AcceleratorArch::kTpu
                                    : hw::AcceleratorArch::kEyeriss;
    candidate.n_pe = static_cast<std::int64_t>(std::llround(
        lerp_log(genes[3], static_cast<double>(space_.pe_min),
                 static_cast<double>(space_.pe_max))));
    candidate.cache_bytes = static_cast<std::int64_t>(std::llround(
        lerp_log(genes[4], static_cast<double>(space_.cache_min_bytes),
                 static_cast<double>(space_.cache_max_bytes))));
    return space_.clamp(candidate);
}

std::vector<double>
BiLevelExplorer::encode(const HwCandidate& raw) const
{
    const HwCandidate candidate = space_.clamp(raw);
    const auto unlerp_log = [](double value, double lo, double hi) {
        return clamp(std::log(value / lo) / std::log(hi / lo), 0.0, 1.0);
    };
    std::vector<double> genes(static_cast<std::size_t>(kGeneCount), 0.5);
    genes[0] = clamp((candidate.solar_cm2 - space_.solar_min_cm2) /
                         (space_.solar_max_cm2 - space_.solar_min_cm2),
                     0.0, 1.0);
    genes[1] = unlerp_log(candidate.capacitance_f, space_.cap_min_f,
                          space_.cap_max_f);
    genes[2] = candidate.arch == hw::AcceleratorArch::kTpu ? 0.25 : 0.75;
    genes[3] = unlerp_log(static_cast<double>(candidate.n_pe),
                          static_cast<double>(space_.pe_min),
                          static_cast<double>(space_.pe_max));
    genes[4] = unlerp_log(static_cast<double>(candidate.cache_bytes),
                          static_cast<double>(space_.cache_min_bytes),
                          static_cast<double>(space_.cache_max_bytes));
    return genes;
}

ExplorationResult
BiLevelExplorer::explore(const std::vector<HwCandidate>& warm_starts) const
{
    obs::SpanTimer timer("search/explore");
    const runtime::EvalCacheStats cache_before = cache_stats();
    ExplorationResult result;
    Mutex history_mutex;
    const IndexedFitnessFn fitness = [&](std::size_t index,
                                         const std::vector<double>& genes) {
        auto design = evaluate_cached(decode(genes));
        const double score = design->score;
        store_design(history_mutex, result.history, index, std::move(design));
        return score;
    };
    result.evaluations =
        optimize(options_.strategy, kGeneCount,
                 seeded_outer(*this, warm_starts), fitness)
            .evaluations;

    // Recover the best design from the history (scores match 1:1).
    const auto best_it = std::min_element(
        result.history.begin(), result.history.end(),
        [](const auto& a, const auto& b) { return a->score < b->score; });
    if (best_it == result.history.end())
        panic("BiLevelExplorer::explore: empty history");
    result.best = **best_it;

    // Pareto front over feasible designs: (solar panel, latency).
    std::vector<ParetoPoint> points;
    for (std::size_t i = 0; i < result.history.size(); ++i) {
        const EvaluatedDesign& design = *result.history[i];
        if (design.feasible) {
            points.push_back({design.candidate.solar_cm2,
                              design.mean_latency_s, i});
        }
    }
    result.pareto = pareto_front(std::move(points));
    result.cache = cache_stats() - cache_before;
    result.wall_time_s = timer.elapsed_s();
    publish_exploration(options_, result.evaluations, result.cache);
    return result;
}

std::vector<EvaluatedDesign>
BiLevelExplorer::explore_pareto() const
{
    OBS_SPAN("search/explore_pareto");
    const runtime::EvalCacheStats cache_before = cache_stats();
    Mutex designs_mutex;
    std::vector<std::shared_ptr<const EvaluatedDesign>> designs;

    constexpr double kInfeasible = 1e12;
    const IndexedBiFitnessFn fitness =
        [&](std::size_t index,
            const std::vector<double>& genes) -> std::array<double, 2> {
        auto design = evaluate_cached(decode(genes));
        std::array<double, 2> objectives{kInfeasible, kInfeasible};
        if (design->feasible) {
            objectives = {design->candidate.solar_cm2,
                          design->mean_latency_s};
        }
        store_design(designs_mutex, designs, index, std::move(design));
        return objectives;
    };
    const Nsga2Result result =
        optimize_nsga2(kGeneCount, seeded_outer(*this, {}), fitness);

    std::vector<EvaluatedDesign> front;
    for (const auto& point : result.front) {
        if (point.objectives[0] >= kInfeasible)
            continue;
        front.push_back(*designs[point.index]);
    }
    publish_exploration(options_, result.evaluations,
                        cache_stats() - cache_before);
    return front;
}

}  // namespace chrysalis::search
