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

    // Premix everything that shapes an evaluation besides the candidate
    // itself, so candidate_key() only has to fold in the genome.
    context_hash_.add(std::string_view(model_.name()))
        .add(model_.element_bytes())
        .add(model_.input().c)
        .add(model_.input().h)
        .add(model_.input().w)
        .add(static_cast<std::uint64_t>(model_.layer_count()))
        .add(model_.total_params())
        .add(model_.total_macs())
        .add(model_.total_data_bytes());
    context_hash_.add(static_cast<int>(objective_.kind))
        .add(objective_.sp_limit_cm2)
        .add(objective_.lat_limit_s);
    context_hash_.add_range(options_.k_eh_envs);
    const auto& cap = options_.capacitor_base;
    context_hash_.add(cap.capacitance_f)
        .add(cap.rated_voltage_v)
        .add(cap.k_cap)
        .add(cap.initial_voltage_v)
        .add(cap.temperature_c)
        .add(cap.leakage_doubling_c);
    const auto& pmic = options_.pmic;
    context_hash_.add(pmic.v_on)
        .add(pmic.v_off)
        .add(pmic.charge_efficiency)
        .add(pmic.discharge_efficiency)
        .add(pmic.quiescent_power_w);
    context_hash_.add(
        static_cast<std::uint64_t>(options_.inner.max_candidates_per_dim));
    // Faulted and fault-free evaluations must never share a memo entry.
    context_hash_.add(options_.faults != nullptr);
    if (options_.faults != nullptr) {
        options_.faults->spec().validate();
        options_.faults->add_to_hash(context_hash_);
    }

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
    const auto expected = static_cast<std::size_t>(
        options_.outer.population * options_.outer.generations);

    // The optimizer may call the fitness from several pool threads;
    // designs are collected under a mutex tagged with their evaluation
    // index and ordered afterwards, so the history is identical to the
    // serial path at any thread count.
    Mutex evaluated_mutex;
    std::vector<std::pair<std::size_t, std::shared_ptr<const EvaluatedDesign>>>
        evaluated;
    evaluated.reserve(expected);
    const IndexedFitnessFn fitness = [&](std::size_t index,
                                         const std::vector<double>& genes) {
        auto design = evaluate_cached(decode(genes));
        const double score = design->score;
        MutexLock lock(evaluated_mutex);
        evaluated.emplace_back(index, std::move(design));
        return score;
    };

    // Warm-start with the space's frozen defaults so a search over a
    // superset space never scores worse than the frozen configuration,
    // plus any caller-provided portfolio seeds.
    OptimizerOptions outer = options_.outer;
    outer.seed_genes.push_back(encode(space_.defaults));
    for (const auto& candidate : warm_starts)
        outer.seed_genes.push_back(encode(candidate));

    const OptimizeResult opt =
        optimize(options_.strategy, kGeneCount, outer, fitness);
    result.evaluations = opt.evaluations;

    std::sort(evaluated.begin(), evaluated.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    result.history.reserve(evaluated.size());
    for (auto& entry : evaluated)
        result.history.push_back(std::move(entry.second));

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
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/explorations").add(1);
        registry->counter("search/evaluations")
            .add(static_cast<std::uint64_t>(result.evaluations));
        result.cache.publish(*registry);
        if (options_.faults != nullptr)
            options_.faults->publish(*registry);
    }
    return result;
}

std::vector<EvaluatedDesign>
BiLevelExplorer::explore_pareto() const
{
    OBS_SPAN("search/explore_pareto");
    const runtime::EvalCacheStats cache_before = cache_stats();
    Mutex evaluated_mutex;
    std::vector<std::pair<std::size_t, std::shared_ptr<const EvaluatedDesign>>>
        evaluated;
    evaluated.reserve(static_cast<std::size_t>(
        options_.outer.population * options_.outer.generations));

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
        MutexLock lock(evaluated_mutex);
        evaluated.emplace_back(index, std::move(design));
        return objectives;
    };

    OptimizerOptions outer = options_.outer;
    outer.seed_genes.push_back(encode(space_.defaults));
    const Nsga2Result result =
        optimize_nsga2(kGeneCount, outer, fitness);

    // Deterministic evaluation-index order == result.history order.
    std::sort(evaluated.begin(), evaluated.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Map front points back to the evaluated designs (evaluated order ==
    // evaluation order == result.history order).
    std::vector<EvaluatedDesign> front;
    for (const auto& point : result.front) {
        if (point.objectives[0] >= kInfeasible)
            continue;
        // Find the matching history entry by objectives + genes.
        for (std::size_t i = 0; i < result.history.size(); ++i) {
            if (result.history[i].genes == point.genes) {
                front.push_back(*evaluated[i].second);
                break;
            }
        }
    }
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/explorations").add(1);
        registry->counter("search/evaluations").add(evaluated.size());
        (cache_stats() - cache_before).publish(*registry);
        if (options_.faults != nullptr)
            options_.faults->publish(*registry);
    }
    return front;
}

}  // namespace chrysalis::search
