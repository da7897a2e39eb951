#include "core/chrysalis.hpp"

#include <cmath>
#include <sstream>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "energy/energy_controller.hpp"
#include "energy/solar_environment.hpp"

namespace chrysalis::core {

std::string
AuTSolution::describe(const dnn::Model& model) const
{
    std::ostringstream os;
    os << "=== AuT solution for workload '" << model.name() << "' ===\n";
    os << "Energy subsystem:\n";
    os << "  solar panel A_eh = " << format_fixed(hardware.solar_cm2, 2)
       << " cm^2\n";
    os << "  capacitor C = " << format_si(hardware.capacitance_f, "F", 1)
       << "\n";
    os << "Inference subsystem:\n";
    const auto hw_model = hardware.build_hardware();
    os << "  " << hw_model->describe() << "\n";
    os << "Metrics:\n";
    if (failure)
        os << "  failure: " << failure.message() << "\n";
    os << "  mean latency = " << format_si(mean_latency_s, "s") << "\n";
    os << "  lat*sp = " << format_fixed(lat_sp, 2) << " cm^2*s\n";
    os << "  E_all = " << format_si(cost.total_energy_j(), "J") << ", "
       << cost.n_tile << " tiles\n";
    if (evaluations > 0) {
        os << "Search:\n";
        os << "  " << evaluations << " designs evaluated in "
           << format_si(search_wall_time_s, "s") << " (memo: "
           << cache_hits << " hits, " << cache_misses << " misses)\n";
    }
    os << "Dataflow (Fig. 4 loop nests):\n";
    for (std::size_t i = 0; i < mappings.size(); ++i)
        os << mappings[i].describe(model.layer(i));
    return os.str();
}

Chrysalis::Chrysalis(ChrysalisInputs inputs)
    : inputs_(std::move(inputs)),
      explorer_(inputs_.model, inputs_.space, inputs_.objective,
                inputs_.options)
{
}

AuTSolution
Chrysalis::to_solution(const search::EvaluatedDesign& design,
                       const search::ExplorationResult* result) const
{
    AuTSolution solution;
    solution.hardware = design.candidate;
    solution.mappings = design.mapping.mappings;
    solution.cost = design.mapping.cost;
    solution.mean_latency_s = design.mean_latency_s;
    solution.lat_sp = design.mean_latency_s * design.candidate.solar_cm2;
    solution.score = design.score;
    solution.feasible = design.feasible;
    solution.failure = design.failure;
    if (result != nullptr) {
        solution.pareto = result->pareto;
        solution.evaluations = result->evaluations;
        solution.cache_hits = result->cache.hits;
        solution.cache_misses = result->cache.misses;
        solution.cache_evictions = result->cache.evictions;
        solution.search_wall_time_s = result->wall_time_s;
    }
    return solution;
}

AuTSolution
Chrysalis::generate(
    const std::vector<search::HwCandidate>& warm_starts) const
{
    const search::ExplorationResult result =
        explorer_.explore(warm_starts);
    return to_solution(result.best, &result);
}

AuTSolution
Chrysalis::evaluate_candidate(const search::HwCandidate& candidate) const
{
    return to_solution(explorer_.evaluate(candidate), nullptr);
}

ValidationResult
Chrysalis::validate(const AuTSolution& solution, double k_eh,
                    const sim::SimConfig& sim_config, int runs) const
{
    if (runs < 1)
        fatal("Chrysalis::validate: runs must be >= 1, got ", runs);
    ValidationResult validation;

    // Build the concrete energy subsystem described by the solution,
    // starting at the turn-on threshold (steady-state assumption).
    auto environment = std::make_shared<energy::ConstantSolarEnvironment>(
        k_eh, "validation");
    energy::Capacitor::Config cap_config =
        inputs_.options.capacitor_base;
    cap_config.capacitance_f = solution.hardware.capacitance_f;
    cap_config.initial_voltage_v = inputs_.options.pmic.v_off;
    energy::EnergyController controller(
        energy::SolarPanel(solution.hardware.solar_cm2, environment),
        energy::Capacitor(cap_config),
        energy::PowerManagementIc(inputs_.options.pmic));

    // Every run starts at U_off so each pays the cold-start charging
    // latency, matching the analytic E2E semantics.
    sim::SimConfig run_config = sim_config;
    run_config.drain_between_runs = true;
    const std::vector<sim::SimResult> results =
        sim::simulate_repeated(solution.cost, controller, run_config,
                               runs);
    double latency_sum = 0.0;
    int completed = 0;
    for (const auto& result : results) {
        if (result.completed) {
            latency_sum += result.latency_s;
            ++completed;
        }
    }
    validation.sim = results.back();
    validation.mean_sim_latency_s =
        completed > 0 ? latency_sum / completed : 0.0;

    // Analytic reference in the same environment (fault-derated when the
    // simulation injects faults, so the comparison stays apples-to-apples).
    sim::EnergyEnv env;
    env.p_eh_w = solution.hardware.solar_cm2 * k_eh;
    env.capacitor = cap_config;
    env.pmic = inputs_.options.pmic;
    if (sim_config.faults != nullptr)
        env = sim::with_faults(env, *sim_config.faults);
    const sim::AnalyticResult analytic =
        sim::analytic_evaluate(solution.cost, env);
    validation.analytic_latency_s = analytic.latency_s;
    if (analytic.feasible && completed > 0 && analytic.latency_s > 0.0) {
        validation.relative_error =
            std::fabs(validation.mean_sim_latency_s -
                      analytic.latency_s) /
            analytic.latency_s;
    }
    return validation;
}

}  // namespace chrysalis::core
