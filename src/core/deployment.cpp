#include "core/deployment.hpp"

#include <algorithm>
#include <sstream>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "energy/energy_controller.hpp"

namespace chrysalis::core {

std::string
DeploymentReport::summary() const
{
    std::ostringstream os;
    os << "Deployment study: " << requests.size() << " requests, "
       << format_percent(completion_rate) << " completed, "
       << format_percent(deadline_rate) << " within deadline, "
       << format_si(total_harvested_j, "J") << " harvested.\n";
    for (std::size_t day = 0; day < days.size(); ++day) {
        const DayStats& stats = days[day];
        os << "  day " << day << ": " << stats.completed << "/"
           << stats.requests << " completed, " << stats.deadline_met
           << " on time";
        if (stats.completed > 0)
            os << ", mean latency "
               << format_si(stats.mean_latency_s, "s");
        os << ", harvested " << format_si(stats.harvested_j, "J")
           << "\n";
    }
    return os.str();
}

DeploymentReport
simulate_deployment(const AuTSolution& solution,
                    const energy::SolarEnvironment& environment,
                    const energy::PowerManagementIc::Config& pmic,
                    const DeploymentConfig& config)
{
    if (config.days < 1)
        fatal("simulate_deployment: days must be >= 1");
    if (config.request_interval_s <= 0.0)
        fatal("simulate_deployment: request interval must be > 0");
    if (!solution.feasible)
        fatal("simulate_deployment: solution must be feasible");

    constexpr double kDay = 24.0 * 3600.0;

    // Build the concrete energy subsystem once; state persists for the
    // whole study.
    energy::Capacitor::Config cap_config;
    cap_config.capacitance_f = solution.hardware.capacitance_f;
    cap_config.initial_voltage_v = 0.0;  // deployed empty
    energy::EnergyController controller(
        energy::SolarPanel(
            solution.hardware.solar_cm2,
            std::shared_ptr<const energy::SolarEnvironment>(
                environment.clone())),
        energy::Capacitor(cap_config), energy::PowerManagementIc(pmic));

    DeploymentReport report;
    report.days.resize(static_cast<std::size_t>(config.days));

    // Advances the controller (load off) through idle periods so the
    // node keeps harvesting between requests and overnight.
    double sim_clock = 0.0;
    const auto idle_until = [&](double target) {
        constexpr double kIdleStep = 5.0;
        while (sim_clock < target) {
            const double dt = std::min(kIdleStep, target - sim_clock);
            controller.step(sim_clock, dt, 0.0);
            sim_clock += dt;
        }
    };

    double busy_until = 0.0;
    const double study_end = config.days * kDay;
    int issued = 0;
    std::uint64_t request_index = 0;
    double last_harvest_snapshot = 0.0;
    for (double issue = config.first_request_s; issue < study_end;
         issue += config.request_interval_s, ++request_index) {
        RequestOutcome outcome;
        outcome.issue_time_s = issue;
        const auto day = static_cast<std::size_t>(issue / kDay);
        ++report.days[day].requests;
        ++issued;

        if (issue < busy_until) {
            // Previous inference still running: skip this request.
            report.requests.push_back(outcome);
            continue;
        }
        idle_until(issue);
        outcome.attempted = true;

        sim::SimConfig sim_config = config.sim;
        sim_config.start_time_s = issue;
        sim_config.max_sim_time_s = config.request_interval_s;
        sim_config.seed = config.sim.seed + request_index;
        const sim::SimResult result =
            sim::simulate_inference(solution.cost, controller,
                                    sim_config);
        sim_clock = issue + result.latency_s;
        const double harvested_so_far =
            controller.ledger().harvested_j;
        report.days[day].harvested_j +=
            harvested_so_far - last_harvest_snapshot;
        last_harvest_snapshot = harvested_so_far;
        if (result.completed) {
            outcome.completed = true;
            outcome.latency_s = result.latency_s;
            outcome.met_deadline =
                result.latency_s <= config.deadline_s;
            busy_until = issue + result.latency_s;
            ++report.days[day].completed;
            report.days[day].deadline_met +=
                outcome.met_deadline ? 1 : 0;
            report.days[day].mean_latency_s += result.latency_s;
        } else {
            // Abandoned at the interval boundary; the node is free again.
            busy_until = issue + config.request_interval_s;
        }
        report.requests.push_back(outcome);
    }

    report.total_harvested_j = controller.ledger().harvested_j;

    int completed = 0, on_time = 0;
    for (const auto& outcome : report.requests) {
        completed += outcome.completed ? 1 : 0;
        on_time += outcome.met_deadline ? 1 : 0;
    }
    report.completion_rate =
        issued > 0 ? static_cast<double>(completed) / issued : 0.0;
    report.deadline_rate =
        issued > 0 ? static_cast<double>(on_time) / issued : 0.0;
    for (auto& day : report.days) {
        if (day.completed > 0)
            day.mean_latency_s /= day.completed;
    }
    return report;
}

}  // namespace chrysalis::core
