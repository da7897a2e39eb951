/// \file
/// Command-line front end for CHRYSALIS: run the full usage model of
/// Fig. 3 from the shell, on zoo workloads or user model files.
///
/// Usage:
///   chrysalis_cli serve [serve options]   run the evaluation daemon
///   chrysalis_cli call [call options]     send one serve-v1 request
///   chrysalis_cli campaign [options]      run an n-case campaign
///                                         (objectives cycle
///                                         latsp/lat/sp) and print the
///                                         campaign CSV
///   chrysalis_cli [options]               search one design
///
/// Options of both the campaign and the single-design search:
///     --model <zoo-name|path.model>   workload (default: kws). A path is
///                                     parsed with dnn::load_model.
///     --space <existing|future>       design space (default: existing)
///     --sp-limit <cm2>                panel budget for the lat objective
///     --lat-limit <s>                 deadline for the sp objective
///     --population <n> --generations <n>   GA budget
///     --seed <n>                      search seed
///     --bright <W/cm2> --dark <W/cm2> environment coefficients
///     --fault-dropout <p>             harvester dropout probability
///     --fault-age <years>             capacitor mission age
///     --fault-ckpt <p>                checkpoint corruption rate
///     --validate                      step-simulate the chosen design
///                                     (campaign: the first feasible case)
///     --metrics-out <file>            write a metrics JSON report
///     --trace-out <file>              write a Chrome trace-event JSON
///
/// Single-design search only:
///     --objective <lat|sp|latsp>      objective pi (default: latsp)
///     --pareto                        run NSGA-II and print the front
///     --csv                           machine-readable summary line
///
/// Campaign only:
///     --cases <n>                     number of cases (default: 6)
///     --threads <n>                   case fan-out (0 = all); each
///                                     case's search runs serially, so
///                                     the output is the same at any n
///     --journal <file>                resume journal (JSONL)
///     --deterministic                 drop the wall_time_s CSV column and
///                                     zero journal wall times
///
/// Options also accept the --key=value form.
///
/// Examples:
///   chrysalis_cli --model har --objective sp --lat-limit 30
///   chrysalis_cli --model my_net.model --space future --pareto
///   chrysalis_cli campaign --cases 6 --fault-dropout 0.3
///       --metrics-out metrics.json --trace-out trace.json

#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_io.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/optimizer.hpp"
#include "serve/daemon.hpp"

namespace {

using namespace chrysalis;

/// What the campaign and the single-design search both read: the
/// campaign spec's result-shaping fields, --validate and the report
/// files.
struct SharedOptions {
    core::CampaignSpec spec;
    bool validate = false;
    std::string metrics_out;
    std::string trace_out;
};

struct CliOptions {
    SharedOptions shared;
    std::string objective = "latsp";
    bool pareto = false;
    bool csv = false;
};

/// Parses \p arg, taking its value from \p next, when it is one of the
/// flags in SharedOptions; false for any other flag.
bool
parse_shared_flag(const std::string& arg,
                  const std::function<std::string()>& next,
                  SharedOptions& options)
{
    core::CampaignSpec& spec = options.spec;
    if (arg == "--model") {
        spec.model = next();
    } else if (arg == "--space") {
        spec.space = next();
    } else if (arg == "--sp-limit") {
        spec.sp_limit_cm2 = parse_double_flag(arg, next());
    } else if (arg == "--lat-limit") {
        spec.lat_limit_s = parse_double_flag(arg, next());
    } else if (arg == "--population") {
        spec.population = parse_int_flag(arg, next());
    } else if (arg == "--generations") {
        spec.generations = parse_int_flag(arg, next());
    } else if (arg == "--seed") {
        spec.seed = parse_uint64_flag(arg, next());
    } else if (arg == "--bright") {
        spec.bright_w_cm2 = parse_double_flag(arg, next());
    } else if (arg == "--dark") {
        spec.dark_w_cm2 = parse_double_flag(arg, next());
    } else if (arg == "--fault-dropout") {
        spec.fault_dropout = parse_double_flag(arg, next());
    } else if (arg == "--fault-age") {
        spec.fault_age_years = parse_double_flag(arg, next());
    } else if (arg == "--fault-ckpt") {
        spec.fault_ckpt = parse_double_flag(arg, next());
    } else if (arg == "--validate") {
        options.validate = true;
    } else if (arg == "--metrics-out") {
        options.metrics_out = next();
    } else if (arg == "--trace-out") {
        options.trace_out = next();
    } else {
        return false;
    }
    return true;
}

/// Prints the flag mode's usage to \p out: stdout for --help, stderr
/// on a usage error, so the text never lands in redirected output.
void
usage(std::FILE* out, const char* argv0)
{
    std::fprintf(
        out,
        "usage: %s [--model <zoo|file.model>] [--space existing|future]\n"
        "          [--objective lat|sp|latsp] [--sp-limit cm2]\n"
        "          [--lat-limit s] [--population n] [--generations n]\n"
        "          [--seed n] [--bright W/cm2] [--dark W/cm2]\n"
        "          [--pareto] [--validate] [--csv]\n"
        "          [--metrics-out file] [--trace-out file]\n"
        "          [--fault-dropout p] [--fault-age years]\n"
        "          [--fault-ckpt p]\n"
        "       %s campaign --help | serve --help | call --help\n",
        argv0, argv0);
}

/// Parses the flag mode's arguments into \p options. Returns the exit
/// code when there is nothing to run: 0 after `--help`, 2 after an
/// unknown option.
std::optional<int>
parse_args(int argc, char** argv, CliOptions& options)
{
    for (int i = 1; i < argc; ++i) {
        std::string inline_value;
        bool has_inline = false;
        const std::string arg =
            split_flag(argv[i], inline_value, has_inline);
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (parse_shared_flag(arg, next, options.shared))
            continue;
        if (arg == "--objective") {
            options.objective = next();
        } else if (arg == "--pareto") {
            options.pareto = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout, argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(stderr, argv[0]);
            return 2;
        }
    }
    options.shared.spec.validate();
    if (options.pareto &&
        options.shared.spec.population < search::kMinNsga2Population) {
        fatal("--pareto: population must be >= ",
              search::kMinNsga2Population, " (NSGA-II), got ",
              options.shared.spec.population);
    }
    return std::nullopt;
}

dnn::Model
resolve_model(const std::string& spec)
{
    if (spec.find('.') != std::string::npos ||
        spec.find('/') != std::string::npos) {
        return dnn::load_model(spec);
    }
    return dnn::make_model(spec);
}

/// Runs \p work with the sinks that --metrics-out / --trace-out ask for
/// attached, then detaches them (quiescent) and writes the reports.
int
run_with_reports(const SharedOptions& options,
                 const std::function<int()>& work)
{
    obs::MetricsRegistry registry;
    obs::TraceSession trace_session;
    if (!options.metrics_out.empty())
        obs::attach_metrics(&registry);
    if (!options.trace_out.empty())
        obs::attach_trace(&trace_session);

    const int exit_code = work();

    obs::attach_metrics(nullptr);
    obs::attach_trace(nullptr);
    if (!options.metrics_out.empty())
        registry.write_json_file(options.metrics_out);
    if (!options.trace_out.empty())
        trace_session.write_chrome_trace_file(options.trace_out);
    return exit_code;
}

int
run_cli(const CliOptions& options)
{
    const core::CampaignSpec& spec = options.shared.spec;
    std::unique_ptr<fault::FaultInjector> faults;
    core::ChrysalisInputs inputs{
        resolve_model(spec.model),
        to_lower(spec.space) == "future"
            ? search::DesignSpace::future_aut()
            : search::DesignSpace::existing_aut(),
        core::campaign_objective(spec, options.objective),
        core::build_explorer_options(spec, faults),
    };
    const core::Chrysalis tool(std::move(inputs));

    if (options.pareto) {
        const search::BiLevelExplorer explorer(
            tool.inputs().model, tool.inputs().space,
            tool.inputs().objective, tool.inputs().options);
        const auto front = explorer.explore_pareto();
        std::printf("sp_cm2,latency_s,capacitance_f,n_pe,cache_bytes\n");
        for (const auto& design : front) {
            std::printf("%.3f,%.6f,%.3e,%lld,%lld\n",
                        design.candidate.solar_cm2,
                        design.mean_latency_s,
                        design.candidate.capacitance_f,
                        static_cast<long long>(design.candidate.n_pe),
                        static_cast<long long>(
                            design.candidate.cache_bytes));
        }
        return front.empty() ? 1 : 0;
    }

    const core::AuTSolution solution = tool.generate();
    if (!solution.feasible) {
        std::fprintf(stderr, "no feasible design found\n");
        return 1;
    }

    if (options.csv) {
        std::printf("model,objective,sp_cm2,capacitance_f,n_pe,"
                    "cache_bytes,latency_s,lat_sp,score,evaluations\n");
        std::printf("%s,%s,%.3f,%.3e,%lld,%lld,%.6f,%.4f,%.6f,%d\n",
                    tool.inputs().model.name().c_str(),
                    to_string(tool.inputs().objective.kind).c_str(),
                    solution.hardware.solar_cm2,
                    solution.hardware.capacitance_f,
                    static_cast<long long>(solution.hardware.n_pe),
                    static_cast<long long>(solution.hardware.cache_bytes),
                    solution.mean_latency_s, solution.lat_sp,
                    solution.score, solution.evaluations);
    } else {
        std::printf("%s\n",
                    solution.describe(tool.inputs().model).c_str());
    }

    if (options.shared.validate) {
        const auto validation =
            tool.validate(solution, spec.bright_w_cm2);
        if (!validation.sim.completed) {
            std::fprintf(stderr, "validation failed: %s\n",
                         validation.sim.failure.message().c_str());
            return 1;
        }
        std::printf("validated: sim %s vs analytic %s (error %s)\n",
                    format_si(validation.mean_sim_latency_s, "s").c_str(),
                    format_si(validation.analytic_latency_s, "s").c_str(),
                    format_percent(validation.relative_error).c_str());
    }
    return 0;
}

// ---- `campaign` subcommand -----------------------------------------------

/// Prints the campaign subcommand's usage to \p out, as usage() does.
void
campaign_usage(std::FILE* out, const char* argv0)
{
    std::fprintf(
        out,
        "usage: %s campaign [--model <zoo|file.model>]\n"
        "          [--space existing|future]\n"
        "          [--cases n] [--sp-limit cm2] [--lat-limit s]\n"
        "          [--population n] [--generations n] [--seed n]\n"
        "          [--bright W/cm2] [--dark W/cm2]\n"
        "          [--fault-dropout p] [--fault-age years]\n"
        "          [--fault-ckpt p] [--journal file]\n"
        "          [--threads n] [--deterministic] [--validate]\n"
        "          [--metrics-out file] [--trace-out file]\n"
        "Runs a campaign (objectives cycling latsp/lat/sp) and prints\n"
        "the campaign CSV. --threads fans the cases out (each case's\n"
        "search runs serially), so the output is identical at any\n"
        "value. --deterministic drops the wall_time_s CSV column and\n"
        "zeroes journal wall times, making the CSV and the sorted\n"
        "--journal byte-identical across runs and thread counts.\n"
        "--validate replays the first feasible case on the step\n"
        "simulator.\n",
        argv0);
}

/// Replays the first feasible entry of \p result on the step simulator
/// in the brighter environment and prints one `# validated` line; one
/// replay covers the simulator counters.
void
validate_first_feasible(const core::CampaignResult& result,
                        const std::vector<core::CampaignCase>& cases,
                        const search::ExplorerOptions& base,
                        double bright_w_cm2)
{
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
        const auto& entry = result.entries[i];
        if (!entry.solution.feasible)
            continue;
        const core::Chrysalis case_tool(core::ChrysalisInputs{
            cases[i].model, cases[i].space, cases[i].objective, base});
        const auto validation =
            case_tool.validate(entry.solution, bright_w_cm2);
        std::printf("# validated %s: sim %s vs analytic %s (error %s)\n",
                    entry.label.c_str(),
                    format_si(validation.mean_sim_latency_s, "s").c_str(),
                    format_si(validation.analytic_latency_s, "s").c_str(),
                    format_percent(validation.relative_error).c_str());
        return;
    }
}

int
run_campaign_cli(int argc, char** argv, int first)
{
    SharedOptions shared;
    std::string journal;
    int threads = 1;
    bool deterministic = false;
    for (int i = first; i < argc; ++i) {
        std::string inline_value;
        bool has_inline = false;
        const std::string arg =
            split_flag(argv[i], inline_value, has_inline);
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (parse_shared_flag(arg, next, shared))
            continue;
        if (arg == "--help" || arg == "-h") {
            campaign_usage(stdout, argv[0]);
            return 0;
        } else if (arg == "--cases") {
            shared.spec.cases = parse_int_flag(arg, next());
        } else if (arg == "--journal") {
            journal = next();
        } else if (arg == "--threads") {
            threads = parse_int_flag(arg, next());
        } else if (arg == "--deterministic") {
            deterministic = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            campaign_usage(stderr, argv[0]);
            return 2;
        }
    }
    const core::CampaignSpec& spec = shared.spec;
    spec.validate();

    return run_with_reports(shared, [&] {
        const dnn::Model model = resolve_model(spec.model);
        const std::vector<core::CampaignCase> cases =
            core::build_campaign_cases(spec, model);
        std::unique_ptr<fault::FaultInjector> faults;
        const search::ExplorerOptions base =
            core::build_explorer_options(spec, faults);
        core::CampaignOptions campaign_options;
        campaign_options.threads = threads;
        campaign_options.journal_path = journal;
        campaign_options.deterministic_journal = deterministic;
        const core::CampaignResult result =
            core::run_campaign(cases, base, campaign_options);
        result.write_csv(std::cout, deterministic
                                        ? core::CsvColumns::kDeterministic
                                        : core::CsvColumns::kAll);
        if (shared.validate)
            validate_first_feasible(result, cases, base, spec.bright_w_cm2);

        for (const auto& entry : result.entries) {
            if (entry.solution.feasible)
                return 0;
        }
        return 1;
    });
}

}  // namespace

int
main(int argc, char** argv)
{
    // Subcommands: `serve` runs the evaluation daemon, `call` sends one
    // chrysalis-serve-v1 request, `campaign` runs a campaign. Everything
    // else is the flag-driven single-design search.
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serve::run_serve_cli(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "call") == 0)
        return serve::run_call_cli(argc, argv, 2);
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
        return run_campaign_cli(argc, argv, 2);

    CliOptions options;
    if (const std::optional<int> exit_code = parse_args(argc, argv, options))
        return *exit_code;
    // The observability sinks outlive all the work: attached before any
    // search runs, detached before the reports are written.
    return run_with_reports(options.shared,
                            [&] { return run_cli(options); });
}
