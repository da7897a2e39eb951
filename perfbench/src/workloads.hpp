/// \file
/// The three workloads. Each one generates its inputs from the seed
/// alone, can print them (the seeded-generator test compares dumps),
/// can record its 1-thread golden digests, and runs measured passes.
///
///  - fig10: Figure 10 at the quick budget, one exploration at a time on
///    kComputeThreads evaluation threads (fig10.cpp).
///  - campaign_tableiv: core::run_campaign over the Table-IV networks on
///    the existing-AuT space, cases fanned out on kComputeThreads threads
///    (campaign.cpp).
///  - serve_mix: a closed loop of 2 blocking connections against an
///    in-process serve::Server with kComputeThreads eval threads
///    (serve_mix.cpp).

#ifndef CHRYSALIS_PERFBENCH_SRC_WORKLOADS_HPP
#define CHRYSALIS_PERFBENCH_SRC_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Workload {
    const char* name;
    /// Canonical text of the inputs generated from \p seed.
    std::string (*dump_inputs)(std::uint64_t seed);
    /// Computes the 1-thread reference digests and writes them under
    /// config.golden_dir.
    void (*record_golden)(const RunConfig& config);
    /// Set-up, measured passes and the output check.
    void (*run)(const RunConfig& config, RunResult& result);
};

extern const Workload kFig10;
extern const Workload kCampaignTableIv;
extern const Workload kServeMix;

/// The workload called \p name, or nullptr.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_WORKLOADS_HPP
