/// \file
/// Shared plumbing of chrysalis_perfbench: run configuration, the
/// per-run result record, clocks, resource usage, percentiles, output
/// digests and the seeded generator every workload draws its inputs
/// from.
///
/// Nothing here calls into the program; the workload runners
/// (fig10.cpp, campaign.cpp, serve_mix.cpp) and profile.cpp do.

#ifndef CHRYSALIS_PERFBENCH_SRC_COMMON_HPP
#define CHRYSALIS_PERFBENCH_SRC_COMMON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Compute threads every workload is allowed to keep busy.
inline constexpr int kComputeThreads = 2;

/// Seed that reproduces bench_fig10_swap_design (GA seed 10000 + cell).
inline constexpr std::uint64_t kDefaultSeed = 10000;

/// serve_mix key popularity: Zipf exponent over each request type's
/// universe. An assumption, not a measurement; see perfbench/README.md.
inline constexpr double kDefaultZipfExponent = 0.5;

/// Command-line configuration of one benchmark process.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;       ///< timed-phase budget of the run
    bool trace = false;          ///< per-layer (traced) run
    double zipf_exponent = kDefaultZipfExponent;  ///< serve_mix only
    bool setup_only = false;     ///< stop where the timed phase starts
    bool dump_inputs = false;    ///< print the generated inputs and exit
    bool record_golden = false;  ///< write 1-thread digests and exit
    std::string golden_dir = "perfbench/golden";
    std::string out_dir = ".bench_out";
};

/// Everything one run measured. Filled by a workload runner, turned
/// into the result line by main.cpp.
struct RunResult {
    /// CLOCK_MONOTONIC seconds when the first timed pass started.
    double timed_start_mono_s = 0.0;
    /// Load-generator work done before the timed phase (building the
    /// request stream and payloads); excluded from setup_s.
    double loadgen_s = 0.0;
    std::string op_name;            ///< "exploration", "case", "request"
    std::uint64_t ops_per_pass = 0;
    std::vector<double> pass_wall_s;    ///< untraced passes
    std::vector<double> pass_cpu_s;     ///< untraced passes
    std::vector<double> traced_wall_s;  ///< traced passes
    /// serve_mix: p50 and p99 of each untraced pass's round trips.
    std::vector<double> pass_latency_p50_s;
    std::vector<double> pass_latency_p99_s;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double peak_rss_mb = 0.0;
    /// Per-layer metrics of the traced run, by BENCHMARK.json name.
    std::map<std::string, double> layer;
    /// Human-readable report lines (printed before the result line).
    std::vector<std::string> notes;
};

/// CLOCK_MONOTONIC in seconds: the clock Python's time.monotonic()
/// reads, so run.py can time process launch to timed start.
double monotonic_s();

/// Wall-clock stopwatch on the monotonic clock.
class Stopwatch
{
  public:
    Stopwatch() : start_s_(monotonic_s()) {}
    double elapsed_s() const { return monotonic_s() - start_s_; }

  private:
    double start_s_;
};

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// Confines the process, and every thread it starts afterwards, to the
/// last \p count CPUs it may run on, and returns them as "2,3". On a
/// shared VM every vCPU that has to be woken adds host scheduling delay
/// (counted as steal), and the first vCPU also takes most interrupts;
/// see perfbench/README.md. Leaves the process as it is and returns ""
/// when it may run on no more than \p count CPUs.
std::string confine_to_last_cpus(int count);

/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

/// Median of \p values (mean of the middle two for even counts); 0 for
/// an empty vector.
double median(std::vector<double> values);

/// Nearest-rank percentile, \p q in [0, 1]; 0 for an empty vector.
double percentile(std::vector<double> values, double q);

/// Fixed-work spin loop; returns its duration in seconds. A host-speed
/// diagnostic printed beside the metrics, never used to normalize.
double calibration_s();

/// printf("%.17g"): round-trips a double exactly.
std::string fmt17(double value);

/// 64-bit FNV-1a digest of an op's output.
std::uint64_t digest(std::string_view bytes);

/// digest() of every output, in order.
std::vector<std::uint64_t> digests(const std::vector<std::string>& outputs);

/// splitmix64: the benchmark's own seeded generator, so the generated
/// inputs do not change when the program's RNG does.
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform double in [0, 1).
    double uniform();
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/// Reads a golden file: one digest per line as 16 hex digits, '#' lines
/// are comments. Returns false when the file does not exist.
bool read_golden(const std::string& path, std::vector<std::uint64_t>& out);

/// Writes a golden file with a comment header.
void write_golden(const std::string& path, const std::string& header,
                  const std::vector<std::uint64_t>& digests);

/// Compares \p actual with \p expected op by op; returns the number of
/// mismatches (a missing expected entry counts as one).
std::uint64_t count_mismatches(const std::vector<std::uint64_t>& actual,
                               const std::vector<std::uint64_t>& expected);

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_COMMON_HPP
