#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
// NOLINTNEXTLINE(chrysalis-include): CLOCK_MONOTONIC is the clock Python's time.monotonic() reads
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double
monotonic_s()
{
    timespec now{};
    clock_gettime(CLOCK_MONOTONIC, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

namespace {

double
timeval_s(const timeval& value)
{
    return static_cast<double>(value.tv_sec) +
           static_cast<double>(value.tv_usec) * 1e-6;
}

}  // namespace

double
process_cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

std::string
confine_to_last_cpus(int count)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) <= count)
        return {};
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    std::string list;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        CPU_SET(cpu, &chosen);
        list = std::to_string(cpu) + (list.empty() ? "" : "," + list);
        --count;
    }
    if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return list;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
calibration_s()
{
    // A serial multiply-add chain: no memory traffic, no branches the
    // predictor could learn differently from run to run.
    const Stopwatch watch;
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 40'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    volatile std::uint64_t sink = x;
    (void)sink;
    return watch.elapsed_s();
}

std::string
fmt17(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::uint64_t
digest(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
SplitMix::below(std::uint64_t n)
{
    return n == 0 ? 0 : next() % n;
}

std::vector<std::uint64_t>
digests(const std::vector<std::string>& outputs)
{
    std::vector<std::uint64_t> result;
    result.reserve(outputs.size());
    for (const auto& output : outputs)
        result.push_back(digest(output));
    return result;
}

bool
read_golden(const std::string& path, std::vector<std::uint64_t>& out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    out.clear();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        out.push_back(std::stoull(line, nullptr, 16));
    }
    return true;
}

void
write_golden(const std::string& path, const std::string& header,
             const std::vector<std::uint64_t>& digests)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write golden file " + path);
    out << "# " << header << '\n';
    for (const std::uint64_t value : digests) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(value));
        out << hex << '\n';
    }
}

std::uint64_t
count_mismatches(const std::vector<std::uint64_t>& actual,
                 const std::vector<std::uint64_t>& expected)
{
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (i >= expected.size() || actual[i] != expected[i])
            ++mismatches;
    }
    return mismatches;
}

}  // namespace perfbench
