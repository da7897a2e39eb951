#include "common/math_utils.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace chrysalis {

std::vector<std::int64_t>
divisors(std::int64_t n)
{
    if (n < 1)
        panic("divisors: n must be >= 1, got ", n);
    std::vector<std::int64_t> low, high;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            low.push_back(d);
            if (d != n / d)
                high.push_back(n / d);
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

bool
approx_equal(double a, double b, double tol)
{
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tol * scale;
}

double
lerp(double a, double b, double t)
{
    return a + (b - a) * t;
}

SummaryStats
summarize(const std::vector<double>& samples)
{
    SummaryStats stats;
    stats.count = samples.size();
    if (samples.empty())
        return stats;

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    stats.min = sorted.front();
    stats.max = sorted.back();
    const std::size_t n = sorted.size();
    stats.median = (n % 2 == 1)
        ? sorted[n / 2]
        : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);

    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    stats.mean = sum / static_cast<double>(n);

    double sq = 0.0;
    for (double v : sorted) {
        const double d = v - stats.mean;
        sq += d * d;
    }
    stats.stddev = std::sqrt(sq / static_cast<double>(n));
    return stats;
}

double
geometric_mean(const std::vector<double>& samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : samples) {
        if (v <= 0.0)
            panic("geometric_mean: non-positive sample ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

double
relative_improvement(double baseline, double candidate)
{
    if (baseline <= 0.0)
        panic("relative_improvement: baseline must be > 0, got ", baseline);
    return (baseline - candidate) / baseline;
}

}  // namespace chrysalis
