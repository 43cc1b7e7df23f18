/**
 * @file
 * Order statistics for the benchmark: median, quartiles with the same
 * "exclusive" method as Python's statistics.quantiles(n=4), and the
 * reporting rule for timings — a median plus the highest percentile
 * that still has at least ten samples beyond it.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** First, second and third quartile, as statistics.quantiles(v, n=4)
 * (method "exclusive") computes them. Needs two samples. */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    }
    return q;
}

/** A percentile reported under the ten-samples-beyond rule. */
struct Tail {
    double percentile = 0; ///< e.g. 99
    double value = 0;
};

/** The percentiles a tail may be reported at, highest first. */
inline constexpr std::array<double, 6> kTailPercentiles = {
    99.99, 99.9, 99, 95, 90, 50};

/**
 * The highest percentile in kTailPercentiles that has at least ten of
 * @p v's samples above its rank (nearest-rank definition), with its
 * value; none when fewer than twenty samples exist.
 */
inline std::optional<Tail>
tail(std::vector<double> v)
{
    const double n = static_cast<double>(v.size());
    for (double p : kTailPercentiles) {
        const size_t rank =
            static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
        if (rank == 0 || v.size() - rank < 10)
            continue;
        std::sort(v.begin(), v.end());
        return Tail{p, v[rank - 1]};
    }
    return std::nullopt;
}

/** Value at nearest-rank percentile @p p (0 < p <= 100). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of no samples");
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
