/// \file
/// Black-box optimizers over a normalized gene vector.
///
/// The HW-level optimizer of the CHRYSALIS Explorer ("implemented ... based
/// on the open-source library Optuna and ... a genetic algorithm", §III-D)
/// is reproduced as a tournament genetic algorithm with elitism, plus
/// random-search and grid-search strategies used as exploration baselines
/// and in ablation benches. Figure 6 positions designs on the (solar-panel
/// size, latency) tradeoff curve; optimize_nsga2() searches *for* that
/// front: fast non-dominated sorting, crowding-distance selection and the
/// GA's variation operators. Genes live in [0, 1]^n; the caller decodes
/// them into a design point.

#ifndef CHRYSALIS_SEARCH_OPTIMIZER_HPP
#define CHRYSALIS_SEARCH_OPTIMIZER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace chrysalis::search {

/// Fitness callback, lower is better; genes are in [0, 1]. It also
/// receives the deterministic evaluation index (0, 1, 2, ... in the
/// serial evaluation order). When `OptimizerOptions::threads
/// != 1` the optimizer invokes it concurrently from pool threads, so the
/// callback must be thread-safe; the index lets callers record side
/// products (e.g. fully evaluated designs) in an order independent of
/// thread scheduling.
using IndexedFitnessFn =
    std::function<double(std::size_t index, const std::vector<double>&)>;

/// Bi-objective fitness: returns {f1, f2}, both minimized, with the same
/// index and thread-safety contract as IndexedFitnessFn. Infeasible
/// points should return large values in both coordinates.
using IndexedBiFitnessFn = std::function<std::array<double, 2>(
    std::size_t index, const std::vector<double>&)>;

/// Variation operators shared by the GA and NSGA-II.
inline constexpr double kCrossoverRate = 0.7;  ///< per offspring
inline constexpr double kMutationRate = 0.3;   ///< per gene
inline constexpr double kMutationSigma = 0.15; ///< gaussian mutation step
/// GA selection: contenders per tournament, and individuals copied
/// unchanged into the next generation.
inline constexpr int kTournamentSize = 3;
inline constexpr int kElitism = 2;
/// Smallest population the GA, random and grid strategies accept: the
/// elite plus one offspring, and one tournament's worth of contenders.
inline constexpr int kMinGaPopulation = 3;
/// Smallest population optimize_nsga2() accepts: its environmental
/// selection needs a few points per front.
inline constexpr int kMinNsga2Population = 4;

/// Options shared by all optimizer strategies.
struct OptimizerOptions {
    int population = 24;       ///< GA population / batch size
    int generations = 16;      ///< GA generations (budget = pop * gens)
    std::uint64_t seed = 1;
    /// Fitness-evaluation parallelism: 0 = all hardware threads, 1 =
    /// strictly serial (the historical code path). Any value yields
    /// bit-identical results for a fixed seed: all RNG is drawn on the
    /// caller thread in serial order and batches reduce in index order.
    /// Only a memoized fitness's hit/miss split may differ (two equal
    /// candidates in one parallel batch can both miss, see EvalCache),
    /// which is why campaign cases force this to 1.
    int threads = 0;
    /// Warm-start individuals injected into the initial GA or NSGA-II
    /// population (e.g. the frozen-default design, so a search over a
    /// superset space never loses to its own subspace). Ignored by
    /// random/grid.
    std::vector<std::vector<double>> seed_genes;
};

/// One evaluated point.
struct EvaluatedPoint {
    std::vector<double> genes;
    double score = 0.0;
    std::size_t index = 0;  ///< evaluation index
};

/// Optimization outcome: the first lowest score of the final
/// population (GA) or of the one batch (random, grid).
struct OptimizeResult {
    std::vector<double> best_genes;
    double best_score = 0.0;
    int evaluations = 0;
};

/// Strategy selector.
enum class OptimizerStrategy { kGenetic, kRandom, kGrid };

/// Short label: "ga", "random", "grid".
std::string to_string(OptimizerStrategy strategy);

/// Runs one scalar strategy with the evaluation budget population *
/// generations. Fitness batches (the initial population, each
/// generation's offspring, the random sample, the grid) are scored on a
/// runtime::ThreadPool of `opts.threads` workers.
///   - kGenetic: tournament GA with uniform crossover, gaussian mutation
///     and elitism (the constants above), warm-started with seed_genes.
///   - kRandom: uniform random sampling of the whole budget.
///   - kGrid: full-factorial grid with per-dimension resolution chosen to
///     fit the budget (resolution = floor(budget^(1/n)), at least 2).
OptimizeResult optimize(OptimizerStrategy strategy, int gene_count,
                        const OptimizerOptions& opts,
                        const IndexedFitnessFn& fitness);

/// One evaluated point of a multi-objective run.
struct BiEvaluatedPoint {
    std::vector<double> genes;
    std::array<double, 2> objectives{0.0, 0.0};
    std::size_t index = 0;  ///< evaluation index
};

/// Result: the non-dominated set of the final population.
struct Nsga2Result {
    std::vector<BiEvaluatedPoint> front;  ///< non-dominated, sorted by f1
    int evaluations = 0;
};

/// Pareto dominance for minimization (strictly better in >= 1 coord).
bool bi_dominates(const std::array<double, 2>& a,
                  const std::array<double, 2>& b);

/// Fast non-dominated sort: returns the front index (0 = best) of each
/// point.
std::vector<int> non_dominated_ranks(
    const std::vector<std::array<double, 2>>& objectives);

/// Crowding distance within one front (same-index subset of points).
/// Boundary points get +infinity.
std::vector<double> crowding_distances(
    const std::vector<std::array<double, 2>>& objectives);

/// Runs the NSGA-II loop (population of at least kMinNsga2Population)
/// with the GA's budget, seeding, batch scoring and variation operators.
Nsga2Result optimize_nsga2(int gene_count, const OptimizerOptions& opts,
                           const IndexedBiFitnessFn& fitness);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_OPTIMIZER_HPP
