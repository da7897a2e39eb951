#include "search/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace chrysalis::search {

namespace {

void
check_inputs(int gene_count, const OptimizerOptions& opts,
             int min_population)
{
    if (gene_count < 1)
        fatal("optimizer: gene_count must be >= 1, got ", gene_count);
    if (opts.population < min_population)
        fatal("optimizer: population must be >= ", min_population,
              ", got ", opts.population);
    if (opts.generations < 1)
        fatal("optimizer: generations must be >= 1, got ", opts.generations);
    if (opts.threads < 0)
        fatal("optimizer: threads must be >= 0, got ", opts.threads);
}

std::vector<double>
random_genes(Rng& rng, int gene_count)
{
    std::vector<double> genes(static_cast<std::size_t>(gene_count));
    for (auto& gene : genes)
        gene = rng.uniform();
    return genes;
}

/// The first GA or NSGA-II population: warm-start seeds first, then
/// random fill. All genomes are drawn before the batch is scored; the
/// fitness never touches the RNG, so the stream matches an interleaved
/// draw-evaluate loop exactly.
std::vector<std::vector<double>>
initial_genomes(Rng& rng, int gene_count, const OptimizerOptions& opts)
{
    std::vector<std::vector<double>> genomes;
    genomes.reserve(static_cast<std::size_t>(opts.population));
    for (std::size_t i = 0; i < static_cast<std::size_t>(opts.population);
         ++i) {
        if (i >= opts.seed_genes.size()) {
            genomes.push_back(random_genes(rng, gene_count));
        } else if (opts.seed_genes[i].size() ==
                   static_cast<std::size_t>(gene_count)) {
            genomes.push_back(opts.seed_genes[i]);
        } else {
            fatal("optimizer: seed individual has ",
                  opts.seed_genes[i].size(), " genes, expected ",
                  gene_count);
        }
    }
    return genomes;
}

/// Scores one pre-drawn genome batch on the pool, counts it in the
/// result's evaluations and returns the batch's points in order.
///
/// Determinism: evaluation indices are assigned before the batch runs
/// (serial evaluation order), the fitness calls are free to complete in
/// any thread order, and the points are built strictly in index order
/// afterwards, so any thread count produces the serial result.
template <typename Point, typename Result, typename Fitness>
std::vector<Point>
score_batch(runtime::ThreadPool& pool, const Fitness& fitness,
            std::vector<std::vector<double>> genomes, Result& result)
{
    const auto base = static_cast<std::size_t>(result.evaluations);
    const auto values = pool.parallel_map(
        genomes.size(),
        [&](std::size_t i) { return fitness(base + i, genomes[i]); });
    std::vector<Point> points;
    points.reserve(genomes.size());
    for (std::size_t i = 0; i < genomes.size(); ++i)
        points.push_back({std::move(genomes[i]), values[i], base + i});
    result.evaluations += static_cast<int>(genomes.size());
    return points;
}

/// Uniform crossover: each gene comes from \p other with probability 1/2.
void
crossover(Rng& rng, std::vector<double>& genes,
          const std::vector<double>& other)
{
    for (std::size_t g = 0; g < genes.size(); ++g) {
        if (rng.bernoulli(0.5))
            genes[g] = other[g];
    }
}

/// Gaussian mutation, clamped to [0, 1].
void
mutate(Rng& rng, std::vector<double>& genes)
{
    for (auto& gene : genes) {
        if (rng.bernoulli(kMutationRate))
            gene = clamp(gene + rng.gaussian(0.0, kMutationSigma), 0.0, 1.0);
    }
}

bool
lower_score(const EvaluatedPoint& a, const EvaluatedPoint& b)
{
    return a.score < b.score;
}

/// Sets the result's best to the first lowest score of \p points.
void
take_best(const std::vector<EvaluatedPoint>& points, OptimizeResult& result)
{
    const auto best =
        std::min_element(points.begin(), points.end(), lower_score);
    result.best_genes = best->genes;
    result.best_score = best->score;
}

OptimizeResult
optimize_genetic(int gene_count, const OptimizerOptions& opts,
                 const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts, kMinGaPopulation);
    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    OptimizeResult result;
    std::vector<EvaluatedPoint> population;

    // Per-generation fitness summary. Scores are reduced in index order
    // (see score_batch), so these observations are schedule-invariant
    // and the histograms land in the stable report section.
    const auto publish_generation = [&population] {
        obs::MetricsRegistry* registry = obs::metrics();
        if (registry == nullptr || population.empty())
            return;
        registry->counter("search/ga/generations").add(1);
        double best = population.front().score;
        double sum = 0.0;
        for (const auto& individual : population) {
            best = std::min(best, individual.score);
            sum += individual.score;
        }
        registry
            ->histogram("search/ga/gen_best_score", obs::decade_bounds())
            .record(best);
        registry
            ->histogram("search/ga/gen_mean_score", obs::decade_bounds())
            .record(sum / static_cast<double>(population.size()));
    };

    {
        OBS_SPAN("ga/generation");
        population = score_batch<EvaluatedPoint>(
            pool, fitness, initial_genomes(rng, gene_count, opts), result);
        publish_generation();
    }

    const auto tournament = [&]() -> const EvaluatedPoint& {
        const EvaluatedPoint* best = nullptr;
        for (int i = 0; i < kTournamentSize; ++i) {
            const auto& contender = population[static_cast<std::size_t>(
                rng.uniform_int(0, opts.population - 1))];
            if (best == nullptr || contender.score < best->score)
                best = &contender;
        }
        return *best;
    };

    const auto elite = static_cast<std::size_t>(kElitism);
    for (int gen = 1; gen < opts.generations; ++gen) {
        OBS_SPAN("ga/generation");
        std::sort(population.begin(), population.end(), lower_score);

        // Variation draws all offspring genomes serially (selection only
        // needs the already-scored parent population), then the batch is
        // scored in parallel. Both parents are drawn before the
        // crossover coin.
        std::vector<std::vector<double>> offspring;
        offspring.reserve(population.size() - elite);
        while (elite + offspring.size() < population.size()) {
            const EvaluatedPoint& parent_a = tournament();
            const EvaluatedPoint& parent_b = tournament();
            std::vector<double> genes = parent_a.genes;
            if (rng.bernoulli(kCrossoverRate))
                crossover(rng, genes, parent_b.genes);
            mutate(rng, genes);
            offspring.push_back(std::move(genes));
        }
        // The elite carries over unchanged, without re-evaluation.
        population.resize(elite);
        for (auto& child : score_batch<EvaluatedPoint>(
                 pool, fitness, std::move(offspring), result))
            population.push_back(std::move(child));
        publish_generation();
    }

    // The elite carries the lowest score seen into every generation, so
    // the final population holds the run's best.
    take_best(population, result);
    return result;
}

OptimizeResult
optimize_random(int gene_count, const OptimizerOptions& opts,
                const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts, kMinGaPopulation);
    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    const int budget = opts.population * opts.generations;

    std::vector<std::vector<double>> genomes;
    genomes.reserve(static_cast<std::size_t>(budget));
    for (int i = 0; i < budget; ++i)
        genomes.push_back(random_genes(rng, gene_count));
    OptimizeResult result;
    const auto points = score_batch<EvaluatedPoint>(
        pool, fitness, std::move(genomes), result);
    take_best(points, result);
    return result;
}

OptimizeResult
optimize_grid(int gene_count, const OptimizerOptions& opts,
              const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts, kMinGaPopulation);
    runtime::ThreadPool pool(opts.threads);
    const int budget = opts.population * opts.generations;
    const int resolution = std::max(
        2, static_cast<int>(std::floor(std::pow(
               static_cast<double>(budget),
               1.0 / static_cast<double>(gene_count)))));

    std::vector<std::vector<double>> genomes;
    std::vector<int> index(static_cast<std::size_t>(gene_count), 0);
    while (true) {
        std::vector<double> genes(static_cast<std::size_t>(gene_count));
        for (std::size_t g = 0; g < genes.size(); ++g) {
            genes[g] = static_cast<double>(index[g]) /
                       static_cast<double>(resolution - 1);
        }
        genomes.push_back(std::move(genes));
        // Odometer increment.
        std::size_t g = 0;
        while (g < index.size()) {
            if (++index[g] < resolution)
                break;
            index[g] = 0;
            ++g;
        }
        if (g == index.size())
            break;
    }

    OptimizeResult result;
    const auto points = score_batch<EvaluatedPoint>(
        pool, fitness, std::move(genomes), result);
    take_best(points, result);
    return result;
}

}  // namespace

std::string
to_string(OptimizerStrategy strategy)
{
    switch (strategy) {
      case OptimizerStrategy::kGenetic: return "ga";
      case OptimizerStrategy::kRandom: return "random";
      case OptimizerStrategy::kGrid: return "grid";
    }
    return "?";
}

OptimizeResult
optimize(OptimizerStrategy strategy, int gene_count,
         const OptimizerOptions& opts, const IndexedFitnessFn& fitness)
{
    switch (strategy) {
      case OptimizerStrategy::kGenetic:
        return optimize_genetic(gene_count, opts, fitness);
      case OptimizerStrategy::kRandom:
        return optimize_random(gene_count, opts, fitness);
      case OptimizerStrategy::kGrid:
        return optimize_grid(gene_count, opts, fitness);
    }
    panic("optimize: invalid strategy");
}

bool
bi_dominates(const std::array<double, 2>& a, const std::array<double, 2>& b)
{
    return a[0] <= b[0] && a[1] <= b[1] &&
           (a[0] < b[0] || a[1] < b[1]);
}

std::vector<int>
non_dominated_ranks(const std::vector<std::array<double, 2>>& objectives)
{
    const std::size_t n = objectives.size();
    std::vector<int> ranks(n, -1);
    std::vector<int> domination_count(n, 0);
    std::vector<std::vector<std::size_t>> dominated(n);

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (bi_dominates(objectives[i], objectives[j])) {
                dominated[i].push_back(j);
                ++domination_count[j];
            } else if (bi_dominates(objectives[j], objectives[i])) {
                dominated[j].push_back(i);
                ++domination_count[i];
            }
        }
    }

    std::vector<std::size_t> current;
    for (std::size_t i = 0; i < n; ++i) {
        if (domination_count[i] == 0) {
            ranks[i] = 0;
            current.push_back(i);
        }
    }
    int rank = 0;
    while (!current.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t i : current) {
            for (std::size_t j : dominated[i]) {
                if (--domination_count[j] == 0) {
                    ranks[j] = rank + 1;
                    next.push_back(j);
                }
            }
        }
        current = std::move(next);
        ++rank;
    }
    return ranks;
}

std::vector<double>
crowding_distances(const std::vector<std::array<double, 2>>& objectives)
{
    const std::size_t n = objectives.size();
    std::vector<double> distance(n, 0.0);
    if (n <= 2) {
        std::fill(distance.begin(), distance.end(),
                  std::numeric_limits<double>::infinity());
        return distance;
    }
    for (int objective = 0; objective < 2; ++objective) {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return objectives[a][static_cast<std::size_t>(
                                 objective)] <
                             objectives[b][static_cast<std::size_t>(
                                 objective)];
                  });
        const double span =
            objectives[order.back()][static_cast<std::size_t>(objective)] -
            objectives[order.front()][static_cast<std::size_t>(objective)];
        distance[order.front()] =
            std::numeric_limits<double>::infinity();
        distance[order.back()] = std::numeric_limits<double>::infinity();
        if (span <= 0.0)
            continue;
        for (std::size_t k = 1; k + 1 < n; ++k) {
            const double gap =
                objectives[order[k + 1]][static_cast<std::size_t>(
                    objective)] -
                objectives[order[k - 1]][static_cast<std::size_t>(
                    objective)];
            distance[order[k]] += gap / span;
        }
    }
    return distance;
}

Nsga2Result
optimize_nsga2(int gene_count, const OptimizerOptions& opts,
               const IndexedBiFitnessFn& fitness)
{
    check_inputs(gene_count, opts, kMinNsga2Population);
    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    Nsga2Result result;

    struct Individual {
        BiEvaluatedPoint point;
        int rank = 0;
        double crowding = 0.0;
    };
    const auto add_scored = [&](std::vector<Individual>& group,
                                std::vector<std::vector<double>> genomes) {
        for (auto& point : score_batch<BiEvaluatedPoint>(
                 pool, fitness, std::move(genomes), result))
            group.push_back({std::move(point), 0, 0.0});
    };

    std::vector<Individual> population;
    add_scored(population, initial_genomes(rng, gene_count, opts));

    const auto assign_ranks = [&](std::vector<Individual>& group) {
        std::vector<std::array<double, 2>> objectives;
        objectives.reserve(group.size());
        for (const auto& individual : group)
            objectives.push_back(individual.point.objectives);
        const auto ranks = non_dominated_ranks(objectives);
        for (std::size_t i = 0; i < group.size(); ++i)
            group[i].rank = ranks[i];
        // Crowding per front.
        int max_rank = 0;
        for (int rank : ranks)
            max_rank = std::max(max_rank, rank);
        for (int front = 0; front <= max_rank; ++front) {
            std::vector<std::size_t> members;
            std::vector<std::array<double, 2>> member_objectives;
            for (std::size_t i = 0; i < group.size(); ++i) {
                if (group[i].rank == front) {
                    members.push_back(i);
                    member_objectives.push_back(objectives[i]);
                }
            }
            const auto distances = crowding_distances(member_objectives);
            for (std::size_t k = 0; k < members.size(); ++k)
                group[members[k]].crowding = distances[k];
        }
    };
    assign_ranks(population);

    const auto better = [](const Individual& a, const Individual& b) {
        if (a.rank != b.rank)
            return a.rank < b.rank;
        return a.crowding > b.crowding;
    };
    const auto tournament = [&]() -> const Individual& {
        const auto& a = population[static_cast<std::size_t>(
            rng.uniform_int(0, opts.population - 1))];
        const auto& b = population[static_cast<std::size_t>(
            rng.uniform_int(0, opts.population - 1))];
        return better(a, b) ? a : b;
    };

    for (int gen = 1; gen < opts.generations; ++gen) {
        OBS_SPAN("nsga2/generation");
        if (obs::MetricsRegistry* registry = obs::metrics())
            registry->counter("search/nsga2/generations").add(1);
        // Offspring genomes are drawn serially (variation only reads the
        // scored parent population), then scored as one batch. The
        // second parent is drawn only when the crossover coin lands.
        std::vector<std::vector<double>> offspring;
        offspring.reserve(population.size());
        while (offspring.size() < population.size()) {
            std::vector<double> genes = tournament().point.genes;
            if (rng.bernoulli(kCrossoverRate))
                crossover(rng, genes, tournament().point.genes);
            mutate(rng, genes);
            offspring.push_back(std::move(genes));
        }

        // Environmental selection from the combined pool.
        std::vector<Individual> combined = std::move(population);
        add_scored(combined, std::move(offspring));
        assign_ranks(combined);
        std::sort(combined.begin(), combined.end(), better);
        combined.resize(static_cast<std::size_t>(opts.population));
        population = std::move(combined);
        assign_ranks(population);
    }

    // Extract the final front, sorted by the first objective.
    for (auto& individual : population) {
        if (individual.rank == 0)
            result.front.push_back(std::move(individual.point));
    }
    std::sort(result.front.begin(), result.front.end(),
              [](const BiEvaluatedPoint& a, const BiEvaluatedPoint& b) {
                  return a.objectives[0] < b.objectives[0];
              });
    return result;
}

}  // namespace chrysalis::search
