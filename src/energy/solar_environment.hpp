/// \file
/// Ambient-light environment models.
///
/// The paper consumes its pvlib-based solar model as a single coefficient
/// `k_eh` [W/cm^2] that is stable within one inference but varies across
/// inferences (sunlight changes little within ~5 minutes). A
/// SolarEnvironment produces that coefficient as a function of time; three
/// implementations cover the evaluation's needs: a constant environment
/// (the per-search "brighter"/"darker" presets), a diurnal clear-sky model
/// with cloud attenuation, and a Markov weather chain over that diurnal
/// base for multi-day deployment studies.

#ifndef CHRYSALIS_ENERGY_SOLAR_ENVIRONMENT_HPP
#define CHRYSALIS_ENERGY_SOLAR_ENVIRONMENT_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace chrysalis::energy {

/// Interface: ambient harvestable power density over time.
class SolarEnvironment
{
  public:
    virtual ~SolarEnvironment() = default;

    /// Harvestable power density k_eh at time \p t_s [W/cm^2]; >= 0.
    virtual double k_eh(double t_s) const = 0;

    /// Human-readable environment name for reports.
    virtual std::string name() const = 0;

    /// Deep copy (environments are value-like but used polymorphically).
    virtual std::unique_ptr<SolarEnvironment> clone() const = 0;
};

/// Time-invariant environment; used for the paper's two search
/// environments ("brighter" and "darker").
class ConstantSolarEnvironment final : public SolarEnvironment
{
  public:
    /// \param k_eh_w_per_cm2 constant power density [W/cm^2]; must be >= 0.
    /// \param label name used in reports.
    ConstantSolarEnvironment(double k_eh_w_per_cm2, std::string label);

    double k_eh(double t_s) const override;
    std::string name() const override { return label_; }
    std::unique_ptr<SolarEnvironment> clone() const override;

    /// The paper's bright outdoor search environment (~2 mW/cm^2).
    static ConstantSolarEnvironment brighter();
    /// The paper's dim/overcast search environment (~0.5 mW/cm^2).
    static ConstantSolarEnvironment darker();

  private:
    double k_eh_;
    std::string label_;
};

/// Diurnal clear-sky model: irradiance follows the cosine of the solar
/// zenith angle between sunrise and sunset, optionally modulated by a
/// deterministic cloud-attenuation signal. This substitutes for pvlib: the
/// downstream models only see the resulting k_eh(t) scalar.
class DiurnalSolarEnvironment final : public SolarEnvironment
{
  public:
    /// Configuration of the diurnal profile.
    struct Config {
        double peak_k_eh = 2.0e-3;    ///< noon power density [W/cm^2]
        double sunrise_s = 6 * 3600;  ///< sunrise, seconds after midnight
        double sunset_s = 18 * 3600;  ///< sunset, seconds after midnight
        double cloud_depth = 0.0;     ///< 0 = clear sky, 1 = full occlusion
        double cloud_period_s = 900;  ///< characteristic cloud time scale
        std::uint64_t seed = 42;      ///< seed for the cloud signal
    };

    explicit DiurnalSolarEnvironment(const Config& config);

    double k_eh(double t_s) const override;
    std::string name() const override { return "diurnal"; }
    std::unique_ptr<SolarEnvironment> clone() const override;

    const Config& config() const { return config_; }

  private:
    /// Smooth pseudo-random attenuation in [1 - cloud_depth, 1].
    double cloud_factor(double t_s) const;

    Config config_;
};

/// Multi-day weather model: a Markov chain over discrete weather states
/// (sunny / cloudy / overcast) modulating a diurnal clear-sky base.
/// State transitions are sampled deterministically per (seed, day, slot),
/// so the same configuration always yields the same weather history —
/// suitable for reproducible multi-day deployment studies.
class MarkovWeatherEnvironment final : public SolarEnvironment
{
  public:
    /// Weather states in decreasing light order.
    enum class Weather { kSunny = 0, kCloudy = 1, kOvercast = 2 };

    /// Configuration of the weather chain and diurnal base.
    struct Config {
        DiurnalSolarEnvironment::Config diurnal;  ///< clear-sky base
        double slot_s = 3600.0;     ///< weather persistence per slot
        /// Attenuation per state (fraction of clear-sky light).
        double sunny_factor = 1.0;
        double cloudy_factor = 0.45;
        double overcast_factor = 0.12;
        /// Row-stochastic transition matrix P[from][to].
        double transition[3][3] = {
            {0.80, 0.15, 0.05},
            {0.30, 0.50, 0.20},
            {0.10, 0.40, 0.50},
        };
        std::uint64_t seed = 7;
    };

    explicit MarkovWeatherEnvironment(const Config& config);

    double k_eh(double t_s) const override;
    std::string name() const override { return "markov-weather"; }
    std::unique_ptr<SolarEnvironment> clone() const override;

    /// The weather state governing time \p t_s.
    Weather weather_at(double t_s) const;

    const Config& config() const { return config_; }

  private:
    Config config_;
    DiurnalSolarEnvironment base_;
    /// Lazily extended per-slot state sequence (deterministic given the
    /// seed); mutable because k_eh() is logically const. Not
    /// thread-safe, like the rest of the simulation stack.
    mutable std::vector<int> state_cache_;
};

}  // namespace chrysalis::energy

#endif  // CHRYSALIS_ENERGY_SOLAR_ENVIRONMENT_HPP
