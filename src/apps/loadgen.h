/**
 * @file
 * Sampling load generator (§6.1's wrk2/Locust stand-in).
 *
 * Where apps/service_app.h evaluates traffic in closed form, this
 * module *simulates* it, in two shapes:
 *
 *  - runLoad: the batch path behind Table 1 and the Fig 6 utility
 *    panels — Poisson request counts per request type, per-component
 *    latency samples (log-normal around the component's P95
 *    contribution, scaled by cluster congestion), utility scoring per
 *    request, and percentile extraction from the sampled population;
 *
 *  - the arrival processes behind src/serve's live request front end:
 *    piecewise-linear RateCurve shapes (diurnal, bursty) and open-loop
 *    Poisson arrival streams over a time-varying rate (thinning). All
 *    of it draws from explicitly seeded util::Rng state (one stream
 *    per request class, derived via util::cellSeed) so a serving run
 *    is reproducible bit-for-bit.
 */

#ifndef PHOENIX_APPS_LOADGEN_H
#define PHOENIX_APPS_LOADGEN_H

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/service_app.h"
#include "util/rng.h"
#include "util/stats.h"

namespace phoenix::apps {

/** Measured statistics for one request type. Percentiles follow the
 * repo-wide empty-sample convention: util::kNoSample (-1) until at
 * least one request was served. */
struct LoadStats
{
    std::string request;
    size_t offered = 0;
    size_t served = 0;
    double meanUtility = 0.0; //!< over served requests
    double p50Ms = util::kNoSample;
    double p95Ms = util::kNoSample;
    double p99Ms = util::kNoSample;
};

/** Load-generation parameters. */
struct LoadGenConfig
{
    /** Simulated wall-clock duration (seconds of offered traffic). */
    double durationSec = 60.0;
    /** Cluster utilization feeding the congestion factor. */
    double clusterUtilization = 0.5;
    /** Log-space sigma of per-component latency samples. */
    double latencySigma = 0.25;
    uint64_t seed = 42;
};

/**
 * Run the generator against @p sapp with the given running set.
 * Returns one LoadStats per request type (pruned types report served
 * == 0 and negative percentiles).
 */
std::vector<LoadStats> runLoad(const ServiceApp &sapp,
                               const std::set<sim::MsId> &running,
                               const LoadGenConfig &config = {});

// --- Arrival processes (src/serve request front end) ---------------

/**
 * Piecewise-linear rate multiplier over simulated time. Conventions
 * chosen so every degenerate shape is legal:
 *
 *  - an empty curve is the neutral multiplier (1.0 everywhere);
 *  - a single point is a constant;
 *  - before the first / after the last point the curve holds that
 *    point's value (no extrapolation);
 *  - between points the value interpolates linearly.
 *
 * Points are kept sorted by time; adding an earlier point after a
 * later one re-sorts (stable, so duplicate timestamps keep insertion
 * order and at() picks the first).
 */
class RateCurve
{
  public:
    RateCurve() = default;

    /** Append a (time, value) control point. Negative values clamp
     * to 0 (a rate multiplier cannot be negative). */
    RateCurve &point(double t, double value);

    /** Multiplier at @p t under the conventions above. */
    double at(double t) const;

    /** Largest control-point value; 1.0 for the empty curve. The
     * open-loop thinning bound. */
    double maxValue() const;

    bool empty() const { return points_.empty(); }
    const std::vector<std::pair<double, double>> &points() const
    {
        return points_;
    }

    /**
     * Diurnal shape: one cosine day sampled into @p segments linear
     * pieces, oscillating between @p low (at t = 0) and @p high (at
     * t = period/2), repeating is the caller's business — the curve
     * holds @p low again at t = period and stays there.
     */
    static RateCurve diurnal(double period, double low, double high,
                            size_t segments = 24);

    /**
     * Burst shape: baseline @p base, ramping to @p peak over the
     * first quarter of [@p start, @p start + @p duration], holding,
     * and ramping back down over the last quarter.
     */
    static RateCurve burst(double start, double duration, double base,
                          double peak);

  private:
    std::vector<std::pair<double, double>> points_; //!< time-sorted
};

/** Open-loop (arrival-rate driven) stream parameters. */
struct OpenLoopConfig
{
    /** Base arrival rate (requests per second). */
    double baseRps = 0.0;
    /** Rate multiplier over time (empty = constant baseRps). */
    RateCurve curve;
    /** Stream seed; derive per class via util::cellSeed. */
    uint64_t seed = 42;
};

/**
 * Deterministic non-homogeneous Poisson arrival stream: exponential
 * gaps at the curve's peak rate, thinned down to the instantaneous
 * rate baseRps * curve.at(t) (Lewis-Shedler). One Rng per stream, so
 * interleaving streams never perturbs each other's draws.
 */
class OpenLoopArrivals
{
  public:
    explicit OpenLoopArrivals(OpenLoopConfig config);

    /** Next arrival instant strictly after @p now; a negative value
     * means the stream is exhausted (zero rate). */
    double next(double now);

    /** Expected arrivals in [t0, t1] (trapezoid over the curve) —
     * used by tests to bound realized Poisson counts. */
    double expectedCount(double t0, double t1) const;

  private:
    OpenLoopConfig config_;
    util::Rng rng_;
    double maxRate_ = 0.0;
};

} // namespace phoenix::apps

#endif // PHOENIX_APPS_LOADGEN_H
