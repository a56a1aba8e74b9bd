#include "loadgen.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace phoenix::apps {

using sim::MsId;

namespace {

/** Same congestion shape as the closed-form model (service_app.cc). */
double
congestionFactor(double utilization)
{
    const double rho = std::clamp(utilization, 0.0, 0.99);
    if (rho <= 0.5)
        return 1.0;
    return 1.0 + 0.0025 * (rho - 0.5) / (1.0 - rho);
}

} // namespace

// --- Arrival processes ----------------------------------------------

RateCurve &
RateCurve::point(double t, double value)
{
    points_.emplace_back(t, std::max(value, 0.0));
    std::stable_sort(points_.begin(), points_.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    return *this;
}

double
RateCurve::at(double t) const
{
    if (points_.empty())
        return 1.0;
    if (t <= points_.front().first)
        return points_.front().second;
    if (t >= points_.back().first)
        return points_.back().second;
    for (size_t i = 1; i < points_.size(); ++i) {
        if (t > points_[i].first)
            continue;
        const auto &[t0, v0] = points_[i - 1];
        const auto &[t1, v1] = points_[i];
        if (t1 <= t0)
            return v0; // duplicate timestamp: first point wins
        const double alpha = (t - t0) / (t1 - t0);
        return v0 + alpha * (v1 - v0);
    }
    return points_.back().second;
}

double
RateCurve::maxValue() const
{
    if (points_.empty())
        return 1.0;
    double best = 0.0;
    for (const auto &[t, v] : points_) {
        (void)t;
        best = std::max(best, v);
    }
    return best;
}

RateCurve
RateCurve::diurnal(double period, double low, double high,
                   size_t segments)
{
    RateCurve curve;
    if (segments < 2)
        segments = 2;
    if (period <= 0.0)
        return curve.point(0.0, low);
    for (size_t i = 0; i <= segments; ++i) {
        const double t =
            period * static_cast<double>(i) / static_cast<double>(segments);
        const double phase = 0.5 - 0.5 * std::cos(2.0 * M_PI * t / period);
        curve.point(t, low + (high - low) * phase);
    }
    return curve;
}

RateCurve
RateCurve::burst(double start, double duration, double base, double peak)
{
    RateCurve curve;
    curve.point(0.0, base);
    if (duration <= 0.0)
        return curve;
    const double ramp = duration * 0.25;
    curve.point(start, base)
        .point(start + ramp, peak)
        .point(start + duration - ramp, peak)
        .point(start + duration, base);
    return curve;
}

OpenLoopArrivals::OpenLoopArrivals(OpenLoopConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    maxRate_ = config_.baseRps * config_.curve.maxValue();
}

double
OpenLoopArrivals::next(double now)
{
    if (maxRate_ <= 0.0)
        return -1.0;
    double t = now;
    // Thinning: candidate gaps at the peak rate, each kept with
    // probability rate(t)/maxRate. Bounded so a curve that decays to
    // zero cannot spin forever.
    for (int i = 0; i < 1 << 20; ++i) {
        t += rng_.exponential(maxRate_);
        const double rate = config_.baseRps * config_.curve.at(t);
        if (rng_.uniform() * maxRate_ <= rate)
            return t;
    }
    return -1.0;
}

double
OpenLoopArrivals::expectedCount(double t0, double t1) const
{
    if (t1 <= t0 || config_.baseRps <= 0.0)
        return 0.0;
    // Trapezoid over a fine grid; exact enough for test bounds since
    // the curve is piecewise linear.
    constexpr int kSteps = 512;
    double integral = 0.0;
    const double dt = (t1 - t0) / kSteps;
    for (int i = 0; i < kSteps; ++i) {
        const double a = config_.curve.at(t0 + dt * i);
        const double b = config_.curve.at(t0 + dt * (i + 1));
        integral += 0.5 * (a + b) * dt;
    }
    return config_.baseRps * integral;
}

std::vector<LoadStats>
runLoad(const ServiceApp &sapp, const std::set<MsId> &running,
        const LoadGenConfig &config)
{
    util::Rng rng(config.seed);
    const double congestion =
        congestionFactor(config.clusterUtilization);
    // Per-component samples are log-normal with the component's P95
    // contribution as the 95th percentile: median = p95 / e^{1.645 s}.
    const double p95_factor = std::exp(1.645 * config.latencySigma);

    // Entry hard-dependency check (stock HR crashes user-visibly).
    bool entry_ok = true;
    if (!sapp.crashProof) {
        for (MsId dep : sapp.hardDeps) {
            if (!running.count(dep))
                entry_ok = false;
        }
    }

    std::vector<LoadStats> out;
    out.reserve(sapp.requests.size());
    for (const RequestType &req : sapp.requests) {
        LoadStats stats;
        stats.request = req.name;
        stats.offered = rng.poisson(req.offeredRps * config.durationSec);

        bool required_ok = entry_ok;
        double utility = 0.0;
        double utility_full = 0.0;
        std::vector<double> medians;
        for (const PathComponent &component : req.path) {
            utility_full += component.utility;
            const bool up = running.count(component.service) > 0;
            if (component.required && !up)
                required_ok = false;
            if (up) {
                utility += component.utility;
                if (component.latencyMs > 0.0) {
                    medians.push_back(component.latencyMs * congestion /
                                      p95_factor);
                }
            }
        }

        if (!required_ok || stats.offered == 0) {
            out.push_back(stats);
            continue;
        }

        stats.served = stats.offered;
        stats.meanUtility =
            utility_full > 0.0 ? utility / utility_full : 1.0;

        std::vector<double> latencies;
        latencies.reserve(stats.served);
        for (size_t i = 0; i < stats.served; ++i) {
            double total = 0.0;
            for (double median : medians) {
                total += median * rng.logNormal(0.0,
                                                config.latencySigma);
            }
            latencies.push_back(total);
        }
        stats.p50Ms = util::percentile(latencies, 50.0);
        stats.p95Ms = util::percentile(latencies, 95.0);
        stats.p99Ms = util::percentile(latencies, 99.0);
        out.push_back(stats);
    }
    return out;
}

} // namespace phoenix::apps
