/**
 * @file
 * Lightweight statistics primitives: exponential moving averages,
 * running summaries, fixed-bucket histograms and named time series.
 *
 * These are deliberately simple value types; daemons and models embed
 * them directly and experiments snapshot them into Metrics (sim/).
 */

#ifndef HAWKSIM_BASE_STATS_HH
#define HAWKSIM_BASE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace hawksim {

/**
 * Exponential moving average. HawkEye uses EMAs of access coverage
 * samples (§3.3); alpha is the weight of the newest sample.
 */
class Ema
{
  public:
    explicit Ema(double alpha = 0.4) : alpha_(alpha) {}

    /** Feed one sample; returns the updated average. */
    double
    update(double sample)
    {
        if (!seeded_) {
            value_ = sample;
            seeded_ = true;
        } else {
            value_ = alpha_ * sample + (1.0 - alpha_) * value_;
        }
        return value_;
    }

    double value() const { return seeded_ ? value_ : 0.0; }
    bool seeded() const { return seeded_; }
    void reset() { seeded_ = false; value_ = 0.0; }

  private:
    double alpha_;
    double value_ = 0.0;
    bool seeded_ = false;
};

/** Running min/max/mean/count summary of a stream of doubles. */
class Summary
{
  public:
    void
    add(double v)
    {
        count_++;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width bucket histogram over [lo, hi); out-of-range clamps. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets)
        : lo_(lo), hi_(hi), counts_(buckets, 0)
    {
        HS_ASSERT(hi > lo && buckets > 0, "bad histogram bounds");
    }

    void
    add(double v, std::uint64_t weight = 1)
    {
        double clamped = std::clamp(v, lo_, std::nextafter(hi_, lo_));
        auto idx = static_cast<std::size_t>((clamped - lo_) / (hi_ - lo_) *
                                            counts_.size());
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        counts_[idx] += weight;
        total_ += weight;
    }

    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }

    /** Value below which fraction q of the weight lies (approximate). */
    double
    quantile(double q) const
    {
        if (total_ == 0)
            return lo_;
        const double target = q * static_cast<double>(total_);
        double cum = 0.0;
        for (std::size_t i = 0; i < counts_.size(); i++) {
            cum += static_cast<double>(counts_[i]);
            if (cum >= target) {
                const double width = (hi_ - lo_) / counts_.size();
                return lo_ + width * (static_cast<double>(i) + 0.5);
            }
        }
        return hi_;
    }

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** One (time, value) sample of a recorded series. */
struct SeriesPoint
{
    TimeNs time;
    double value;
};

/** A named time series of simulation samples. */
class TimeSeries
{
  public:
    explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

    void record(TimeNs t, double v) { points_.push_back({t, v}); }
    const std::vector<SeriesPoint> &points() const { return points_; }
    const std::string &name() const { return name_; }
    bool empty() const { return points_.empty(); }

    double
    last() const
    {
        return points_.empty() ? 0.0 : points_.back().value;
    }

    /** Maximum recorded value (0 when empty). */
    double
    peak() const
    {
        double m = 0.0;
        for (const auto &p : points_)
            m = std::max(m, p.value);
        return m;
    }

  private:
    std::string name_;
    std::vector<SeriesPoint> points_;
};

} // namespace hawksim

#endif // HAWKSIM_BASE_STATS_HH
