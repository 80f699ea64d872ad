#include "noise/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::noise {
namespace {

// Running T_min / T_max over the samples folded so far; T_min stays at
// SimTime::max() until the first sample.
struct Bounds {
  SimTime t_min = SimTime::max();
  SimTime t_max = SimTime::zero();

  void fold(SimTime t) {
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  }
};

// Eq. 2 sum: one term (T_i - T_min) / T_min per sample, added in series
// order. A quiet iteration (t == T_min) adds +0.0; skipping it leaves the
// sum bit-identical, as the sum starts at +0.0 and no term is < 0.
// T_min == 0 happens on legitimate traces (a zero-work FWQ quantum in
// tests); Eq. 2 normalizes by T_min, so the rate is undefined there and
// we report zero rather than dividing by zero or aborting.
class RateSum {
 public:
  explicit RateSum(SimTime t_min)
      : t_min_(t_min), tmin_ns_(static_cast<double>(t_min.count_ns())) {}

  bool defined() const { return tmin_ns_ > 0.0; }
  void add(SimTime t) {
    if (t == t_min_) return;
    sum_ += static_cast<double>((t - t_min_).count_ns()) / tmin_ns_;
  }
  NoiseStats stats(const Bounds& b, std::uint64_t samples) const {
    NoiseStats s;
    s.t_min = b.t_min;
    s.t_max = b.t_max;
    s.max_noise_length = b.t_max - b.t_min;
    s.noise_rate = samples > 0 && defined()
                       ? sum_ / static_cast<double>(samples)
                       : 0.0;
    s.samples = samples;
    return s;
  }

 private:
  SimTime t_min_;
  double tmin_ns_;
  double sum_ = 0.0;
};

}  // namespace

NoiseStats compute_noise_stats(std::span<const SimTime> iteration_times) {
  Bounds b;
  for (SimTime t : iteration_times) b.fold(t);
  if (b.t_min == SimTime::max()) return NoiseStats{};  // no samples
  RateSum sum(b.t_min);
  if (sum.defined()) {
    for (SimTime t : iteration_times) sum.add(t);
  }
  return sum.stats(b, iteration_times.size());
}

NoiseStats compute_noise_stats(const std::vector<FwqTrace>& traces) {
  Bounds b;
  for (const FwqTrace& tr : traces) {
    if (tr.quiet() > 0) b.fold(tr.base());
    for (const FwqTrace::Sample& d : tr.disturbed()) b.fold(d.time);
  }
  if (b.t_min == SimTime::max()) return NoiseStats{};  // no samples
  // Terms go in the order of the concatenated dense series, so the rate
  // is bit-identical to the span overload's over it. Quiet iterations of
  // a trace whose base is T_min add nothing; a trace whose base is above
  // T_min (all disturbed, or another trace ran faster) interleaves its
  // quiet terms in index order.
  RateSum sum(b.t_min);
  std::uint64_t n = 0;
  for (const FwqTrace& tr : traces) {
    n += tr.size();
    if (!sum.defined()) continue;
    const bool quiet_terms = tr.base() != b.t_min;
    std::uint64_t next = 0;  // first index not yet summed
    for (const FwqTrace::Sample& d : tr.disturbed()) {
      if (quiet_terms) {
        for (; next < d.index; ++next) sum.add(tr.base());
      }
      sum.add(d.time);
      next = d.index + 1;
    }
    if (quiet_terms) {
      for (; next < tr.size(); ++next) sum.add(tr.base());
    }
  }
  return sum.stats(b, n);
}

std::vector<SimTime> noise_lengths(std::span<const SimTime> iteration_times) {
  std::vector<SimTime> out;
  if (iteration_times.empty()) return out;
  const SimTime t_min =
      *std::min_element(iteration_times.begin(), iteration_times.end());
  out.reserve(iteration_times.size());
  for (SimTime t : iteration_times) out.push_back(t - t_min);
  return out;
}

double hit_probability(SimTime sync_interval, SimTime noise_interval,
                       std::uint64_t num_threads) {
  HPCOS_CHECK(noise_interval > SimTime::zero());
  const double ratio = std::min(1.0, sync_interval.ratio(noise_interval));
  // (1 - r)^N computed in log space to survive N ~ 7.6 million.
  if (ratio >= 1.0) return 1.0;
  const double log_miss =
      static_cast<double>(num_threads) * std::log1p(-ratio);
  return 1.0 - std::exp(log_miss);
}

double bsp_noise_delay(std::span<const NoiseGroup> groups,
                       SimTime sync_interval, std::uint64_t num_threads) {
  HPCOS_CHECK(sync_interval > SimTime::zero());
  double worst = 0.0;
  for (const auto& g : groups) {
    const double p = hit_probability(sync_interval, g.interval, num_threads);
    const double delay = p * g.length.ratio(sync_interval);
    worst = std::max(worst, delay);
  }
  return worst;
}

}  // namespace hpcos::noise
