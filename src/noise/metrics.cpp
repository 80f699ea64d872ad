#include "noise/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::noise {
namespace {

void accumulate(std::span<const SimTime> ts, SimTime& t_min, SimTime& t_max) {
  for (SimTime t : ts) {
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  }
}

NoiseStats finish_stats(std::span<const std::span<const SimTime>> series) {
  NoiseStats s;
  s.t_min = SimTime::max();
  s.t_max = SimTime::zero();
  for (auto ts : series) accumulate(ts, s.t_min, s.t_max);
  if (s.t_min == SimTime::max()) {
    return NoiseStats{};  // no samples
  }
  s.max_noise_length = s.t_max - s.t_min;
  const double tmin_ns = static_cast<double>(s.t_min.count_ns());
  double sum = 0.0;
  std::uint64_t n = 0;
  for (auto ts : series) {
    n += ts.size();
    if (tmin_ns <= 0.0) continue;
    for (SimTime t : ts) {
      // A quiet iteration (t == T_min) adds +0.0; skipping it leaves the
      // sum bit-identical, as the sum starts at +0.0 and no term is < 0.
      if (t == s.t_min) continue;
      sum += static_cast<double>((t - s.t_min).count_ns()) / tmin_ns;
    }
  }
  // T_min == 0 happens on legitimate traces (a zero-work FWQ quantum in
  // tests); Eq. 2 normalizes by T_min, so the rate is undefined there and
  // we report zero rather than dividing by zero or aborting.
  s.noise_rate = n > 0 && tmin_ns > 0.0 ? sum / static_cast<double>(n) : 0.0;
  s.samples = n;
  return s;
}

}  // namespace

NoiseStats compute_noise_stats(std::span<const SimTime> iteration_times) {
  const std::span<const SimTime> one[] = {iteration_times};
  return finish_stats(one);
}

NoiseStats compute_noise_stats(const std::vector<FwqTrace>& traces) {
  std::vector<std::span<const SimTime>> series;
  series.reserve(traces.size());
  for (const auto& t : traces) series.emplace_back(t.iteration_times);
  return finish_stats(series);
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
