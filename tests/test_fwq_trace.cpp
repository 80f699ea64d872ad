// Sparse FWQ traces: a trace stores its base time (the work quantum), the
// sample count and only the iterations that differ from the base. These
// tests hold it to the dense series it replaces: times() round-trips, and
// the noise statistics and the FWQ histogram over sparse traces equal the
// dense computations bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fwq_campaign.h"
#include "noise/fwq.h"
#include "noise/metrics.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using noise::FwqTrace;
using noise::NoiseStats;

FwqTrace sparse(hw::CoreId core, SimTime base,
              const std::vector<SimTime>& times) {
  FwqTrace trace(core, base);
  for (SimTime t : times) trace.record(t);
  return trace;
}

struct Case {
  std::vector<std::vector<SimTime>> series;  // one dense series per trace
  std::vector<SimTime> bases;                // the base of each trace
};

// Builds the sparse traces of `c` and checks them against the dense
// computations over the concatenated series.
void expect_sparse_matches_dense(const Case& c, const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<FwqTrace> traces;
  std::vector<SimTime> dense;
  for (std::size_t i = 0; i < c.series.size(); ++i) {
    traces.push_back(
        sparse(static_cast<hw::CoreId>(i), c.bases[i], c.series[i]));
    dense.insert(dense.end(), c.series[i].begin(), c.series[i].end());
  }

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const FwqTrace& tr = traces[i];
    EXPECT_EQ(tr.times(), c.series[i]);
    EXPECT_EQ(tr.size(), c.series[i].size());
    EXPECT_EQ(tr.base(), c.bases[i]);
    EXPECT_EQ(tr.core(), static_cast<hw::CoreId>(i));
    const auto& d = tr.disturbed();
    for (std::size_t k = 0; k < d.size(); ++k) {
      EXPECT_NE(d[k].time, tr.base());
      EXPECT_LT(d[k].index, tr.size());
      if (k > 0) {
        EXPECT_LT(d[k - 1].index, d[k].index);
      }
    }
  }

  const NoiseStats want = noise::compute_noise_stats(dense);
  const NoiseStats got = noise::compute_noise_stats(traces);
  EXPECT_EQ(got.t_min, want.t_min);
  EXPECT_EQ(got.t_max, want.t_max);
  EXPECT_EQ(got.max_noise_length, want.max_noise_length);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.noise_rate, want.noise_rate);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.noise_rate),
            std::bit_cast<std::uint64_t>(want.noise_rate));

  // The histogram gets one weighted add per trace for the quiet samples;
  // it must hold what one add per sample gives.
  const cluster::FwqCampaignResult r = cluster::fwq_result_from_traces(traces);
  cluster::FwqCampaignResult ref;
  for (SimTime t : dense) ref.cdf.add(t.to_us());
  EXPECT_EQ(r.total_iterations, dense.size());
  EXPECT_EQ(r.cdf.total_count(), ref.cdf.total_count());
  EXPECT_EQ(r.cdf.observed_min(), ref.cdf.observed_min());
  EXPECT_EQ(r.cdf.observed_max(), ref.cdf.observed_max());
  ASSERT_EQ(r.cdf.num_bins(), ref.cdf.num_bins());
  for (std::size_t b = 0; b < ref.cdf.num_bins(); ++b) {
    EXPECT_EQ(r.cdf.bin_count(b), ref.cdf.bin_count(b)) << "bin " << b;
  }
  EXPECT_EQ(r.stats.t_min, want.t_min);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.stats.noise_rate),
            std::bit_cast<std::uint64_t>(want.noise_rate));
}

TEST(FwqTrace, EmptyAndSingleSampleTracesMatchDense) {
  const SimTime q = SimTime::from_ms(6.5);
  expect_sparse_matches_dense(Case{}, "no traces");
  expect_sparse_matches_dense(Case{{{}, {}}, {q, q}}, "two empty traces");
  expect_sparse_matches_dense(Case{{{q}}, {q}}, "one quiet sample");
  expect_sparse_matches_dense(Case{{{q + 3_us}}, {q}}, "one disturbed sample");
  expect_sparse_matches_dense(Case{{{}, {q + 3_us}, {}, {q}}, {q, q, q, q}},
                              "empty traces between single samples");
}

TEST(FwqTrace, RecordKeepsOnlyDisturbedIterations) {
  FwqTrace tr(5, 1_ms);
  EXPECT_EQ(tr.size(), 0u);
  tr.record(1_ms);
  tr.record(1_ms + 40_us);
  tr.record(1_ms);
  tr.record(900_us);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.quiet(), 2u);
  const std::vector<FwqTrace::Sample> want{{1, 1_ms + 40_us}, {3, 900_us}};
  EXPECT_EQ(tr.disturbed(), want);
  EXPECT_EQ(tr.times(),
            (std::vector<SimTime>{1_ms, 1_ms + 40_us, 1_ms, 900_us}));
}

TEST(FwqTrace, SeededSparseStatsEqualDenseBitForBit) {
  std::mt19937_64 rng(15);
  auto uniform = [&](std::uint64_t n) { return rng() % n; };
  auto ns = [](std::uint64_t n) {
    return SimTime::ns(static_cast<std::int64_t>(n));
  };
  const SimTime q = SimTime::from_ms(6.5);
  for (int trial = 0; trial < 300; ++trial) {
    Case c;
    // Shapes cycle: mixed, all disturbed (no sample equals its base),
    // T_min == 0, and traces whose bases differ.
    const int shape = trial % 4;
    const std::size_t n_traces = 1 + uniform(5);
    for (std::size_t i = 0; i < n_traces; ++i) {
      SimTime base = q;
      if (shape == 3) base = q + ns(uniform(3) * 1'000);
      if (shape == 2 && i == 0) base = SimTime::zero();
      const std::size_t len = uniform(8) == 0 ? uniform(2) : uniform(400);
      // Disturbance probability from 1/64 to 1 (every sample differs).
      const std::uint64_t odds = shape == 1 ? 1 : 1 + uniform(64);
      std::vector<SimTime> ts(len, base);
      for (SimTime& t : ts) {
        if (uniform(odds) != 0) continue;
        const SimTime jitter = ns(1 + uniform(300'000));
        switch (shape) {
          case 1:
            t = base + jitter;  // never the base, so nothing is quiet
            break;
          case 2:
            t = uniform(4) == 0 ? SimTime::zero() : base + jitter;
            break;
          default:
            // Rarely faster than the base, so T_min falls below it.
            t = uniform(16) == 0 ? base - ns(1 + uniform(500)) : base + jitter;
        }
      }
      c.series.push_back(std::move(ts));
      c.bases.push_back(base);
    }
    expect_sparse_matches_dense(c, "trial " + std::to_string(trial));
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace hpcos
