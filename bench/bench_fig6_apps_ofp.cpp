// Figure 6 — LQCD, GeoFEM and GAMERA on Oakforest-PACS.
//
// Paper shape: LQCD gain grows to ~1.25 at 2k nodes; GeoFEM stays small
// (~1.00-1.06) up to full scale with large variance; GAMERA exceeds 1.25
// at half scale (4,096 nodes).
#include <iostream>

#include "app_bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcos;

  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_fig6_apps_ofp", opts.quick, 20211114);

  const auto linux_env = cluster::make_ofp_linux_env();
  const auto mck_env = cluster::make_ofp_mckernel_env();

  const bench::FigurePlan plan = {
      {"LQCD", {{256, 1.08}, {512, 1.12}, {1024, 1.18}, {2048, 1.25}}},
      {"GeoFEM",
       {{512, 1.01}, {1024, 1.02}, {2048, 1.03}, {4096, 1.04}, {8192, 1.06}}},
      {"GAMERA", {{512, 1.08}, {1024, 1.12}, {2048, 1.18}, {4096, 1.26}}},
  };

  const auto rows = bench::run_plan(
      opts.quick ? bench::quick_plan(plan) : plan, apps::PlatformKind::kOfp,
      linux_env, mck_env, /*threads=*/0, /*trials=*/opts.quick ? 1 : 3);
  bench::print_figure(
      "Figure 6: LQCD / GeoFEM / GAMERA on Oakforest-PACS (Linux = 1.0)",
      rows);
  bench::add_figure_metrics(report, rows);
  obs::maybe_write_report(report, opts);
  return 0;
}
