// Figure 5 — CORAL mini-apps on Oakforest-PACS: AMG2013, Milc, Lulesh.
//
// Paper shape: McKernel >= Linux everywhere; AMG up to ~1.18, Milc up to
// ~1.22, Lulesh approaching ~2x, all with gains growing toward 8k nodes.
#include <iostream>

#include "app_bench_util.h"

int main(int argc, char** argv) {
  using namespace hpcos;

  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_fig5_coral_ofp", opts.quick, 20211114);

  const auto linux_env = cluster::make_ofp_linux_env();
  const auto mck_env = cluster::make_ofp_mckernel_env();

  const bench::FigurePlan plan = {
      {"AMG2013",
       {{16, 1.04}, {64, 1.05}, {256, 1.07}, {1024, 1.10},
        {4096, 1.15}, {8192, 1.18}}},
      {"Milc",
       {{16, 1.03}, {64, 1.05}, {256, 1.08}, {1024, 1.12},
        {4096, 1.18}, {8192, 1.22}}},
      {"Lulesh",
       {{16, 1.40}, {64, 1.45}, {256, 1.55}, {1024, 1.65},
        {4096, 1.85}, {8192, 1.95}}},
  };

  const auto rows = bench::run_plan(
      opts.quick ? bench::quick_plan(plan) : plan, apps::PlatformKind::kOfp,
      linux_env, mck_env, /*threads=*/0, /*trials=*/opts.quick ? 1 : 3);
  bench::print_figure(
      "Figure 5: CORAL applications on Oakforest-PACS (Linux = 1.0)", rows);
  bench::add_figure_metrics(report, rows);
  obs::maybe_write_report(report, opts);
  return 0;
}
