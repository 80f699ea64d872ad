// Ablation — page size, TLB reach, and large-page policy (§4.1.3).
//
// For both TLB geometries (KNL: 64 L2 entries; A64FX: 1,024), each page
// size of the study and three working sets (256 MiB, 2 GiB, 16 GiB),
// prints:
//   slowdown      — address-translation multiplier on a memory-bound phase
//   reach (MiB)   — address space covered by the last-level TLB
//   fault-in (ms) — first-touch cost of the working set at this page size
// This is the quantitative backdrop for Fugaku's hugeTLBfs-with-contiguous-
// bit decision: 2M pages give A64FX 2 GiB of reach while 512M pages would
// fragment memory, and the 64K base leaves only 64 MiB.
//
// The TLB model is pure computation, so every cell is evaluated directly.
// The BenchReport carries the 2 GiB rows, in quick and full mode alike.
#include <iostream>

#include "common/table.h"
#include "hw/platform.h"
#include "hw/tlb.h"
#include "obs/bench_report.h"
#include "oskernel/costs.h"

int main(int argc, char** argv) {
  using namespace hpcos;
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_ablation_pages", opts.quick);
  const os::KernelCosts costs;
  constexpr std::uint64_t kWsMib[] = {256, 2048, 16384};
  constexpr std::uint64_t kReportedWsMib = 2048;

  TextTable table({"TLB", "page", "working set (MiB)", "slowdown",
                   "reach (MiB)", "fault-in (ms)"});
  table.set_align(1, Align::kLeft);
  for (const bool fugaku : {false, true}) {
    const auto platform =
        fugaku ? hw::make_fugaku_platform() : hw::make_ofp_platform();
    const hw::TlbModel tlb(platform.tlb);
    for (const hw::PageSize page : {hw::PageSize::k4K, hw::PageSize::k64K,
                                    hw::PageSize::k2M, hw::PageSize::k512M}) {
      const std::string slug = std::string(fugaku ? "a64fx" : "knl") + "." +
                               hw::to_string(page);
      const SimTime per_fault =
          hw::bytes(page) <= hw::bytes(hw::PageSize::k64K)
              ? costs.page_fault_base
              : costs.page_fault_large;
      const double reach_mib =
          static_cast<double>(tlb.reach_bytes(page)) / (1 << 20);
      for (const std::uint64_t ws_mib : kWsMib) {
        const std::uint64_t ws = ws_mib << 20;
        const std::uint64_t pages = ws / hw::bytes(page);
        const double slowdown = tlb.access_slowdown(ws, page);
        const double fault_in_ms =
            (per_fault * static_cast<std::int64_t>(pages)).to_ms();
        table.add_row({fugaku ? "A64FX" : "KNL", hw::to_string(page),
                       TextTable::fmt_int(static_cast<long long>(ws_mib)),
                       TextTable::fmt(slowdown, 5),
                       TextTable::fmt(reach_mib, 2),
                       TextTable::fmt(fault_in_ms, 3)});
        if (ws_mib != kReportedWsMib) continue;
        report.add_metric(slug + ".slowdown", "ratio", slowdown);
        report.add_metric(slug + ".reach_mib", "mib", reach_mib);
        report.add_metric(slug + ".fault_in_ms", "ms", fault_in_ms);
      }
    }
  }
  print_banner(std::cout,
               "Ablation: page size vs TLB reach and fault-in cost");
  table.print(std::cout);
  obs::maybe_write_report(report, opts);
  return 0;
}
