// Table 1 — platform and Linux runtime settings overview.
//
// Regenerated from the PlatformConfig factories so the configuration every
// other experiment consumes is visible (and diffable against the paper).
#include <iostream>

#include "common/table.h"
#include "hw/platform.h"
#include "obs/bench_report.h"

int main(int argc, char** argv) {
  using namespace hpcos;
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_table1_platforms", opts.quick);
  const auto ofp = hw::make_ofp_platform();
  const auto fugaku = hw::make_fugaku_platform();

  auto yesno = [](bool b) { return std::string(b ? "Yes" : "No"); };

  print_banner(std::cout, "Table 1: Overview of platforms and Linux "
                          "runtime settings");
  TextTable t({"Attribute", "Oakforest-PACS", "Fugaku"});
  t.set_align(1, Align::kLeft);
  t.set_align(2, Align::kLeft);
  t.add_row({"CPU model", ofp.cpu_model, fugaku.cpu_model});
  t.add_row({"ISA", ofp.isa, fugaku.isa});
  t.add_row({"CPU cores",
             "68, 4-way SMT (272 logical)",
             "50 (or 52), no SMT"});
  t.add_row({"TLB entries (L1/L2)",
             TextTable::fmt_int(ofp.tlb.l1_entries) + " / " +
                 TextTable::fmt_int(ofp.tlb.l2_entries),
             TextTable::fmt_int(fugaku.tlb.l1_entries) + " / " +
                 TextTable::fmt_int(fugaku.tlb.l2_entries)});
  t.add_row({"Memory",
             "96 GiB DDR4 + 16 GiB MCDRAM",
             "32 GiB HBM2"});
  t.add_row({"Linux distribution", ofp.linux_settings.distribution,
             fugaku.linux_settings.distribution});
  t.add_row({"Linux kernel", ofp.linux_settings.kernel_version,
             fugaku.linux_settings.kernel_version});
  t.add_row({"Containerization", yesno(ofp.linux_settings.containerized),
             std::string("Docker")});
  t.add_row({"nohz_full on app cores",
             yesno(ofp.linux_settings.nohz_full_app_cores),
             yesno(fugaku.linux_settings.nohz_full_app_cores)});
  t.add_row({"CPU isolation",
             yesno(ofp.linux_settings.cgroup_cpu_isolation),
             std::string("cgroups")});
  t.add_row({"IRQ steering",
             ofp.linux_settings.irq_steered_to_os_cores
                 ? "Routed to OS cores"
                 : "Balanced across chip",
             fugaku.linux_settings.irq_steered_to_os_cores
                 ? "Routed to OS cores"
                 : "Balanced across chip"});
  t.add_row({"Large page support",
             to_string(ofp.linux_settings.large_pages),
             to_string(fugaku.linux_settings.large_pages)});
  t.add_row({"Peak performance (PFlops)", TextTable::fmt(ofp.peak_pflops, 0),
             TextTable::fmt(fugaku.peak_pflops, 0)});
  t.add_row({"Compute nodes", TextTable::fmt_int(ofp.num_compute_nodes),
             TextTable::fmt_int(fugaku.num_compute_nodes)});
  t.add_row({"Interconnect", to_string(ofp.interconnect),
             to_string(fugaku.interconnect)});
  t.print(std::cout);

  report.add_metric("ofp.peak_pflops", "pflops", ofp.peak_pflops);
  report.add_metric("fugaku.peak_pflops", "pflops", fugaku.peak_pflops);
  report.add_metric("ofp.compute_nodes", "count",
                    static_cast<double>(ofp.num_compute_nodes));
  report.add_metric("fugaku.compute_nodes", "count",
                    static_cast<double>(fugaku.num_compute_nodes));
  report.add_metric("ofp.tlb_l2_entries", "count",
                    static_cast<double>(ofp.tlb.l2_entries));
  report.add_metric("fugaku.tlb_l2_entries", "count",
                    static_cast<double>(fugaku.tlb.l2_entries));
  obs::maybe_write_report(report, opts);
  return 0;
}
