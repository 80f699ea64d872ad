// perfbench --workload <table2_des|fig4_campaign|mk_offload> --seed <n>
//           --seconds <s> --trace <0|1> [--reference <reference.json>]
//
// Runs one workload for about --seconds and prints its metrics; the last
// stdout line is the JSON result object. Exits 1 when a correctness check
// failed, 2 on bad usage.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reference <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage();
        o.trace = value == "1";
      } else if (key == "--reference") {
        o.reference = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return usage();
  }
  try {
    return perfbench::run_benchmark(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
