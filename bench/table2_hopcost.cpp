// Table II: hop cost comparison (latency / energy per physical medium)
// plus the Fig 9 layout feasibility report (§V-A1) that derives the
// on-wafer bandwidth the architecture relies on.
#include <cstdio>
#include <filesystem>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "model/equations.hpp"
#include "model/layout.hpp"

using namespace sldf;
using namespace sldf::model;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const HopCostTable t;
  const struct {
    const char* hop;
    const char* medium;
    HopCost cost;
  } rows[] = {{"Hg", "optical cable", t.global},
              {"Hl", "copper cable", t.local},
              {"H*l", "terminal link", t.terminal},
              {"Hsr", "on-wafer RDL", t.short_reach},
              {"Hon-chip", "metal layer", t.on_chip}};
  std::printf("Table II: hop cost comparison\n\n");
  std::printf("%-12s %-16s %12s %14s\n", "hop", "medium", "latency(ns)",
              "energy(pJ/bit)");
  for (const auto& r : rows)
    std::printf("%-12s %-16s %12.0f %14.1f\n", r.hop, r.medium,
                r.cost.latency_ns, r.cost.energy_pj_per_bit);
  std::printf("(intra-C-group average used by Fig 15: %.1f pJ/bit)\n\n",
              t.intra_cgroup_avg_pj);

  std::printf("Fig 9 layout feasibility (C-group on InFO-SoW wafer):\n%s\n",
              format_layout(evaluate_layout()).c_str());

  const std::string out = cli.get("out", "results");
  std::filesystem::create_directories(out);
  CsvWriter csv(out + "/table2.csv",
                {"hop", "latency_ns", "energy_pj_per_bit"});
  for (const auto& r : rows)
    csv.row(std::vector<std::string>{
        r.hop, CsvWriter::format_num(r.cost.latency_ns),
        CsvWriter::format_num(r.cost.energy_pj_per_bit)});
  return 0;
}
