// Shared scaffolding for the bench binaries whose figures post-process
// results or report columns the sldf driver's CSV does not carry (the
// other figures are configs/*.conf files run by sldf). Every bench
// describes its experiment as core::ScenarioSpec values and runs them
// through the scenario layer.
//
// Every bench accepts:
//   --quick        shrink cycle counts and sweep points (CI smoke run)
//   --paper        full Table IV cycle counts (5000 warmup + 10000 measured)
//   --out DIR      CSV output directory (default ./results)
//   --seed N       base RNG seed
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "core/scenario.hpp"

namespace sldf::bench {

struct BenchEnv {
  sim::SimConfig base;
  std::string out_dir;
  bool quick = false;

  explicit BenchEnv(const Cli& cli) {
    quick = cli.has("quick");
    if (cli.has("paper")) {
      base.warmup = 5000;   // Table IV
      base.measure = 10000;
      base.drain = 5000;
    } else if (quick) {
      base.warmup = 400;
      base.measure = 1000;
      base.drain = 600;
    } else {
      base.warmup = 1000;
      base.measure = 2200;
      base.drain = 1200;
    }
    base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    out_dir = cli.get("out", "results");
    std::filesystem::create_directories(out_dir);
  }

  [[nodiscard]] int points(int full) const {
    return quick ? std::max(3, full / 2) : full;
  }

  /// A spec preloaded with this run's measurement window and seed.
  [[nodiscard]] core::ScenarioSpec spec(std::string label,
                                        std::string topology,
                                        std::string traffic) const {
    core::ScenarioSpec s;
    s.label = std::move(label);
    s.topology = std::move(topology);
    s.traffic = std::move(traffic);
    s.sim = base;
    return s;
  }

  [[nodiscard]] CsvWriter csv(const std::string& name) const {
    return CsvWriter(out_dir + "/" + name,
                     {"series", "offered", "avg_latency", "accepted", "p99",
                      "delivered", "drained"});
  }
};

inline void banner(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

/// Runs one scenario and reports it (table + CSV rows).
inline core::SweepSeries run_spec(CsvWriter& csv,
                                  const core::ScenarioSpec& spec) {
  auto series = core::run_scenario(spec);
  core::print_series(series);
  core::append_series_csv(csv, series);
  return series;
}

/// Wraps a bench main body: configuration errors (malformed flag values,
/// unknown registry names) print a clear message and exit 1 instead of
/// reaching std::terminate.
template <typename Body>
int guarded(const char* prog, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", prog, e.what());
    return 1;
  }
}

}  // namespace sldf::bench
