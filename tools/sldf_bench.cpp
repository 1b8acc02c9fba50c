// sldf-bench — cycle-engine throughput benchmark.
//
// Runs the perf preset suite (bench/perf_engine.*) and writes
// BENCH_sim.json with simulated cycles/sec, flit-hops/sec, and peak RSS
// per preset. Use it to record the simulator's perf trajectory and to
// guard against engine regressions:
//
//   sldf-bench                  # full suite (radix-16/32 + fig11a sweep)
//   sldf-bench --quick          # radix-16 point presets only (CI smoke)
//   sldf-bench --list           # Markdown preset table (docs/PERFORMANCE.md)
//   sldf-bench --out results/BENCH_sim.json --seed 7
//   sldf-bench --preset radix32-sat-sh2 --phases   # one preset, phase split
#include <cstdio>
#include <exception>

#include "bench/perf_engine.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "topo/faults.hpp"
#include "trace/trace.hpp"

using namespace sldf;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    if (cli.has("help")) {
      std::printf(
          "usage: sldf-bench [--quick] [--list] [--out FILE] [--seed N]\n"
          "                  [--preset NAME] [--phases]\n"
          "\n"
          "  --quick        radix-16 point presets with short windows (CI)\n"
          "  --list         print the Markdown preset table (the GENERATED\n"
          "                 block embedded in docs/PERFORMANCE.md) and exit\n"
          "  --out FILE     output path (default BENCH_sim.json; none\n"
          "                 with --preset)\n"
          "  --seed N       RNG seed for every preset (default 1)\n"
          "  --preset NAME  run only this preset (full window unless\n"
          "                 --quick)\n"
          "  --phases       time the engine phases of every open-loop run\n"
          "                 and print the split (a few clock reads per\n"
          "                 cycle; counters unchanged)\n");
      return 0;
    }
    if (cli.has("list")) {
      std::fputs(bench::render_preset_table().c_str(), stdout);
      return 0;
    }
    bench::SuiteOptions opts;
    opts.quick = cli.has("quick");
    opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opts.preset = cli.get("preset", "");
    opts.phases = cli.has("phases");
    // A single preset never overwrites the ledger unless asked to.
    const std::string out =
        cli.get("out", opts.preset.empty() ? "BENCH_sim.json" : "");

    const auto results = bench::run_perf_suite(opts);

    std::printf("%-14s %7s %12s %14s %16s %10s\n", "preset", "points",
                "cycles", "cycles/sec", "flit-hops/sec", "rss(MB)");
    for (const auto& r : results) {
      std::printf("%-14s %7d %12llu %14.0f %16.0f %10.1f\n",
                  r.preset.c_str(), r.points,
                  static_cast<unsigned long long>(r.cycles),
                  r.cycles_per_sec, r.flit_hops_per_sec, r.peak_rss_mb);
    }

    if (opts.phases) {
      // Shares of the engine's host time; "serial" is what only the
      // driving thread runs in a parallel cycle (faults, generation, the
      // commit), i.e. the serial fraction of a sharded run. par_cyc /
      // ser_cyc and prefetch show which side of the shard work gate and
      // the deep-prefetch gate (sim::deep_prefetch_pays) the runs took.
      std::printf("\n%-16s %7s %7s %7s %7s %7s %7s %9s %9s %9s %8s %9s\n",
                  "preset", "fault%", "deliv%", "gen%", "walk%", "commit%",
                  "serial%", "par_cyc", "ser_cyc", "avg_snap", "prefetch",
                  "skipped");
      for (const auto& r : results) {
        const sim::EnginePhases& p = r.phases;
        const double total =
            p.fault_s + p.deliver_s + p.generate_s + p.walk_s + p.commit_s;
        if (total <= 0.0) continue;  // closed-loop preset: no split
        const auto pct = [total](double s) { return 100.0 * s / total; };
        const std::uint64_t stepped = p.parallel_cycles + p.serial_cycles;
        std::printf(
            "%-16s %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f %9llu %9llu %9.0f "
            "%8s %9llu\n",
            r.preset.c_str(), pct(p.fault_s), pct(p.deliver_s),
            pct(p.generate_s), pct(p.walk_s), pct(p.commit_s),
            pct(p.fault_s + p.generate_s + p.commit_s),
            static_cast<unsigned long long>(p.parallel_cycles),
            static_cast<unsigned long long>(p.serial_cycles),
            stepped ? static_cast<double>(p.routers_walked) /
                          static_cast<double>(stepped)
                    : 0.0,
            p.deep_prefetch ? "deep" : "off",
            static_cast<unsigned long long>(p.cycles_skipped));
      }
    }

    if (!out.empty()) {
      bench::write_bench_json(out, results, opts.quick);
      std::printf("wrote %s\n", out.c_str());
    }
    return 0;
  } catch (const topo::FaultError& e) {
    std::fprintf(stderr, "sldf-bench: error: fault timeline: %s\n", e.what());
    return 1;
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "sldf-bench: error: trace: %s\n", e.what());
    return 1;
  } catch (const ScenarioError& e) {
    std::fprintf(stderr, "sldf-bench: error: scenario: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sldf-bench: error: %s\n", e.what());
    return 1;
  }
}
