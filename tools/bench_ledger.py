#!/usr/bin/env python3
"""Reruns perf-ledger rows (BENCH_sim.json) through `sldf`.

Each ledger row names the scenario config and the flags that reproduce it.
Every selected row runs in a process of its own, so the peak RSS that sldf's
closing `totals` line reports is that row's peak. Counters (cycles,
flit_hops, delivered_packets) are fixed by the seed; the rest is host time.

  python3 tools/bench_ledger.py --check --out BENCH_sim.json   # regenerate
  python3 tools/bench_ledger.py --check radix16-sat planes-k2  # counters only

Run it from the source directory (the rows' config paths are relative).
"""
import argparse
import json
import os
import platform
import subprocess
import sys

LEDGER = "BENCH_sim.json"
COUNTERS = ("cycles", "flit_hops", "delivered_packets")


def host_name():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%s, %d CPUs" % (model, os.cpu_count())


def run_row(sldf, row):
    cmd = [sldf, "--config", row["config"]] + row["flags"].split()
    print("bench_ledger: %s: %s" % (row["preset"], " ".join(cmd)),
          file=sys.stderr, flush=True)
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    totals = out.splitlines()[-1].split()
    assert totals[0] == "totals", out
    t = dict(kv.split("=", 1) for kv in totals[1:])
    wall = float(t["wall_s"])
    cycles, hops = int(t["cycles"]), int(t["flit_hops"])
    return {
        "preset": row["preset"], "config": row["config"],
        "flags": row["flags"], "points": int(t["points"]),
        "cycles": cycles, "flit_hops": hops,
        "delivered_packets": int(t["delivered"]), "wall_s": wall,
        "cycles_per_sec": round(cycles / wall) if wall else 0,
        "flit_hops_per_sec": round(hops / wall) if wall else 0,
        "peak_rss_mb": float(t["peak_rss_mb"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("presets", nargs="*", help="rows to rerun (default all)")
    ap.add_argument("--sldf", default="build/sldf", help="sldf binary")
    ap.add_argument("--out", help="write the measured rows as a ledger")
    ap.add_argument("--check", action="store_true",
                    help="fail unless every counter equals the ledger's")
    args = ap.parse_args()

    with open(LEDGER) as f:
        rows = json.load(f)["results"]
    names = [r["preset"] for r in rows]
    unknown = sorted(set(args.presets) - set(names))
    if unknown:
        sys.exit("bench_ledger: unknown preset(s) %s" % ", ".join(unknown))
    rows = [r for r in rows if not args.presets or r["preset"] in args.presets]

    measured, drift = [], []
    for row in rows:
        got = run_row(args.sldf, row)
        measured.append(got)
        drift += ["%s %s: %s != ledger %s"
                  % (row["preset"], k, got[k], row.get(k))
                  for k in COUNTERS if got[k] != row.get(k)]

    if args.out:
        with open(args.out, "w") as f:
            f.write('{\n  "bench": "sldf",\n  "schema": 2,\n')
            f.write('  "host": %s,\n  "results": [\n' % json.dumps(host_name()))
            f.write(",\n".join("    " + json.dumps(r) for r in measured))
            f.write("\n  ]\n}\n")
    for r in measured:
        print("%-18s cycles=%d flit_hops=%d delivered=%d wall_s=%.3f "
              "peak_rss_mb=%.1f" % (r["preset"], r["cycles"], r["flit_hops"],
                                    r["delivered_packets"], r["wall_s"],
                                    r["peak_rss_mb"]))
    if args.check and drift:
        sys.exit("bench_ledger: counters drifted:\n  " + "\n  ".join(drift))


if __name__ == "__main__":
    main()
