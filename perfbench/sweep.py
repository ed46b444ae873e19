"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 10] [--write]

For each workload: one untraced run on each of seeds ``0 .. N-1``, each for
``run_seconds`` from ``BENCHMARK.json``, then one traced run on seed 0.  Prints, per end-to-end metric, the median and the quartile
spread ``(q3 - q1) / median`` (``statistics.quantiles(n=4)``) next to the
metric's bound from ``BENCHMARK.json``, the traced run's per-layer metrics,
and the tracing overhead (traced minus untraced ``clip_s_p50`` on the same
seed).  ``--write`` stores the summary, the machine and every clip's output
hash in ``perfbench/results.json``; ``run.py`` reports later outputs against
those hashes.  Runs go one at a time, each in its own process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLIP_LINE = re.compile(r"^clip \d+ key=(\S+) wall_s=\S+ sha256=(\S+) ")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict[str, str]]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    hashes = {}
    for line in lines:
        m = CLIP_LINE.match(line)
        if m:
            hashes[m.group(1).split("/", 1)[1]] = m.group(2)
    return json.loads(lines[-1]), hashes


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def machine() -> dict:
    import numpy
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower() or key.strip() == "Model name":
            info[key.strip()] = value.strip()
    return info


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from run import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true",
                        help="store the summary and output hashes in perfbench/results.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.seeds))
    seconds = bench["run_seconds"]

    path = BENCH_DIR / "results.json"
    summary = {"workloads": {}, "hashes": {}}
    if args.write and path.exists():
        summary = json.loads(path.read_text())
    summary["machine"] = machine()
    for name in args.workloads.split(","):
        wl = WORKLOADS[name]
        runs, hashes = [], {}
        for seed in seeds:
            result, clip_hashes = run_once(name, seed, seconds, 0)
            runs.append(result)
            hashes.update(clip_hashes)
            print(f"{name} seed={seed} correct={result['correct']} clips={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced, traced_hashes = run_once(name, seeds[0], seconds, 1)
        untraced_first = runs[0]["metrics"]["clip_s_p50"]["value"]
        overhead = traced["metrics"]["trace.clip_s_p50"]["value"] - untraced_first
        common = traced_hashes.keys() & hashes.keys()
        same = bool(common) and all(hashes[k] == traced_hashes[k] for k in common)
        row = {"why": wl.why, "layers": wl.layers, "roadmap": wl.roadmap,
               "mode": wl.mode, "presets": list(wl.presets),
               "seeds": seeds, "run_seconds": seconds,
               "correct_runs": sum(r["correct"] for r in runs),
               "clips_per_run": [r["attempted"] for r in runs],
               "end_to_end": {},
               "traced_seed": seeds[0],
               "traced_hashes_match_untraced": same,
               "tracing_overhead_s": overhead,
               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"\n{name}: {len(runs)} runs, clips per run {row['clips_per_run']}")
        for metric, meta in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            bound = meta["bound"]
            flag = "ok" if sp <= bound / 3 else ("WITHIN BOUND" if sp <= bound else "OVER BOUND")
            row["end_to_end"][metric] = {"unit": meta["unit"], "median": med, "q1": q1,
                                         "q3": q3, "spread": sp, "bound": bound}
            print(f"  {metric:20s} median={med:<12.6g} spread={sp:.4f} bound={bound} {flag}")
        print(f"  tracing overhead: {overhead:+.4f} s on seed {seeds[0]}; "
              f"traced hashes match untraced: {same}")
        for k, v in row["per_layer"].items():
            print(f"  {k:30s} {v:.6g}")
        print(flush=True)
        summary["workloads"][name] = row
        summary["hashes"][name] = dict(sorted(hashes.items()))
    if args.write:
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
