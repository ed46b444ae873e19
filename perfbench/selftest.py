"""Self-tests of the benchmark; exits 0 when all pass.

    python3 perfbench/selftest.py

1. A traced and an untraced ``ablation-full`` run of one seed give identical
   output hashes, and two traced runs give identical per-layer counts.
2. On the first clip of each workload, traced in-process, the spans agree
   with clocks the tracer does not own: the ``cli.main`` span with the
   benchmark's own wall time of the call, and the ``pipeline.run`` span with
   the sum of the program's ``RunResult.timings``.  Every wrapped binding is
   called, except those the workload's mode never reaches (``SILENT``), so a
   wrapper on a binding no caller looks up cannot report 0 calls unnoticed.
3. The ``guidance-tiled`` clip on preset ``revisit``, seed 0, at the preset's
   full 48 frames (the workload cuts clips to 16) makes 13,920 denoiser calls
   and computes 4,909 fills, as ROADMAP item 2 measured, with the same output
   traced and untraced.
About four minutes on two cores.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPANS = ROOT / ".perfbench_out"
CLIP_LINE = re.compile(r"^clip \d+ key=(\S+) wall_s=\S+ sha256=(\S+) check=ok ")
COUNT_METRICS = ("calls", "checks", "rounds", "keyframes", "tiles_per_pass", "fill_reuse")
# Wrapped bindings a workload's mode never calls: mode `full` has no spatial
# tiling adapter, and `temporal_only` does not downsample.
SILENT = {
    "ablation-full": {"SpatiallyTiledDenoiser.denoise"},
    "guidance-tiled": {"pipeline.resize_bicubic"},
    "long-clip-default": {"SpatiallyTiledDenoiser.denoise"},
}
# A span may differ from an outside clock by this much: the wrapper's own
# calls, and the code of `pipeline.run` between its timed stages.
CLOCK_TOL_S, CLOCK_TOL_FRAC = 0.005, 0.01


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict[str, str]]:
    """One run of a single round (``--seconds`` too short for a second)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.001", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    hashes = dict(m.groups() for m in map(CLIP_LINE.match, lines) if m)
    result = json.loads(lines[-1])
    if not result["correct"] or not hashes:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: outputs failed checks")
    return result, hashes


def main() -> int:
    plain, plain_hashes = bench("ablation-full", 0, 0)
    traced, traced_hashes = bench("ablation-full", 0, 1)
    if traced_hashes != plain_hashes:
        raise AssertionError(f"traced hashes {traced_hashes} != untraced {plain_hashes}")
    print(f"ok: traced and untraced ablation-full give the same {len(plain_hashes)} hashes")

    again, _ = bench("ablation-full", 0, 1)
    counts = {k: v["value"] for k, v in traced["metrics"].items()
              if k.endswith(COUNT_METRICS)}
    repeat = {k: again["metrics"][k]["value"] for k in counts}
    if counts != repeat:
        raise AssertionError(f"per-layer counts differ between traced runs: {counts} vs {repeat}")
    print(f"ok: {len(counts)} per-layer counts repeat exactly between traced runs")

    sys.path.insert(0, str(BENCH_DIR))
    import run
    run.import_program()
    workdir = SPANS / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_clocks_and_bindings(run, workdir)
        check_full_guidance(run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def traced_clip(run, clip, workdir: Path):
    """Run one clip under a fresh tracer; returns (outcome, tracer)."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        outcome = run.run_clip(clip, workdir, "traced", tracer)
        tracer.end()
    finally:
        tracer.uninstall()
    return outcome, tracer


def check_clock(what: str, span_s: float, clock_s: float) -> None:
    if abs(span_s - clock_s) > max(CLOCK_TOL_S, CLOCK_TOL_FRAC * clock_s):
        raise AssertionError(f"{what}: span {span_s:.6f} s, outside clock {clock_s:.6f} s")


def check_clocks_and_bindings(run, workdir: Path) -> None:
    from outpainter import scene
    from spans import TRACED, binding

    everything = {binding(owner, attr) for owner, attr, _ in TRACED}
    for name, wl in run.WORKLOADS.items():
        clip = run.make_clip(scene, wl, 0, 0, workdir)
        outcome, tracer = traced_clip(run, clip, workdir)
        if not outcome.ok:
            raise AssertionError(f"{name}: traced clip failed: {outcome.reason}")
        layers = tracer.clip_layers(0)
        cli_s, run_s = layers["cli.main"]["total_s"], layers["pipeline.run"]["total_s"]
        stages_s = sum(tracer.stages[0].values())
        check_clock(f"{name} cli.main", cli_s, outcome.wall_s)
        check_clock(f"{name} pipeline.run", run_s, stages_s)
        silent = {b for b in everything if not tracer.fired[b]}
        if silent != SILENT[name]:
            raise AssertionError(f"{name}: bindings never called {sorted(silent)}, "
                                 f"expected {sorted(SILENT[name])}")
        print(f"ok: {name} cli.main span {cli_s:.4f} s ~ wall {outcome.wall_s:.4f} s, "
              f"pipeline.run span {run_s:.4f} s ~ stage sum {stages_s:.4f} s, "
              f"{len(everything) - len(silent)}/{len(everything)} bindings called")
    never = set.intersection(*SILENT.values())
    if never:
        raise AssertionError(f"bindings no workload calls: {sorted(never)}")


def check_full_guidance(run, workdir: Path) -> None:
    from outpainter import scene

    wl = replace(run.WORKLOADS["guidance-tiled"], frames=None)
    clip = run.make_clip(scene, wl, 0, 0, workdir)
    plain = run.run_clip(clip, workdir, "plain")
    traced, tracer = traced_clip(run, clip, workdir)
    if not (plain.ok and traced.ok and plain.sha256 == traced.sha256):
        raise AssertionError(f"48-frame guidance clip: untraced {plain.reason or plain.sha256}, "
                             f"traced {traced.reason or traced.sha256}")
    m = tracer.clip_metrics(0)
    if (m["denoiser.denoise_calls"], m["denoiser.fill_calls"]) != (13920, 4909):
        raise AssertionError(f"48-frame guidance clip: {m['denoiser.denoise_calls']} "
                             f"denoise calls, {m['denoiser.fill_calls']} fills")
    print("ok: 48-frame guidance clip (revisit, seed 0) makes 13920 denoise calls and "
          "4909 fills, traced output equal to untraced")


if __name__ == "__main__":
    sys.exit(main())
