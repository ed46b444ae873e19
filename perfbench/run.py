"""Closed-loop benchmark of the outpainter CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One client runs clips back to back on one thread; each clip is one
in-process ``outpainter.cli.main(["outpaint", config, in.hlvd, out.hlvd])``
call on HLVD and config files generated from ``--seed``.  After one untimed
warm-up clip, whole rounds of clips run until ``--seconds`` have passed.
Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics from the span tracer with ``--trace 1``).
Working files go to ``.perfbench_out/`` under the checkout.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
RESULTS = BENCH_DIR / "results.json"

# One client, one thread: keep any BLAS pool NumPy may load to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# HLOP_SEED silently overrides config seeds; the program gets only our files.
os.environ.pop("HLOP_SEED", None)

import numpy as np  # noqa: E402

OBSERVED_TOL = 1e-6

# The acceptance suite's `_ablation_config`, written as the CLI's JSON schema.
ABLATION_CONFIG = {
    "working": {"height": 16, "width": 24},
    "sampler": {"total_steps": 10, "swap_steps": 3},
    "gcg": {"keyframes": 5, "delta": 1, "tau": 4},
    "tiling": {"tile_t": 16, "overlap_t": 4, "tile_y": 12, "tile_x": 12,
               "overlap_y": 4, "overlap_x": 4},
    "denoiser": {"lambda_sparse": 2.5, "lambda_dense": 2.0, "radius": 5},
}


@dataclass(frozen=True)
class Workload:
    mode: str
    presets: tuple[str, ...]   # a round is one clip of each preset, in order
    ablation_config: bool      # else the default config with only `pad` set
    frames: int | None         # re-time the preset's camera path to this length
    why: str
    layers: str
    roadmap: str


WORKLOADS = {
    "ablation-full": Workload(
        mode="full", presets=("late-reveal", "revisit", "textured", "drift"),
        ablation_config=True, frames=None,
        why="the paper's whole coarse-to-fine path at desk scale; inverse-"
            "distance fills on small 12x12 tiles and all-zero-mask refinement "
            "dominate; HLVD I/O has its largest share here but stays under 1%",
        layers="tiling (pass, blend), denoiser (zero-mask fills), sampler.step, "
               "gcg multiscale rounds, video tensor checks, cli I/O",
        roadmap="exercises item 2 (condition once, all-zero-mask refinement) "
                "and item 3 (batched tile stepping)"),
    # 16 frames, not the presets' 48: one GCG construction per clip (~1.5 s
    # instead of ~25 s), so a run holds several rounds.  With more frames the
    # 128-entry FIFO fill cache sits at the edge of its working set and the
    # fill count swings with scene content (966 to 2,185 fills for 6,480 calls
    # at 24 frames), which makes clip time depend on the seed.
    "guidance-tiled": Workload(
        mode="temporal_only", presets=("revisit", "drift"),
        ablation_config=True, frames=16,
        why="GCG guidance at the 32x48 target resolution through "
            "SpatiallyTiledDenoiser: every denoiser call fans out to 24 spatial "
            "tiles and blends them; guidance is ~70% of wall time",
        layers="gcg.construct, tiling.adapter, tiling.blend, denoiser, "
               "sampler.step",
        roadmap="exercises item 3 (24 same-shaped spatial tiles per call); "
                "item 2's fill-cache thrash needs 48 frames and is checked "
                "by selftest.py, not timed here"),
    # 192 frames, not 320: ~10 s a clip instead of ~21 s, so a run fits the
    # time budget; still one spatial tile and 5 temporal tiles of 49 frames.
    # Two scenes a round halve the seed-to-seed spread of the quality metrics.
    "long-clip-default": Workload(
        mode="full", presets=("revisit", "drift"),
        ablation_config=False, frames=192,
        why="default config on 192-frame clips: one spatial tile, 5 temporal "
            "tiles, 13 keyframes, fills reused, so time goes to arithmetic on "
            "large arrays; catches a gain bought with memory (~135 MB peak)",
        layers="denoiser self time (_smooth3, cache-key hashing), sampler.step, "
               "rng.normals, video.resize_bicubic",
        roadmap="bypasses items 2 and 3 (fills already reused, one tile per "
                "pass): the prediction there is no change"),
}

END_TO_END = (
    ("setup_s", "s"), ("clip_s_p50", "s"), ("kvox_per_s", "kvox/s"),
    ("peak_rss_mb", "MB"), ("psnr_outpainted_db", "dB"), ("ssim", "1"),
    ("ok_frac", "1"),
)


class SourceMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program() -> None:
    """Import the outpainter package from this checkout's ``src/`` only."""
    src = ROOT / "src"
    if not (src / "outpainter" / "__init__.py").is_file():
        raise SourceMissing(f"no outpainter sources under {src}")
    sys.path.insert(0, str(src))
    import outpainter
    if Path(outpainter.__file__).resolve().parent != (src / "outpainter").resolve():
        raise SourceMissing(f"outpainter imported from {outpainter.__file__}, not {src}")


# -- HLVD, read and written here so the checks do not trust the program ------
def write_hlvd(path: Path, data) -> None:
    f, h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(b"HLVD" + struct.pack("<IIII", f, h, w, c))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_hlvd(raw: bytes):
    if len(raw) < 20 or raw[:4] != b"HLVD":
        raise ValueError("not an HLVD file")
    shape = struct.unpack("<IIII", raw[4:20])
    count = shape[0] * shape[1] * shape[2] * shape[3]
    if len(raw) != 20 + 4 * count:
        raise ValueError(f"payload of {len(raw) - 20} bytes for shape {shape}")
    return np.frombuffer(raw[20:], dtype="<f4").reshape(shape)


# -- inputs ---------------------------------------------------------------
@dataclass
class Clip:
    index: int
    preset: str
    scene_seed: int
    case: object
    config_path: Path
    input_path: Path

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.scene_seed}"


def render_case(scene, wl: Workload, preset: str, scene_seed: int):
    spec, frames, geometry = scene.PRESETS[preset](scene_seed)
    if wl.frames is not None:
        last = frames - 1
        camera = tuple(replace(k, frame=k.frame * (wl.frames - 1) // last)
                       for k in spec.camera)
        spec, frames = replace(spec, camera=camera), wl.frames
    return scene.make_case(spec, frames, geometry)


def make_clip(scene, wl: Workload, seed: int, index: int, workdir: Path) -> Clip:
    preset = wl.presets[index % len(wl.presets)]
    scene_seed = seed * 1000 + index
    case = render_case(scene, wl, preset, scene_seed)
    place = case.geometry.placement
    config = {"pad": {"target_height": place.target_height,
                      "target_width": place.target_width,
                      "offset_y": place.offset_y, "offset_x": place.offset_x}}
    if wl.ablation_config:
        config.update(ABLATION_CONFIG, mode=wl.mode, seed=scene_seed)
    config_path = workdir / f"config_{index}.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    input_path = workdir / f"in_{index}.hlvd"
    write_hlvd(input_path, case.input.data)
    return Clip(index, preset, scene_seed, case, config_path, input_path)


def make_round(scene, wl: Workload, seed: int, rnd: int, workdir: Path) -> list[Clip]:
    n = len(wl.presets)
    return [make_clip(scene, wl, seed, rnd * n + j, workdir) for j in range(n)]


# -- one clip -----------------------------------------------------------------
@dataclass
class Outcome:
    key: str
    wall_s: float
    ok: bool
    reason: str
    sha256: str = ""
    voxels: int = 0
    psnr: float = 0.0
    ssim: float = 0.0


def check_output(clip: Clip, raw: bytes):
    """Return (output array, reason or '') for one clip's output file."""
    out = read_hlvd(raw)
    inp = clip.case.input.data
    place = clip.case.geometry.placement
    want = (inp.shape[0], place.target_height, place.target_width, inp.shape[3])
    if out.shape != want:
        return out, f"shape {out.shape} != {want}"
    if not np.isfinite(out).all():
        return out, "non-finite output"
    if out.min() < -1.0 or out.max() > 1.0:
        return out, f"output outside [-1, 1]: [{out.min()}, {out.max()}]"
    y, x = place.offset_y, place.offset_x
    observed = out[:, y:y + inp.shape[1], x:x + inp.shape[2]]
    err = float(np.abs(observed.astype(np.float64) - inp).max())
    if err > OBSERVED_TOL:
        return out, f"observed pixels differ from the input by {err:.3e}"
    return out, ""


def run_clip(clip: Clip, workdir: Path, tag: str, tracer=None, score=False) -> Outcome:
    """Time one CLI call, then check (and with ``score`` rate) its output.

    Only the outcome is kept, so the benchmark's own memory does not grow
    with the number of clips and ``peak_rss_mb`` stays the program's."""
    from outpainter import cli, metrics, scene, video
    out_path = workdir / f"out_{clip.index}_{tag}.hlvd"
    argv = ["outpaint", str(clip.config_path), str(clip.input_path), str(out_path)]
    gc.collect()  # start each clip from the same heap state
    t0 = time.perf_counter()
    try:
        rc = tracer.call_cli(argv) if tracer is not None else cli.main(argv)
    except Exception:  # a crash is one failed clip; the run goes on
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    if rc != 0:
        return Outcome(clip.key, wall, False, f"exit code {rc}")
    try:
        raw = out_path.read_bytes()
        output, reason = check_output(clip, raw)
    except (OSError, ValueError) as exc:
        return Outcome(clip.key, wall, False, f"unreadable output: {exc}")
    out_path.unlink()
    result = Outcome(clip.key, wall, not reason, reason, hashlib.sha256(raw).hexdigest(),
                     output.shape[0] * output.shape[1] * output.shape[2])
    if score and result.ok:
        rep = metrics.report(video.VideoTensor(output.copy()), clip.case.ground_truth,
                             scene.case_mask(clip.case))
        result.psnr, result.ssim = float(rep["psnr"]["outpainted"]), float(rep["ssim"])
    return result


def recorded_hashes(workload: str) -> dict[str, str]:
    try:
        return json.loads(RESULTS.read_text())["hashes"][workload]
    except (OSError, ValueError, KeyError):
        return {}


# -- the run ------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    from outpainter import scene
    wl = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        # Only one round of inputs is alive at a time, so peak RSS does not
        # depend on how many rounds fit in a run.
        clips = make_round(scene, wl, seed, 0, workdir)
        warm = run_clip(clips[0], workdir, "warmup")

        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        outcomes: list[Outcome] = []
        t_start = time.perf_counter()
        setup_s = t_start - T_PROCESS
        rnd = 0
        try:
            while True:
                for clip in clips:
                    if tracer is not None:
                        tracer.begin(len(outcomes))
                    outcomes.append(run_clip(clip, workdir, "timed", tracer,
                                             score=not trace))
                    if tracer is not None:
                        tracer.end()
                rnd += 1
                if time.perf_counter() - t_start >= seconds:
                    break
                clips = None
                clips = make_round(scene, wl, seed, rnd, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured_s = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = outcomes[0]
    if warm.ok and first.ok and warm.sha256 != first.sha256:
        first.ok, first.reason = False, "output differs from the warm-up run"
    known = recorded_hashes(workload)
    changed = 0
    for i, o in enumerate(outcomes):
        rec = known.get(o.key)
        status = "unrecorded" if rec is None else ("same" if rec == o.sha256 else "changed")
        changed += status == "changed"
        print(f"clip {i} key={workload}/{o.key} wall_s={o.wall_s:.6f} "
              f"sha256={o.sha256 or '-'} check={'ok' if o.ok else 'FAIL: ' + o.reason} "
              f"recorded={status}")
    print(f"warmup key={workload}/{warm.key} wall_s={warm.wall_s:.6f} "
          f"sha256={warm.sha256 or '-'} check={'ok' if warm.ok else 'FAIL: ' + warm.reason}")
    good = [o for o in outcomes if o.ok]
    attempted, failed = len(outcomes), len(outcomes) - len(good)
    walls = [o.wall_s for o in outcomes]
    print(f"run workload={workload} seed={seed} mode={wl.mode} trace={int(trace)} "
          f"clips={attempted} rounds={rnd} measured_s={measured_s:.3f} "
          f"hashes_changed={changed}")

    correct = bool(good) and failed == 0 and warm.ok
    if trace:
        per_clip = [tracer.clip_metrics(i) for i, o in enumerate(outcomes) if o.ok]
        values = spans.median_metrics(per_clip) if per_clip else {}
        values["trace.clip_s_p50"] = statistics.median(walls)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        units = spans.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "clip_s_p50": statistics.median(walls),
            "kvox_per_s": sum(o.voxels for o in good) / sum(walls) / 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "psnr_outpainted_db": float(np.mean([o.psnr for o in good])) if good else 0.0,
            "ssim": float(np.mean([o.ssim for o in good])) if good else 0.0,
            "ok_frac": len(good) / attempted,
        }
        units = END_TO_END
        print(f"metric failed_frac = {failed / attempted} 1")
    print(f"medians and means over {attempted} timed clips ({len(good)} passed checks); "
          f"setup_s runs from the first statement of run.py to the first timed clip")
    result = {}
    for name, unit in units:
        value = values.get(name, 0.0)
        result[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
