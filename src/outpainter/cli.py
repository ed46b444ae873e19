"""Command-line surface: synthesize scenes, outpaint, evaluate, export, ablate.

Exit codes: 0 success, 1 runtime/stage error, 2 configuration or usage error.
The environment variable HLOP_SEED overrides any configured seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import metrics, pipeline, scene, video

FORMAT_VERSION = 1


def _atomic_write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_rect(text: str) -> tuple[int, int, int, int]:
    try:
        y, x, h, w = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise pipeline.ConfigError(f"rectangle must be 'y,x,h,w' integers, got {text!r}") from exc
    return y, x, h, w


def _parse_int(name: str, text: str, seed: bool = False) -> int:
    """`text` as a count >= 1 or, for a `seed`, as an integer in [0, 2**64),
    written in ASCII digits alone: int() would also take a sign, spaces,
    underscores and other scripts' digits (and no more digits than it
    converts by default)."""
    value = int(text) if re.fullmatch("[0-9]{1,4300}", text) else -1
    if seed and not 0 <= value < 2 ** 64:
        raise pipeline.ConfigError(f"{name}: seed must be an integer in [0, 2**64), "
                                   f"got {text!r}")
    if not seed and value < 1:
        raise pipeline.ConfigError(f"{name} must be >= 1, got {text}")
    return value


def _resolve_seed(config_seed: int, flag: str | None) -> int:
    """HLOP_SEED, else the --seed flag, else the config's seed; the flag is
    checked even when HLOP_SEED overrides it."""
    flag_seed = None if flag is None else _parse_int("--seed", flag, seed=True)
    env = os.environ.get("HLOP_SEED")
    if env is not None:
        return _parse_int("HLOP_SEED", env, seed=True)
    return config_seed if flag_seed is None else flag_seed


def cmd_synth(args) -> int:
    if args.preset:
        given = [f"--{k}" for k in ("scene", "frames", "crop", "full") if vars(args)[k] is not None]
        if given:
            raise pipeline.ConfigError(f"--preset does not take {', '.join(given)}")
        case = scene.preset_case(args.preset, _resolve_seed(0, args.seed))
    else:
        if not args.scene:
            raise pipeline.ConfigError("synth needs --preset or --scene")
        try:
            spec = scene.SceneSpec.from_json(Path(args.scene).read_text())
            pipeline.check_seed(spec.seed)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise pipeline.ConfigError(f"bad scene file {args.scene}: {exc}") from exc
        if args.crop is None or args.full is None:
            raise pipeline.ConfigError("--scene requires --crop and --full")
        frames = 48 if args.frames is None else _parse_int("--frames", args.frames)
        geometry = scene.CaseGeometry(full=_parse_rect(args.full),
                                      crop=_parse_rect(args.crop))
        seed = _resolve_seed(spec.seed, args.seed)
        case = scene.make_case(dataclasses.replace(spec, seed=seed), frames, geometry)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    video.write_raw(f"{prefix}.input.hlvd", case.input)
    video.write_raw(f"{prefix}.truth.hlvd", case.ground_truth)
    video.write_raw(f"{prefix}.mask.hlvd", scene.case_mask(case))
    print(f"synth: wrote {prefix}.input.hlvd / .truth.hlvd / .mask.hlvd "
          f"({case.input.frames} frames)")
    return 0


def _load_config(path: str, mode: str | None, seed: str | None) -> pipeline.PipelineConfig:
    """The config file at `path`, its mode and seed then replaced by the
    flags and HLOP_SEED; the file's own values are checked either way."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise pipeline.ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to parse
        raise pipeline.ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise pipeline.ConfigError(f"config {path} must be a JSON object, "
                                   f"got {type(raw).__name__}")
    config = pipeline.PipelineConfig.from_dict(raw)
    return dataclasses.replace(config, mode=mode or config.mode,
                               seed=_resolve_seed(config.seed, seed))


def _load_clip(config: pipeline.PipelineConfig, in_path: str) -> video.VideoTensor:
    """The input clip, refused unless its values lie in [-1, 1] and it fits
    the config's pad canvas."""
    clip = video.read_raw(in_path)
    peak = float(np.abs(clip.data).max())
    if peak > 1.0:
        raise video.FormatError(f"{in_path}: values must lie in [-1, 1], "
                                f"largest |value| is {peak:g}")
    try:
        config.pad.validate(clip.height, clip.width)
    except video.ShapeError as exc:
        raise pipeline.ConfigError(f"pad canvas does not fit {in_path}: {exc}") from exc
    return clip


def _load_scoring(truth_path: str, mask_path: str,
                  shape: tuple) -> tuple[video.VideoTensor, video.MaskVideo]:
    """The truth and mask that score an output of `shape`, refused unless
    they match it and its frames hold an SSIM window."""
    truth = video.read_raw(truth_path)
    mask = video.read_mask(mask_path)
    if truth.shape != shape:
        raise pipeline.ConfigError(f"truth {truth_path} is {truth.shape}, the output {shape}")
    if mask.data.shape != shape[:3] + (1,):
        raise pipeline.ConfigError(f"mask {mask_path} is {mask.data.shape}, "
                                   f"the output needs {shape[:3] + (1,)}")
    n = metrics.SSIM_WINDOW
    if shape[1] < n or shape[2] < n:
        raise pipeline.ConfigError(f"output frames of {shape[1]}x{shape[2]} are smaller "
                                   f"than the {n}x{n} SSIM window")
    return truth, mask


def _run_one(config: pipeline.PipelineConfig, clip: video.VideoTensor, in_path: str,
             out_path: str) -> pipeline.RunResult:
    result = pipeline.run(config, clip)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    video.write_raw(out, result.output)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "seed": config.seed,
        "mode": result.mode,
        "keyframes": list(result.keyframes) if result.keyframes else None,
        "stage_seconds": {k: round(v, 6) for k, v in result.timings.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "toolchain": {"numpy": np.__version__, "python": platform.python_version()},
        "input": str(in_path),
        "output": str(out),
    }
    _atomic_write_json(out.with_suffix(out.suffix + ".manifest.json"), manifest)
    return result


def cmd_outpaint(args) -> int:
    config = _load_config(args.config, args.mode, args.seed)
    result = _run_one(config, _load_clip(config, args.input), args.input, args.output)
    total = sum(result.timings.values())
    print(f"outpaint[{result.mode}]: {args.input} -> {args.output} "
          f"({result.output.frames} frames, {total:.2f}s)")
    return 0


def cmd_eval(args) -> int:
    out = video.read_raw(args.output)
    truth, mask = _load_scoring(args.truth, args.mask, out.shape)
    rep = metrics.report(out, truth, mask)
    _atomic_write_json(Path(args.report), rep)
    print(f"eval: psnr(all)={rep['psnr']['all']} ssim={rep['ssim']} -> {args.report}")
    return 0


def cmd_export_ppm(args) -> int:
    every = _parse_int("--every", args.every)
    clip = video.read_raw(args.input)
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for f in range(0, clip.frames, every):
        video.write_ppm(outdir / f"frame_{f:05d}.ppm", clip, f)
        count += 1
    print(f"export-ppm: wrote {count} frames to {outdir}")
    return 0


def cmd_ablate(args) -> int:
    if (args.truth is None) != (args.mask is None):
        raise pipeline.ConfigError("ablate takes --truth and --mask together or neither")
    outdir = Path(args.dir)
    configs = {mode: _load_config(args.config, mode, args.seed) for mode in pipeline.MODES}
    pad = configs["full"].pad
    clip = _load_clip(configs["full"], args.input)
    if args.truth is not None:
        truth, mask = _load_scoring(args.truth, args.mask, (clip.frames, pad.target_height,
                                                            pad.target_width, clip.channels))
    table = {}
    for mode, config in configs.items():
        result = _run_one(config, clip, args.input, str(outdir / f"{mode}.hlvd"))
        row = {"seconds": round(sum(result.timings.values()), 3)}
        if args.truth is not None:
            rep = metrics.report(result.output, truth, mask)
            row["psnr_outpainted"] = rep["psnr"]["outpainted"]
            row["ssim"] = rep["ssim"]
        table[mode] = row
    _atomic_write_json(outdir / "ablation.json", {"format_version": FORMAT_VERSION,
                                                  "modes": table})
    for mode, row in table.items():
        print(f"ablate[{mode}]: " + " ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="outpainter",
                                     description="Coarse-to-fine video outpainting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene to HLVD files")
    p.add_argument("--preset", choices=sorted(scene.PRESETS))
    p.add_argument("--scene", help="scene spec JSON file")
    p.add_argument("--frames", help="frames to render with --scene (default 48)")
    p.add_argument("--crop", help="crop rect 'y,x,h,w' relative to camera")
    p.add_argument("--full", help="full rect 'y,x,h,w' relative to camera")
    p.add_argument("--seed")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("outpaint", help="run the outpainting pipeline")
    p.add_argument("config", help="pipeline config JSON")
    p.add_argument("input", help="input HLVD video")
    p.add_argument("output", help="output HLVD video")
    p.add_argument("--mode", choices=pipeline.MODES)
    p.add_argument("--seed")
    p.set_defaults(func=cmd_outpaint)

    p = sub.add_parser("eval", help="compute metrics against ground truth")
    p.add_argument("output", help="generated HLVD video")
    p.add_argument("truth", help="ground-truth HLVD video")
    p.add_argument("mask", help="outpainting mask HLVD")
    p.add_argument("report", help="metrics report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-ppm", help="export frames as P6 PPM previews")
    p.add_argument("input", help="HLVD video")
    p.add_argument("dir", help="output directory")
    p.add_argument("--every", default="1")
    p.set_defaults(func=cmd_export_ppm)

    p = sub.add_parser("ablate", help="run all ablation modes and compare")
    p.add_argument("config", help="pipeline config JSON")
    p.add_argument("input", help="input HLVD video")
    p.add_argument("dir", help="output directory")
    p.add_argument("--truth")
    p.add_argument("--mask")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (pipeline.ConfigError, video.FormatError, scene.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:  # RuntimeError includes StageError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
