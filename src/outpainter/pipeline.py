"""End-to-end outpainting orchestration.

Stages: spatial padding onto the target canvas, downsampling to a working
resolution, multi-scale keyframe guidance, guidance insertion, temporally
tiled completion, and noise-injected spatial refinement back at target
resolution.  Every stage runs on the clip's true frame count.
Ablation modes selectively disable the guidance and refinement stages.
"""
from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

import numpy as np

from . import gcg as gcg_mod
from .denoiser import DenoiserConfig, ToyDenoiser
from .sampler import SampleSchedule, sdedit_start
from .tiling import (ConfigError, SpatiallyTiledDenoiser, TilePlan, plan, prepare_tiles,
                     tiled_denoise_pass)
from .video import (MaskVideo, PadSpec, VideoTensor, downsample_mask, pad_video,
                    resize_bicubic)

MODES = ("full", "spatial_only", "temporal_only", "baseline")


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class SamplerParams:
    total_steps: int = 40
    swap_steps: int = 8
    refine_strength: float = 0.5

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 0 <= self.swap_steps <= self.total_steps:
            raise ConfigError("swap_steps must be in [0, total_steps]")
        if not 0.0 < self.refine_strength <= 1.0:
            raise ConfigError("refine_strength must be in (0, 1]")


@dataclass(frozen=True)
class GcgParams:
    keyframes: int = 13
    delta: int = 5
    delta_auto: bool = False
    tau: int = 20

    def __post_init__(self):
        if self.keyframes < 1 or self.delta < 1 or self.tau < 1:
            raise ConfigError("keyframes, delta and tau must be positive")


@dataclass(frozen=True)
class TilingParams:
    tile_t: int = 49
    overlap_t: int = 12
    tile_y: int = 96
    tile_x: int = 96
    overlap_y: int = 24
    overlap_x: int = 24

    def __post_init__(self):
        if not 0 <= self.overlap_t < self.tile_t:
            raise ConfigError("overlap_t must be in [0, tile_t)")
        if not 0 <= self.overlap_y < self.tile_y:
            raise ConfigError("overlap_y must be in [0, tile_y)")
        if not 0 <= self.overlap_x < self.tile_x:
            raise ConfigError("overlap_x must be in [0, tile_x)")


def check_seed(seed) -> int:
    """`seed` if it is an int, not a bool, in [0, 2**64): rng.stream_key keys
    on 64 bits, so wider seeds would alias narrower ones."""
    if not (type(seed) is int and 0 <= seed < 2 ** 64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list"}


def _typed(name: str, value, hint):
    """`value` if it is exactly of type `hint`, nothing coerced: an int takes
    no bool, a float any finite number (as a float), `object` anything."""
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # NaN and infinities fail the comparison
    if hint is object or hint is not float and type(value) is hint:
        return value
    raise ConfigError(f"config field {name} must be {_TYPE_NAMES[hint]}, got {value!r}")


def _load(make, value, name: str, hints: dict | None = None, **fixed):
    """`make(**value)` for the JSON object `value` of config field `name`, whose
    keys and types are `hints` (by default the annotations of the dataclass
    `make`) and whose `fixed` keys may hold only their given value.  Any error,
    from a type to `make`'s own checks, becomes a one-line ConfigError."""
    prefix = f"{name}." if name else ""
    if not isinstance(value, dict):
        raise ConfigError(f"config field {name} must be an object, got {type(value).__name__}")
    hints = get_type_hints(make) if hints is None else hints
    unknown = [prefix + k for k in value if k not in hints and k not in fixed]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    for key, only in fixed.items():
        if value.get(key, only) != only:
            raise ConfigError(f"config field {prefix}{key} must be {only!r}, got {value[key]!r}")
    kwargs = {k: _typed(prefix + k, v, hints[k]) for k, v in value.items() if k not in fixed}
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {name}: {exc}") from exc


def _codec_kind(factor: int) -> str:
    return "identity" if factor == 1 else "avgpool"


@dataclass(frozen=True)
class PipelineConfig:
    pad: PadSpec
    mode: str = "full"
    seed: int = 0
    working_height: int | None = None
    working_width: int | None = None
    sampler: SamplerParams = field(default_factory=SamplerParams)
    gcg: GcgParams = field(default_factory=GcgParams)
    tiling: TilingParams = field(default_factory=TilingParams)
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    codec_factor: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_seed(self.seed)
        if not (type(self.codec_factor) is int and self.codec_factor >= 1):
            raise ConfigError(f"codec factor must be an integer >= 1, got {self.codec_factor!r}")
        if (self.working_height is None) != (self.working_width is None):
            raise ConfigError("working height and width must be set together")
        wh, ww = self.working_resolution()
        if not (0 < wh <= self.pad.target_height and 0 < ww <= self.pad.target_width):
            raise ConfigError(f"working resolution {wh}x{ww} is not within [1, target]")
        if self.codec_factor > 1 and (wh % self.codec_factor or ww % self.codec_factor):
            raise ConfigError("working resolution must be divisible by codec_factor")

    def working_resolution(self) -> tuple[int, int]:
        """Configured working size, else longest target side mapped to 768."""
        th, tw = self.pad.target_height, self.pad.target_width
        if self.working_height is not None and self.working_width is not None:
            return self.working_height, self.working_width
        longest = max(th, tw)
        if longest <= 768:
            return th, tw
        scale = 768.0 / longest
        return max(1, round(th * scale)), max(1, round(tw * scale))

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config a JSON object describes, laid out as `to_dict` writes it."""
        d = _load(dict, d, "", dict.fromkeys(("pad", "mode", "seed", "working", "sampler", "gcg",
                                              "tiling", "denoiser", "codec"), object))
        working = _load(dict, d.get("working", {}), "working", {"height": int, "width": int})
        codec = _load(dict, d.get("codec", {}), "codec", {"kind": object, "factor": object})
        config = cls(
            pad=_load(PadSpec, d.get("pad", {}), "pad"),
            mode=d.get("mode", "full"),
            seed=d.get("seed", 0),
            working_height=working.get("height"),
            working_width=working.get("width"),
            sampler=_load(SamplerParams, d.get("sampler", {}), "sampler"),
            gcg=_load(GcgParams, d.get("gcg", {}), "gcg"),
            tiling=_load(TilingParams, d.get("tiling", {}), "tiling"),
            denoiser=_load(DenoiserConfig, d.get("denoiser", {}), "denoiser", kind="toy"),
            codec_factor=codec.get("factor", 1))
        kind = _codec_kind(config.codec_factor)
        if codec.get("kind", kind) != kind:
            raise ConfigError(f"codec.kind must be {kind!r} for factor {config.codec_factor}")
        return config

    def to_dict(self) -> dict:
        wh, ww = self.working_resolution()
        return {
            "pad": asdict(self.pad),
            "mode": self.mode,
            "seed": self.seed,
            "working": {"height": wh, "width": ww},
            "sampler": asdict(self.sampler),
            "gcg": asdict(self.gcg),
            "tiling": asdict(self.tiling),
            "denoiser": {"kind": "toy", **asdict(self.denoiser)},
            "codec": {"kind": _codec_kind(self.codec_factor), "factor": self.codec_factor},
        }


def codec_encode(video: VideoTensor, factor: int) -> VideoTensor:
    """Average-pool each frame by `factor` along both spatial axes."""
    if factor == 1:
        return video
    f, h, w, c = video.shape
    if h % factor or w % factor:
        raise ConfigError(f"({h}, {w}) not divisible by codec factor {factor}")
    blocks = video.data.reshape(f, h // factor, factor, w // factor, factor, c)
    return VideoTensor(blocks.mean(axis=(2, 4), dtype=np.float64).astype(np.float32))


def codec_encode_mask(mask: MaskVideo, factor: int) -> MaskVideo:
    """A pooled cell counts as observed only if every source pixel is observed."""
    if factor == 1:
        return mask
    f, h, w, c = mask.data.shape
    if h % factor or w % factor:
        raise ConfigError(f"({h}, {w}) not divisible by codec factor {factor}")
    blocks = mask.data.reshape(f, h // factor, factor, w // factor, factor, c)
    return MaskVideo(blocks.max(axis=(2, 4)))


def codec_decode(video: VideoTensor, factor: int) -> VideoTensor:
    """Nearest-neighbor expansion back to pixel resolution."""
    if factor == 1:
        return video
    return VideoTensor(np.repeat(np.repeat(video.data, factor, axis=1), factor, axis=2))


@dataclass(frozen=True)
class RunResult:
    output: VideoTensor
    mode: str
    seed: int
    timings: dict[str, float]
    keyframes: tuple[int, ...] | None


def _sample_tiles(condition: VideoTensor, mask: MaskVideo, denoiser, tile_plan: TilePlan,
                  sample: SampleSchedule, strength: float, rng_seed: int,
                  label: str) -> VideoTensor:
    """SDEdit from `condition` over a tile plan with per-step blending:
    prepare each tile's conditioning once, noise the condition to `strength`
    (after the fills, so their temporaries and the latent are not held at
    once), then step."""
    prepared = prepare_tiles(denoiser, condition, mask, tile_plan, "dense")
    z, steps = sdedit_start(condition, strength, sample, rng_seed, label)
    times = sample.times
    for s in range(sample.total_steps - steps, sample.total_steps):
        z = tiled_denoise_pass(z, tile_plan, denoiser, float(times[s]), float(times[s + 1]),
                               prepared)
    return z


def temporal_completion(guided: VideoTensor, guided_mask: MaskVideo, denoiser,
                        plan_t: TilePlan, sample: SampleSchedule, rng_seed: int) -> VideoTensor:
    """Full denoising from pure noise over the tile plan with per-step
    blending, conditioned on the guidance-augmented video.  At strength 1
    SDEdit starts from the noise alone: (1-1)*guided + 1*eps is eps."""
    return _sample_tiles(guided, guided_mask, denoiser, plan_t, sample, 1.0, rng_seed,
                         "completion:init")


def spatial_refinement(completed_ds: VideoTensor, padded: VideoTensor,
                       mask: MaskVideo, denoiser, plan_st: TilePlan,
                       sample: SampleSchedule, strength: float, rng_seed: int) -> VideoTensor:
    """Upsample the completed working-resolution video to target resolution,
    composite observed pixels back in, inject moderate noise, and re-denoise
    over spatio-temporal tiles anchored on the composite."""
    target = VideoTensor(resize_bicubic(completed_ds, padded.height, padded.width).data)
    composite = VideoTensor(np.where(mask.data > 0.0, target.data, padded.data))
    del target
    zero_mask = MaskVideo(np.zeros(mask.data.shape, dtype=np.float32))
    return _sample_tiles(composite, zero_mask, denoiser, plan_st, sample, strength, rng_seed,
                         "refine")


def _stage(timings: dict, name: str):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            timings[name] = time.perf_counter() - self.t0
            if exc is not None and not isinstance(exc, StageError):
                raise StageError(name, exc) from exc
            return False
    return _Timer()


def run(config: PipelineConfig, video: VideoTensor) -> RunResult:
    timings: dict[str, float] = {}
    sample = SampleSchedule(config.sampler.total_steps, config.sampler.swap_steps)
    til = config.tiling
    denoiser = ToyDenoiser(config.denoiser)

    with _stage(timings, "pad"):
        padded, mask = pad_video(video, config.pad)

    use_gcg = config.mode in ("full", "temporal_only")
    use_downsample = config.mode in ("full", "spatial_only")  # and refine back up

    with _stage(timings, "downsample"):
        factor = config.codec_factor if use_downsample else 1
        if use_downsample:
            wh, ww = config.working_resolution()
            video_ds = codec_encode(resize_bicubic(padded, wh, ww), factor)
            mask_ds = codec_encode_mask(downsample_mask(mask, wh, ww), factor)
            # re-zero surviving mask pixels so conditions stay blank where
            # generated; a pooled cell is observed only where all its pixels
            # are, so zeroing once, after the codec, suffices
            video_ds = VideoTensor(np.where(mask_ds.data > 0.0, 0.0, video_ds.data))
            wh, ww = wh // factor, ww // factor
        else:
            wh, ww = padded.height, padded.width
            video_ds, mask_ds = padded, mask

    keys = None
    guided, guided_mask = video_ds, mask_ds
    with _stage(timings, "guidance"):
        if use_gcg:
            g = config.gcg
            delta = gcg_mod.auto_delta(video_ds) if g.delta_auto else g.delta
            kcount = min(g.keyframes, video_ds.frames)
            initial = gcg_mod.select_keyframes(video_ds.frames, kcount)
            stage1 = denoiser
            if not use_downsample and (wh > til.tile_y or ww > til.tile_x):
                spatial = plan((1, wh, ww), 1, til.tile_y, til.tile_x,
                               0, til.overlap_y, til.overlap_x)
                stage1 = SpatiallyTiledDenoiser(denoiser, spatial)
            guidance, keys = gcg_mod.multiscale_gcg(
                video_ds, mask_ds, initial, g.tau, stage1, sample,
                config.seed, kcount, delta)
            guided, guided_mask = gcg_mod.insert_guidance(video_ds, mask_ds, guidance, keys)
    del video_ds, mask_ds  # completion reads only the guided copies

    with _stage(timings, "completion"):
        if use_downsample:
            plan_t = plan((guided.frames, wh, ww), til.tile_t, wh, ww, til.overlap_t, 0, 0)
        else:
            plan_t = plan((guided.frames, wh, ww), til.tile_t, til.tile_y, til.tile_x,
                          til.overlap_t, til.overlap_y, til.overlap_x)
        completed = temporal_completion(guided, guided_mask, denoiser, plan_t,
                                        sample, config.seed)
        if factor > 1:
            completed = codec_decode(completed, factor)
    del guided, guided_mask, plan_t  # no later stage reads them

    with _stage(timings, "refinement"):
        if use_downsample:
            plan_st = plan(padded.shape[:3], til.tile_t, til.tile_y, til.tile_x,
                           til.overlap_t, til.overlap_y, til.overlap_x)
            output = spatial_refinement(completed, padded, mask, denoiser, plan_st,
                                        sample, config.sampler.refine_strength,
                                        config.seed)
        else:
            output = completed
    return RunResult(output, config.mode, config.seed, timings, keys)
