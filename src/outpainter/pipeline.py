"""End-to-end outpainting orchestration.

Stages: spatial padding onto the target canvas, downsampling to a working
resolution, multi-scale keyframe guidance, guidance insertion, temporally
tiled completion from pure noise, and refinement: the completed video
upsampled back to target resolution with the input clip pasted on it.
Every stage runs on the clip's true frame count.
Ablation modes selectively disable the guidance and the downsampling (and
so the refinement) stages.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import gcg as gcg_mod
from . import rng
from .denoiser import DenoiserConfig, ToyDenoiser
from .gcg import GcgParams
from .sampler import SampleSchedule
from .tiling import (ConfigError, SpatiallyTiledDenoiser, TilePlan, plan, prepare_tiles,
                     tiled_denoise_pass)
from .video import (MaskVideo, PadSpec, VideoTensor, downsample_mask, pad_video,
                    resize_bicubic)

MODES = ("full", "spatial_only", "temporal_only", "baseline")


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


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
    no bool, a float any finite number (as a float)."""
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # NaN and infinities fail the comparison
    if hint is not float and type(value) is hint:
        return value
    raise ConfigError(f"config field {name} must be {_TYPE_NAMES[hint]}, got {value!r}")


@functools.cache
def _field_hints(cls) -> dict:
    """A dataclass's field types, its string annotations evaluated once:
    `typing.get_type_hints` evaluates them anew on every call.  Read only."""
    return get_type_hints(cls)


def _load(hint, value, name: str):
    """The JSON value `value` of config field `name` as type `hint`: a
    dataclass from an object of its fields, a tuple from a list whose items
    all load as its first type argument (its length is the dataclass's own
    check), `X | None` as X (JSON null is never a value; None is only a
    field's default), and a scalar as `_typed` takes it.  Any error, from a
    type to a dataclass's own checks, becomes a one-line ConfigError naming
    the field's dotted path."""
    if isinstance(hint, UnionType):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        items = _typed(name, value, list)
        return tuple(_load(get_args(hint)[0], v, f"{name}[{i}]") for i, v in enumerate(items))
    if not is_dataclass(hint):
        return _typed(name, value, hint)
    prefix = f"{name}." if name else ""
    if not isinstance(value, dict):
        raise ConfigError(f"config field {name} must be an object, got {type(value).__name__}")
    hints = _field_hints(hint)
    unknown = [prefix + k for k in value if k not in hints]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    kwargs = {k: _load(hints[k], v, prefix + k) for k, v in value.items()}
    try:
        return hint(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {name}: {exc}" if name else str(exc)) from exc


@dataclass(frozen=True)
class WorkingSize:
    """The working resolution; None (both sides) derives it from the target."""

    height: int | None = None
    width: int | None = None

    def __post_init__(self):
        if (self.height is None) != (self.width is None):
            raise ConfigError("working height and width must be set together")


@dataclass(frozen=True)
class CodecParams:
    """Block-average codec over `factor` x `factor` pixels; 1 is the identity."""

    factor: int = 1

    def __post_init__(self):
        if not (type(self.factor) is int and self.factor >= 1):
            raise ConfigError(f"codec.factor must be an integer >= 1, got {self.factor!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """The run's knobs; each field is one section of the JSON config."""

    pad: PadSpec
    mode: str = "full"
    seed: int = 0
    working: WorkingSize = field(default_factory=WorkingSize)
    sampler: SampleSchedule = field(default_factory=SampleSchedule)
    gcg: GcgParams = field(default_factory=GcgParams)
    tiling: TilingParams = field(default_factory=TilingParams)
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    codec: CodecParams = field(default_factory=CodecParams)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_seed(self.seed)
        th, tw = self.pad.target_height, self.pad.target_width
        wh, ww = self.working_resolution()
        # a derived working size counts whole codec blocks of the target
        name, h, w = (("target", th, tw) if self.working.height is None
                      else ("working resolution", wh, ww))
        factor = self.codec.factor
        if h % factor or w % factor:
            raise ConfigError(f"{name} {h}x{w} must be divisible by codec.factor {factor}")
        if not (0 < wh <= th and 0 < ww <= tw):
            raise ConfigError(f"working resolution {wh}x{ww} is not within [1, target]")

    def working_resolution(self) -> tuple[int, int]:
        """Configured working size, else half the target with its longest
        side at most 768, each side rounded to a multiple of codec.factor."""
        th, tw = self.pad.target_height, self.pad.target_width
        if self.working.height is not None:
            return self.working.height, self.working.width
        factor = self.codec.factor
        scale = min(0.5, 768.0 / max(th, tw))
        return (factor * max(1, round(th * scale / factor)),
                factor * max(1, round(tw * scale / factor)))

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config a JSON object describes, laid out as `to_dict` writes it."""
        return _load(cls, d, "")

    def to_dict(self) -> dict:
        wh, ww = self.working_resolution()
        return {**asdict(self), "working": {"height": wh, "width": ww}}


def _blocks(data: np.ndarray, factor: int) -> np.ndarray:
    """(F, H, W, C) `data` viewed as factor x factor pixel blocks, which
    axes 2 and 4 of the view run over."""
    f, h, w, c = data.shape
    if h % factor or w % factor:
        raise ConfigError(f"({h}, {w}) not divisible by codec factor {factor}")
    return data.reshape(f, h // factor, factor, w // factor, factor, c)


def codec_encode(video: VideoTensor, factor: int) -> VideoTensor:
    """Average-pool each frame by `factor` along both spatial axes."""
    if factor == 1:
        return video
    return VideoTensor(_blocks(video.data, factor).mean(axis=(2, 4), dtype=np.float64)
                       .astype(np.float32))


def codec_encode_mask(mask: MaskVideo, factor: int) -> MaskVideo:
    """A pooled cell counts as observed only if every source pixel is observed."""
    if factor == 1:
        return mask
    return MaskVideo(_blocks(mask.data, factor).max(axis=(2, 4)))


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


def temporal_completion(guided: VideoTensor, guided_mask: MaskVideo, denoiser,
                        plan_t: TilePlan, sample: SampleSchedule, rng_seed: int) -> VideoTensor:
    """Full denoising from pure noise over the tile plan with per-step
    blending, conditioned on the guidance-augmented video: prepare each
    tile's conditioning once, then draw the noise (after the fills, so their
    temporaries and the latent are not held at once) and step it in place."""
    prepared = prepare_tiles(denoiser, guided, guided_mask, plan_t, "dense")
    z = rng.normals(rng_seed, "completion:init", guided.shape)
    times = sample.times
    for s in range(sample.total_steps):
        z = tiled_denoise_pass(z, plan_t, denoiser, float(times[s]), float(times[s + 1]),
                               prepared, out=z)
    return VideoTensor(z)


def refinement_composite(completed: VideoTensor, video: VideoTensor,
                         pad: PadSpec) -> VideoTensor:
    """The completed video upsampled to the target canvas, with the input
    clip pasted at the pad offsets.  On observed voxels the padded clip is
    the input, so this equals `np.where(mask > 0, upsampled, padded)` of
    `pad_video(video, pad)` byte for byte, without the padded clip or its
    mask."""
    pad.validate(video.height, video.width)
    data = resize_bicubic(completed, pad.target_height, pad.target_width).data
    data.flags.writeable = True  # the resize's own new array, which nothing else holds
    ys, xs = pad.offset_y, pad.offset_x
    data[:, ys:ys + video.height, xs:xs + video.width] = video.data
    return VideoTensor(data)


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Record the stage's seconds in `timings` and wrap an error raised in it,
    but not an interrupt or exit, in StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        timings[name] = time.perf_counter() - t0


def run(config: PipelineConfig, video: VideoTensor) -> RunResult:
    timings: dict[str, float] = {}
    til = config.tiling
    denoiser = ToyDenoiser(config.denoiser)

    with _stage(timings, "pad"):
        padded, mask = pad_video(video, config.pad)

    use_gcg = config.mode in ("full", "temporal_only")
    use_downsample = config.mode in ("full", "spatial_only")  # and upsample back

    with _stage(timings, "downsample"):
        factor = config.codec.factor if use_downsample else 1
        if use_downsample:
            wh, ww = config.working_resolution()
            video_ds = codec_encode(resize_bicubic(padded, wh, ww), factor)
            mask_ds = codec_encode_mask(downsample_mask(mask, wh, ww), factor)
            # re-zero surviving mask pixels so the clip is blank where generated:
            # the denoiser reads no masked voxel's condition, but auto_delta
            # reads every voxel; a pooled cell is observed only where all its
            # pixels are, so zeroing once, after the codec, suffices
            video_ds = VideoTensor(np.where(mask_ds.data > 0.0, 0.0, video_ds.data))
            wh, ww = wh // factor, ww // factor
        else:
            wh, ww = padded.height, padded.width
            video_ds, mask_ds = padded, mask
    del padded, mask  # refinement pastes the clip again; no other later stage reads them

    keys = None
    guided, guided_mask = video_ds, mask_ds
    with _stage(timings, "guidance"):
        if use_gcg:
            stage1 = denoiser
            if not use_downsample and (wh > til.tile_y or ww > til.tile_x):
                spatial = plan((1, wh, ww), 1, til.tile_y, til.tile_x,
                               0, til.overlap_y, til.overlap_x)
                stage1 = SpatiallyTiledDenoiser(denoiser, spatial)
            guidance, keys = gcg_mod.multiscale_gcg(video_ds, mask_ds, config.gcg, stage1,
                                                    config.sampler, config.seed)
            del stage1  # an adapter holds its frame plans' blend sums
            guided, guided_mask = gcg_mod.insert_guidance(video_ds, mask_ds, guidance, keys)
    del video_ds, mask_ds  # completion reads only the guided copies

    with _stage(timings, "completion"):
        if use_downsample:
            plan_t = plan((guided.frames, wh, ww), til.tile_t, wh, ww, til.overlap_t, 0, 0)
        else:
            plan_t = plan((guided.frames, wh, ww), til.tile_t, til.tile_y, til.tile_x,
                          til.overlap_t, til.overlap_y, til.overlap_x)
        completed = temporal_completion(guided, guided_mask, denoiser, plan_t,
                                        config.sampler, config.seed)
        if factor > 1:
            completed = codec_decode(completed, factor)
    del guided, guided_mask, plan_t  # no later stage reads them

    with _stage(timings, "refinement"):
        output = (refinement_composite(completed, video, config.pad) if use_downsample
                  else completed)
    return RunResult(output, config.mode, config.seed, timings, keys)
