"""Global coarse guidance: keyframe selection, local temporal windows,
global-local frame swapping during sampling, and multi-scale densification.

Stage 1 samples each keyframe inside its short-stride local window for the
first ``swap_steps`` denoising steps, then hands its latent over to the
keyframe's slots in the sparse keyframe stacks, which sample the rest: the
windows inject short-range temporal cues into the global trajectory.
Midpoint keyframes are then inserted until the largest inter-keyframe gap
falls below tau, with previously generated keyframes kept bit-identical as
trusted anchors that only condition later rounds and are never sampled.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .sampler import SampleSchedule, step
from .tiling import ConfigError, Tile, TilePlan, blend, plan, prepare_tiles
from .video import MaskVideo, VideoTensor


class GcgError(RuntimeError):
    """Raised when densification fails to terminate within the round cap."""


@dataclass(frozen=True)
class GcgParams:
    """The config's `gcg` section: `keyframes` initial keyframes (at most the
    clip's frames), local windows at stride `delta` (or `auto_delta`'s, if
    `delta_auto`), and densification until no keyframe gap exceeds `tau`."""

    keyframes: int = 13
    delta: int = 5
    delta_auto: bool = False
    tau: int = 20

    def __post_init__(self):
        if self.keyframes < 1 or self.delta < 1 or self.tau < 1:
            raise ConfigError("keyframes, delta and tau must be positive")


def select_keyframes(total_frames: int, count: int) -> tuple[int, ...]:
    """count evenly spaced indices over [0, total_frames), endpoints included."""
    if count < 1:
        raise ConfigError("keyframe count must be >= 1")
    if count > total_frames:
        raise ConfigError(f"cannot pick {count} keyframes from {total_frames} frames")
    if count == 1:
        return (0,)
    raw = np.round(np.arange(count) * (total_frames - 1) / (count - 1)).astype(int)
    return tuple(dict.fromkeys(int(v) for v in raw))


def build_window(k: int, count: int, delta: int, total_frames: int) -> tuple[int, ...]:
    """Arithmetic progression of `count` frames containing k, centered when
    possible; shifted to fit [0, total_frames), with the stride reduced to the
    largest feasible value if the requested one cannot fit."""
    if delta < 1:
        raise ConfigError("delta must be >= 1")
    if total_frames < count:
        raise ConfigError(f"cannot fit a {count}-frame window in {total_frames} frames")
    center = count // 2
    # start at the widest stride whose window spans at most total_frames frames
    widest = delta if count == 1 else min(delta, (total_frames - 1) // (count - 1))
    for stride in range(widest, 0, -1):
        for pos in sorted(range(count), key=lambda j: (abs(j - center), j)):
            start = k - stride * pos
            if start >= 0 and start + stride * (count - 1) <= total_frames - 1:
                return tuple(start + stride * j for j in range(count))
    raise ConfigError(f"no feasible window for k={k}, K={count}, F={total_frames}")


def _prepare_stacks(video_ds: VideoTensor, mask_ds: MaskVideo,
                    stacks: Sequence[tuple[int, ...]], denoiser, rows: list[int]) -> list:
    """`prepare_tiles` "sparse" over whole-frame tiles, one per stack, of the
    frame concatenation of `stacks`, for its ascending frames `rows`: each
    group as (the slice of the latent it steps, prepared), row j of that
    latent being frame rows[j].  The gathered condition is dropped once they
    are prepared."""
    if not rows:
        return []
    frames = list(sum(stacks, ()))
    bounds = np.cumsum([0] + [len(idx) for idx in stacks]).tolist()
    extent = (len(frames), video_ds.height, video_ds.width)
    tiles = tuple(Tile(a, b, 0, extent[1], 0, extent[2]) for a, b in zip(bounds, bounds[1:]))
    prepared = prepare_tiles(denoiser, VideoTensor(video_ds.data[frames]),
                             MaskVideo(mask_ds.data[frames]), TilePlan(extent, tiles), "sparse",
                             rows=rows)
    return [(slice(*np.searchsorted(rows, (group[0].f0, group[-1].f1)).tolist()), prep)
            for group, prep in prepared]


def _sample(z: np.ndarray, prepared: list, denoiser, sample: SampleSchedule,
            steps: range) -> np.ndarray:
    """`z` after `steps` of `sample`, each prepared group stepping its rows."""
    stepped = np.empty(z.shape)
    for s in steps:
        t_from, t_to = float(sample.times[s]), float(sample.times[s + 1])
        for rows, prep in prepared:  # rows are read, then overwritten
            z_rows = z[rows]
            z_rows.flags.writeable = False  # a view's flag: z stays writable
            stepped[rows] = step(z_rows, denoiser.denoise(prep, z_rows, t_from), t_from, t_to)
        z = stepped
    return z


def construct_gcg(video_ds: VideoTensor, mask_ds: MaskVideo,
                  segments: Sequence[tuple[int, ...]], windows: dict[int, tuple[int, ...]],
                  denoiser, sample: SampleSchedule, rng_seed: int,
                  noise_tag: str = "gcg", anchors: frozenset = frozenset()) -> list[np.ndarray]:
    """Denoise one keyframe stack per segment and return each.  `windows`
    maps every keyframe that is not an anchor to its local window.  An
    anchor draws no noise and is never stepped: its slots return zero.

    Sampling runs in two phases, handing the latent over at the swap.
    Through the first swap_steps steps the latent holds one row per
    keyframe, from its noise, conditioned on its window; at the swap each
    stack slot takes its keyframe's latent; after it the latent holds one
    row per slot, conditioned on its stack.  Once a fill is prepared every
    denoise operation is per frame, so each phase prepares and steps only
    the rows it holds."""
    swap = sample.swap_steps
    keys = list(sum(segments, ()))
    live = [i for i, k in enumerate(keys) if k not in anchors]  # the slots that step
    if swap:
        distinct = list(dict.fromkeys(windows.values()))
        start = dict(zip(distinct, np.cumsum([0] + [len(w) for w in distinct]).tolist()))
        at = {start[w] + w.index(k): k for k, w in windows.items()}  # keyframe by window row
        held = [at[row] for row in sorted(at)]
        through = _prepare_stacks(video_ds, mask_ds, distinct, denoiser, sorted(at))
    else:  # with no swap, nothing reads a window
        held, through = list(dict.fromkeys(keys[i] for i in live)), []
    after = _prepare_stacks(video_ds, mask_ds, segments, denoiser, live)
    z = np.empty((len(held),) + video_ds.shape[1:], np.float32)
    for j, k in enumerate(held):
        z[j] = rng.normals(rng_seed, f"{noise_tag}:init:{k}", z.shape[1:])
    z = _sample(z, through, denoiser, sample, range(swap))
    z = z[[held.index(keys[i]) for i in live]]  # the hand-off: each slot takes its keyframe's row
    z = _sample(z, after, denoiser, sample, range(swap, sample.total_steps))
    out = np.zeros((len(keys),) + z.shape[1:])
    out[live] = z
    bounds = np.cumsum([0] + [len(idx) for idx in segments]).tolist()
    return [out[a:b] for a, b in zip(bounds, bounds[1:])]


def max_index_gap(indices) -> int:
    idx = sorted(indices)
    if len(idx) < 2:
        raise ValueError("need at least 2 indices")
    return max(b - a for a, b in zip(idx, idx[1:]))


def midpoints(indices, tau: int) -> tuple[int, ...]:
    """Floor midpoints of every adjacent pair whose gap exceeds tau."""
    idx = list(indices)
    mids = {(a + b) // 2 for a, b in zip(idx, idx[1:]) if b - a > tau}
    return tuple(sorted(mids - set(idx)))


def insert_guidance(video_ds: VideoTensor, mask_ds: MaskVideo, guidance: VideoTensor,
                    keys: tuple[int, ...]) -> tuple[VideoTensor, MaskVideo]:
    """Replace keyframe frames with their guidance content and mark them as
    observed (all-zero mask), so that they condition like the clip's own
    pixels; every other frame is untouched."""
    if guidance.frames != len(keys):
        raise ConfigError(f"{guidance.frames} guidance frames for {len(keys)} keyframes")
    cond = video_ds.data.copy()
    msk = mask_ds.data.copy()
    for i, k in enumerate(keys):
        if not 0 <= k < video_ds.frames:
            raise IndexError(f"keyframe {k} out of range [0, {video_ds.frames})")
        cond[k] = guidance.data[i]
        msk[k] = 0.0
    return VideoTensor(cond), MaskVideo(msk)


def _run_segments(keys: list[int], cond_v: VideoTensor, msk_v: MaskVideo,
                  denoiser, sample: SampleSchedule, rng_seed: int, count: int,
                  delta: int, tag: str, anchors: frozenset) -> np.ndarray:
    """Construct guidance for `keys`, split into overlapping capacity-K
    segments blended along the keyframe-index axis; returns len(keys) frames."""
    h, w = cond_v.shape[1:3]
    seg_size = min(count, len(keys))
    seg_plan = plan((len(keys), h, w), seg_size, h, w, min(2, seg_size - 1))
    segments = [tuple(keys[t.f0:t.f1]) for t in seg_plan.tiles]
    # anchors only condition the round, so their windows are not built
    windows = {k: build_window(k, seg_size, delta, cond_v.frames)
               for k in keys if k not in anchors} if sample.swap_steps else {}
    outputs = construct_gcg(cond_v, msk_v, segments, windows, denoiser, sample, rng_seed,
                            noise_tag=tag, anchors=anchors)
    return blend(zip(seg_plan.tiles, outputs), seg_plan)


def multiscale_gcg(video_ds: VideoTensor, mask_ds: MaskVideo, params: GcgParams,
                   denoiser, sample: SampleSchedule,
                   rng_seed: int) -> tuple[VideoTensor, tuple[int, ...]]:
    """From `params.keyframes` evenly spaced keyframes, iteratively densify
    via midpoints until the maximum gap is at most tau.  Round 0 conditions
    on the clip; each later round conditions on it with every known keyframe
    inserted as a trusted anchor, and keeps only its new keyframes, so
    earlier ones stay bit-identical."""
    count, tau = min(params.keyframes, video_ds.frames), params.tau
    delta = auto_delta(video_ds, params.delta) if params.delta_auto else params.delta
    keys = list(select_keyframes(video_ds.frames, count))
    cond_v, msk_v = video_ds, mask_ds
    known: dict[int, np.ndarray] = {}
    cap = math.ceil(math.log2(max(video_ds.frames / tau, 1.0))) + 2
    for r in range(cap + 1):
        merged = _run_segments(keys, cond_v, msk_v, denoiser, sample, rng_seed, count,
                               delta, f"gcg:r{r}", frozenset(known))
        for k, frame in zip(keys, merged):
            known.setdefault(k, frame)
        if len(keys) < 2 or max_index_gap(keys) <= tau:
            return VideoTensor(np.stack([known[k] for k in keys])), tuple(keys)
        keys = sorted(set(keys) | set(midpoints(keys, tau)))
        cond_v, msk_v = insert_guidance(video_ds, mask_ds,
                                        VideoTensor(np.stack(list(known.values()))),
                                        tuple(known))
    raise GcgError(f"densification did not converge within {cap} rounds")


def auto_delta(video_ds: VideoTensor, delta: int) -> int:
    """Motion proxy: stride 1 for dynamic content (a mean absolute
    frame-to-frame difference above 0.05), else the configured `delta`."""
    if video_ds.frames < 2:
        return delta
    diff = np.abs(np.diff(video_ds.data.astype(np.float64), axis=0))
    return 1 if float(diff.mean()) > 0.05 else delta
