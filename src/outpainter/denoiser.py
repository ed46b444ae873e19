"""Pluggable single-step denoising operator and its deterministic toy backend.

The toy backend predicts clean content by inverse-squared-distance
interpolation from observed voxels inside a spatio-temporal neighborhood and
is intentionally context-limited: it only sees the tile or window it is
handed, which is what makes global guidance and frame swapping measurably
useful at desk scale.

A denoiser prepares a stage's fixed conditioning once (`prepare`) and
predicts each step's velocity from that prepared state (`denoise`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import ScheduleError
from .video import MaskVideo, ShapeError, VideoTensor

MODES = ("sparse", "dense")


@dataclass(frozen=True)
class Prepared:
    """A stage's fixed conditioning, made once by a denoiser's `prepare` and
    handed to its `denoise` at every step of the stage."""

    condition: VideoTensor
    mask: MaskVideo
    mode: str


@dataclass(frozen=True)
class DenoiserConfig:
    """Toy denoiser knobs; lambda_* convert frame distance to pixel distance."""

    lambda_sparse: float = 8.0
    lambda_dense: float = 2.0
    radius: int = 6
    fill_floor: float = 0.0
    latent_carryover: float = 0.5

    def __post_init__(self):
        if self.lambda_sparse <= 0 or self.lambda_dense <= 0:
            raise ValueError("temporal scales must be positive")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not -1.0 <= self.fill_floor <= 1.0:
            raise ValueError("fill_floor must be in [-1, 1], the range of the clean estimate")
        if not 0.0 <= self.latent_carryover < 1.0:
            raise ValueError("latent_carryover must be in [0, 1)")

    def temporal_scale(self, mode: str) -> float:
        return self.lambda_sparse if mode == "sparse" else self.lambda_dense


def fold_anchor_frames(mask: np.ndarray) -> np.ndarray:
    """Treat frames whose mask is entirely 1 as fully observed anchors.

    Guidance insertion marks trusted frames with an all-ones mask while
    keeping their full content in the condition; for the fill they act as
    observed sources.
    """
    full = mask.reshape(mask.shape[0], -1).min(axis=1) >= 1.0
    if not full.any():
        return mask
    out = mask.copy()
    out[full] = 0.0
    return out


def _neighbor_offsets(radius: int, lam: float) -> list[tuple[int, int, int, float]]:
    r2 = float(radius) ** 2
    offsets = []
    max_df = int(radius // lam)
    for df in range(-max_df, max_df + 1):
        rem_f = r2 - (lam * df) ** 2
        if rem_f < 0:
            continue
        max_dy = int(math.floor(math.sqrt(rem_f)))
        for dy in range(-max_dy, max_dy + 1):
            rem_y = rem_f - dy * dy
            max_dx = int(math.floor(math.sqrt(rem_y)))
            for dx in range(-max_dx, max_dx + 1):
                d2 = (lam * df) ** 2 + dy * dy + dx * dx
                if d2 == 0.0 or d2 > r2:
                    continue
                offsets.append((df, dy, dx, 1.0 / d2))
    return offsets


def _shifted_slices(n: int, off: int) -> tuple[slice, slice]:
    # destination and source slices so that dst[i] reads src[i + off]
    if off >= 0:
        return slice(0, n - off), slice(off, n)
    return slice(-off, n), slice(0, n + off)


def inverse_distance_fill(condition: np.ndarray, mask: np.ndarray, lam: float,
                          radius: int, floor: float) -> np.ndarray:
    """Predicted clean stack: observed voxels kept, masked voxels filled by
    inverse-squared-distance weighting of observed voxels within `radius`
    (metric dx^2 + dy^2 + (lam*df)^2); unreachable voxels get `floor`."""
    f, h, w, _ = condition.shape
    obs = (1.0 - mask).astype(np.float64)
    val = condition.astype(np.float64) * obs
    num = np.zeros_like(val)
    den = np.zeros_like(obs)
    for df, dy, dx, wgt in _neighbor_offsets(radius, lam):
        if abs(df) >= f or abs(dy) >= h or abs(dx) >= w:
            continue
        fd, fs = _shifted_slices(f, df)
        yd, ys = _shifted_slices(h, dy)
        xd, xs = _shifted_slices(w, dx)
        num[fd, yd, xd] += wgt * val[fs, ys, xs]
        den[fd, yd, xd] += wgt * obs[fs, ys, xs]
    fill = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), floor)
    out = obs * condition.astype(np.float64) + (1.0 - obs) * fill
    return out.astype(np.float32)


def _smooth3(z: np.ndarray) -> np.ndarray:
    """Edge-aware 3x3 within-frame spatial average."""
    f, h, w, c = z.shape
    acc = np.zeros(z.shape, dtype=np.float64)
    cnt = np.zeros((1, h, w, 1), dtype=np.float64)
    ones = np.ones((1, h, w, 1), dtype=np.float64)
    for dy in (-1, 0, 1):
        if abs(dy) >= h:
            continue
        yd, ys = _shifted_slices(h, dy)
        for dx in (-1, 0, 1):
            if abs(dx) >= w:
                continue
            xd, xs = _shifted_slices(w, dx)
            acc[:, yd, xd] += z[:, ys, xs]
            cnt[:, yd, xd] += ones[:, ys, xs]
    return (acc / cnt).astype(z.dtype)


@dataclass(frozen=True)
class PreparedFill(Prepared):
    """The toy backend's per-stage state: `x0` is the read-only fill of the
    condition, `carry_mask` the anchor-folded mask on which steps blend in
    the latent average, or None when nothing is masked or carryover is off."""

    x0: np.ndarray
    carry_mask: np.ndarray | None


class ToyDenoiser:
    """Deterministic velocity predictor whose fill is prepared once per stage.

    On masked voxels the clean estimate blends the neighborhood fill with a
    3x3 spatial average of the current latent (latent_carryover), so
    information placed into the latent by frame swapping or per-step tile
    blending persists to t=0 instead of being annihilated by the Euler
    contraction, and propagates spatially within each call.  Because the
    average is truncated at whatever extent the operator is handed, per-step
    blending across overlapping tiles genuinely reconciles neighboring
    trajectories.  The clean estimate is clamped to the valid data range
    [-1, 1].  carryover=0 recovers the pure fill-based prediction.
    """

    def __init__(self, config: DenoiserConfig | None = None):
        self.config = config or DenoiserConfig()

    def prepare(self, condition: VideoTensor, mask: MaskVideo,
                mode: str = "dense") -> PreparedFill:
        """Fold anchor frames and fill the condition, once per stage.  With
        nothing masked the fill is the condition itself, so it is returned
        as float32 without running `inverse_distance_fill`."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not mask.matches(condition):
            raise ShapeError(f"mask {mask.data.shape} does not match {condition.shape}")
        folded = fold_anchor_frames(mask.data)
        folded.flags.writeable = False
        if folded.any():
            x0 = inverse_distance_fill(condition.data, folded, self.config.temporal_scale(mode),
                                       self.config.radius, self.config.fill_floor)
            carry_mask = folded if self.config.latent_carryover > 0.0 else None
        else:
            x0 = np.asarray(condition.data, dtype=np.float32)
            carry_mask = None
        x0.flags.writeable = False
        return PreparedFill(condition, mask, mode, x0, carry_mask)

    def denoise(self, prepared: PreparedFill, z: VideoTensor, t: float) -> VideoTensor:
        """Velocity for one step from `prepared`, which is
        `self.prepare(condition, mask, mode)`, shared by every step of a stage."""
        if t <= 0.0:
            raise ScheduleError("t must be > 0: no denoising step remains")
        if z.shape != prepared.condition.shape:
            raise ShapeError(f"z {z.shape} vs condition {prepared.condition.shape}")
        x0 = prepared.x0
        if prepared.carry_mask is not None:
            x0 = x0 + self.config.latent_carryover * prepared.carry_mask * (_smooth3(z.data) - x0)
        x0 = np.clip(x0, -1.0, 1.0)
        return VideoTensor((z.data - x0) / t)
