"""Pluggable single-step denoising operator and its deterministic toy backend.

The toy backend predicts clean content by inverse-squared-distance
interpolation from observed voxels inside a spatio-temporal neighborhood and
is intentionally context-limited: it only sees the tile or window it is
handed, which is what makes global guidance and frame swapping measurably
useful at desk scale.

A denoiser prepares a stage's fixed conditioning once (`prepare`) and
predicts each step's velocity from that prepared state (`denoise`).  Both
work on the frame concatenation of `items` equal-length stacks, so a caller
runs a group of same-shaped tiles or stacks as one array.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sampler import ScheduleError
from .video import MaskVideo, ShapeError, VideoTensor

MODES = ("sparse", "dense")
# Bounds that keep the fill's neighborhood ball finite.
RADIUS_MAX = 16
LAMBDA_MIN = 0.5


@dataclass(frozen=True)
class Prepared:
    """A stage's fixed conditioning, made once by a denoiser's `prepare` and
    handed to its `denoise` at every step of the stage.  `condition` and
    `mask` are the frame concatenation of `items` equal-length stacks."""

    condition: VideoTensor
    mask: MaskVideo
    items: int


def frames_per_item(condition: VideoTensor, items: int) -> int:
    """Frames per item of a concatenation of `items` equal-length stacks."""
    if items < 1 or condition.frames % items:
        raise ShapeError(f"{condition.frames} frames do not split into {items} equal stacks")
    return condition.frames // items


@dataclass(frozen=True)
class DenoiserConfig:
    """Toy denoiser knobs; lambda_* convert frame distance to pixel distance."""

    lambda_sparse: float = 8.0
    lambda_dense: float = 2.0
    radius: int = 6
    fill_floor: float = 0.0
    latent_carryover: float = 0.5

    def __post_init__(self):
        if not (self.lambda_sparse >= LAMBDA_MIN and self.lambda_dense >= LAMBDA_MIN):
            raise ValueError(f"lambda_sparse and lambda_dense must be >= {LAMBDA_MIN}")
        if not 1 <= self.radius <= RADIUS_MAX:
            raise ValueError(f"radius must be in [1, {RADIUS_MAX}]")
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


def _neighbor_offsets(radius: int, lam: float,
                      shape: tuple[int, int, int]) -> tuple[tuple[int, int, int, float], ...]:
    """(df, dy, dx, weight) of the ball of `radius` that fit an item of
    `shape` (|df| < f, |dy| < h, |dx| < w), in ascending (df, dy, dx) order."""
    f, h, w = shape
    r2 = float(radius) ** 2
    offsets = []
    max_df = min(int(radius // lam), f - 1)
    for df in range(-max_df, max_df + 1):
        rem_f = r2 - (lam * df) ** 2
        if rem_f < 0:
            continue
        max_dy = min(int(math.floor(math.sqrt(rem_f))), h - 1)
        for dy in range(-max_dy, max_dy + 1):
            rem_y = rem_f - dy * dy
            max_dx = min(int(math.floor(math.sqrt(rem_y))), w - 1)
            for dx in range(-max_dx, max_dx + 1):
                d2 = (lam * df) ** 2 + dy * dy + dx * dx
                if d2 == 0.0 or d2 > r2:
                    continue
                offsets.append((df, dy, dx, 1.0 / d2))
    return tuple(offsets)


def _shifted_slices(n: int, off: int) -> tuple[slice, slice]:
    # destination and source slices so that dst[i] reads src[i + off]
    if off >= 0:
        return slice(0, n - off), slice(off, n)
    return slice(-off, n), slice(0, n + off)


def _smooth_length(n: int) -> int:
    """The smallest length >= n with no prime factor above 5, which the FFT
    transforms without its slow generic passes for larger primes."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(radius: int, lam: float,
                     shape: tuple[int, int, int]) -> tuple[np.ndarray, tuple[int, ...], float]:
    """Read-only rfftn of the ball kernel K[df, dy, dx] = 1/d^2 over an item
    of `shape` zero-padded to at least the largest offset on each axis, so
    that a circular convolution of that size never wraps into the item; with
    the padded size and the smallest kernel weight.  Each padded length is
    rounded up to a 5-smooth one."""
    offsets = _neighbor_offsets(radius, lam, shape)
    size = tuple(_smooth_length(n + max((abs(o[axis]) for o in offsets), default=0))
                 for axis, n in enumerate(shape))
    kernel = np.zeros(size)
    for df, dy, dx, wgt in offsets:
        kernel[df, dy, dx] = wgt  # negative offsets wrap to the padded end
    spectrum = np.fft.rfftn(kernel)
    spectrum.flags.writeable = False
    return spectrum, size, min((o[3] for o in offsets), default=1.0)


# Items are filled in groups whose spectrum stays within this many bytes, so
# that each FFT works on cache-resident blocks the allocator hands back call
# after call instead of on fresh pages that fault in on every fill.
FILL_GROUP_BYTES = 1 << 18


def inverse_distance_fill(condition: np.ndarray, mask: np.ndarray, lam: float,
                          radius: int, floor: float) -> np.ndarray:
    """Predicted clean stack: observed voxels kept, masked voxels filled by
    inverse-squared-distance weighting of observed voxels within `radius`
    (metric dx^2 + dy^2 + (lam*df)^2); unreachable voxels get `floor`.

    The arrays are (F, H, W, C), or (N, F, H, W, C) for N items filled at
    once; a fill only reads its own item.  The weighting is a normalized
    convolution (Knutsson & Westin, 1993): num = K*(c*obs) and den = K*obs,
    one FFT product over the (F, H, W) axes for the channels and the
    weights together, per group of at most FILL_GROUP_BYTES of spectrum.  It deviates from summing the offsets one by one only
    by float64 rounding, so a covered voxel (den >= the smallest weight) is
    told from an uncovered one (den ~ 1e-17) at half the smallest weight."""
    f, h, w, c = condition.shape[-4:]
    kernel = _kernel_spectrum(radius, lam, (f, h, w))
    items = condition.reshape((-1, f, h, w, c))
    masks = mask.reshape((-1, f, h, w, mask.shape[-1]))
    out = np.empty(items.shape, dtype=np.float32)
    group = max(1, FILL_GROUP_BYTES // (kernel[0].nbytes * (c + 1)))
    for i in range(0, len(items), group):
        out[i:i + group] = _fill_group(items[i:i + group], masks[i:i + group],
                                       kernel, floor)
    return out.reshape(condition.shape)


def _fill_group(condition: np.ndarray, mask: np.ndarray,
                kernel: tuple[np.ndarray, tuple[int, ...], float],
                floor: float) -> np.ndarray:
    """`inverse_distance_fill` of (N, F, H, W, C) items with the kernel's
    spectrum, padded size and smallest weight, in float64."""
    spectrum, size, smallest = kernel
    n, f, h, w, c = condition.shape
    obs = (1.0 - mask).astype(np.float64)
    # channels ahead of (F, H, W), so that every transformed line is
    # contiguous; num, den and val are channel-last views
    both = np.empty((n, c + 1, f, h, w))
    val = np.moveaxis(both[:, :c], 1, -1)
    np.multiply(condition, obs, out=val)
    both[:, c] = obs[..., 0]
    axes = (-3, -2, -1)
    product = np.fft.rfftn(both, s=size, axes=axes)
    product *= spectrum
    full = np.moveaxis(np.fft.irfftn(product, s=size, axes=axes)[..., :f, :h, :w], 1, -1)
    num, den = full[..., :c], full[..., c:]
    # num becomes the fill and then obs*condition + (1-obs)*fill
    covered = den > 0.5 * smallest
    num /= np.where(covered, den, 1.0)
    np.copyto(num, floor, where=~covered)
    num *= 1.0 - obs
    num += val
    return num


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
    acc /= cnt
    return acc.astype(z.dtype, copy=False)


@dataclass(frozen=True)
class PreparedFill(Prepared):
    """The toy backend's per-stage state: `x0` is the read-only fill of the
    condition, `carry` the read-only weight with which steps blend in the
    latent average (latent_carryover times the anchor-folded mask), or None
    when nothing is masked or carryover is off; then `x0` is already clamped
    to [-1, 1]."""

    x0: np.ndarray
    carry: np.ndarray | None


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

    def prepare(self, condition: VideoTensor, mask: MaskVideo, mode: str = "dense",
                items: int = 1) -> PreparedFill:
        """Fold anchor frames and fill the condition, once per stage.  The
        condition is the frame concatenation of `items` equal-length stacks;
        one `inverse_distance_fill` covers every item with a masked voxel,
        and an item with none keeps its condition as its fill."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not mask.matches(condition):
            raise ShapeError(f"mask {mask.data.shape} does not match {condition.shape}")
        shape = (items, frames_per_item(condition, items)) + condition.shape[1:]
        folded = fold_anchor_frames(mask.data)
        masked = folded.reshape(items, -1).any(axis=1)
        if masked.any():
            x0 = condition.data.astype(np.float32)
            x0.reshape(shape)[masked] = inverse_distance_fill(
                condition.data.reshape(shape)[masked], folded.reshape(shape[:4] + (1,))[masked],
                self.config.temporal_scale(mode), self.config.radius, self.config.fill_floor)
        else:
            x0 = np.asarray(condition.data, dtype=np.float32)
        carry = None
        if masked.any() and self.config.latent_carryover > 0.0:
            carry = self.config.latent_carryover * folded
            carry.flags.writeable = False
        elif not -1.0 <= x0.min() <= x0.max() <= 1.0:
            x0 = np.clip(x0, -1.0, 1.0)  # once here, not at every step
        x0.flags.writeable = False
        return PreparedFill(condition, mask, items, x0, carry)

    def denoise(self, prepared: PreparedFill, z: VideoTensor, t: float) -> VideoTensor:
        """Velocity for one step from `prepared`, which is
        `self.prepare(condition, mask, mode, items)`, made once for every
        step of a stage.  Every operation is per frame, so one call on a
        concatenation equals one call per item."""
        if t <= 0.0:
            raise ScheduleError("t must be > 0: no denoising step remains")
        if z.shape != prepared.condition.shape:
            raise ShapeError(f"z {z.shape} vs condition {prepared.condition.shape}")
        x0 = prepared.x0
        if prepared.carry is not None:
            # in place: x0 + carry * (_smooth3(z) - x0), clamped
            blended = _smooth3(z.data)
            blended -= x0
            blended *= prepared.carry
            blended += x0
            x0 = np.clip(blended, -1.0, 1.0, out=blended)
        v = z.data - x0
        v /= t
        return VideoTensor(v)
