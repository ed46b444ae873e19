"""Pluggable single-step denoising operator and its deterministic toy backend.

The toy backend predicts clean content by inverse-squared-distance
interpolation from observed voxels inside a spatio-temporal neighborhood and
is intentionally context-limited: it only sees the tile or window it is
handed, which is what makes global guidance and frame swapping measurably
useful at desk scale.

A denoiser prepares a stage's fixed conditioning once (`prepare`) and
predicts each step's velocity from that prepared state (`denoise`).  Both
work on the frame concatenation of `items` equal-length stacks, so a caller
runs a group of same-shaped tiles or stacks as one array.  Once prepared,
every operation is per frame, so a caller that reads only some frames
prepares only those (`rows`), and they denoise as they would within the
whole.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sampler import ScheduleError
from .video import MaskVideo, ShapeError, VideoTensor

MODES = ("sparse", "dense")
# Bounds that keep the fill's neighborhood ball finite.
RADIUS_MAX = 16
LAMBDA_MIN = 0.5


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


def _ball(radius: int, lam: float, shape: tuple[int, int, int]):
    """The fill's kernel K[df, dy, dx] = 1/d^2 on an item of `shape`: the
    offsets with 0 < d^2 = (lam*df)^2 + dy^2 + dx^2 <= radius^2 that fit the
    item (|df| < f, |dy| < h, |dx| < w), in ascending (df, dy, dx) order,
    and their weights; the size, each axis zero-padded to at least the
    largest offset and rounded up to a 5-smooth length, on which a circular
    convolution never wraps into the item; and the smallest weight."""
    f, h, w = shape
    reach = (min(int(radius // lam), f - 1), min(radius, h - 1), min(radius, w - 1))
    df, dy, dx = np.ogrid[tuple(slice(-r, r + 1) for r in reach)]
    d2 = (lam * df) ** 2 + dy ** 2 + dx ** 2
    ball = (d2 > 0.0) & (d2 <= float(radius) ** 2)
    offsets = tuple(i - r for i, r in zip(np.nonzero(ball), reach))
    weights = 1.0 / d2[ball]
    size = tuple(_smooth_length(n + int(np.abs(o).max(initial=0)))
                 for n, o in zip(shape, offsets))
    return offsets, weights, size, float(weights.min(initial=1.0))


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(radius: int, lam: float,
                     shape: tuple[int, int, int]) -> tuple[np.ndarray, tuple[int, ...], float]:
    """Read-only rfftn of `_ball`'s kernel over its padded size; with that
    size and the smallest kernel weight."""
    offsets, weights, size, smallest = _ball(radius, lam, shape)
    kernel = np.zeros(size)
    kernel[offsets] = weights  # negative offsets wrap to the padded end
    spectrum = np.fft.rfftn(kernel)
    spectrum.flags.writeable = False
    return spectrum, size, smallest


@functools.lru_cache(maxsize=8)
def _kernel_slices(radius: int, lam: float, shape: tuple[int, int, int]) -> tuple:
    """`_ball`'s kernel by frame offset: (df, the read-only 2D rfft of
    K[df] over the padded (H, W)) for each df the ball holds, ascending;
    with the padded size and the smallest kernel weight."""
    (df, dy, dx), weights, size, smallest = _ball(radius, lam, shape)
    slices = []
    for d in dict.fromkeys(df.tolist()):  # ascending, as `_ball` orders the offsets
        kernel = np.zeros(size[1:])
        kernel[dy[df == d], dx[df == d]] = weights[df == d]  # negative offsets wrap
        spectrum = np.fft.rfft2(kernel)
        spectrum.flags.writeable = False
        slices.append((int(d), spectrum))
    return tuple(slices), size, smallest


# Items are filled in groups whose spectrum stays within this many bytes, so
# that each FFT works on cache-resident blocks the allocator hands back call
# after call instead of on fresh pages that fault in on every fill.
FILL_GROUP_BYTES = 1 << 18
# The latent average runs on blocks of frames whose zero-padded float32 copy
# stays within this many bytes, so that the copy and its sum stay in cache.
# Blocks four times as large ran faster on a 49-frame tile, but their
# scratch raised the peak memory of runs made of many small groups.
BLOCK_BYTES = 1 << 17


@functools.lru_cache(maxsize=8)
def _neighbour_count(h: int, w: int, c: int) -> np.ndarray:
    """Read-only (1, H, W, C) float32 count of each voxel's in-frame 3x3
    neighbours, itself included."""
    cy, cx = (3.0 - (np.arange(n) == 0) - (np.arange(n) == n - 1) for n in (h, w))
    count = np.repeat((cy[:, None] * cx)[None, :, :, None], c, axis=3).astype(np.float32)
    count.flags.writeable = False
    return count


def inverse_distance_fill(condition: np.ndarray, mask: np.ndarray, lam: float,
                          radius: int, floor: float, rows=None) -> np.ndarray:
    """Predicted clean stack: observed voxels kept, masked voxels filled by
    inverse-squared-distance weighting of observed voxels within `radius`
    (metric dx^2 + dy^2 + (lam*df)^2); unreachable voxels get `floor`.

    The arrays are (F, H, W, C), or (N, F, H, W, C) for N items filled at
    once; a fill only reads its own item.  The weighting is a normalized
    convolution (Knutsson & Westin, 1993): num = K*(c*obs) and den = K*obs,
    one FFT product over the (F, H, W) axes for the channels and the
    weights together, per group of at most FILL_GROUP_BYTES of spectrum.  It
    deviates from summing the offsets one by one only by float64 rounding,
    so a covered voxel (den >= the smallest weight) is told from an
    uncovered one (den ~ 1e-17) at half the smallest weight.

    With `rows`, indices into the items' frame concatenation (repeats
    allowed), only those frames are filled, and returned as (len(rows), H,
    W, C): frame by frame, as the sum over the kernel's frame slices of
    their 2D spectra times those of the frames they reach (`_fill_rows`).
    That sum rounds apart from the 3D product by at most a float32 ulp;
    whole items keep the 3D product, which is the faster on them."""
    f, h, w, c = condition.shape[-4:]
    items = condition.reshape((-1, f, h, w, c))
    masks = mask.reshape((-1, f, h, w, mask.shape[-1]))
    if rows is not None:
        return _fill_rows(items, masks, np.asarray(rows, dtype=np.intp),
                          _kernel_slices(radius, lam, (f, h, w)), floor)
    kernel = _kernel_spectrum(radius, lam, (f, h, w))
    out = np.empty(items.shape, dtype=np.float32)
    group = max(1, FILL_GROUP_BYTES // (kernel[0].nbytes * (c + 1)))
    for i in range(0, len(items), group):
        out[i:i + group] = _fill_group(items[i:i + group], masks[i:i + group],
                                       kernel, floor)
    return out.reshape(condition.shape)


def _weighted(condition: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """obs = 1 - mask in float64, and the condition's channels times obs with
    obs as one more channel, on axis 1 ahead of the frame axes, so that every
    transformed line is contiguous."""
    obs = (1.0 - mask).astype(np.float64)
    both = np.empty(condition.shape[:1] + (condition.shape[-1] + 1,) + condition.shape[1:-1])
    np.multiply(condition, obs, out=np.moveaxis(both[:, :-1], 1, -1))
    both[:, -1] = obs[..., 0]
    return obs, both


def _composite(inverse: np.ndarray, condition: np.ndarray, obs: np.ndarray,
               smallest: float, floor: float) -> np.ndarray:
    """From the transformed-back num and den (channels on axis 1, den last,
    the padded width last): obs*condition + (1-obs)*num/den, with `floor`
    where den is below half the smallest weight."""
    c, w = condition.shape[-1], condition.shape[-2]
    full = np.moveaxis(inverse[..., :w], 1, -1)
    num, den = full[..., :c], full[..., c:]
    # num becomes the fill and then obs*condition + (1-obs)*fill
    covered = den > 0.5 * smallest
    num /= np.where(covered, den, 1.0)
    np.copyto(num, floor, where=~covered)
    num *= 1.0 - obs
    num += condition * obs
    return num


def _fill_group(condition: np.ndarray, mask: np.ndarray,
                kernel: tuple[np.ndarray, tuple[int, ...], float],
                floor: float) -> np.ndarray:
    """`inverse_distance_fill` of (N, F, H, W, C) items with the kernel's
    spectrum, padded size and smallest weight, in float64."""
    spectrum, size, smallest = kernel
    n, f, h, w, c = condition.shape
    obs, both = _weighted(condition, mask)
    # rfftn and irfftn of `both` zero-padded to `size`, one axis pass at a
    # time in one zeroed buffer: a line that is all zeros, inside the padding,
    # is transformed only where a later pass reads it
    product = np.zeros((n, c + 1, size[0], size[1], size[2] // 2 + 1), dtype=complex)
    np.fft.rfft(both, size[2], axis=-1, out=product[:, :, :f, :h])
    del both
    np.fft.fft(product[:, :, :f], axis=-2, out=product[:, :, :f])
    np.fft.fft(product, axis=-3, out=product)
    product *= spectrum
    np.fft.ifft(product, axis=-3, out=product)
    np.fft.ifft(product[:, :, :f], axis=-2, out=product[:, :, :f])
    inverse = np.fft.irfft(product[:, :, :f, :h], size[2], axis=-1)
    del product
    return _composite(inverse, condition, obs, smallest, floor)


def _fill_rows(items: np.ndarray, masks: np.ndarray, rows: np.ndarray,
               kernel: tuple, floor: float) -> np.ndarray:
    """`inverse_distance_fill` of frames `rows` of the (N, F, H, W, C) items'
    concatenation with the kernel's frame slices, padded size and smallest
    weight, in float64.  A row reads the frames of its own item that the
    slices reach.  Items go whole into chunks whose input spectra fit
    FILL_GROUP_BYTES (an item larger than that alone), and a chunk
    transforms each frame that its rows read once: rfft along W into a
    zeroed buffer, then fft along H, as `_fill_group`'s first passes.  Each
    row sums the slices' spectra times those of the frames they reach, in
    ascending df, then takes `_fill_group`'s last passes."""
    slices, size, smallest = kernel
    n, f, h, w, c = items.shape
    frames, masks = items.reshape((-1, h, w, c)), masks.reshape((-1, h, w, masks.shape[-1]))
    wanted, back = np.unique(rows, return_inverse=True)
    # the frame each slice reads for each row, and whether it is of the row's item
    near = wanted[:, None] - np.array([d for d, _ in slices], dtype=np.intp)
    own = near // f == wanted[:, None] // f
    reads = np.flatnonzero(np.bincount(near[own], minlength=n * f))
    # chunks as runs of the rows' items: each starts with an item whose reads
    # would take the chunk's spectra past the budget
    budget = max(1, FILL_GROUP_BYTES // ((c + 1) * size[1] * (size[2] // 2 + 1) * 16))
    counts = np.bincount(reads // f, minlength=n)
    load, cuts = 0, []
    for item in dict.fromkeys((wanted // f).tolist()):
        if load + counts[item] > budget or not cuts:
            cuts.append(item * f)
            load = 0
        load += counts[item]
    out = np.empty((len(wanted), h, w, c), dtype=np.float32)
    for lo, hi in zip(cuts, cuts[1:] + [n * f]):
        (a, b), (p, q) = (np.searchsorted(x, [lo, hi]) for x in (wanted, reads))
        _, both = _weighted(frames[reads[p:q]], masks[reads[p:q]])
        # one more zero spectrum, which a slice reaching past its item reads
        spectra = np.zeros((q - p + 1, c + 1, size[1], size[2] // 2 + 1), dtype=complex)
        np.fft.rfft(both, size[2], axis=-1, out=spectra[:-1, :, :h])
        del both
        np.fft.fft(spectra[:-1], axis=-2, out=spectra[:-1])
        acc = np.zeros((b - a,) + spectra.shape[1:], dtype=complex)
        for (_, spectrum), src, ok in zip(slices, near[a:b].T, own[a:b].T):
            acc += spectrum * spectra[np.where(ok, np.searchsorted(reads[p:q], src), q - p)]
        del spectra
        np.fft.ifft(acc, axis=-2, out=acc)
        inverse = np.fft.irfft(acc[:, :, :h], size[2], axis=-1)
        del acc
        obs = (1.0 - masks[wanted[a:b]]).astype(np.float64)
        out[a:b] = _composite(inverse, frames[wanted[a:b]], obs, smallest, floor)
    return out[back]


@dataclass(frozen=True)
class PreparedFill:
    """The toy backend's per-stage state for the frame concatenation of
    `items` equal-length stacks: `x0` is the read-only fill of the
    condition, `carry` the read-only weight with which steps blend in the
    latent average (latent_carryover times the mask), or None when nothing
    is masked or carryover is off; then `x0` is already clamped to
    [-1, 1]."""

    mask: MaskVideo  # unused by `denoise`; the benchmark's zero-mask counter reads it
    items: int
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
                items: int = 1, rows=None) -> PreparedFill:
        """Fill the condition, once per stage.  The condition is the frame
        concatenation of `items` equal-length stacks; one
        `inverse_distance_fill` covers every item with a masked and an
        observed voxel.  An item with nothing observed is `fill_floor`
        throughout, as that fill would leave it, without the transform; an
        item with nothing masked keeps its condition as its fill.

        With `rows`, indices into the frame concatenation (repeats allowed),
        only those frames are prepared, each a one-frame item, and only they
        are filled: since `denoise` is per frame, it denoises `z[rows]` as
        the whole state denoises `z` and takes those rows, up to the row
        fill's rounding."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not mask.matches(condition):
            raise ShapeError(f"mask {mask.data.shape} does not match {condition.shape}")
        if items < 1 or condition.frames % items:
            raise ShapeError(f"{condition.frames} frames do not split into {items} equal stacks")
        n = condition.frames // items
        shape = (items, n) + condition.shape[1:]
        per_item = mask.data.reshape(items, -1)
        masked, blank = per_item.any(axis=1), per_item.all(axis=1)  # blank: nothing observed
        if rows is None:
            frames, data, narrowed = np.arange(condition.frames), condition.data, mask
        else:
            frames = np.asarray(rows, dtype=np.intp)
            data, narrowed = condition.data[frames], MaskVideo(mask.data[frames])
        item = frames // n
        if masked.any():
            x0 = data.astype(np.float32)
            filled = masked & ~blank
            if filled.any():
                at = filled[item]  # the frames of filled items, as rows of the filled items
                picked = None if rows is None else ((np.cumsum(filled) - 1)[item] * n
                                                    + frames % n)[at]
                x0[at] = inverse_distance_fill(
                    condition.data.reshape(shape)[filled],
                    mask.data.reshape(shape[:4] + (1,))[filled],
                    self.config.temporal_scale(mode), self.config.radius, self.config.fill_floor,
                    picked).reshape((-1,) + x0.shape[1:])
            x0[blank[item]] = self.config.fill_floor
        else:
            x0 = np.asarray(data, dtype=np.float32)
        carry = None
        if masked.any() and self.config.latent_carryover > 0.0:
            carry = self.config.latent_carryover * narrowed.data
            carry.flags.writeable = False
        elif not -1.0 <= x0.min() <= x0.max() <= 1.0:
            x0 = np.clip(x0, -1.0, 1.0)  # once here, not at every step
        x0.flags.writeable = False
        return PreparedFill(narrowed, items if rows is None else len(frames), x0, carry)

    def denoise(self, prepared: PreparedFill, z: np.ndarray, t: float) -> np.ndarray:
        """Velocity for one step from `prepared`, which is
        `self.prepare(condition, mask, mode, items)`, made once for every
        step of a stage.  Every operation is per frame, so one call on a
        concatenation equals one call per item."""
        if t <= 0.0:
            raise ScheduleError("t must be > 0: no denoising step remains")
        if z.shape != prepared.x0.shape:
            raise ShapeError(f"z {z.shape} vs condition {prepared.x0.shape}")
        x0, carry = prepared.x0, prepared.carry
        if carry is None:
            v = z - x0
            v /= t
            return v
        # per block of frames, in place: x0 + carry * (s - x0), clamped, then
        # (z - that) / t, in z's dtype; s is the edge-aware 3x3 within-frame
        # average of z in single precision: nine adds in (dy, dx) order, from
        # +0.0, of one zero-padded float32 copy of z at flat offsets, over
        # each voxel's float32 count of in-frame neighbours.  Only the
        # average is float32: the steps that accumulate the velocity over a
        # schedule stay float64.
        f, h, w, c = z.shape
        row, plane = (w + 2) * c, (h + 2) * (w + 2) * c
        rows = max(1, BLOCK_BYTES // (4 * plane))
        pad = np.zeros((min(rows, f), h + 2, w + 2, c), dtype=np.float32)
        acc = np.empty(pad.shape, dtype=np.float32)
        flat_pad, flat_acc = pad.reshape(-1), acc.reshape(-1)
        offsets = [dy * row + dx * c for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        count = _neighbour_count(h, w, c)
        out = np.empty(z.shape, dtype=z.dtype)
        lo = row + c  # the flat index of voxel (0, 0, 0); the last one ends lo before the block
        for a in range(0, f, rows):
            b = min(a + rows, f)
            pad[:b - a, 1:-1, 1:-1] = z[a:b]
            hi = (b - a) * plane - lo
            np.add(flat_pad[lo + offsets[0]:hi + offsets[0]], 0.0, out=flat_acc[lo:hi])
            for off in offsets[1:]:
                flat_acc[lo:hi] += flat_pad[lo + off:hi + off]
            v = out[a:b]
            np.divide(acc[:b - a, 1:-1, 1:-1], count, out=v, casting="same_kind")
            v -= x0[a:b]
            v *= carry[a:b]
            v += x0[a:b]
            np.clip(v, -1.0, 1.0, out=v)
            np.subtract(z[a:b], v, out=v)
            v /= t
        return out
