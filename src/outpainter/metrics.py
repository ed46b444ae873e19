"""Quantitative evaluation: PSNR, SSIM, tile-seam energy, revisit consistency.

All metrics assume the nominal [-1, 1] value range (R = 2).
"""
from __future__ import annotations

import math

import numpy as np

from .scene import SceneCase, revisit_pairs
from .tiling import TilePlan
from .video import MaskVideo, ShapeError, VideoTensor

DATA_RANGE = 2.0
SSIM_WINDOW = 8
SSIM_C1 = (0.01 * DATA_RANGE) ** 2
SSIM_C2 = (0.03 * DATA_RANGE) ** 2


class RegionError(ValueError):
    """Raised when a selection holds no voxels."""


def psnr(a: VideoTensor, b: VideoTensor, where: np.ndarray | None = None) -> float:
    """10*log10(R^2 / MSE) over the voxels the boolean array `where` selects
    (it broadcasts to the videos' shape; all voxels by default); +inf for
    identical input."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if where is None:
        va, vb = a.data.reshape(-1), b.data.reshape(-1)
    else:
        where = np.broadcast_to(where, a.shape)
        va, vb = a.data[where], b.data[where]
        if va.size == 0:
            raise RegionError("the selection holds no voxels")
    # one float64 temporary: the difference of the exact float64 casts, squared in place
    err = np.subtract(va, vb, dtype=np.float64)
    err *= err
    mse = float(np.mean(err))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DATA_RANGE ** 2 / mse)


def _grayscale(video: VideoTensor) -> np.ndarray:
    return video.data.mean(axis=3, dtype=np.float64)


def _window_sums(frame: np.ndarray, n: int) -> np.ndarray:
    """Sliding n x n window sums via a 2-D cumulative sum."""
    cs = np.cumsum(np.cumsum(frame, axis=0), axis=1)
    cs = np.pad(cs, ((1, 0), (1, 0)))
    return cs[n:, n:] - cs[:-n, n:] - cs[n:, :-n] + cs[:-n, :-n]


def ssim(a: VideoTensor, b: VideoTensor) -> float:
    """Single-scale SSIM: uniform 8x8 windows at stride 1, grayscale by
    channel mean, averaged over windows and frames."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    n = SSIM_WINDOW
    if a.height < n or a.width < n:
        raise ShapeError(f"frame {a.height}x{a.width} smaller than {n}x{n} window")
    ga, gb = _grayscale(a), _grayscale(b)
    area = float(n * n)
    scores = []
    for fa, fb in zip(ga, gb):
        mu_a = _window_sums(fa, n) / area
        mu_b = _window_sums(fb, n) / area
        var_a = _window_sums(fa * fa, n) / area - mu_a ** 2
        var_b = _window_sums(fb * fb, n) / area - mu_b ** 2
        cov = _window_sums(fa * fb, n) / area - mu_a * mu_b
        num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_a ** 2 + mu_b ** 2 + SSIM_C1) * (var_a + var_b + SSIM_C2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))


def _boundary_coords(starts_ends: set[int], extent: int) -> list[int]:
    # interior boundary planes only, clipped so the centered second
    # difference stays inside the extent
    return sorted(b for b in starts_ends if 0 < b < extent and 1 <= b <= extent - 2)


def seam_energy(video: VideoTensor, plan: TilePlan) -> float:
    """Mean squared second difference across every interior tile boundary
    plane of the plan, along the temporal and both spatial axes."""
    if video.shape[:3] != plan.extent:
        raise ShapeError(f"video {video.shape} does not match plan extent {plan.extent}")
    data = video.data.astype(np.float64)
    total = 0.0
    count = 0
    axes = {
        0: {b for t in plan.tiles for b in (t.f0, t.f1)},
        1: {b for t in plan.tiles for b in (t.y0, t.y1)},
        2: {b for t in plan.tiles for b in (t.x0, t.x1)},
    }
    for axis, bounds in axes.items():
        extent = plan.extent[axis]
        for b in _boundary_coords(bounds, extent):
            lo = np.take(data, b - 1, axis=axis)
            mid = np.take(data, b, axis=axis)
            hi = np.take(data, b + 1, axis=axis)
            d2 = lo - 2.0 * mid + hi
            total += float(np.sum(d2 * d2))
            count += d2.size
    if count == 0:
        return 0.0
    return total / count


def revisit_consistency(output: VideoTensor, case: SceneCase,
                        min_gap: int | None = None) -> float:
    """Mean PSNR between output crops of the same world region seen at two
    different frames; measures long-range appearance coherence."""
    pairs = revisit_pairs(case, min_gap)
    if not pairs:
        raise RegionError("case geometry yields no revisit pairs")
    mses = []
    for fa, fb, ra, rb in pairs:
        ya, xa, h, w = ra
        yb, xb, _, _ = rb
        crop_a = output.data[fa, ya:ya + h, xa:xa + w].astype(np.float64)
        crop_b = output.data[fb, yb:yb + h, xb:xb + w].astype(np.float64)
        mses.append(float(np.mean((crop_a - crop_b) ** 2)))
    pooled = float(np.mean(mses))
    if pooled == 0.0:
        return math.inf
    return 10.0 * math.log10(DATA_RANGE ** 2 / pooled)


def report(output: VideoTensor, reference: VideoTensor, mask: MaskVideo) -> dict:
    """Full metric report keyed by metric and region; JSON-serializable."""
    def fmt(v: float):
        return "+inf" if math.isinf(v) else v

    out = {"data_range": DATA_RANGE, "psnr": {}, "ssim": fmt(ssim(output, reference))}
    regions = {"all": None, "observed": mask.data == 0.0, "outpainted": mask.data > 0.0}
    for which, where in regions.items():
        try:
            out["psnr"][which] = fmt(psnr(output, reference, where))
        except RegionError:
            out["psnr"][which] = None
    return out
