"""Spatio-temporal tile planning, center-weighted blending, tiled stepping.

Overlapping tiles are denoised independently and merged each diffusion step by
a weighted average whose windows peak at tile centers, so tile seams are
reconciled continuously instead of once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Prepared
from .sampler import step
from .video import MaskVideo, ShapeError, VideoTensor

WEIGHT_EPS = 1e-3


class ConfigError(ValueError):
    """Raised for invalid plan parameters."""


class CoverageError(ValueError):
    """Raised when a blend leaves some voxel uncovered."""


@dataclass(frozen=True)
class Tile:
    """Half-open spatio-temporal box [f0,f1) x [y0,y1) x [x0,x1)."""

    f0: int
    f1: int
    y0: int
    y1: int
    x0: int
    x1: int

    def __post_init__(self):
        if not (self.f0 < self.f1 and self.y0 < self.y1 and self.x0 < self.x1):
            raise ShapeError(f"empty tile {self}")
        if min(self.f0, self.y0, self.x0) < 0:
            raise ShapeError(f"negative tile origin {self}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.f1 - self.f0, self.y1 - self.y0, self.x1 - self.x0)


@dataclass(frozen=True)
class TilePlan:
    extent: tuple[int, int, int]
    tiles: tuple[Tile, ...]
    overlap_t: int
    overlap_y: int
    overlap_x: int
    weight_kind: str = "hann"

    def __post_init__(self):
        f, h, w = self.extent
        for tile in self.tiles:
            if tile.f1 > f or tile.y1 > h or tile.x1 > w:
                raise ShapeError(f"tile {tile} exceeds extent {self.extent}")


def _axis_starts(extent: int, size: int, overlap: int) -> list[int]:
    """Tile start offsets along one axis: stride size-overlap, last tile
    shifted back so it ends flush with the extent."""
    if size < 1:
        raise ConfigError(f"tile size must be >= 1, got {size}")
    if not 0 <= overlap < size:
        raise ConfigError(f"overlap {overlap} must be in [0, size {size})")
    if extent <= size:
        return [0]
    stride = size - overlap
    starts = list(range(0, extent - size, stride))
    starts.append(extent - size)
    return starts


def plan(extent: tuple[int, int, int], tile_size_t: int, tile_size_y: int,
         tile_size_x: int, overlap_t: int = 0, overlap_y: int = 0,
         overlap_x: int = 0) -> TilePlan:
    f, h, w = extent
    if f < 1 or h < 1 or w < 1:
        raise ConfigError(f"degenerate extent {extent}")
    st = _axis_starts(f, tile_size_t, overlap_t)
    sy = _axis_starts(h, tile_size_y, overlap_y)
    sx = _axis_starts(w, tile_size_x, overlap_x)
    dt, dy, dx = min(tile_size_t, f), min(tile_size_y, h), min(tile_size_x, w)
    tiles = tuple(Tile(a, a + dt, b, b + dy, c, c + dx)
                  for a in st for b in sy for c in sx)
    return TilePlan(extent, tiles, overlap_t, overlap_y, overlap_x)


def _axis_weights(n: int, touches_low: bool, touches_high: bool) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    w = WEIGHT_EPS + (1.0 - WEIGHT_EPS) * np.sin(np.pi * (i + 0.5) / n) ** 2
    half = n // 2
    if touches_low:
        w[:half + n % 2] = 1.0
    if touches_high:
        w[half:] = 1.0
    return w


def tile_weight(tile: Tile, tile_plan: TilePlan) -> np.ndarray:
    """Separable Hann blend weights, with a flat 1.0 plateau on tile halves
    that touch the full-extent boundary (true video borders are never
    down-weighted against nothing)."""
    f, h, w = tile_plan.extent
    wf = _axis_weights(tile.f1 - tile.f0, tile.f0 == 0, tile.f1 == f)
    wy = _axis_weights(tile.y1 - tile.y0, tile.y0 == 0, tile.y1 == h)
    wx = _axis_weights(tile.x1 - tile.x0, tile.x0 == 0, tile.x1 == w)
    return (wf[:, None, None, None] * wy[None, :, None, None]
            * wx[None, None, :, None])


def _canonical(items: list) -> list:
    return sorted(items, key=lambda pair: (pair[0].f0, pair[0].y0, pair[0].x0,
                                           pair[0].f1, pair[0].y1, pair[0].x1))


def blend(tile_outputs: list[tuple[Tile, VideoTensor]], tile_plan: TilePlan) -> VideoTensor:
    """Per-voxel weighted average of tile outputs (double precision, canonical
    accumulation order, so the result is exactly order-independent)."""
    if not tile_outputs:
        raise CoverageError("no tiles to blend")
    f, h, w = tile_plan.extent
    c = tile_outputs[0][1].channels
    num = np.zeros((f, h, w, c), dtype=np.float64)
    den = np.zeros((f, h, w, 1), dtype=np.float64)
    for tile, out in _canonical(tile_outputs):
        if out.shape[:3] != tile.shape:
            raise ShapeError(f"output {out.shape} does not match tile {tile}")
        wgt = tile_weight(tile, tile_plan)
        sl = (slice(tile.f0, tile.f1), slice(tile.y0, tile.y1), slice(tile.x0, tile.x1))
        num[sl] += wgt * out.data.astype(np.float64)
        den[sl] += wgt
    if not (den > 0.0).all():
        raise CoverageError("blend leaves uncovered voxels")
    return VideoTensor((num / den).astype(np.float32))


def _slice_tile(arr: np.ndarray, tile: Tile) -> np.ndarray:
    return arr[tile.f0:tile.f1, tile.y0:tile.y1, tile.x0:tile.x1]


def prepare_tiles(denoiser, condition: VideoTensor, mask: MaskVideo,
                  tile_plan: TilePlan, mode: str = "dense") -> list:
    """Each tile's conditioning prepared through `denoiser.prepare`, in plan
    order; a stage makes this once and reuses it at every step."""
    if condition.shape[:3] != tile_plan.extent:
        raise ShapeError(f"condition {condition.shape} does not match plan {tile_plan.extent}")
    return [denoiser.prepare(VideoTensor(_slice_tile(condition.data, tile)),
                             MaskVideo(_slice_tile(mask.data, tile)), mode)
            for tile in tile_plan.tiles]


def tiled_denoise_pass(z: VideoTensor, tile_plan: TilePlan, denoiser, t_from: float,
                       t_to: float, prepared: list) -> VideoTensor:
    """One diffusion step over a tile plan: denoise each tile, step it, then
    blend the stepped tiles into the next global latent.  `prepared` is
    `prepare_tiles(denoiser, condition, mask, tile_plan, mode)`, made once per
    stage."""
    if z.shape[:3] != tile_plan.extent:
        raise ShapeError(f"latent {z.shape} does not match plan extent {tile_plan.extent}")
    outputs = []
    for tile, prep in zip(tile_plan.tiles, prepared, strict=True):
        z_tile = VideoTensor(_slice_tile(z.data, tile))
        v_hat = denoiser.denoise(prep, z_tile, t_from)
        outputs.append((tile, step(z_tile, v_hat, t_from, t_to)))
    return blend(outputs, tile_plan)


@dataclass(frozen=True)
class PreparedTiles(Prepared):
    """The adapter's state: the inner prepared state of each tile of `plan`."""

    plan: TilePlan
    parts: tuple


class SpatiallyTiledDenoiser:
    """Adapter exposing the single-call denoiser interface over a spatial tile
    plan: velocities are predicted per spatial tile and blended.  Because the
    Euler update is linear in velocity, blending velocities is equivalent to
    blending stepped latents."""

    def __init__(self, inner, spatial_plan: TilePlan):
        self.inner = inner
        self.plan = spatial_plan

    def prepare(self, condition: VideoTensor, mask: MaskVideo,
                mode: str = "dense") -> PreparedTiles:
        """Prepare each spatial tile, over all frames, through the inner denoiser."""
        if self.plan.extent[1:] != condition.shape[1:3]:
            raise ShapeError(
                f"plan extent {self.plan.extent} does not match request {condition.shape}")
        f = condition.frames
        tiles = tuple(Tile(0, f, t.y0, t.y1, t.x0, t.x1) for t in self.plan.tiles)
        frame_plan = TilePlan((f,) + self.plan.extent[1:], tiles, 0,
                              self.plan.overlap_y, self.plan.overlap_x)
        parts = prepare_tiles(self.inner, condition, mask, frame_plan, mode)
        return PreparedTiles(condition, mask, mode, frame_plan, tuple(parts))

    def denoise(self, prepared: PreparedTiles, z: VideoTensor, t: float) -> VideoTensor:
        if z.shape != prepared.condition.shape:
            raise ShapeError(f"z {z.shape} vs condition {prepared.condition.shape}")
        outputs = []
        for tile, part in zip(prepared.plan.tiles, prepared.parts):
            z_tile = VideoTensor(_slice_tile(z.data, tile))
            outputs.append((tile, self.inner.denoise(part, z_tile, t)))
        return blend(outputs, prepared.plan)
