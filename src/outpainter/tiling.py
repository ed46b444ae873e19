"""Spatio-temporal tile planning, center-weighted blending, tiled stepping.

Overlapping tiles are denoised independently and merged each diffusion step by
a weighted average whose windows peak at tile centers, so tile seams are
reconciled continuously instead of once at the end.  Same-shaped tiles run in
groups: a group is prepared, denoised and stepped as one array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sampler import step
from .video import MaskVideo, ShapeError, VideoTensor

WEIGHT_EPS = 1e-3
# Most voxels (F*H*W) one group of tiles or stacks holds; an item larger than
# this is a group of its own.
GROUP_VOXELS = 1 << 14
# `blend` weighs an output in blocks of frames of at most this many bytes of
# float64, so that each product stays in cache.
BLOCK_BYTES = 1 << 17


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

    def __post_init__(self):
        f, h, w = self.extent
        for tile in self.tiles:
            if tile.f1 > f or tile.y1 > h or tile.x1 > w:
                raise ShapeError(f"tile {tile} exceeds extent {self.extent}")

    @cached_property
    def weights(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Each tile's blend weight, in plan order, and their per-voxel sum,
        built once per plan; tiles with equal weights share one array.  The
        sum has length 1 on an axis that every tile spans whole, as each
        weight has on an axis its tile spans whole."""
        shared: dict = {}
        weights = []
        den = np.zeros(tuple(n if any(t.shape[a] < n for t in self.tiles) else 1
                             for a, n in enumerate(self.extent)) + (1,))
        for tile in self.tiles:
            key = (tile.shape,) + _touches(tile, self.extent)
            if key not in shared:
                shared[key] = tile_weight(tile, self)
                shared[key].flags.writeable = False
            weights.append(shared[key])
            den[_box(tile)] += shared[key]
        if not (den > 0.0).all():
            raise CoverageError("blend leaves uncovered voxels")
        return tuple(weights), den

    @cached_property
    def sums(self) -> dict:
        """`blend`'s zeroed float64 sums of the plan's open frames, by
        trailing shape: a blend takes one out and returns it zeroed, so
        every pass of a stage sums into one array instead of mapping a
        new one."""
        return {}

    @cached_property
    def closes(self) -> tuple[int, ...]:
        """For each tile, the first frame a later tile reaches (the extent's
        frame count after the last tile): once a blend has added the tile,
        every earlier frame is final."""
        later = self.extent[0]
        closes = []
        for tile in reversed(self.tiles):
            closes.append(later)
            later = min(later, tile.f0)
        return tuple(reversed(closes))

    @cached_property
    def open_frames(self) -> int:
        """Most frames a blend holds unfinished at once: from the last
        closed frame to the furthest frame reached so far."""
        most = lo = hi = 0
        for tile, close in zip(self.tiles, self.closes):
            hi = max(hi, tile.f1)
            most = max(most, hi - lo)
            lo = close
        return most


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
    return TilePlan(extent, tiles)


def _axis_weights(n: int, touches_low: bool, touches_high: bool) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    w = WEIGHT_EPS + (1.0 - WEIGHT_EPS) * np.sin(np.pi * (i + 0.5) / n) ** 2
    half = n // 2
    if touches_low:
        w[:half + n % 2] = 1.0
    if touches_high:
        w[half:] = 1.0
    return w


def _touches(tile: Tile, extent: tuple[int, int, int]) -> tuple[bool, ...]:
    f, h, w = extent
    return (tile.f0 == 0, tile.f1 == f, tile.y0 == 0, tile.y1 == h, tile.x0 == 0, tile.x1 == w)


def tile_weight(tile: Tile, tile_plan: TilePlan) -> np.ndarray:
    """Separable Hann blend weights, with a flat 1.0 plateau on tile halves
    that touch the full-extent boundary (true video borders are never
    down-weighted against nothing).  On an axis the tile spans whole the
    factor is all 1.0, so it is kept at length 1 and broadcasts: the
    product is unchanged, bit for bit."""
    f0, f1, y0, y1, x0, x1 = _touches(tile, tile_plan.extent)
    wf, wy, wx = (_axis_weights(n, lo, hi)[:1 if lo and hi else n]
                  for n, lo, hi in zip(tile.shape, (f0, y0, x0), (f1, y1, x1)))
    return (wf[:, None, None, None] * wy[None, :, None, None]
            * wx[None, None, :, None])


def _box(tile: Tile) -> tuple[slice, slice, slice]:
    return slice(tile.f0, tile.f1), slice(tile.y0, tile.y1), slice(tile.x0, tile.x1)


def blend(outputs, tile_plan: TilePlan, out: np.ndarray | None = None) -> np.ndarray:
    """Per-voxel weighted average of one output per plan tile, accumulated in
    double precision with the plan's weights.  `outputs` is an iterable
    of (tile, array) pairs in plan order, consumed one output at a time
    and never held whole: each is dropped before the next is pulled.  The
    double-precision sums span only the plan's open frames: a frame is
    divided out into the float32 result as soon as no later tile reaches
    it.  The result is `out` if given, which may be the array the outputs
    are made from, as long as each output is complete when it is yielded."""
    tiles = tile_plan.tiles
    weights, den = tile_plan.weights
    num = None
    lo = hi = i = 0  # num[j] sums frame lo + j; frames before lo are final
    for tile, data in outputs:
        if i >= len(tiles) or tile != tiles[i]:
            raise CoverageError(f"output {i} is for tile {tile}, not the plan's tile")
        if data.shape[:3] != tile.shape:
            raise ShapeError(f"output {data.shape} does not match tile {tile}")
        if num is None:
            shape = tile_plan.extent + data.shape[3:]
            if out is None:
                out = np.empty(shape, dtype=np.float32)
            elif out.shape != shape or out.dtype != np.float32:
                raise ShapeError(f"out {out.shape} {out.dtype} is not float32 {shape}")
            # taken, not shared, so that a blend that fails leaves it out
            num = tile_plan.sums.pop(shape[1:], None)
            if num is None:
                num = np.zeros((tile_plan.open_frames,) + shape[1:], dtype=np.float64)
        # weight * data is made and added into num a block of frames at a time
        w, box = weights[i], num[tile.f0 - lo:tile.f1 - lo, tile.y0:tile.y1, tile.x0:tile.x1]
        rows = max(1, BLOCK_BYTES // (8 * data[0].size))
        for a in range(0, len(data), rows):
            block = box[a:a + rows]
            block += (w[a:a + rows] if len(w) > 1 else w) * data[a:a + rows]
        hi = max(hi, tile.f1)
        close = tile_plan.closes[i]
        if close > lo:  # lo is 0 here if den has one frame
            np.divide(num[:close - lo], den[lo:close], out=out[lo:close], casting="same_kind")
            num[:hi - close] = num[close - lo:hi - lo]
            num[hi - close:hi - lo] = 0.0
            lo = close
        i += 1
        del data  # so that it is freed while the next output is made
    if i != len(tiles):
        raise CoverageError(f"{i} outputs for {len(tiles)} plan tiles")
    tile_plan.sums[shape[1:]] = num  # the last close divided out and zeroed every frame
    return out


def group_items(shapes: list[tuple[int, int, int]]) -> list[slice]:
    """Consecutive runs of same-shaped items cut into groups of near-equal
    size, each holding at most GROUP_VOXELS voxels (an item larger than that
    alone): the items a denoiser prepares and steps as one array."""
    groups: list[slice] = []
    start = 0
    while start < len(shapes):
        end = start
        while end < len(shapes) and shapes[end] == shapes[start]:
            end += 1
        count = -(-(end - start) // max(1, GROUP_VOXELS // math.prod(shapes[start])))
        cuts = [start + (end - start) * j // count for j in range(count + 1)]
        groups += [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        start = end
    return groups


def _gather(arr: np.ndarray, tiles) -> np.ndarray:
    """The frame concatenation of the tiles' boxes of `arr`, read-only; a view
    if they abut in frames (the flag is the view's: `arr` stays writable)."""
    t = tiles[0]
    if all(a.f1 == b.f0 and _box(b)[1:] == _box(t)[1:] for a, b in zip(tiles, tiles[1:])):
        out = arr[t.f0:tiles[-1].f1, t.y0:t.y1, t.x0:t.x1]
    else:
        out = np.concatenate([arr[_box(tile)] for tile in tiles])
    out.flags.writeable = False
    return out


def prepare_tiles(denoiser, condition: VideoTensor, mask: MaskVideo,
                  tile_plan: TilePlan, mode: str = "dense", stacks: int = 1,
                  rows=None) -> list:
    """(tiles, prepared) for each group of `group_items`, in plan order: the
    group's conditioning prepared through one `denoiser.prepare` call.  Each
    tile box holds `stacks` equal-length stacks, so a group is prepared as
    `stacks` items per tile.  With `rows`, frames of the plan's extent, a
    group is prepared for the listed frames its tiles span, tile by tile:
    whole if they are all its frames in order, and left out if they are
    none.  A stage makes this once and reuses it at every step."""
    if condition.shape[:3] != tile_plan.extent:
        raise ShapeError(f"condition {condition.shape} does not match plan {tile_plan.extent}")
    tiles, prepared = tile_plan.tiles, []
    for g in group_items([tile.shape for tile in tiles]):
        # frame f of the group's j-th tile of n frames is its row j * n + f - f0
        picked = None if rows is None else [j * t.shape[0] + f - t.f0 for j, t in
                                            enumerate(tiles[g]) for f in rows if t.f0 <= f < t.f1]
        if picked == list(range(sum(t.shape[0] for t in tiles[g]))):
            picked = None  # every frame in order: the group is prepared whole
        if picked != []:
            prepared.append((tiles[g], denoiser.prepare(
                VideoTensor(_gather(condition.data, tiles[g])),
                MaskVideo(_gather(mask.data, tiles[g])), mode,
                items=stacks * (g.stop - g.start), rows=picked)))
    return prepared


def tile_outputs(prepared, data: np.ndarray, run):
    """(tile, output) in plan order: each prepared group's tiles are gathered
    from `data` as one read-only array and handed to `run(prepared_group, z_group)`."""
    for tiles, prep in prepared:
        out = run(prep, _gather(data, tiles))
        n = out.shape[0] // len(tiles)
        for j, tile in enumerate(tiles):
            yield tile, out[j * n:(j + 1) * n]
        del out  # so it is freed before the next group runs, if the caller holds no part


def tiled_denoise_pass(z: np.ndarray, tile_plan: TilePlan, denoiser, t_from: float,
                       t_to: float, prepared: list, out: np.ndarray | None = None) -> np.ndarray:
    """One diffusion step over a tile plan: denoise and step each group of
    tiles as one array, then blend the stepped tiles into the next global
    latent, `out` if given (which may be `z` itself: the blend finishes a
    frame only once no later tile reads it).  `prepared` is
    `prepare_tiles(denoiser, condition, mask, tile_plan, mode)`, made once
    per stage."""
    if z.shape[:3] != tile_plan.extent:
        raise ShapeError(f"latent {z.shape} does not match plan extent {tile_plan.extent}")

    def stepped(prep, z_group):
        return step(z_group, denoiser.denoise(prep, z_group, t_from), t_from, t_to)

    return blend(tile_outputs(prepared, z, stepped), tile_plan, out)


@dataclass(frozen=True)
class PreparedTiles:
    """The adapter's state: `parts` is `prepare_tiles` over `plan`, whose
    spatial tiles each span every frame of all items."""

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
        # the frame plan of each stack length, so that conditions of one
        # length share its weights and blend sums
        self.frame_plans: dict[int, TilePlan] = {}

    def prepare(self, condition: VideoTensor, mask: MaskVideo, mode: str = "dense",
                items: int = 1, rows=None) -> PreparedTiles:
        """Prepare the spatial tiles, each over every frame of all items,
        through the inner denoiser, in groups of same-shaped tiles; with
        `rows`, each part for those frames of each of its tiles, so that the
        state is one of `len(rows)` frames.  A tile spans the whole frame
        axis, so its frame weight is flat and each item blends as it would
        alone."""
        if self.plan.extent[1:] != condition.shape[1:3]:
            raise ShapeError(
                f"plan extent {self.plan.extent} does not match request {condition.shape}")
        parts = prepare_tiles(self.inner, condition, mask, self._frame_plan(condition.frames),
                              mode, stacks=items, rows=rows)
        frame_plan = self._frame_plan(condition.frames if rows is None else len(rows))
        tiles = iter(frame_plan.tiles)
        return PreparedTiles(frame_plan, tuple((tuple(next(tiles) for _ in group), part)
                                               for group, part in parts))

    def _frame_plan(self, frames: int) -> TilePlan:
        if frames not in self.frame_plans:
            self.frame_plans[frames] = TilePlan(
                (frames,) + self.plan.extent[1:],
                tuple(Tile(0, frames, t.y0, t.y1, t.x0, t.x1) for t in self.plan.tiles))
        return self.frame_plans[frames]

    def denoise(self, prepared: PreparedTiles, z: np.ndarray, t: float) -> np.ndarray:
        # the inner denoiser rejects a channel count that differs from the condition's
        if z.shape[:3] != prepared.plan.extent:
            raise ShapeError(f"z {z.shape} does not match prepared extent {prepared.plan.extent}")

        def velocity(part, z_group):
            return self.inner.denoise(part, z_group, t)

        return blend(tile_outputs(prepared.parts, z, velocity), prepared.plan)
