"""Deterministic procedural video world used as ground truth.

The world is an integer-hash value-noise texture with hard-alpha sprites
moving on linear trajectories.  Rendering any spatio-temporal crop is a pure
function of (spec, frame, window), so revisited regions can be compared
exactly and outpainted content can be scored against real ground truth.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .pipeline import _load
from .rng import stream_key
from .video import MaskVideo, PadSpec, VideoTensor, pad_video

SPRITE_SHAPES = ("disc", "rect", "arrow")


class GeometryError(ValueError):
    """Raised when a crop rectangle is not contained in its full window."""


@dataclass(frozen=True)
class Sprite:
    shape: str  # disc | rect | arrow
    size: float
    color: tuple[float, float, float]
    x0: float
    y0: float
    vx: float
    vy: float
    visible_from: int = 0
    visible_until: int = 10 ** 9

    def __post_init__(self):
        if self.shape not in SPRITE_SHAPES:
            raise ValueError(f"sprite shape must be one of {SPRITE_SHAPES}, got {self.shape!r}")
        if len(self.color) != 3 or not all(-1.0 <= c <= 1.0 for c in self.color):
            raise ValueError(f"sprite color must hold 3 numbers in [-1, 1], got {self.color!r}")
        if not self.size > 0.0:
            raise ValueError(f"sprite size must be > 0, got {self.size}")
        if self.visible_from > self.visible_until:
            raise ValueError(f"sprite visible_from {self.visible_from} is after "
                             f"visible_until {self.visible_until}")


@dataclass(frozen=True)
class CameraKey:
    frame: int
    cx: float
    cy: float


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    texture_octaves: int = 3
    texture_base_freq: float = 1.0 / 24.0
    sprites: tuple[Sprite, ...] = ()
    camera: tuple[CameraKey, ...] = (CameraKey(0, 0.0, 0.0),)
    channels: int = 3

    def __post_init__(self):
        if not 1 <= self.texture_octaves <= 8:
            raise ValueError(f"texture_octaves must be in [1, 8], got {self.texture_octaves}")
        if not 0.0 < self.texture_base_freq < math.inf:
            raise ValueError(f"texture_base_freq must be finite and > 0, "
                             f"got {self.texture_base_freq}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if not self.camera:
            raise ValueError("camera needs at least one key")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        """The spec a JSON object describes, laid out as `to_json` writes it;
        each object's keys and value types are checked by the config loader."""
        return _load(cls, json.loads(text), "scene")


_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)


def _hash_lattice(ix: np.ndarray, iy: np.ndarray, salt: int) -> np.ndarray:
    """Integer lattice hash mapped to [-1, 1]; no transcendentals anywhere."""
    with np.errstate(over="ignore"):
        h = ix.astype(np.uint64) * _M1 ^ iy.astype(np.uint64) * _M2 ^ np.uint64(salt)
        h ^= h >> np.uint64(33)
        h *= _M1
        h ^= h >> np.uint64(29)
        h *= _M2
        h ^= h >> np.uint64(32)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -52) - 1.0


def _value_noise(x: np.ndarray, y: np.ndarray, salt: int) -> np.ndarray:
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    fx = x - ix
    fy = y - iy
    v00 = _hash_lattice(ix, iy, salt)
    v01 = _hash_lattice(ix, iy + 1, salt)
    v10 = _hash_lattice(ix + 1, iy, salt)
    v11 = _hash_lattice(ix + 1, iy + 1, salt)
    top = v00 * (1.0 - fx) + v10 * fx
    bot = v01 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bot * fy


def texture_at(spec: SceneSpec, x: np.ndarray, y: np.ndarray, channel: int) -> np.ndarray:
    """Multi-octave background value at world coordinates (x, y)."""
    total = np.zeros_like(x, dtype=np.float64)
    norm = 0.0
    for octave in range(spec.texture_octaves):
        freq = spec.texture_base_freq * (2 ** octave)
        amp = 0.5 ** octave
        salt = stream_key(spec.seed, f"texture/{channel}/{octave}")
        total += amp * _value_noise(x * freq, y * freq, salt)
        norm += amp
    return np.clip(total / norm, -1.0, 1.0)


def _sprite_hit(sprite: Sprite, frame: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    cx = sprite.x0 + sprite.vx * frame
    cy = sprite.y0 + sprite.vy * frame
    half = sprite.size / 2.0
    if sprite.shape == "disc":
        return (x - cx) ** 2 + (y - cy) ** 2 <= half ** 2
    if sprite.shape == "rect":
        return (np.abs(x - cx) <= half) & (np.abs(y - cy) <= half)
    # arrow, an isoceles triangle pointing +x: apex at cx+half, base at cx-half
    inside_x = (x >= cx - half) & (x <= cx + half)
    spread = (sprite.size / 3.0) * (cx + half - x) / sprite.size
    return inside_x & (np.abs(y - cy) <= spread)


def render(spec: SceneSpec, frame: int, window: tuple[float, float, float, float],
           h: int, w: int) -> VideoTensor:
    """Render one frame of the window (y0, x0, height, width) in world coords."""
    if frame < 0:
        raise ValueError("frame must be >= 0")
    wy, wx, wh, ww = window
    ys = wy + (np.arange(h, dtype=np.float64) + 0.5) * (wh / h)
    xs = wx + (np.arange(w, dtype=np.float64) + 0.5) * (ww / w)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    out = np.empty((h, w, spec.channels), dtype=np.float64)
    for c in range(spec.channels):
        out[:, :, c] = texture_at(spec, xx, yy, c)
    for sprite in spec.sprites:
        if not (sprite.visible_from <= frame <= sprite.visible_until):
            continue
        hit = _sprite_hit(sprite, frame, xx, yy)
        for c in range(spec.channels):
            out[:, :, c] = np.where(hit, sprite.color[c % 3], out[:, :, c])
    return VideoTensor(out[None].astype(np.float32))


def camera_center(spec: SceneSpec, frame: int) -> tuple[int, int]:
    """Piecewise-linear camera path, floored to integer world coordinates."""
    keys = sorted(spec.camera, key=lambda k: k.frame)
    frames = [k.frame for k in keys]
    cy = np.interp(frame, frames, [k.cy for k in keys])
    cx = np.interp(frame, frames, [k.cx for k in keys])
    return int(np.floor(cy)), int(np.floor(cx))


@dataclass(frozen=True)
class CaseGeometry:
    """Crop/full rectangles relative to the camera center: (off_y, off_x, h, w)."""

    full: tuple[int, int, int, int]
    crop: tuple[int, int, int, int]

    def __post_init__(self):
        fy, fx, fh, fw = self.full
        cy, cx, ch, cw = self.crop
        if min(ch, cw) < 1 or cy < fy or cx < fx or cy + ch > fy + fh or cx + cw > fx + fw:
            raise GeometryError(f"crop {self.crop} is empty or not contained in full {self.full}")

    @property
    def placement(self) -> PadSpec:
        fy, fx, fh, fw = self.full
        cy, cx, ch, cw = self.crop
        return PadSpec(fh, fw, cy - fy, cx - fx)


@dataclass(frozen=True)
class SceneCase:
    spec: SceneSpec
    geometry: CaseGeometry
    input: VideoTensor
    ground_truth: VideoTensor
    full_origins: tuple[tuple[int, int], ...]  # per-frame (y, x) world origin of `full`


def make_case(spec: SceneSpec, frames: int, geometry: CaseGeometry) -> SceneCase:
    """Render the camera-tracked full window (ground truth) and slice the crop
    (input) from it.  Both windows sample one world pixel per pixel at integer
    + 0.5 world coordinates, so the crop's own render is exactly this slice."""
    fy, fx, fh, fw = geometry.full
    truths = []
    origins = []
    for f in range(frames):
        ccy, ccx = camera_center(spec, f)
        oy, ox = ccy + fy, ccx + fx
        origins.append((oy, ox))
        truths.append(render(spec, f, (oy, ox, fh, fw), fh, fw).data[0])
    truth = np.stack(truths)
    place = geometry.placement
    ch, cw = geometry.crop[2:]
    return SceneCase(
        spec=spec,
        geometry=geometry,
        input=VideoTensor(truth[:, place.offset_y:place.offset_y + ch,
                                place.offset_x:place.offset_x + cw]),
        ground_truth=VideoTensor(truth),
        full_origins=tuple(origins),
    )


def case_mask(case: SceneCase) -> MaskVideo:
    """Outpainting mask of the case: 1 outside the crop placement."""
    _, mask = pad_video(case.input, case.geometry.placement)
    return mask


def revisit_pairs(case: SceneCase, min_gap: int | None = None,
                  min_side: int = 8) -> list[tuple[int, int, tuple, tuple]]:
    """Frame pairs whose full windows revisit the same world region.

    Returns (frame_a, frame_b, rect_a, rect_b) with rects (y0, x0, h, w) in
    each frame's local pixel coordinates covering the same world rectangle.
    """
    fh, fw = case.geometry.full[2], case.geometry.full[3]
    n = case.input.frames
    if min_gap is None:
        min_gap = max(2, n // 3)
    pairs = []
    for a in range(n):
        for b in range(a + min_gap, n):
            ay, ax = case.full_origins[a]
            by, bx = case.full_origins[b]
            y0 = max(ay, by)
            x0 = max(ax, bx)
            y1 = min(ay + fh, by + fh)
            x1 = min(ax + fw, bx + fw)
            if y1 - y0 >= min_side and x1 - x0 >= min_side:
                pairs.append((a, b,
                              (y0 - ay, x0 - ax, y1 - y0, x1 - x0),
                              (y0 - by, x0 - bx, y1 - y0, x1 - x0)))
    return pairs


# A still camera at the centre of the presets' world.
_CENTERED = (CameraKey(0, 128.0, 128.0),)


def _late_reveal(seed: int) -> tuple[SceneSpec, int, CaseGeometry]:
    # An arrow waits in the right-hand outpaint band for frames 0-39 and
    # crosses into the observed crop near frame 40; local temporal windows
    # that straddle the reveal can propagate it backward into the band, while
    # temporally distant context cannot.
    frames = 48
    geometry = CaseGeometry(full=(-16, -16, 32, 48), crop=(-12, -16, 24, 24))
    # crop spans world x in [112, 136); the arrow's leading edge (x - size/2)
    # passes the last crop pixel center (world x = 135.5) between frames 39
    # and 40
    size = 10.0
    vx = -0.45
    x_start = 135.4 + size / 2.0 + 40 * (-vx)
    arrow = Sprite(shape="arrow", size=size, color=(0.9, -0.8, -0.8),
                   x0=x_start, y0=128.0, vx=vx, vy=0.0)
    disc = Sprite(shape="disc", size=7.0, color=(-0.7, 0.7, 0.2),
                  x0=118.0, y0=120.0, vx=0.3, vy=0.2)
    return SceneSpec(seed, sprites=(arrow, disc), camera=_CENTERED), frames, geometry


def _revisit(seed: int) -> tuple[SceneSpec, int, CaseGeometry]:
    # Camera pans down and back; sprites shuttle between the observed crop
    # and the outpaint band, so band content is genuinely recoverable from
    # observations at other times.
    frames = 48
    geometry = CaseGeometry(full=(-16, -16, 32, 48), crop=(-12, -12, 24, 24))
    camera = (CameraKey(0, 128.0, 128.0), CameraKey(frames // 2, 152.0, 128.0),
              CameraKey(frames - 1, 128.0, 128.0))
    disc = Sprite(shape="disc", size=8.0, color=(0.85, 0.1, -0.6),
                  x0=150.0, y0=138.0, vx=-0.55, vy=0.25)
    rect = Sprite(shape="rect", size=7.0, color=(-0.6, 0.8, 0.6),
                  x0=124.0, y0=150.0, vx=0.5, vy=0.0)
    return SceneSpec(seed, texture_octaves=1, sprites=(disc, rect), camera=camera), frames, geometry


def _textured(seed: int) -> tuple[SceneSpec, int, CaseGeometry]:
    frames = 32
    geometry = CaseGeometry(full=(-16, -20, 32, 40), crop=(-10, -10, 20, 20))
    return SceneSpec(seed, texture_octaves=4, camera=_CENTERED), frames, geometry


def _drift(seed: int) -> tuple[SceneSpec, int, CaseGeometry]:
    frames = 48
    geometry = CaseGeometry(full=(-16, -16, 32, 48), crop=(-12, -8, 24, 24))
    camera = (CameraKey(0, 120.0, 128.0), CameraKey(frames - 1, 140.0, 132.0))
    disc = Sprite(shape="disc", size=8.0, color=(0.8, 0.8, -0.6),
                  x0=140.0, y0=130.0, vx=-0.2, vy=0.05)
    rect = Sprite(shape="rect", size=7.0, color=(-0.5, -0.5, 0.9),
                  x0=112.0, y0=122.0, vx=0.25, vy=0.0)
    return SceneSpec(seed, texture_octaves=1, sprites=(disc, rect), camera=camera), frames, geometry


PRESETS = {
    "late-reveal": _late_reveal,
    "revisit": _revisit,
    "textured": _textured,
    "drift": _drift,
}


def preset_case(name: str, seed: int) -> SceneCase:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; options: {sorted(PRESETS)}")
    spec, frames, geometry = PRESETS[name](seed)
    return make_case(spec, frames, geometry)
