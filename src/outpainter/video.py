"""Core tensor/mask types, padding, resampling, and lossless frame I/O.

A video is a dense F x H x W x C float32 stack in nominal range [-1, 1];
masks share the layout with C = 1 and values exactly 0.0 (observed) or 1.0
(region to generate).  The HLVD raw format is the interchange format for
every CLI command.
"""
from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HLVD_MAGIC = b"HLVD"


class ShapeError(ValueError):
    """Raised when tensor dimensions do not match an operation's contract."""


class FormatError(ValueError):
    """Raised for malformed HLVD/PPM files."""


def _check_array(data: np.ndarray, channels: tuple[int, ...]) -> np.ndarray:
    if data.ndim != 4:
        raise ShapeError(f"expected (F,H,W,C) array, got shape {data.shape}")
    f, h, w, c = data.shape
    if f < 1 or h < 1 or w < 1:
        raise ShapeError(f"degenerate shape {data.shape}")
    if c not in channels:
        raise ShapeError(f"channel count {c} not in {channels}")
    if data.dtype not in (np.float32, np.float64):
        data = data.astype(np.float32)
    if not np.isfinite(data).all():
        raise ShapeError("non-finite values in tensor data")
    return np.ascontiguousarray(data)


@dataclass(frozen=True)
class VideoTensor:
    """Immutable frame stack; data is frame-major, row-major, channel-interleaved."""

    data: np.ndarray

    def __post_init__(self):
        data = _check_array(self.data, (1, 3))
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class MaskVideo:
    """Per-frame binary map; 1.0 marks voxels to generate, 0.0 observed ones."""

    data: np.ndarray

    def __post_init__(self):
        data = _check_array(self.data, (1,))
        if not np.all((data == 0.0) | (data == 1.0)):
            raise ShapeError("mask values must be exactly 0.0 or 1.0")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def matches(self, video: VideoTensor) -> bool:
        return self.data.shape[:3] == video.data.shape[:3]


@dataclass(frozen=True)
class PadSpec:
    """Placement of an H' x W' frame inside a larger target canvas."""

    target_height: int
    target_width: int
    offset_y: int = 0
    offset_x: int = 0

    def __post_init__(self):
        if self.offset_y < 0 or self.offset_x < 0:
            raise ShapeError("negative pad offsets")

    def validate(self, height: int, width: int) -> None:
        if self.offset_y + height > self.target_height:
            raise ShapeError(
                f"offset_y {self.offset_y} + H {height} exceeds target {self.target_height}"
            )
        if self.offset_x + width > self.target_width:
            raise ShapeError(
                f"offset_x {self.offset_x} + W {width} exceeds target {self.target_width}"
            )


def pad_video(video: VideoTensor, spec: PadSpec) -> tuple[VideoTensor, MaskVideo]:
    """Place the video on a zero canvas; the appended region is masked 1."""
    spec.validate(video.height, video.width)
    f, h, w, c = video.shape
    out = np.zeros((f, spec.target_height, spec.target_width, c), dtype=np.float32)
    mask = np.ones((f, spec.target_height, spec.target_width, 1), dtype=np.float32)
    ys, xs = spec.offset_y, spec.offset_x
    out[:, ys:ys + h, xs:xs + w, :] = video.data
    mask[:, ys:ys + h, xs:xs + w, :] = 0.0
    return VideoTensor(out), MaskVideo(mask)


def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    # Catmull-Rom cubic, a = -0.5
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    inner = 1.5 * ax3 - 2.5 * ax2 + 1.0
    outer = -0.5 * ax3 + 2.5 * ax2 - 4.0 * ax + 2.0
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) bicubic resampling matrix, edge-clamped."""
    scale = n_in / n_out
    centers = (np.arange(n_out, dtype=np.float64) + 0.5) * scale - 0.5
    base = np.floor(centers).astype(np.int64)
    taps = base[:, None] + np.arange(-1, 3)[None, :]
    weights = _cubic_kernel(taps - centers[:, None])
    taps = np.clip(taps, 0, n_in - 1)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.repeat(np.arange(n_out), 4)
    np.add.at(mat, (rows, taps.ravel()), weights.ravel())
    return mat


def _band(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Each output row's first input row `lo` and its (n_out, width)
    weights on rows lo, lo + 1, ...: the band of at most 4 consecutive
    input rows that holds every nonzero weight of its `_resize_matrix` row."""
    mat = _resize_matrix(n_in, n_out)
    width = min(4, n_in)
    lo = np.minimum((mat != 0.0).argmax(axis=1), n_in - width)
    return lo, mat[np.arange(n_out)[:, None], lo[:, None] + np.arange(width)]


def _resample(data: np.ndarray, axis: int, band: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """`data` resampled along `axis` by the `_band` of its resize matrix, in
    float64.  Each output row sums its band of input rows in ascending order
    into a zeroed sum.  A skipped weight is 0.0, and adding +-0.0 never
    changes a zero-seeded sum, so this is the dense matrix product summed in
    order, bit for bit."""
    lo, weights = band
    weight_shape = [1] * data.ndim
    weight_shape[axis] = len(lo)
    out = np.zeros(data.shape[:axis] + (len(lo),) + data.shape[axis + 1:])
    for k in range(weights.shape[1]):
        term = np.take(data, lo + k, axis=axis).astype(np.float64, copy=False)
        term *= weights[:, k].reshape(weight_shape)
        out += term
    return out


# Frames of float64 that `resize_bicubic` resamples at a time, in bytes; a
# frame larger than this is resampled alone.
RESIZE_BLOCK_BYTES = 1 << 18


def resize_bicubic(video: VideoTensor, h: int, w: int) -> VideoTensor:
    """Per-frame Catmull-Rom bicubic resampling, clamped to [-1, 1].  Each
    block of frames is resampled in float64 and cast into one float32
    output, so the float64 temporaries scale with the block, not the clip."""
    if h < 1 or w < 1:
        raise ValueError("target size must be positive")
    if (h, w) == (video.height, video.width):
        # both matrices are exactly the identity; adding 0.0 turns -0.0 into
        # 0.0 as their zero-seeded sums do
        out = np.clip(video.data, -1.0, 1.0).astype(np.float32, copy=False)
        out += 0.0
        return VideoTensor(out)
    f, h_in, w_in, c = video.shape
    rows, cols = _band(h_in, h), _band(w_in, w)
    frames = max(1, RESIZE_BLOCK_BYTES // (8 * max(h_in, h) * max(w_in, w) * c))
    out = np.empty((f, h, w, c), dtype=np.float32)
    for f0 in range(0, f, frames):
        block = _resample(_resample(video.data[f0:f0 + frames], 1, rows), 2, cols)
        out[f0:f0 + frames] = np.clip(block, -1.0, 1.0, out=block)
    return VideoTensor(out)


def downsample_mask(mask: MaskVideo, h: int, w: int) -> MaskVideo:
    """Strict-AND mask downsampling: a cell is 1 only if fully unobserved."""
    big_h, big_w = mask.height, mask.width
    if h > big_h or w > big_w:
        raise ShapeError("mask downsampling cannot enlarge")
    if (h, w) == (big_h, big_w):
        return mask
    row_starts = np.array([-(-j * big_h // h) for j in range(h)], dtype=np.intp)
    col_starts = np.array([-(-j * big_w // w) for j in range(w)], dtype=np.intp)
    out = np.minimum.reduceat(mask.data, row_starts, axis=1)
    out = np.minimum.reduceat(out, col_starts, axis=2)
    return MaskVideo(out)


def write_raw(path: str | Path, video: VideoTensor | MaskVideo) -> None:
    with open(path, "wb") as fh:
        fh.write(HLVD_MAGIC + struct.pack("<IIII", *video.data.shape))
        np.ascontiguousarray(video.data, dtype="<f4").tofile(fh)


def _read_raw_array(path: str | Path) -> np.ndarray:
    """The payload of an HLVD file, read once into its own array."""
    try:
        fh = open(path, "rb")
    except OSError as exc:  # a missing file or a directory is an input error
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        head = fh.read(20)
        if len(head) < 20 or head[:4] != HLVD_MAGIC:
            raise FormatError(f"{path}: bad magic, not an HLVD file")
        f, h, w, c = struct.unpack("<IIII", head[4:])
        count = f * h * w * c
        info = os.fstat(fh.fileno())
        # a pipe's length is known only once it is read; a file's is its size
        rest = None if stat.S_ISREG(info.st_mode) else fh.read()
        size = info.st_size - 20 if rest is None else len(rest)
        if size != count * 4:
            raise FormatError(f"{path}: payload of {size} bytes, expected {count * 4} "
                              f"for {count} floats")
        data = (np.fromfile(fh, dtype="<f4", count=count) if rest is None
                else np.frombuffer(rest, dtype="<f4"))
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: non-finite values in payload")
    return data.astype(np.float32, copy=False).reshape(f, h, w, c)


def read_raw(path: str | Path) -> VideoTensor:
    try:
        return VideoTensor(_read_raw_array(path))
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_mask(path: str | Path) -> MaskVideo:
    try:
        return MaskVideo(_read_raw_array(path))
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_ppm(path: str | Path, video: VideoTensor, frame: int) -> None:
    """Export one frame as binary P6 PPM; v maps to round((v+1)/2*255)."""
    img = video.data[frame]
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    bytes_ = np.clip(np.round((img.astype(np.float64) + 1.0) / 2.0 * 255.0), 0, 255)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(bytes_.astype(np.uint8).tobytes())


def read_ppm(path: str | Path) -> VideoTensor:
    """Import a P6 PPM as a single-frame video; inverse of the export mapping."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise FormatError(f"{path}: not a binary P6 PPM")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FormatError(f"{path}: bad PPM header") from exc
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    pix = np.frombuffer(parts[3][:h * w * 3], dtype=np.uint8)
    if pix.size != h * w * 3:
        raise FormatError(f"{path}: truncated PPM payload")
    data = pix.reshape(1, h, w, 3).astype(np.float32) / 127.5 - 1.0
    return VideoTensor(data)
