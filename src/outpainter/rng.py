"""Deterministic counter-based random number generation.

All randomness in the pipeline flows through this module so that runs are
reproducible bit-for-bit given (seed, label).  The generator is a keyed
splitmix64-style integer hash applied to a counter stream; it has no mutable
state, so a draw does not depend on the order of calls.
"""
from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x + _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, label: str) -> int:
    """64-bit stream key derived from a seed and a textual label."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


# Box-Muller pairs drawn per block, so a draw's float64 temporaries stay a
# few MiB however large the field is.
NORMAL_BLOCK = 1 << 15


def _raw64(seed: int, label: str, n: int, start: int = 0) -> np.ndarray:
    key = np.uint64(stream_key(seed, label))
    counters = np.arange(start, start + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_mix64(counters ^ key) + key)


def uniforms(seed: int, label: str, n: int, start: int = 0) -> np.ndarray:
    """n uniform doubles in (0, 1], from counters start, ..., start + n - 1."""
    bits = _raw64(seed, label, n, start) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * (2.0 ** -53)


def normals(seed: int, label: str, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal field of the given shape via Box-Muller, float32.

    Pair i gives element i (cosine) and element pairs + i (sine) of the
    flattened field; pairs are drawn NORMAL_BLOCK at a time, straight into
    the float32 result."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    out = np.empty(n, dtype=np.float32)
    for a in range(0, pairs, NORMAL_BLOCK):
        m = min(NORMAL_BLOCK, pairs - a)
        r = np.sqrt(-2.0 * np.log(uniforms(seed, label + "/u1", m, a)))
        theta = 2.0 * np.pi * uniforms(seed, label + "/u2", m, a)
        out[a:a + m] = r * np.cos(theta)
        k = min(m, n - pairs - a)  # an odd n drops the last pair's sine
        out[pairs + a:pairs + a + k] = r[:k] * np.sin(theta[:k])
    return out.reshape(shape)
