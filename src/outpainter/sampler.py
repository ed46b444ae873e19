"""Rectified-flow schedule, noise injection and Euler stepping."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .video import ShapeError, VideoTensor


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters or step directions."""


@dataclass(frozen=True)
class SampleSchedule:
    """Linear time grid t_T=1 > ... > t_0=0 with an early swap-step budget;
    the config's `sampler` section."""

    total_steps: int = 40
    swap_steps: int = 8

    def __post_init__(self):
        if self.total_steps < 1:
            raise ScheduleError("total_steps must be >= 1")
        if not 0 <= self.swap_steps <= self.total_steps:
            raise ScheduleError("swap_steps must be in [0, total_steps]")

    @cached_property
    def times(self) -> np.ndarray:
        times = np.linspace(1.0, 0.0, self.total_steps + 1)
        times.flags.writeable = False
        return times


def _check_shapes(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def add_noise(x0: VideoTensor, eps: VideoTensor, t: float) -> VideoTensor:
    """Rectified-flow interpolant z_t = (1-t)*x0 + t*eps."""
    _check_shapes(x0, eps)
    if not 0.0 <= t <= 1.0:
        raise ScheduleError(f"t={t} outside [0, 1]")
    return VideoTensor((1.0 - t) * x0.data + t * eps.data)


def velocity_target(x0: VideoTensor, eps: VideoTensor) -> VideoTensor:
    """Training target v* = eps - x0."""
    _check_shapes(x0, eps)
    return VideoTensor(eps.data - x0.data)


def step(z: np.ndarray, v_hat: np.ndarray, t_from: float, t_to: float) -> np.ndarray:
    """Euler update z + (t_to - t_from) * v_hat, computed in double precision
    so multi-step descents telescope without accumulating rounding error."""
    _check_shapes(z, v_hat)
    if t_to >= t_from:
        raise ScheduleError(f"t_to={t_to} must be < t_from={t_from}")
    out = np.multiply(v_hat, t_to - t_from, dtype=np.float64)
    out += z
    return out
