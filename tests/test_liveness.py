"""Every numeric config knob moves the output, or is listed as inert under a
condition this test checks.

The fields are read from `PipelineConfig`'s dataclasses, so a new field
fails here until it has an entry.  `pad` is the clip's geometry, not a knob,
and `mode`, the only other field that is not a number, picks the stages
each case runs.  Each field is set on a fixed small clip, at the default
config, in a mode (and, where the default leaves it no work, with other
sections set) where it acts; the output must then move by more than 1e-4
somewhere.
"""
import copy
import inspect
from dataclasses import is_dataclass
from types import SimpleNamespace
from typing import get_args, get_type_hints

import numpy as np
import pytest

from outpainter import gcg, pipeline, rng
from outpainter.pipeline import PipelineConfig
from outpainter.video import VideoTensor

PAD = {"target_height": 32, "target_width": 48, "offset_y": 4, "offset_x": 4}
# frame-to-frame noise, so that `gcg.auto_delta` reads it as dynamic content
CLIP = VideoTensor(np.clip(rng.normals(0, "liveness", (16, 24, 24, 3)) * 0.4, -1, 1))
MOVED = 1e-4

WORKING = {"working": {"height": 32, "width": 48}}  # the target; by default 16x24, half of it
GCG5 = {"gcg": {"keyframes": 5}}  # windows of 5 frames, at strides up to 3
TILED = {"tiling": {"tile_t": 8, "overlap_t": 2, "tile_y": 16, "tile_x": 24,
                    "overlap_y": 4, "overlap_x": 6}}

# field: (mode, other sections, value)
SETTINGS = {
    "seed": ("baseline", {}, 1),
    "working.height": ("spatial_only", WORKING, 16),
    "working.width": ("spatial_only", WORKING, 24),
    "codec.factor": ("spatial_only", {}, 2),
    "sampler.total_steps": ("baseline", {}, 20),
    "sampler.swap_steps": ("temporal_only", GCG5, 0),
    "gcg.keyframes": ("temporal_only", {}, 5),
    "gcg.delta": ("temporal_only", GCG5, 1),
    "gcg.delta_auto": ("temporal_only", GCG5, True),
    "gcg.tau": ("temporal_only", {}, 2),
    "tiling.tile_t": ("baseline", TILED, 6),
    "tiling.overlap_t": ("baseline", TILED, 4),
    "tiling.tile_y": ("baseline", TILED, 12),
    "tiling.tile_x": ("baseline", TILED, 16),
    "tiling.overlap_y": ("baseline", TILED, 6),
    "tiling.overlap_x": ("baseline", TILED, 8),
    "denoiser.lambda_sparse": ("temporal_only", {}, 2.5),
    "denoiser.lambda_dense": ("baseline", {}, 4.0),
    "denoiser.radius": ("baseline", {}, 3),
    "denoiser.fill_floor": ("baseline", {}, 0.5),
    "denoiser.latent_carryover": ("baseline", {}, 0.2),
}


def _idle_windows(config, runs) -> bool:
    """The change reaches the windows, but they are prepared "sparse", whose
    fill reaches no other frame: a window slot then equals its keyframe's
    stack slot, and the swap copies what is already there (ROADMAP item 7)."""
    return (int(config.denoiser.radius // config.denoiser.lambda_sparse) == 0
            and runs[0].windows != runs[1].windows
            and all(mode == "sparse" for run in runs for mode in run.window_modes))


def _gap_within_tau(config, runs) -> bool:
    """The initial keyframes' largest gap is at most tau, so no round
    densifies them."""
    keys = gcg.select_keyframes(CLIP.frames, min(config.gcg.keyframes, CLIP.frames))
    return gcg.max_index_gap(keys) <= config.gcg.tau and all(run.keys == keys for run in runs)


INERT_WHEN = {
    "sampler.swap_steps": _idle_windows,
    "gcg.delta": _idle_windows,
    "gcg.delta_auto": _idle_windows,
    "gcg.tau": _gap_within_tau,
}


def _is_numeric(hint) -> bool:
    return {arg for arg in get_args(hint) or (hint,) if arg is not type(None)} <= {
        int, float, bool}


def config_fields() -> list[tuple[str, object]]:
    """The dotted path and type of every field of every config section but `pad`."""
    fields = []
    for name, hint in get_type_hints(PipelineConfig).items():
        if name == "pad":
            continue
        if is_dataclass(hint):
            fields += [(f"{name}.{key}", sub) for key, sub in get_type_hints(hint).items()]
        else:
            fields.append((name, hint))
    return fields


def numeric_fields() -> list[str]:
    return [path for path, hint in config_fields() if _is_numeric(hint)]


def _config(mode: str, sections: dict, path: str | None = None, value=None) -> PipelineConfig:
    doc = {"pad": PAD, "mode": mode, **copy.deepcopy(sections)}
    if path is not None:
        *section, key = path.split(".")
        (doc.setdefault(section[0], {}) if section else doc)[key] = value
    return PipelineConfig.from_dict(doc)


def _spy(monkeypatch, owner, name: str, record):
    real = getattr(owner, name)
    sig = inspect.signature(real)

    def spy(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        record(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _observed_run(monkeypatch, config):
    """The run's output, with the windows of each GCG construction and the
    preparation mode of each window stack."""
    seen = SimpleNamespace(windows=[], modes=[])
    with monkeypatch.context() as patch:
        _spy(patch, gcg, "construct_gcg",
             lambda args: (seen.windows.append(args["windows"]), seen.modes.append([])))
        _spy(patch, gcg, "prepare_tiles", lambda args: seen.modes[-1].append(args["mode"]))
        result = pipeline.run(config, CLIP)
    # construct_gcg prepares each group of windows, then the stacks
    seen.window_modes = [mode for modes in seen.modes for mode in modes[:-1]]
    seen.keys = result.keyframes
    return result.output.data, seen


@pytest.fixture(scope="module")
def bases() -> dict:
    """The observed run of each (mode, sections) at its unchanged values."""
    return {}


def test_every_numeric_field_has_a_setting():
    assert sorted(SETTINGS) == sorted(numeric_fields())
    assert set(INERT_WHEN) <= set(SETTINGS)


def test_mode_is_the_only_field_that_is_not_a_number():
    """A string field with one legal value, or one derived from another
    field, is not a setting; `mode` selects the ablation."""
    assert [path for path, hint in config_fields() if not _is_numeric(hint)] == ["mode"]


@pytest.mark.parametrize("path", numeric_fields())
def test_field_moves_the_output_or_is_inert_as_listed(monkeypatch, bases, path):
    mode, sections, value = SETTINGS[path]
    key = (mode, repr(sections))
    if key not in bases:
        bases[key] = _observed_run(monkeypatch, _config(mode, sections))
    base, base_seen = bases[key]
    config = _config(mode, sections, path, value)
    output, seen = _observed_run(monkeypatch, config)
    moved = float(np.abs(output - base).max())
    if path in INERT_WHEN:
        assert INERT_WHEN[path](config, [base_seen, seen]), (
            f"{path}: {INERT_WHEN[path].__name__} no longer holds; move it off INERT_WHEN")
        assert moved <= MOVED, f"{path} moved the output by {moved:.3g} while listed inert"
    else:
        assert moved > MOVED, f"{path}={value!r} in {mode} moved the output by {moved:.3g}"
