"""Shared test hooks and helpers: collects acceptance scorecard lines and
prints them in the terminal summary, where output capture cannot swallow
them, and builds the small ablation config, the golden case and the
NaN-velocity patch that several test modules use."""
import platform
from dataclasses import replace

import numpy as np
import pytest

from outpainter import pipeline, scene
from outpainter.denoiser import DenoiserConfig, ToyDenoiser
from outpainter.sampler import SampleSchedule

FRAMES = 16  # frames of the golden case

_scorecard: list[str] = []


def golden_case():
    """Preset `revisit`, seed 0, its camera path re-timed to FRAMES frames."""
    spec, frames, geometry = scene.PRESETS["revisit"](0)
    camera = tuple(replace(k, frame=k.frame * (FRAMES - 1) // (frames - 1))
                   for k in spec.camera)
    return scene.make_case(replace(spec, camera=camera), FRAMES, geometry)


def ablation_config(case, mode, seed=0):
    """A fast config on a scene case: 16x24 working resolution, 10 steps,
    5 keyframes and 12x12 spatial tiles."""
    return pipeline.PipelineConfig(
        pad=case.geometry.placement, mode=mode, seed=seed,
        working=pipeline.WorkingSize(16, 24),
        sampler=SampleSchedule(total_steps=10, swap_steps=3),
        gcg=pipeline.GcgParams(keyframes=5, delta=1, tau=4),
        tiling=pipeline.TilingParams(tile_t=16, overlap_t=4, tile_y=12,
                                     tile_x=12, overlap_y=4, overlap_x=4),
        denoiser=DenoiserConfig(lambda_sparse=2.5, lambda_dense=2.0,
                                radius=5))


# JSON values the config loader refuses in place of a value of each type: no
# other type is coerced to a bool, an int or a string, and a float field takes
# only numbers.
WRONG_TYPES = {bool: (0, "true", None), int: (1.5, True, "1", None),
               float: ("1.0", True, None), str: (1, None, False)}


def json_leaves(doc, name: str = ""):
    """(dotted path, container, key) of every scalar inside the JSON value
    `doc`, its path spelled as the config loader names fields."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in items:
        if isinstance(doc, list):
            path = f"{name}[{key}]"
        else:
            path = f"{name}.{key}" if name else key
        if isinstance(value, (dict, list)):
            yield from json_leaves(value, path)
        else:
            yield path, doc, key


def record_scorecard(text: str) -> None:
    _scorecard.append(text)


def pytest_terminal_summary(terminalreporter):
    if _scorecard:
        terminalreporter.section("acceptance scorecard")
        for line in _scorecard:
            terminalreporter.write_line(line)


# The NumPy release that test_golden.py's hashes were read on.  Its float
# kernels may round differently in another release, which would change the
# hashes with no change to this code.
GOLDEN_NUMPY = "2.4.6"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """A failed golden-hash test reports the NumPy and Python it ran on."""
    report = (yield).get_result()
    if report.failed and item.path.name == "test_golden.py":
        report.sections.append((
            "toolchain", f"NumPy {np.__version__}, Python {platform.python_version()}; "
                         f"the golden hashes were read on NumPy {GOLDEN_NUMPY}"))


def nan_velocity_in(monkeypatch, owner, name: str, total_steps: int) -> list:
    """Patch `ToyDenoiser.denoise` so that, while `owner.name` runs, its first
    call at the last step of a `total_steps` schedule returns a velocity with
    one NaN.  Returns the list the patch appends each poisoned call's t to."""
    real_stage, real_denoise = getattr(owner, name), ToyDenoiser.denoise
    last_t = float(SampleSchedule(total_steps, 0).times[-2])
    armed, poisoned = [], []

    def stage(*args, **kwargs):
        armed.append(True)
        try:
            return real_stage(*args, **kwargs)
        finally:
            armed.pop()

    def denoise(self, prepared, z, t):
        v = real_denoise(self, prepared, z, t)
        if armed and t == last_t and not poisoned:
            poisoned.append(t)
            v.flat[0] = np.nan
        return v

    monkeypatch.setattr(owner, name, stage)
    monkeypatch.setattr(ToyDenoiser, "denoise", denoise)
    return poisoned
