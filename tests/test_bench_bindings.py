"""The bindings the benchmark's traced run patches still exist by name and
are still called.

`perfbench/spans.py` wraps functions where their callers look them up and
reads some arguments by name; a refactor that renames one, or stops calling
it, would otherwise only show up when `perfbench/run.py --trace 1` runs.
"""
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import ablation_config, golden_case
from outpainter import gcg, pipeline, tiling
from outpainter.denoiser import ToyDenoiser
from outpainter.video import MaskVideo, VideoTensor

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(spans):
    missing = [f"{spans.binding(owner, attr)}" for owner, attr, _ in spans.TRACED
               if attr not in owner.__dict__]
    assert not missing


def test_traced_arguments_keep_their_names():
    assert "tile_plan" in inspect.signature(tiling.tiled_denoise_pass).parameters
    assert "noise_tag" in inspect.signature(gcg.construct_gcg).parameters


def test_zero_mask_hook_reads_prepared_mask():
    # the zero-mask counter reads args[1].mask of ToyDenoiser.denoise
    params = list(inspect.signature(ToyDenoiser.denoise).parameters)
    assert params[:2] == ["self", "prepared"]
    mask = MaskVideo(np.zeros((1, 2, 2, 1), np.float32))
    prepared = ToyDenoiser().prepare(VideoTensor(np.zeros((1, 2, 2, 3), np.float32)), mask)
    assert prepared.mask is mask


def test_every_traced_binding_is_called(spans):
    """The golden case in `full` (working resolution, refinement) and in
    `temporal_only` (guidance through the spatial adapter) together call
    every traced binding."""
    case = golden_case()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for clip, mode in enumerate(("full", "temporal_only")):
            tracer.begin(clip)
            pipeline.run(ablation_config(case, mode), case.input)
            tracer.end()
    finally:
        tracer.uninstall()
    traced = {spans.binding(owner, attr) for owner, attr, _ in spans.TRACED}
    assert traced - set(tracer.fired) == set()
