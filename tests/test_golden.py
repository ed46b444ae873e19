"""Golden outputs and fill counts of the pipeline on one small case.

The hashes pin `pipeline.run` bit for bit on a 16-frame `revisit` clip
(seed 0, `conftest.ablation_config`, which the acceptance suite runs too),
and `full` once more with the codec, so a change meant to keep behaviour
must leave them as they are.  The fill counts pin that a stage's
conditioning is filled once, before its step loop, and not once per step.
A fill covers a group of stacks at once, so fills are counted in items.
"""
import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from conftest import FRAMES, ablation_config, golden_case
from outpainter import denoiser as dmod
from outpainter import gcg as gmod
from outpainter import pipeline, scene
from outpainter import tiling as tmod

GOLDEN = {
    "full": "6e946e7915166f374a1a0ab10f5e6204636ec41eb820a808c26aa446417fa149",
    "spatial_only": "c7dc35f467268b343cfc46a1f9d4f3bd0e4cea9692df3044bf75d7633d141905",
    "temporal_only": "a79aeb3f69f25c419e8426f830703a32d649b8acd19e7b51d535b82f3c0d7801",
    "baseline": "2720e5095622cd2435d581fbb03731e57ce0a7ae7f1fe678d9a132033d05bc6b",
}


# `full` with the codec pooling the working resolution by 2.
CODEC_GOLDEN = "a1e5c7db8da7737507951c76d244576eee44ff4ec14c71dae1e3f6a129c87d0f"


@pytest.fixture(scope="module")
def case():
    return golden_case()


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_output_hash(case, mode):
    out = pipeline.run(ablation_config(case, mode), case.input).output
    assert out.data.dtype == np.float32
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == GOLDEN[mode]


def test_codec_output_hash(case):
    config = replace(ablation_config(case, "full"), codec=pipeline.CodecParams(2))
    out = pipeline.run(config, case.input).output
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == CODEC_GOLDEN


@pytest.fixture
def fills(monkeypatch):
    """Item counts (the leading axis) of the conditions handed to
    `inverse_distance_fill`, in call order."""
    calls = []
    real = dmod.inverse_distance_fill

    def counted(condition, mask, *args):
        calls.append(condition.shape[0])
        return real(condition, mask, *args)

    monkeypatch.setattr(dmod, "inverse_distance_fill", counted)
    return calls


def _spy(monkeypatch, module, name, fills):
    """Record (arguments, fills made inside) for each call of module.name."""
    real = getattr(module, name)
    sig = inspect.signature(real)
    seen = []

    def spy(*args, **kwargs):
        before = len(fills)
        out = real(*args, **kwargs)
        seen.append((sig.bind(*args, **kwargs).arguments, len(fills) - before))
        return out

    monkeypatch.setattr(module, name, spy)
    return seen


def _filled(mask: np.ndarray) -> bool:
    """A conditioning is filled if it has a masked and an observed voxel;
    one with no observed voxel takes the fill's floor without a fill."""
    return bool(mask.any() and not mask.all())


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_stage_fills(case, fills, monkeypatch, mode):
    completion = _spy(monkeypatch, pipeline, "temporal_completion", fills)
    pipeline.run(ablation_config(case, mode), case.input)
    [(args, made)] = completion
    assert 0 < made <= len(args["plan_t"].tiles)


@pytest.mark.parametrize("mode, frames", [("temporal_only", FRAMES), ("full", 48)])
def test_each_conditioning_filled_once(case, fills, monkeypatch, mode, frames):
    """Filled items equal the distinct (stack, spatial tile) conditionings
    with a masked and an observed voxel, and denoised items equal what the
    schedule steps, so no step fills again: `temporal_only` guides at
    target resolution through the spatial adapter; `full` at the preset's
    48 frames densifies over several rounds of overlapping segments."""
    clip = case if frames == FRAMES else scene.preset_case("revisit", 0)
    constructs = _spy(monkeypatch, gmod, "construct_gcg", fills)
    completion = _spy(monkeypatch, pipeline, "temporal_completion", fills)
    steps = []  # frames denoised per call
    real_denoise = dmod.ToyDenoiser.denoise
    monkeypatch.setattr(dmod.ToyDenoiser, "denoise",
                        lambda self, *a: steps.append(len(a[1])) or real_denoise(self, *a))
    config = ablation_config(clip, mode)
    pipeline.run(config, clip.input)
    total, swap = config.sampler.total_steps, config.sampler.swap_steps
    # a call builds one round, whose stacks share its noise tag, video and
    # mask: a keyframe stack per segment, conditioned on its own even where
    # it names a window's frames, and each distinct window of `windows` once
    stacks = {}
    named = 0
    expected_steps = 0
    for args, _ in constructs:
        segments, windows, den = args["segments"], args["windows"], args["denoiser"]
        named += sum(k in windows for idx in segments for k in idx)
        for kind, idx in ([("keys", idx) for idx in segments]
                          + [("window", w) for w in windows.values()]):
            stacks[kind, args["noise_tag"], idx] = args["mask_ds"].data[list(idx)], den
        # only the frames whose output is read step, an anchor's slots never:
        # during the swap, one row per keyframe with a window, however many
        # segments name it, and the slots with no window; after it, the slots
        slots = [k for idx in segments for k in idx if k not in args["anchors"]]
        own = sum(k not in windows for k in slots)
        rows = len({k for k in slots if k in windows})
        spatial = len(den.plan.tiles) if isinstance(den, tmod.SpatiallyTiledDenoiser) else 1
        expected_steps += spatial * (swap * (rows + own) + (total - swap) * len(slots))
    if mode == "full":  # later rounds' anchors have no window; segments share windows
        assert any(k not in args["windows"]
                   for args, _ in constructs[1:] for idx in args["segments"] for k in idx)
        assert sum(kind == "window" for kind, _, _ in stacks) < named
    expected = 0
    for mask, den in stacks.values():
        tiles = den.plan.tiles if isinstance(den, tmod.SpatiallyTiledDenoiser) else [None]
        expected += sum(_filled(mask if t is None else mask[:, t.y0:t.y1, t.x0:t.x1])
                        for t in tiles)
    [(args, _)] = completion
    guided_mask = args["guided_mask"].data
    expected += sum(_filled(guided_mask[t.f0:t.f1, t.y0:t.y1, t.x0:t.x1])
                    for t in args["plan_t"].tiles)
    # completion starts from noise
    expected_steps += total * sum(t.f1 - t.f0 for t in args["plan_t"].tiles)
    assert sum(fills) == expected
    assert sum(steps) == expected_steps
