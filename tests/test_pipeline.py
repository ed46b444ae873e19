"""End-to-end orchestration: config, stages, codec, ablation modes."""
import contextlib
import copy
import functools
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import WRONG_TYPES, ablation_config, golden_case, json_leaves, nan_velocity_in
from outpainter import denoiser as dmod
from outpainter import gcg, pipeline, rng, scene, video
from outpainter.denoiser import (DenoiserConfig, ToyDenoiser, _kernel_slices,
                                 _kernel_spectrum, _neighbour_count)
from outpainter.gcg import GcgError, insert_guidance
from outpainter.pipeline import (MODES, CodecParams, GcgParams, PipelineConfig,
                                 StageError, TilingParams, WorkingSize,
                                 codec_decode, codec_encode, codec_encode_mask,
                                 refinement_composite, run, temporal_completion)
from outpainter.sampler import SampleSchedule
from outpainter.tiling import ConfigError, plan
from outpainter.video import MaskVideo, PadSpec, VideoTensor, pad_video, resize_bicubic


def _small_config(mode="full", seed=0, **overrides):
    base = dict(
        pad=PadSpec(16, 24, 0, 0),
        mode=mode,
        seed=seed,
        sampler=SampleSchedule(total_steps=3, swap_steps=1),
        gcg=GcgParams(keyframes=3, delta=1, tau=4),
        tiling=TilingParams(tile_t=8, overlap_t=2, tile_y=16, tile_x=24,
                            overlap_y=4, overlap_x=6),
        denoiser=DenoiserConfig(radius=3),
    )
    base.update(overrides)
    return PipelineConfig(**base)


# Values of the wrong JSON type for int, bool and float fields; nothing may be
# coerced, and a float field takes finite numbers only.
BAD_TYPES = [
    ("gcg", "keyframes", True), ("gcg", "delta_auto", 0), ("tiling", "tile_t", 16.0),
    ("working", "height", 8.5), ("denoiser", "lambda_dense", "2"),
    ("denoiser", "fill_floor", float("inf")), ("denoiser", "fill_floor", None),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)

# Every key of the config's JSON form: the sections themselves and their keys.
_DOC = PipelineConfig(pad=PadSpec(16, 24)).to_dict()
_KEY_PATHS = sorted([k] for k in _DOC) + sorted(
    [k, sub] for k, v in _DOC.items() if isinstance(v, dict) for sub in v)


def _default(path: list):
    return _DOC[path[0]] if len(path) == 1 else _DOC[path[0]][path[1]]


def _typed_values(path: list):
    """Values of the key's own type, most of them in range."""
    hint = type(_default(path))
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(-2, 2 ** 64 + 1) | st.integers(0, 64)
    if hint is float:
        return st.floats(-1.0, 2.0) | st.integers(-1, 3)
    return st.just(_default(path))


def _load_or_config_error(edits) -> None:
    """Load a valid config with `edits` (key path, value) applied: it loads
    and round-trips through `to_dict`, or raises ConfigError."""
    doc = _small_config().to_dict()
    for path, value in edits:
        if len(path) == 2 and not isinstance(doc[path[0]], dict):
            doc[path[0]] = {}
        (doc[path[0]] if len(path) == 2 else doc)[path[-1]] = copy.deepcopy(value)
    try:
        cfg = PipelineConfig.from_dict(doc)
    except ConfigError:
        return
    assert PipelineConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@st.composite
def _configs(draw):
    """A valid config: every section drawn in range, the working size (or the
    target it defaults to) divisible by the codec factor."""
    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    factor = ints(1, 3)
    th, tw = factor * ints(1, 16), factor * ints(1, 16)
    working = draw(st.sampled_from((WorkingSize(), WorkingSize(factor * ints(1, th // factor),
                                                               factor * ints(1, tw // factor)))))
    steps = ints(1, 50)
    tiles = [ints(1, 100) for _ in range(3)]
    return PipelineConfig(
        pad=PadSpec(th, tw, ints(0, 8), ints(0, 8)),
        mode=draw(st.sampled_from(MODES)), seed=ints(0, 2 ** 64 - 1), working=working,
        sampler=SampleSchedule(steps, ints(0, steps)),
        gcg=GcgParams(ints(1, 20), ints(1, 10), draw(st.booleans()), ints(1, 30)),
        tiling=TilingParams(tiles[0], ints(0, tiles[0] - 1), tiles[1], tiles[2],
                            ints(0, tiles[1] - 1), ints(0, tiles[2] - 1)),
        denoiser=DenoiserConfig(lambda_sparse=draw(st.floats(0.5, 20.0)),
                                lambda_dense=draw(st.floats(0.5, 20.0)), radius=ints(1, 16),
                                fill_floor=draw(st.floats(-1.0, 1.0)),
                                latent_carryover=draw(st.floats(0.0, 1.0, exclude_max=True))),
        codec=CodecParams(factor))


def _input_clip(frames=8, h=16, w=16, seed=0):
    data = rng.normals(seed, "pipe-input", (frames, h, w, 3)) * 0.4
    return VideoTensor(np.clip(data, -1, 1))


class TestConfig:
    def test_dict_round_trip(self):
        cfg = _small_config(codec=CodecParams(2), working=WorkingSize(8, 12))
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_missing_pad_named(self):
        with pytest.raises(ConfigError, match="pad"):
            PipelineConfig.from_dict({"mode": "full"})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            _small_config(mode="fastest")

    def test_bad_workers(self):
        doc = _small_config().to_dict()
        doc["workers"] = 1
        with pytest.raises(ConfigError, match="unknown config field workers"):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize("section, key", [
        (None, "tile_t"), ("pad", "offset"), ("working", "depth"),
        ("denoiser", "lambda"), ("codec", "mode"), ("sampler", "steps"),
        ("gcg", "kappa"), ("tiling", "tile_z")])
    def test_unknown_key_named(self, section, key):
        doc = _small_config().to_dict()
        (doc if section is None else doc[section])[key] = 1
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=rf"unknown config field {name}$"):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize("seed", ["x", 1.5, True, -1, 2 ** 64, None])
    def test_bad_seed(self, seed):
        doc = _small_config().to_dict()
        doc["seed"] = seed
        with pytest.raises(ConfigError, match="seed must be an integer"):
            PipelineConfig.from_dict(doc)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            _small_config(seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2 ** 64 - 1):
            doc = _small_config().to_dict()
            doc["seed"] = seed
            assert PipelineConfig.from_dict(doc).seed == seed

    @pytest.mark.parametrize("kind, factor", [
        ("avgpool", 1), ("identity", 2), ("jpeg", 1)])
    def test_codec_kind_must_match_factor(self, kind, factor):
        doc = _small_config(working=WorkingSize(8, 12)).to_dict()
        doc["codec"] = {"kind": kind, "factor": factor}
        with pytest.raises(ConfigError, match="codec.kind"):
            PipelineConfig.from_dict(doc)
        del doc["codec"]["kind"]
        assert PipelineConfig.from_dict(doc).codec.factor == factor

    def test_working_needs_both_sides(self):
        with pytest.raises(ConfigError, match="together"):
            _small_config(working=WorkingSize(8))
        with pytest.raises(ConfigError, match="together"):
            PipelineConfig.from_dict({"pad": {"target_height": 16, "target_width": 24},
                                      "working": {"width": 8}})

    def test_working_resolution_default_caps_longest_side(self):
        cfg = PipelineConfig(pad=PadSpec(1536, 768, 0, 0))
        assert cfg.working_resolution() == (768, 384)
        small = PipelineConfig(pad=PadSpec(64, 48, 0, 0))
        assert small.working_resolution() == (32, 24)

    @given(factor=st.integers(1, 8), blocks=st.tuples(st.integers(1, 200), st.integers(1, 200)))
    @settings(max_examples=200, deadline=None)
    def test_every_target_the_codec_factor_divides_has_a_default(self, factor, blocks):
        """Half the target, each side rounded to whole codec blocks, is a
        valid working size whenever the codec factor divides the target."""
        th, tw = factor * blocks[0], factor * blocks[1]
        cfg = PipelineConfig(pad=PadSpec(th, tw), codec=CodecParams(factor))
        wh, ww = cfg.working_resolution()
        assert wh % factor == 0 and ww % factor == 0
        assert 0 < wh <= th and 0 < ww <= tw

    def test_working_cannot_exceed_target(self):
        with pytest.raises(ConfigError):
            _small_config(working=WorkingSize(32, 24))

    def test_codec_divisibility(self):
        with pytest.raises(ConfigError):
            _small_config(codec=CodecParams(5))

    @pytest.mark.parametrize("factor", [0, 2.0, "2", True, None])
    def test_codec_factor_must_be_positive_int(self, factor):
        doc = _small_config(working=WorkingSize(8, 12)).to_dict()
        doc["codec"] = {"factor": factor}
        with pytest.raises(ConfigError, match=r"codec\.factor must be an integer"):
            PipelineConfig.from_dict(doc)

    def test_unknown_denoiser_kind(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({
                "pad": {"target_height": 8, "target_width": 8},
                "denoiser": {"kind": "unet"}})

    @pytest.mark.parametrize("section, key, value", BAD_TYPES)
    def test_value_not_of_field_type_named(self, section, key, value):
        doc = _small_config().to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"^config field {section}\.{key} must be "):
            PipelineConfig.from_dict(doc)

    def test_integer_in_float_field_is_a_float(self):
        doc = _small_config().to_dict()
        doc["denoiser"]["fill_floor"] = 1
        doc["denoiser"]["lambda_dense"] = 3
        cfg = PipelineConfig.from_dict(doc)
        assert type(cfg.denoiser.fill_floor) is float
        assert type(cfg.denoiser.lambda_dense) is float and cfg.denoiser.lambda_dense == 3.0

    @pytest.mark.parametrize("section, value, named", [
        ("sampler", {"total_steps": 0}, "total_steps"),
        ("denoiser", {"radius": 0}, "denoiser: radius"),
        ("pad", {"target_height": 16}, "target_width"),
        ("pad", {"target_height": 16, "target_width": 24, "offset_y": -1}, "pad: negative"),
        ("working", {"height": 0, "width": 8}, "working resolution"),
        ("sampler", [3], "sampler must be an object"),
        ("denoiser", {"fill_floor": 5.0}, "denoiser: fill_floor must be in"),
        ("denoiser", {"fill_floor": 1e300}, "denoiser: fill_floor must be in"),
    ], ids=["range", "denoiser-range", "missing", "pad-range", "working-range", "not-object",
            "fill-floor-range", "fill-floor-huge"])
    def test_range_and_shape_errors_are_config_errors(self, section, value, named):
        doc = _small_config().to_dict()
        doc[section] = value
        with pytest.raises(ConfigError, match=named):
            PipelineConfig.from_dict(doc)

    @given(edits=st.lists(st.tuples(st.sampled_from(_KEY_PATHS), JSON_VALUES),
                          min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_values_load_or_raise_config_error(self, edits):
        _load_or_config_error(edits)

    @given(edits=st.lists(st.sampled_from(_KEY_PATHS).flatmap(
        lambda path: st.tuples(st.just(path), _typed_values(path))), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_accepted_configs_round_trip(self, edits):
        _load_or_config_error(edits)

    @given(cfg=_configs())
    @settings(max_examples=200, deadline=None)
    def test_random_configs_round_trip(self, cfg):
        doc = json.loads(json.dumps(cfg.to_dict()))
        back = PipelineConfig.from_dict(doc)
        assert back == replace(cfg, working=WorkingSize(*cfg.working_resolution()))
        assert back.to_dict() == doc

    @given(cfg=_configs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_wrong_typed_leaf_named_by_its_path(self, cfg, data):
        doc = cfg.to_dict()
        path, parent, key = data.draw(st.sampled_from(list(json_leaves(doc))))
        parent[key] = data.draw(st.sampled_from(WRONG_TYPES[type(parent[key])]))
        with pytest.raises(ConfigError, match=rf"^config field {re.escape(path)} must be "):
            PipelineConfig.from_dict(doc)

    def test_readme_schema_block_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(block) == PipelineConfig(pad=PadSpec(16, 24)).to_dict()


class TestGuidanceInsertion:
    def test_inserts_content_and_trust(self):
        v = _input_clip(4, 8, 8)
        m = MaskVideo(np.zeros((4, 8, 8, 1), np.float32))
        out_v, out_m = insert_guidance(v, m, VideoTensor(v.data[:1].copy()), (2,))
        np.testing.assert_array_equal(out_v.data[2], v.data[0])
        assert not out_m.data[2].any()  # trusted: observed
        np.testing.assert_array_equal(out_v.data[0], v.data[0])
        assert not out_m.data[0].any()

    def test_inserted_keyframe_conditions_the_fill(self):
        """An inserted keyframe conditions as an observed frame: its content
        reaches the prepared clean estimate unchanged, and the fill of the
        unobserved frames around it reads it."""
        key = np.random.default_rng(14).uniform(0.5, 0.7, (1, 4, 4, 3)).astype(np.float32)
        cond, mask = insert_guidance(VideoTensor(np.zeros((3, 4, 4, 3), np.float32)),
                                     MaskVideo(np.ones((3, 4, 4, 1), np.float32)),
                                     VideoTensor(key), (1,))
        prepared = ToyDenoiser(DenoiserConfig(lambda_dense=1.0, radius=3)).prepare(cond, mask)
        assert prepared.x0[1].tobytes() == key[0].tobytes()
        assert (prepared.x0[[0, 2]] >= 0.5).all()  # pulled toward the keyframe, not blank

    def test_count_mismatch(self):
        v = _input_clip(4, 8, 8)
        m = MaskVideo(np.zeros((4, 8, 8, 1), np.float32))
        with pytest.raises(ConfigError):
            insert_guidance(v, m, VideoTensor(v.data[:2].copy()), (0,))

    def test_key_out_of_range(self):
        v = _input_clip(4, 8, 8)
        m = MaskVideo(np.zeros((4, 8, 8, 1), np.float32))
        with pytest.raises(IndexError):
            insert_guidance(v, m, VideoTensor(v.data[:1].copy()), (9,))


class TestTemporalCompletion:
    def test_observed_input_is_returned(self):
        guided = _input_clip(6, 8, 8, seed=3)
        mask = MaskVideo(np.zeros((6, 8, 8, 1), np.float32))
        p = plan((6, 8, 8), 6, 8, 8)
        out = temporal_completion(guided, mask, ToyDenoiser(), p,
                                  SampleSchedule(4, 0), rng_seed=1)
        np.testing.assert_allclose(out.data, guided.data, atol=1e-6)


# finite float32 values, signed zeros among them
_VALUES = st.floats(-2.0, 2.0, width=32) | st.sampled_from([-0.0, 0.0, -1.0, 1.0])


@st.composite
def _pasted(draw):
    """A clip on a canvas at any offsets that fit it, edges included, and a
    completed video at a working size of at most the canvas."""
    frames, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    th, tw = h + draw(st.integers(0, 5)), w + draw(st.integers(0, 5))
    pad = PadSpec(th, tw, draw(st.integers(0, th - h)), draw(st.integers(0, tw - w)))
    clip = draw(arrays(np.float32, (frames, h, w, 3), elements=_VALUES))
    completed = draw(arrays(np.float32, (frames, draw(st.integers(1, th)),
                                         draw(st.integers(1, tw)), 3), elements=_VALUES))
    return VideoTensor(completed), VideoTensor(clip), pad


class TestRefinementComposite:
    @settings(max_examples=200, deadline=None)
    @given(case=_pasted())
    def test_equals_the_masked_select_of_the_padded_clip(self, case):
        completed, clip, pad = case
        padded, mask = pad_video(clip, pad)
        target = resize_bicubic(completed, pad.target_height, pad.target_width)
        expected = np.where(mask.data > 0, target.data, padded.data)
        got = refinement_composite(completed, clip, pad).data
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_clip_off_the_canvas_is_rejected(self):
        clip = VideoTensor(np.zeros((1, 4, 4, 3), np.float32))
        completed = VideoTensor(np.zeros((1, 6, 6, 3), np.float32))
        with pytest.raises(video.ShapeError, match="offset_x 3 \\+ W 4 exceeds target 6"):
            refinement_composite(completed, clip, PadSpec(6, 6, 0, 3))


class TestCodec:
    def test_encode_is_block_mean(self):
        v = _input_clip(2, 4, 6, seed=7)
        enc = codec_encode(v, 2)
        assert enc.shape == (2, 2, 3, 3)
        manual = v.data.reshape(2, 2, 2, 3, 2, 3).mean(axis=(2, 4))
        np.testing.assert_allclose(enc.data, manual, atol=1e-6)

    def test_identity_factor(self):
        v = _input_clip(1, 4, 4)
        assert codec_encode(v, 1) is v
        assert codec_decode(v, 1) is v

    def test_mask_cell_observed_only_if_fully_observed(self):
        m = np.zeros((1, 4, 4, 1), np.float32)
        m[0, 0, 1, 0] = 1.0
        enc = codec_encode_mask(MaskVideo(m), 2)
        assert enc.data[0, 0, 0, 0] == 1.0
        assert enc.data[0, 0, 1, 0] == 0.0
        assert enc.data[0, 1, 0, 0] == 0.0

    def test_decode_expands(self):
        v = _input_clip(1, 2, 2)
        dec = codec_decode(v, 3)
        assert dec.shape == (1, 6, 6, 3)
        np.testing.assert_array_equal(dec.data[0, :3, :3],
                                      np.broadcast_to(v.data[0, 0, 0], (3, 3, 3)))

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            codec_encode(_input_clip(1, 5, 4), 2)


class TestRun:
    @pytest.mark.parametrize("mode", ["full", "spatial_only", "temporal_only", "baseline"])
    def test_modes_produce_target_shape(self, mode):
        clip = _input_clip()
        result = run(_small_config(mode=mode), clip)
        assert result.output.shape == (8, 16, 24, 3)
        assert result.mode == mode
        assert set(result.timings) == {"pad", "downsample", "guidance",
                                       "completion", "refinement"}
        if mode in ("full", "temporal_only"):
            assert result.keyframes
        else:
            assert result.keyframes is None

    def test_nothing_to_outpaint_returns_input(self):
        clip = _input_clip(8, 16, 24)
        result = run(_small_config(), clip)
        assert np.abs(result.output.data - clip.data).max() <= 1e-2

    @given(mode=st.sampled_from(["full", "spatial_only"]), factor=st.sampled_from([1, 2]),
           size=st.tuples(st.integers(1, 16), st.integers(1, 24)), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_observed_voxels_are_the_input(self, mode, factor, size, data):
        """In the modes that upsample back to the target, the output's
        observed voxels are the input clip byte for byte, at any offsets."""
        h, w = size
        pad = PadSpec(16, 24, data.draw(st.integers(0, 16 - h)),
                      data.draw(st.integers(0, 24 - w)))
        clip = _input_clip(5, h, w, seed=h * 24 + w)
        result = run(_small_config(mode=mode, pad=pad, codec=CodecParams(factor)), clip)
        ys, xs = pad.offset_y, pad.offset_x
        assert result.output.data[:, ys:ys + h, xs:xs + w].tobytes() == clip.data.tobytes()

    def test_deterministic(self):
        clip = _input_clip(seed=9)
        a = run(_small_config(seed=4), clip)
        b = run(_small_config(seed=4), clip)
        np.testing.assert_array_equal(a.output.data, b.output.data)

    def test_seed_changes_output(self):
        clip = _input_clip(seed=9)
        a = run(_small_config(seed=4), clip)
        b = run(_small_config(seed=5), clip)
        assert not np.array_equal(a.output.data, b.output.data)

    def test_codec_run(self):
        clip = _input_clip()
        cfg = _small_config(codec=CodecParams(2), working=WorkingSize(16, 24))
        result = run(cfg, clip)
        assert result.output.shape == (8, 16, 24, 3)
        again = run(cfg, clip)
        np.testing.assert_array_equal(result.output.data, again.output.data)

    def test_frame_padding_round_trip(self):
        clip = _input_clip(frames=5)  # not a multiple of tile_t=8
        result = run(_small_config(), clip)
        assert result.output.frames == 5

    @given(frames=st.integers(1, 40), mode=st.sampled_from(MODES),
           tile_t=st.sampled_from([1, 2, 5, 8, 16, 1_000_000]),
           keyframes=st.sampled_from([1, 3, 13]),
           offset=st.tuples(st.integers(0, 4), st.integers(0, 8)))
    @settings(max_examples=25, deadline=None)
    def test_any_clip_length(self, frames, mode, tile_t, keyframes, offset):
        """Every stage runs on the clip's own frame count, whatever tile_t."""
        clip = _input_clip(frames, 12, 16, seed=frames)
        cfg = _small_config(
            mode=mode, pad=PadSpec(16, 24, *offset),
            gcg=GcgParams(keyframes=keyframes, delta=1, tau=4),
            tiling=TilingParams(tile_t=tile_t, overlap_t=min(2, tile_t - 1), tile_y=16,
                                tile_x=24, overlap_y=4, overlap_x=6))
        result = run(cfg, clip)
        assert result.output.shape == (frames, 16, 24, 3)
        padded, mask = pad_video(clip, cfg.pad)
        observed = np.broadcast_to(mask.data == 0, padded.shape)
        assert np.abs(result.output.data - padded.data)[observed].max() <= 1e-6
        np.testing.assert_array_equal(run(cfg, clip).output.data, result.output.data)

    @pytest.mark.parametrize("motion, stride", [("static", 3), ("dynamic", 1)])
    def test_delta_auto_sets_the_window_stride(self, monkeypatch, motion, stride):
        """`gcg.delta_auto: true` builds the windows at stride 1 for a dynamic
        clip and at the configured `delta` for a static one."""
        g = np.random.default_rng(3)
        frames = (np.full((32, 12, 16, 3), 0.2, np.float32) if motion == "static"
                  else g.uniform(-1, 1, (32, 12, 16, 3)).astype(np.float32))
        doc = _small_config(gcg=GcgParams(keyframes=5, delta=3, tau=8)).to_dict()
        doc["gcg"]["delta_auto"] = True
        real = gcg.construct_gcg
        windows = []

        def spy(*args, **kwargs):
            windows.extend(args[3].values())
            return real(*args, **kwargs)

        monkeypatch.setattr(gcg, "construct_gcg", spy)
        run(PipelineConfig.from_dict(doc), VideoTensor(frames))
        assert windows
        assert {b - a for w in windows for a, b in zip(w, w[1:])} == {stride}

    def test_stage_error_names_stage(self):
        clip = _input_clip(8, 32, 32)  # larger than the 16x24 pad target
        with pytest.raises(StageError) as err:
            run(_small_config(), clip)
        assert err.value.stage == "pad"

    def test_interrupt_is_not_a_stage_error(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "temporal_completion", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(_small_config(), _input_clip())

    def test_stalled_densification_is_guidance_error(self, monkeypatch):
        monkeypatch.setattr(gcg, "midpoints", lambda indices, tau: ())
        cfg = _small_config(mode="temporal_only",
                            gcg=GcgParams(keyframes=3, delta=1, tau=1))
        with pytest.raises(StageError) as err:
            run(cfg, _input_clip())
        assert err.value.stage == "guidance"
        assert isinstance(err.value.cause, GcgError)

    def test_preset_ablation_smoke(self):
        case = scene.preset_case("drift", seed=1)
        cfg = PipelineConfig(
            pad=case.geometry.placement, mode="full", seed=1,
            working=WorkingSize(16, 24),
            sampler=SampleSchedule(total_steps=2, swap_steps=1),
            gcg=GcgParams(keyframes=3, delta=1, tau=16),
            tiling=TilingParams(tile_t=16, overlap_t=4, tile_y=12, tile_x=12,
                                overlap_y=4, overlap_x=4),
            denoiser=DenoiserConfig(radius=3))
        result = run(cfg, case.input)
        assert result.output.shape == case.ground_truth.shape
        mask = scene.case_mask(case)
        observed = np.broadcast_to(mask.data == 0, result.output.shape)
        pad_target, _ = pad_video(case.input, case.geometry.placement)
        assert np.abs(result.output.data - pad_target.data)[observed].max() <= 1e-2

    def test_downsampled_condition_is_zero_where_masked(self, monkeypatch):
        """A 2x2 observed patch leaves no observed cell once the codec pools
        the 8x8 working resolution by 2.  The denoiser reads no masked
        voxel's condition, but `gcg.auto_delta` reads the whole working
        clip, so the condition must be blank there, not the bicubic bleed of
        the patch."""
        clip = VideoTensor(np.full((3, 2, 2, 3), 0.8, np.float32))
        cfg = _small_config(mode="spatial_only", pad=PadSpec(16, 16, 7, 7),
                            working=WorkingSize(8, 8), codec=CodecParams(2))
        real = ToyDenoiser.prepare
        masked = []

        def spy(self, condition, mask, *args, **kwargs):
            if mask.data.any():
                masked.append((condition.data, mask.data))
            return real(self, condition, mask, *args, **kwargs)

        monkeypatch.setattr(ToyDenoiser, "prepare", spy)
        run(cfg, clip)
        assert masked  # completion conditions on the working resolution
        for condition, mask in masked:
            assert condition.shape[1:3] == (4, 4) and mask.all()
            assert not condition.any()


class TestStageBoundaryChecks:
    """`VideoTensor` and `MaskVideo` are built where data enters or leaves a
    stage; the sampling loop runs on plain arrays."""

    @pytest.mark.parametrize("mode, owner, name, stage", [
        ("full", pipeline, "temporal_completion", "completion"),
        ("temporal_only", gcg, "multiscale_gcg", "guidance"),
    ], ids=["full", "temporal_only"])
    def test_nan_made_inside_a_loop_fails_its_stage(self, monkeypatch, mode, owner, name,
                                                    stage):
        case = golden_case()
        config = ablation_config(case, mode)
        poisoned = nan_velocity_in(monkeypatch, owner, name, config.sampler.total_steps)
        with pytest.raises(StageError) as err:
            run(config, case.input)
        assert len(poisoned) == 1
        assert err.value.stage == stage
        assert "non-finite" in str(err.value.cause)

    @pytest.mark.parametrize("mode", ["full", "temporal_only"])
    def test_denoiser_cannot_write_into_z(self, monkeypatch, mode):
        """GCG (`full`) and the spatial adapter (`temporal_only`) hand the
        denoiser a read-only latent."""
        def writes(self, prepared, z, t):
            z[...] = 0.0

        monkeypatch.setattr(ToyDenoiser, "denoise", writes)
        case = golden_case()
        with pytest.raises(StageError) as err:
            run(ablation_config(case, mode), case.input)
        assert err.value.stage == "guidance"
        assert "read-only" in str(err.value.cause)

    @pytest.mark.parametrize("mode", ["full", "temporal_only"])
    def test_checks_do_not_scale_with_steps(self, monkeypatch, mode):
        case = golden_case()
        real = video._check_array
        checks = []

        def counted(data, channels):
            checks.append(channels)
            return real(data, channels)

        monkeypatch.setattr(video, "_check_array", counted)
        counts = []
        for total in (8, 16):
            checks.clear()
            config = replace(ablation_config(case, mode),
                             sampler=SampleSchedule(total_steps=total, swap_steps=2))
            run(config, case.input)
            counts.append(len(checks))
        assert counts[0] == counts[1]


@functools.cache
def _revisit_case(frames: int) -> scene.SceneCase:
    """The `revisit` scene, seed 0, its camera path retimed to `frames` frames."""
    spec, preset_frames, geometry = scene.PRESETS["revisit"](0)
    camera = tuple(replace(k, frame=k.frame * (frames - 1) // (preset_frames - 1))
                   for k in spec.camera)
    return scene.make_case(replace(spec, camera=camera), frames, geometry)


def test_default_config_runs_coarse_to_fine():
    """The default working size is half the target, so `full` guides and
    completes at half size and refines back up, where `temporal_only` runs
    at the target; with a working size equal to the target the two agreed
    to 1.5e-8."""
    case = _revisit_case(96)
    full, temporal = (run(PipelineConfig(pad=case.geometry.placement, mode=mode),
                          case.input).output.data for mode in ("full", "temporal_only"))
    assert float(np.abs(full - temporal).max()) > 1e-4


@pytest.mark.parametrize("frames, denoised", [(192, 520), (384, 1224)])
def test_guidance_denoises_only_the_frames_it_reads(monkeypatch, frames, denoised):
    """The frames GCG hands the denoiser over a default-config run: one
    round of 13 keyframes at 192 frames, two rounds at 384, whose second
    steps no anchor, and no stack slot that the swap overwrites.  It read
    2176 at 384 frames while they stepped (4968 against 2440 at 768)."""
    case = _revisit_case(frames)
    inside, counted = [], []
    real_construct, real_denoise = gcg.construct_gcg, ToyDenoiser.denoise

    def construct(*args, **kwargs):
        inside.append(args)
        try:
            return real_construct(*args, **kwargs)
        finally:
            inside.pop()

    def denoise(self, prepared, z, t):
        if inside:
            counted.append(len(z))
        return real_denoise(self, prepared, z, t)

    monkeypatch.setattr(gcg, "construct_gcg", construct)
    monkeypatch.setattr(ToyDenoiser, "denoise", denoise)
    run(PipelineConfig(pad=case.geometry.placement), case.input)
    assert sum(counted) == denoised


def test_guidance_fills_and_draws_only_what_it_reads(monkeypatch):
    """The frames GCG's fills return and the noise fields it draws, on the
    ablation config at the `revisit` preset's 48 frames (three rounds, 17
    keyframes): a window group is filled for its keyframes' rows, a stack
    group with an anchor for its other slots, and no anchor draws noise.
    It read 130 frames and 31 fields while every item was filled whole and
    every anchor drew noise."""
    clip = scene.preset_case("revisit", 0)
    inside, filled, drawn = [], [], []
    real_construct, real_fill, real_normals = (gcg.construct_gcg, dmod.inverse_distance_fill,
                                               rng.normals)

    def construct(*args, **kwargs):
        inside.append(args)
        try:
            return real_construct(*args, **kwargs)
        finally:
            inside.pop()

    def fill(*args, **kwargs):
        out = real_fill(*args, **kwargs)
        if inside:
            filled.append(int(np.prod(out.shape[:-3])))
        return out

    def normals(*args):
        if inside:
            drawn.append(args[1])
        return real_normals(*args)

    monkeypatch.setattr(gcg, "construct_gcg", construct)
    monkeypatch.setattr(dmod, "inverse_distance_fill", fill)
    monkeypatch.setattr(rng, "normals", normals)
    result = run(ablation_config(clip, "full"), clip.input)
    assert len(result.keyframes) == 17
    assert (sum(filled), len(drawn)) == (41, 17)


@functools.cache
def _traced_peaks_mib(frames: int) -> dict[str, float]:
    """Traced peaks of a default-config `run` on `_revisit_case(frames)`, in
    MiB above the memory traced before it: each stage's under its name, and
    the whole run's under "run".  An untraced run on an 8-frame clip comes
    first, then the fill's kernel caches and the latent average's
    neighbour-count cache are cleared, so that a reading hardly depends on
    what ran before it in the process.  At 192 frames, repeated calls in one
    process read within 0.005 MiB of each other per stage, the first call
    included; without the warm-up run, the first read up to 0.013 MiB above
    the rest, in completion and refinement."""
    case, warm = _revisit_case(frames), _revisit_case(8)
    run(PipelineConfig(pad=warm.geometry.placement), warm.input)
    real_stage, peaks = pipeline._stage, {"run": 0}

    @contextlib.contextmanager
    def stage(timings, name):
        peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        with real_stage(timings, name):
            yield
        peaks[name] = tracemalloc.get_traced_memory()[1]

    pipeline._stage = stage
    _kernel_spectrum.cache_clear()
    _kernel_slices.cache_clear()
    _neighbour_count.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(PipelineConfig(pad=case.geometry.placement), case.input)
        peaks["run"] = max(peaks["run"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        pipeline._stage = real_stage
    return {name: (peak - base) / 2 ** 20 for name, peak in peaks.items()}


# The traced peak of `run` below, in MiB, as measured when refinement became
# the upsampled composite alone (4.48, set by completion), plus 10%; it read
# 9.25 while refinement re-sampled the composite, 15.71 with the working size
# equal to the target, and 25.17 while the padded clip, the gathered GCG
# conditions, the fill's per-axis transforms and the last step output of
# each pass outlived their readers.
PEAK_MIB = 4.9


def test_run_traced_peak_is_pinned():
    assert _traced_peaks_mib(96)["run"] <= PEAK_MIB


# The traced peak at 192 frames, in MiB, as measured with PEAK_MIB (6.69,
# 2.0x the 3.38 MiB output, set by downsample), plus 10%; it read 12.74
# while refinement re-sampled the composite, 20.25 with the working size
# equal to the target, and 30.66 before each stage dropped what it no
# longer reads.
PEAK_MIB_192 = 7.3

# Each stage's traced peak at 192 frames, measured with PEAK_MIB_192, plus
# at most 10%, so that no stage grows into the run's peak unseen: pad 5.35,
# downsample 6.69, guidance 2.69, completion 5.60 and refinement 5.81
# (guidance read 3.58 while the windows stepped and the swap kept a float64
# latent per swapped slot and step; refinement 12.74 while it re-sampled the
# composite; downsample, guidance and completion read 12.10, 11.55 and 20.25
# with the working size equal to the target).
STAGE_PEAK_MIB_192 = {"pad": 5.8, "downsample": 7.3, "guidance": 2.9,
                      "completion": 6.1, "refinement": 6.3}


def test_run_traced_peak_at_192_frames_is_pinned():
    assert _traced_peaks_mib(192)["run"] <= PEAK_MIB_192


@pytest.mark.parametrize("stage", list(STAGE_PEAK_MIB_192))
def test_stage_traced_peak_at_192_frames_is_pinned(stage):
    assert _traced_peaks_mib(192)[stage] <= STAGE_PEAK_MIB_192[stage]
