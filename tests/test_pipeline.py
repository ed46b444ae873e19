"""End-to-end orchestration: config, stages, codec, ablation modes."""
import copy
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpainter import gcg, rng, scene
from outpainter.denoiser import DenoiserConfig, ToyDenoiser
from outpainter.gcg import GcgError, insert_guidance
from outpainter.pipeline import (MODES, GcgParams, PipelineConfig, SamplerParams,
                                 StageError, TilingParams, codec_decode,
                                 codec_encode, codec_encode_mask, run,
                                 spatial_refinement, temporal_completion)
from outpainter.sampler import SampleSchedule
from outpainter.tiling import ConfigError, plan
from outpainter.video import MaskVideo, PadSpec, VideoTensor, pad_video


def _small_config(mode="full", seed=0, **overrides):
    base = dict(
        pad=PadSpec(16, 24, 0, 0),
        mode=mode,
        seed=seed,
        sampler=SamplerParams(total_steps=3, swap_steps=1),
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
    ("denoiser", "fill_floor", float("inf")), ("sampler", "refine_strength", None),
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


def _input_clip(frames=8, h=16, w=16, seed=0):
    data = rng.normals(seed, "pipe-input", (frames, h, w, 3)) * 0.4
    return VideoTensor(np.clip(data, -1, 1))


class TestConfig:
    def test_dict_round_trip(self):
        cfg = _small_config(codec_factor=2,
                            working_height=8, working_width=12)
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
        doc = _small_config(working_height=8, working_width=12).to_dict()
        doc["codec"] = {"kind": kind, "factor": factor}
        with pytest.raises(ConfigError, match="codec.kind"):
            PipelineConfig.from_dict(doc)
        del doc["codec"]["kind"]
        assert PipelineConfig.from_dict(doc).codec_factor == factor

    def test_working_needs_both_sides(self):
        with pytest.raises(ConfigError, match="together"):
            _small_config(working_height=8)
        with pytest.raises(ConfigError, match="together"):
            PipelineConfig.from_dict({"pad": {"target_height": 16, "target_width": 24},
                                      "working": {"width": 8}})

    def test_working_resolution_default_caps_longest_side(self):
        cfg = PipelineConfig(pad=PadSpec(1536, 768, 0, 0))
        assert cfg.working_resolution() == (768, 384)
        small = PipelineConfig(pad=PadSpec(64, 48, 0, 0))
        assert small.working_resolution() == (64, 48)

    def test_working_cannot_exceed_target(self):
        with pytest.raises(ConfigError):
            _small_config(working_height=32, working_width=24)

    def test_codec_divisibility(self):
        with pytest.raises(ConfigError):
            _small_config(codec_factor=5)

    @pytest.mark.parametrize("factor", [0, 2.0, "2", True, None])
    def test_codec_factor_must_be_positive_int(self, factor):
        doc = _small_config(working_height=8, working_width=12).to_dict()
        doc["codec"] = {"factor": factor}
        with pytest.raises(ConfigError, match="codec factor must be an integer"):
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
        doc["sampler"]["refine_strength"] = 1
        doc["denoiser"]["lambda_dense"] = 3
        cfg = PipelineConfig.from_dict(doc)
        assert type(cfg.sampler.refine_strength) is float
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
        assert (out_m.data[2] == 1).all()
        np.testing.assert_array_equal(out_v.data[0], v.data[0])
        assert not out_m.data[0].any()

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
    def test_fully_trusted_input_is_returned(self):
        guided = _input_clip(8, 8, 8, seed=2)
        mask = MaskVideo(np.ones((8, 8, 8, 1), np.float32))
        p = plan((8, 8, 8), 6, 8, 8, 2, 0, 0)
        out = temporal_completion(guided, mask, ToyDenoiser(DenoiserConfig(radius=3)),
                                  p, SampleSchedule(4), rng_seed=1)
        np.testing.assert_allclose(out.data, guided.data, atol=1e-6)

    def test_observed_input_is_returned(self):
        guided = _input_clip(6, 8, 8, seed=3)
        mask = MaskVideo(np.zeros((6, 8, 8, 1), np.float32))
        p = plan((6, 8, 8), 6, 8, 8)
        out = temporal_completion(guided, mask, ToyDenoiser(), p,
                                  SampleSchedule(4), rng_seed=1)
        np.testing.assert_allclose(out.data, guided.data, atol=1e-6)


class TestSpatialRefinement:
    def test_minimal_strength_returns_composite(self):
        clip = _input_clip(4, 8, 8, seed=5)
        padded, mask = pad_video(clip, PadSpec(8, 12, 0, 0))
        completed = VideoTensor(rng.normals(3, "completed", (4, 8, 12, 3)) * 0.3)
        p = plan((4, 8, 12), 4, 8, 12)
        out = spatial_refinement(completed, padded, mask,
                                 ToyDenoiser(DenoiserConfig(radius=3)), p,
                                 SampleSchedule(10), strength=0.01, rng_seed=2)
        # the upsampling stage clamps to the valid data range before compositing
        composite = np.where(mask.data > 0,
                             np.clip(completed.data, -1.0, 1.0), padded.data)
        np.testing.assert_allclose(out.data, composite, atol=1e-2)
        observed = np.broadcast_to(mask.data == 0, out.shape)
        assert np.abs(out.data - padded.data)[observed].max() <= 1e-2

    def test_observed_region_exact_at_full_strength(self):
        clip = _input_clip(4, 8, 8, seed=6)
        padded, mask = pad_video(clip, PadSpec(8, 12, 0, 0))
        completed = VideoTensor(rng.normals(4, "completed", (4, 8, 12, 3)) * 0.3)
        p = plan((4, 8, 12), 4, 8, 12)
        out = spatial_refinement(completed, padded, mask, ToyDenoiser(), p,
                                 SampleSchedule(6), strength=1.0, rng_seed=2)
        observed = np.broadcast_to(mask.data == 0, out.shape)
        assert np.abs(out.data - padded.data)[observed].max() <= 1e-2


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
        cfg = _small_config(codec_factor=2, working_height=16, working_width=24)
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

    @pytest.mark.parametrize("motion, stride", [("static", 5), ("dynamic", 1)])
    def test_delta_auto_sets_the_window_stride(self, monkeypatch, motion, stride):
        """`gcg.delta_auto: true` builds the windows at `auto_delta`'s stride
        for the clip, not at the configured `delta`."""
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
            working_height=16, working_width=24,
            sampler=SamplerParams(total_steps=2, swap_steps=1),
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
        the 8x8 working resolution by 2, so every working frame is an anchor
        whose condition the fill reads as observed: it must be blank, not
        the bicubic bleed of the patch."""
        clip = VideoTensor(np.full((3, 2, 2, 3), 0.8, np.float32))
        cfg = _small_config(mode="spatial_only", pad=PadSpec.centered(2, 2, 16, 16),
                            working_height=8, working_width=8, codec_factor=2)
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


def _traced_peak_mib(frames: int) -> float:
    """Traced peak of a default-config `run` on the `revisit` scene retimed
    to `frames` frames, in MiB above the memory traced before it."""
    spec, preset_frames, geometry = scene.PRESETS["revisit"](0)
    camera = tuple(replace(k, frame=k.frame * (frames - 1) // (preset_frames - 1))
                   for k in spec.camera)
    case = scene.make_case(replace(spec, camera=camera), frames, geometry)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(PipelineConfig(pad=case.geometry.placement), case.input)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2 ** 20


# The traced peak of `run` below, in MiB, as measured when the stages began
# to drop the working-resolution arrays (26.95), plus 10%; it read 30.84
# while they were kept to the end of the run.
PEAK_MIB = 29.6


def test_run_traced_peak_is_pinned():
    assert _traced_peak_mib(96) <= PEAK_MIB


# The traced peak at 192 frames, in MiB, as measured when the noise was
# drawn in blocks and the blend held only its open frames (33.30), plus 10%;
# it read 48.31 while both spanned the whole clip in float64.
PEAK_MIB_192 = 36.6


def test_run_traced_peak_at_192_frames_is_pinned():
    assert _traced_peak_mib(192) <= PEAK_MIB_192
