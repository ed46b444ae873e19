"""Procedural scene oracle: determinism, consistency, presets."""
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import WRONG_TYPES, json_leaves, retimed_case
from outpainter import scene
from outpainter.scene import (PRESETS, SPRITE_SHAPES, CameraKey, CaseGeometry, GeometryError,
                              SceneSpec, Sprite, camera_center, case_mask, make_case,
                              preset_case, render, revisit_pairs, texture_at)
from outpainter.tiling import ConfigError


def _spec(seed=11, sprites=(), camera=(CameraKey(0, 64.0, 64.0),), octaves=2):
    return SceneSpec(seed=seed, texture_octaves=octaves,
                     texture_base_freq=1.0 / 16.0, sprites=sprites, camera=camera)


class TestRender:
    def test_bit_deterministic(self):
        spec = _spec()
        a = render(spec, 3, (10.0, 20.0, 16.0, 16.0), 16, 16)
        b = render(spec, 3, (10.0, 20.0, 16.0, 16.0), 16, 16)
        np.testing.assert_array_equal(a.data, b.data)

    def test_window_outside_sprites_is_pure_background(self):
        sprite = Sprite("disc", 6.0, (1.0, 0.0, 0.0), 500.0, 500.0, 0.0, 0.0)
        with_sprite = render(_spec(sprites=(sprite,)), 0, (0.0, 0.0, 16.0, 16.0), 16, 16)
        background = render(_spec(), 0, (0.0, 0.0, 16.0, 16.0), 16, 16)
        np.testing.assert_array_equal(with_sprite.data, background.data)

    def test_translated_window_translates_sampling(self):
        spec = _spec()
        big = render(spec, 0, (0.0, 0.0, 24.0, 24.0), 24, 24)
        shifted = render(spec, 0, (5.0, 3.0, 24.0, 24.0), 24, 24)
        np.testing.assert_array_equal(big.data[0, 5:, 3:], shifted.data[0, :19, :21])

    def test_overlap_consistency(self):
        spec = _spec(sprites=(Sprite("rect", 5.0, (0.9, 0.9, -0.9), 12.0, 12.0, 0.0, 0.0),))
        a = render(spec, 0, (0.0, 0.0, 20.0, 20.0), 20, 20)
        b = render(spec, 0, (4.0, 4.0, 20.0, 20.0), 20, 20)
        np.testing.assert_array_equal(a.data[0, 4:, 4:], b.data[0, :16, :16])

    def test_texture_in_range(self):
        spec = _spec(octaves=4)
        x, y = np.meshgrid(np.linspace(0, 50, 40), np.linspace(0, 50, 40))
        vals = texture_at(spec, x, y, 0)
        assert vals.min() >= -1.0 and vals.max() <= 1.0

    def test_sprite_shapes_differ(self):
        window = (96.0, 96.0, 64.0, 64.0)
        frames = []
        for shape in ("disc", "rect", "arrow"):
            sprite = Sprite(shape, 20.0, (1.0, 1.0, 1.0), 128.0, 128.0, 0.0, 0.0)
            frames.append(render(_spec(sprites=(sprite,)), 0, window, 64, 64).data)
        assert not np.array_equal(frames[0], frames[1])
        assert not np.array_equal(frames[1], frames[2])

    @pytest.mark.parametrize("frame", [2, 9])
    def test_sprite_outside_its_visible_frames_is_not_drawn(self, frame):
        window = (96.0, 96.0, 64.0, 64.0)
        sprite = Sprite("disc", 20.0, (1.0, 1.0, 1.0), 128.0, 128.0, 0.0, 0.0,
                        visible_from=5, visible_until=8)
        spec = _spec(sprites=(sprite,))
        background = render(_spec(), frame, window, 64, 64).data
        np.testing.assert_array_equal(render(spec, frame, window, 64, 64).data, background)
        assert not np.array_equal(render(spec, 5, window, 64, 64).data, background)

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            render(_spec(), -1, (0.0, 0.0, 8.0, 8.0), 8, 8)


class TestCamera:
    def test_piecewise_linear_floor(self):
        spec = _spec(camera=(CameraKey(0, 0.0, 10.0), CameraKey(10, 5.0, 20.0)))
        assert camera_center(spec, 0) == (10, 0)
        assert camera_center(spec, 10) == (20, 5)
        assert camera_center(spec, 5) == (15, 2)  # floor(2.5) = 2


class TestCase:
    def test_crop_equals_full(self):
        geometry = CaseGeometry(full=(-8, -8, 16, 16), crop=(-8, -8, 16, 16))
        case = make_case(_spec(), 4, geometry)
        np.testing.assert_array_equal(case.input.data, case.ground_truth.data)
        assert not case_mask(case).data.any()

    def test_input_is_the_crop_render(self):
        # the input sliced from the truth equals a render of the crop window
        sprite = Sprite("arrow", 9.0, (0.5, -0.2, 0.8), 70.0, 52.0, 0.7, -0.3)
        spec = _spec(3, sprites=(sprite,),
                     camera=(CameraKey(0, 40.0, 60.0), CameraKey(5, 47.5, 71.2)))
        cases = [make_case(spec, 6, CaseGeometry(full=(-21, 7, 19, 33), crop=(-15, 12, 9, 5)))]
        cases += [preset_case(name, seed) for name in sorted(PRESETS) for seed in (0, 5)]
        for case in cases:
            cy, cx, ch, cw = case.geometry.crop
            for f in range(case.input.frames):
                ccy, ccx = camera_center(case.spec, f)
                crop = render(case.spec, f, (ccy + cy, ccx + cx, ch, cw), ch, cw)
                assert case.input.data[f].tobytes() == crop.data[0].tobytes()

    def test_static_spriteless_truth_constant(self):
        geometry = CaseGeometry(full=(-8, -8, 16, 24), crop=(-8, -8, 16, 16))
        case = make_case(_spec(), 5, geometry)
        for f in range(1, 5):
            np.testing.assert_array_equal(case.ground_truth.data[f],
                                          case.ground_truth.data[0])

    def test_crop_must_be_contained(self):
        with pytest.raises(GeometryError):
            CaseGeometry(full=(-8, -8, 16, 16), crop=(-9, -8, 16, 16))

    def test_mask_marks_band(self):
        geometry = CaseGeometry(full=(-8, -8, 16, 24), crop=(-8, -8, 16, 16))
        case = make_case(_spec(), 2, geometry)
        mask = case_mask(case)
        assert (mask.data[:, :, :16] == 0).all()
        assert (mask.data[:, :, 16:] == 1).all()


class TestLateReveal:
    def test_arrow_hidden_then_revealed(self):
        case = preset_case("late-reveal", seed=0)
        arrow_rgb = np.array([0.9, -0.8, -0.8], np.float32)

        def arrow_pixels(frame):
            return (np.abs(frame - arrow_rgb).max(axis=-1) < 1e-6).sum()

        # the arrow exists in ground truth from frame 0 but only in the
        # outpaint band, never inside the observed crop
        assert arrow_pixels(case.ground_truth.data[0]) > 0
        assert arrow_pixels(case.input.data[0]) == 0
        # by the last frames it has crossed into the observed crop
        assert arrow_pixels(case.input.data[-1]) > 0

    def test_band_region_contains_arrow_early(self):
        case = preset_case("late-reveal", seed=1)
        mask = case_mask(case).data[0, :, :, 0] > 0
        arrow_rgb = np.array([0.9, -0.8, -0.8], np.float32)
        hit = np.abs(case.ground_truth.data[0] - arrow_rgb).max(axis=-1) < 1e-6
        assert (hit & mask).sum() > 0 and (hit & ~mask).sum() == 0


class TestRevisitPairs:
    def test_static_camera_pairs_cover_frame(self):
        geometry = CaseGeometry(full=(-8, -8, 16, 16), crop=(-8, -8, 16, 16))
        case = make_case(_spec(), 9, geometry)
        pairs = revisit_pairs(case)
        assert pairs
        fa, fb, ra, rb = pairs[0]
        assert ra == rb == (0, 0, 16, 16)

    def test_pairs_reference_same_world_region(self):
        case = preset_case("revisit", seed=2)
        spriteless = make_case(
            SceneSpec(seed=case.spec.seed,
                      texture_octaves=case.spec.texture_octaves,
                      texture_base_freq=case.spec.texture_base_freq,
                      sprites=(), camera=case.spec.camera),
            case.input.frames, case.geometry)
        for fa, fb, ra, rb in revisit_pairs(spriteless)[:10]:
            ya, xa, h, w = ra
            yb, xb, _, _ = rb
            np.testing.assert_array_equal(
                spriteless.ground_truth.data[fa, ya:ya + h, xa:xa + w],
                spriteless.ground_truth.data[fb, yb:yb + h, xb:xb + w])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _sprites(draw):
    visible = sorted(draw(st.lists(st.integers(0, 10 ** 9), min_size=2, max_size=2)))
    return Sprite(draw(st.sampled_from(SPRITE_SHAPES)), draw(_POSITIVE),
                  draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
                  *(draw(_FINITE) for _ in range(4)), *visible)


SCENES = st.builds(
    SceneSpec, seed=st.integers(0, 2 ** 64 - 1), texture_octaves=st.integers(1, 8),
    texture_base_freq=_POSITIVE, sprites=st.lists(_sprites(), max_size=3).map(tuple),
    camera=st.lists(st.builds(CameraKey, st.integers(-10 ** 6, 10 ** 6), _FINITE, _FINITE),
                    min_size=1, max_size=3).map(tuple),
    channels=st.sampled_from((1, 3)))


class TestSpecJson:
    def test_round_trip(self):
        spec = _spec(sprites=(Sprite("disc", 4.0, (0.1, 0.2, 0.3), 1.0, 2.0, 0.5, -0.5),),
                     camera=(CameraKey(0, 1.0, 2.0), CameraKey(9, 3.0, 4.0)))
        assert SceneSpec.from_json(spec.to_json()) == spec

    @given(spec=SCENES)
    @settings(max_examples=200, deadline=None)
    def test_random_specs_round_trip(self, spec):
        assert SceneSpec.from_json(spec.to_json()) == spec

    @given(spec=SCENES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_wrong_typed_leaf_named_by_its_path(self, spec, data):
        doc = json.loads(spec.to_json())
        path, parent, key = data.draw(st.sampled_from(list(json_leaves(doc, "scene"))))
        parent[key] = data.draw(st.sampled_from(WRONG_TYPES[type(parent[key])]))
        with pytest.raises(ConfigError, match=rf"^config field {re.escape(path)} must be "):
            SceneSpec.from_json(json.dumps(doc))

    def test_presets_deterministic(self):
        for name in ("late-reveal", "revisit", "textured", "drift"):
            a = preset_case(name, seed=3)
            b = preset_case(name, seed=3)
            np.testing.assert_array_equal(a.input.data, b.input.data)
            np.testing.assert_array_equal(a.ground_truth.data, b.ground_truth.data)


@st.composite
def _visible_sprites(draw):
    """A sprite of any shape near the windows `_cases` draws, visible over a
    span that may start after the clip or end before frame 0."""
    visible = sorted(draw(st.lists(st.integers(-8, 32), min_size=2, max_size=2)))
    return Sprite(draw(st.sampled_from(SPRITE_SHAPES)), draw(st.floats(2.0, 24.0)),
                  draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
                  *(draw(st.floats(-16.0, 16.0)) for _ in range(2)),
                  *(draw(st.floats(-1.5, 1.5)) for _ in range(2)), *visible)


@st.composite
def _camera_paths(draw):
    """Keys near the world origin, between which the camera pans a pixel or
    a few a frame, and maybe one key a frame after another and 50-300 px
    away from it, to which the camera jumps farther than any window that
    `_cases` draws: the frames split into several runs."""
    near = st.floats(-12.0, 12.0)
    keys = draw(st.lists(st.builds(CameraKey, st.integers(-4, 28), near, near),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        before = draw(st.sampled_from(keys))
        far = st.floats(50.0, 300.0).flatmap(lambda d: st.sampled_from((d, -d)))
        keys.append(CameraKey(before.frame + 1, before.cx + draw(far), before.cy + draw(far)))
    return tuple(keys)


@st.composite
def _cases(draw):
    """(spec, frames, geometry) of a small scene."""
    spec = SceneSpec(seed=draw(st.integers(0, 2 ** 64 - 1)),
                     texture_octaves=draw(st.integers(1, 4)),
                     texture_base_freq=draw(st.floats(1.0 / 64.0, 1.0)),
                     sprites=tuple(draw(st.lists(_visible_sprites(), max_size=3))),
                     camera=draw(_camera_paths()),
                     channels=draw(st.sampled_from((1, 3))))
    fh, fw = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    ch, cw = draw(st.integers(1, fh)), draw(st.integers(1, fw))
    fy, fx = draw(st.integers(-12, 0)), draw(st.integers(-12, 0))
    cy, cx = fy + draw(st.integers(0, fh - ch)), fx + draw(st.integers(0, fw - cw))
    return spec, draw(st.integers(1, 24)), CaseGeometry((fy, fx, fh, fw), (cy, cx, ch, cw))


class TestMakeCase:
    @given(case=_cases(), block=st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_truth_is_the_render_of_each_full_window(self, case, block):
        """The truth is painted per camera run and sprite block, yet each of
        its frames is `render` of the frame's full window, byte for byte.
        Sprite blocks as small as `block` pixels make a clip span several."""
        spec, frames, geometry = case
        painted = []  # world pixels of each texture_at call
        with (mock.patch.object(scene, "SPRITE_BLOCK_PIXELS", block),
              mock.patch.object(scene, "texture_at", lambda spec, x, y, c: painted.append(
                  x.size) or texture_at(spec, x, y, c))):
            made = make_case(spec, frames, geometry)
        fy, fx, fh, fw = geometry.full
        # no more texture work than rendering the frames one by one
        assert sum(painted) <= frames * fh * fw * spec.channels
        assert made.ground_truth.data.shape == (frames, fh, fw, spec.channels)
        for f in range(frames):
            ccy, ccx = camera_center(spec, f)
            assert made.full_origins[f] == (ccy + fy, ccx + fx)
            assert all(type(v) is int for v in made.full_origins[f])
            want = render(spec, f, (ccy + fy, ccx + fx, fh, fw), fh, fw).data[0]
            assert made.ground_truth.data[f].tobytes() == want.tobytes()

    def test_truth_is_the_render_past_exact_world_coordinates(self):
        """Past 2**53 px from the world origin not every integer is a float,
        so pixel centres counted from two frames' origins can round apart:
        frames there are painted one by one, each from its own origin."""
        far = 2.0 ** 53
        camera = (CameraKey(0, far + 10, far + 10), CameraKey(19, far + 17, far + 15))
        spec = SceneSpec(3, texture_octaves=2, texture_base_freq=0.75, camera=camera)
        geometry = CaseGeometry(full=(-3, -5, 8, 8), crop=(-2, -2, 4, 4))
        made = make_case(spec, 20, geometry)
        for f, (oy, ox) in enumerate(made.full_origins):
            want = render(spec, f, (oy, ox, 8, 8), 8, 8).data[0]
            assert made.ground_truth.data[f].tobytes() == want.tobytes()

    def test_no_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            make_case(_spec(), 0, CaseGeometry(full=(-8, -8, 16, 16), crop=(-8, -8, 8, 8)))


def _traced_peak(fn) -> int:
    """Bytes traced at the peak of fn(), above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMakeCaseMemory:
    def test_long_revisit_peak_is_pinned(self):
        """`revisit` re-timed to 192 frames, as `long-clip-default` renders
        it: 5.58 MiB measured (its truth alone is 3.38 MiB), pinned at 5.75.
        It read 8.95 MiB while every frame was rendered on its own and
        stacked."""
        retimed_case("revisit", 0, 8)  # imports and caches outside the trace
        assert _traced_peak(lambda: retimed_case("revisit", 0, 192)) / 2 ** 20 <= 5.75

    def test_jumping_camera_paints_no_box_around_the_jump(self):
        """A camera that jumps 10**6 px between two frames puts them in runs
        of their own: rendering holds at most twice one window's texture
        temporaries, plus the truth."""
        geometry = CaseGeometry(full=(-16, -16, 32, 48), crop=(-12, -12, 24, 24))
        spec = _spec(sprites=(Sprite("disc", 9.0, (0.5, 0.1, -0.4), 64.0, 64.0, 0.0, 0.0),),
                     camera=(CameraKey(0, 64.0, 64.0), CameraKey(1, 1e6 + 64.0, 1e6 + 64.0)))
        one_window = _traced_peak(lambda: render(spec, 0, (48, 48, 32, 48), 32, 48))
        truth = 2 * 32 * 48 * 3 * 4
        assert _traced_peak(lambda: make_case(spec, 2, geometry)) <= 2 * one_window + truth
