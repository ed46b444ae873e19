"""Toy denoiser: neighborhood fill oracle, fixed points, prepared conditioning, velocity error."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from outpainter import denoiser as dmod
from outpainter import rng
from outpainter.denoiser import (MODES, DenoiserConfig, ToyDenoiser, _neighbor_offsets,
                                 _smooth3, fold_anchor_frames, inverse_distance_fill)
from outpainter.sampler import SampleSchedule, ScheduleError, step, velocity_target
from outpainter.video import MaskVideo, ShapeError, VideoTensor


def _fill_oracle(condition, mask, lam, radius, floor):
    """Brute-force nested-loop inverse-squared-distance fill."""
    f, h, w, c = condition.shape
    out = condition.astype(np.float64).copy()
    for fi in range(f):
        for yi in range(h):
            for xi in range(w):
                if mask[fi, yi, xi, 0] == 0.0:
                    continue
                num = np.zeros(c)
                den = 0.0
                for fj in range(f):
                    for yj in range(h):
                        for xj in range(w):
                            if mask[fj, yj, xj, 0] != 0.0:
                                continue
                            d2 = ((lam * (fj - fi)) ** 2 + (yj - yi) ** 2
                                  + (xj - xi) ** 2)
                            if d2 == 0.0 or d2 > radius ** 2:
                                continue
                            num += condition[fj, yj, xj] / d2
                            den += 1.0 / d2
                out[fi, yi, xi] = num / den if den > 0 else floor
    return out


def _denoise(den, condition, mask, z=None, t=0.5, mode="dense"):
    """Prepare `condition` and `mask`, then denoise one step of `z` at `t`."""
    if z is None:
        z = np.zeros_like(condition)
    prepared = den.prepare(VideoTensor(condition), MaskVideo(mask), mode)
    return den.denoise(prepared, VideoTensor(z), t)


class TestRequest:
    def test_shape_validation(self):
        cond = np.zeros((1, 4, 4, 3), np.float32)
        prepared = ToyDenoiser().prepare(VideoTensor(cond),
                                         MaskVideo(np.zeros((1, 4, 4, 1), np.float32)))
        with pytest.raises(ShapeError):
            ToyDenoiser().denoise(prepared, VideoTensor(np.zeros((1, 4, 5, 3), np.float32)),
                                  0.5)
        with pytest.raises(ShapeError):
            ToyDenoiser().prepare(VideoTensor(cond),
                                  MaskVideo(np.zeros((1, 4, 5, 1), np.float32)))

    def test_mode_validation(self):
        cond = np.zeros((1, 4, 4, 3), np.float32)
        with pytest.raises(ValueError):
            _denoise(ToyDenoiser(), cond, np.zeros((1, 4, 4, 1), np.float32), mode="fast")


class TestFill:
    def test_all_observed_identity(self):
        g = np.random.default_rng(0)
        cond = g.uniform(-0.9, 0.9, (2, 5, 5, 3)).astype(np.float32)
        mask = np.zeros((2, 5, 5, 1), np.float32)
        out = inverse_distance_fill(cond, mask, 2.0, 4, 0.0)
        np.testing.assert_array_equal(out, cond)

    def test_two_equidistant_neighbors(self):
        cond = np.zeros((1, 1, 3, 1), np.float32)
        cond[0, 0, 0, 0] = 0.4
        cond[0, 0, 2, 0] = -0.2
        mask = np.zeros((1, 1, 3, 1), np.float32)
        mask[0, 0, 1, 0] = 1.0
        out = inverse_distance_fill(cond, mask, 2.0, 4, 0.0)
        assert out[0, 0, 1, 0] == pytest.approx(0.1, abs=1e-7)

    def test_ramp_half_masked_matches_oracle(self):
        ramp = np.linspace(-0.8, 0.8, 8, dtype=np.float32)
        cond = np.broadcast_to(ramp[None, None, :, None], (1, 8, 8, 1)).copy()
        mask = np.zeros((1, 8, 8, 1), np.float32)
        mask[:, :, 4:] = 1.0
        cond = cond * (1.0 - mask)
        out = inverse_distance_fill(cond, mask, 2.0, 4, 0.0)
        expected = _fill_oracle(cond, mask, 2.0, 4, 0.0)
        np.testing.assert_allclose(out.astype(np.float64), expected, atol=1e-9)

    def test_temporal_metric_matches_oracle(self):
        g = np.random.default_rng(3)
        cond = g.uniform(-0.9, 0.9, (4, 4, 4, 3)).astype(np.float32)
        mask = (g.uniform(size=(4, 4, 4, 1)) < 0.4).astype(np.float32)
        cond = cond * (1.0 - mask)
        for lam in (1.0, 2.0, 8.0):
            out = inverse_distance_fill(cond, mask, lam, 3, -0.25)
            expected = _fill_oracle(cond, mask, lam, 3, -0.25)
            np.testing.assert_allclose(out.astype(np.float64), expected, atol=1e-9)

    def test_unreachable_gets_floor(self):
        cond = np.zeros((1, 32, 32, 1), np.float32)
        mask = np.ones((1, 32, 32, 1), np.float32)
        mask[0, 0, 0, 0] = 0.0
        out = inverse_distance_fill(cond, mask, 2.0, 3, -0.5)
        assert out[0, 31, 31, 0] == -0.5

    def test_locality(self):
        g = np.random.default_rng(5)
        cond = g.uniform(-0.9, 0.9, (1, 12, 12, 1)).astype(np.float32)
        mask = np.zeros((1, 12, 12, 1), np.float32)
        mask[0, 0, 0, 0] = 1.0
        cond = cond * (1.0 - mask)
        far = cond.copy()
        far[0, 10, 10, 0] = 0.77  # distance > radius from the masked pixel
        a = inverse_distance_fill(cond, mask, 2.0, 4, 0.0)
        b = inverse_distance_fill(far, mask, 2.0, 4, 0.0)
        assert a[0, 0, 0, 0] == b[0, 0, 0, 0]

    def test_item_axis_fills_each_item_alone(self):
        g = np.random.default_rng(9)
        cond = g.uniform(-0.9, 0.9, (3, 2, 5, 4, 3)).astype(np.float32)
        mask = (g.uniform(size=(3, 2, 5, 4, 1)) < 0.4).astype(np.float32)
        out = inverse_distance_fill(cond, mask, 2.0, 4, -0.5)
        for i in range(3):
            assert out[i].tobytes() == inverse_distance_fill(cond[i], mask[i], 2.0, 4,
                                                             -0.5).tobytes()

    def test_item_groups_do_not_change_the_fill(self, monkeypatch):
        g = np.random.default_rng(11)
        cond = g.uniform(-0.9, 0.9, (5, 3, 6, 7, 3)).astype(np.float32)
        mask = (g.uniform(size=(5, 3, 6, 7, 1)) < 0.5).astype(np.float32)
        monkeypatch.setattr(dmod, "FILL_GROUP_BYTES", 1)  # one item per group
        alone = inverse_distance_fill(cond, mask, 2.0, 4, -0.5)
        monkeypatch.setattr(dmod, "FILL_GROUP_BYTES", 1 << 40)  # one group
        assert alone.tobytes() == inverse_distance_fill(cond, mask, 2.0, 4, -0.5).tobytes()

    def test_smooth_length(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1
        for n in range(1, 200):
            m = dmod._smooth_length(n)
            assert smooth(m) and not any(smooth(k) for k in range(n, m))

    def test_offsets_fit_the_item(self):
        # the ball clipped to the item, in the unclipped ball's order
        ball = _neighbor_offsets(6, 2.0, (99, 99, 99))
        fitting = [o for o in ball if abs(o[0]) < 3 and abs(o[1]) < 4 and abs(o[2]) < 5]
        assert list(_neighbor_offsets(6, 2.0, (3, 4, 5))) == fitting
        # a radius far beyond the item enumerates only what fits
        huge = _neighbor_offsets(10 ** 9, 0.5, (2, 2, 3))
        assert len(huge) == 3 * 3 * 5 - 1

    @given(items=st.integers(1, 2), frames=st.integers(1, 6), height=st.integers(1, 7),
           width=st.integers(1, 7), channels=st.integers(1, 3), radius=st.integers(1, 16),
           lam=st.floats(0.5, 8.0), masking=st.sampled_from(["random", "all ones", "all zeros"]),
           floor=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(items=1, frames=1, height=1, width=1, channels=1, radius=1, lam=0.5,
             masking="random", floor=0.25, seed=0)
    @example(items=2, frames=6, height=7, width=7, channels=3, radius=16, lam=0.5,
             masking="random", floor=-0.75, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, items, frames, height, width, channels, radius, lam,
                            masking, floor, seed):
        """The FFT fill puts `floor` on exactly the voxels the brute-force
        oracle cannot reach, is within 1e-6 of it elsewhere, and fills each
        item of a batch byte for byte as it fills that item alone."""
        g = np.random.default_rng(seed)
        shape = (items, frames, height, width)
        cond = g.uniform(-1.0, 1.0, shape + (channels,)).astype(np.float32)
        mask = (g.uniform(size=shape + (1,)) < 0.5).astype(np.float32)
        if masking != "random":
            mask[:] = 1.0 if masking == "all ones" else 0.0
        out = inverse_distance_fill(cond, mask, lam, radius, floor)
        for i in range(items):
            alone = inverse_distance_fill(cond[i], mask[i], lam, radius, floor)
            assert out[i].tobytes() == alone.tobytes()
            expected = _fill_oracle(cond[i], mask[i], lam, radius, np.nan)
            uncovered = np.isnan(expected)
            assert (out[i][uncovered] == np.float32(floor)).all()
            np.testing.assert_allclose(out[i][~uncovered], expected[~uncovered],
                                       rtol=0, atol=1e-6)

    def test_short_axes_do_not_crash(self):
        cond = np.zeros((2, 2, 2, 1), np.float32)
        mask = np.zeros((2, 2, 2, 1), np.float32)
        mask[0, 0, 0, 0] = 1.0
        out = inverse_distance_fill(cond, mask, 2.0, 6, 0.0)
        assert out.shape == (2, 2, 2, 1)


PURE_FILL = DenoiserConfig(latent_carryover=0.0)


class TestToyPrediction:
    def test_all_observed_velocity(self):
        g = np.random.default_rng(1)
        cond = g.uniform(-0.9, 0.9, (2, 4, 4, 3)).astype(np.float32)
        z = g.standard_normal((2, 4, 4, 3)).astype(np.float32)
        mask = np.zeros((2, 4, 4, 1), np.float32)
        v = _denoise(ToyDenoiser(PURE_FILL), cond, mask, z=z, t=0.5)
        np.testing.assert_allclose(v.data, (z - cond) / 0.5, atol=1e-6)
        landed = step(VideoTensor(z), v, 0.5, 0.0)  # half-size step over remaining time
        np.testing.assert_allclose(landed.data, cond, atol=1e-6)

    def test_masked_pixel_predicts_surrounding_constant(self):
        cond = np.full((1, 5, 5, 3), 0.3, np.float32)
        mask = np.zeros((1, 5, 5, 1), np.float32)
        mask[0, 2, 2, 0] = 1.0
        cond[0, 2, 2] = 0.0
        z = np.random.default_rng(2).standard_normal((1, 5, 5, 3)).astype(np.float32)
        v = _denoise(ToyDenoiser(PURE_FILL), cond, mask, z=z, t=0.8)
        x0_hat = z - 0.8 * v.data
        np.testing.assert_allclose(x0_hat[0, 2, 2], 0.3, atol=1e-5)

    def test_t_zero_rejected(self):
        cond = np.zeros((1, 4, 4, 3), np.float32)
        with pytest.raises(ScheduleError):
            _denoise(ToyDenoiser(), cond, np.zeros((1, 4, 4, 1), np.float32), t=0.0)


class TestToyDenoiser:
    def test_observed_fixed_point(self):
        g = np.random.default_rng(4)
        cond = g.uniform(-0.9, 0.9, (2, 6, 6, 3)).astype(np.float32)
        mask = np.zeros((2, 6, 6, 1), np.float32)
        den = ToyDenoiser()
        z = VideoTensor(g.standard_normal((2, 6, 6, 3)).astype(np.float32))
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        sched = SampleSchedule(6)
        for s in range(6):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            v = den.denoise(prepared, z, t_from)
            z = step(z, v, t_from, t_to)
        np.testing.assert_allclose(z.data, cond, atol=1e-6)

    def test_zero_carryover_matches_pinned_formula(self):
        g = np.random.default_rng(6)
        cond = g.uniform(-0.5, 0.5, (2, 6, 6, 3)).astype(np.float32)
        mask = (g.uniform(size=(2, 6, 6, 1)) < 0.3).astype(np.float32)
        cond = cond * (1.0 - mask)
        z = g.standard_normal((2, 6, 6, 3)).astype(np.float32)
        got = _denoise(ToyDenoiser(PURE_FILL), cond, mask, z=z, t=0.7)
        # the pinned formula plus the [-1, 1] clamp of the clean estimate
        x0 = inverse_distance_fill(cond, mask, PURE_FILL.lambda_dense,
                                   PURE_FILL.radius, PURE_FILL.fill_floor)
        expected = (z - np.clip(x0, -1.0, 1.0)) / 0.7
        np.testing.assert_allclose(got.data, expected, atol=1e-6)

    def test_carryover_keeps_latent_information(self):
        # two latents that differ only on masked voxels must produce
        # different clean estimates when carryover is enabled
        g = np.random.default_rng(7)
        cond = g.uniform(-0.5, 0.5, (1, 6, 6, 1)).astype(np.float32)
        mask = np.zeros((1, 6, 6, 1), np.float32)
        mask[0, 2:4, 2:4] = 1.0
        cond = cond * (1.0 - mask)
        z_a = g.standard_normal((1, 6, 6, 1)).astype(np.float32)
        z_b = z_a.copy()
        z_b[0, 2, 2, 0] += 1.0
        den = ToyDenoiser(DenoiserConfig(latent_carryover=0.5))
        v_a = _denoise(den, cond, mask, z=z_a, t=0.5)
        v_b = _denoise(den, cond, mask, z=z_b, t=0.5)
        x0_a = z_a - 0.5 * v_a.data
        x0_b = z_b - 0.5 * v_b.data
        assert np.abs(x0_a - x0_b).max() > 1e-3

    @given(frames=st.integers(1, 4), height=st.integers(1, 7), width=st.integers(1, 7),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
           masking=st.sampled_from(["random", "none", "anchor frames", "all anchors"]),
           cond_dtype=st.sampled_from([np.float32, np.float64]),
           z_dtype=st.sampled_from([np.float32, np.float64]),
           carryover=st.sampled_from([0.0, 0.5]), mode=st.sampled_from(MODES))
    @settings(max_examples=80, deadline=None)
    def test_prepared_steps_match_pinned_formula(self, frames, height, width, channels,
                                                 seed, masking, cond_dtype, z_dtype,
                                                 carryover, mode):
        g = np.random.default_rng(seed)
        shape = (frames, height, width, channels)
        cond = g.uniform(-1.2, 1.2, shape).astype(cond_dtype)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.4).astype(np.float32)
        if masking == "none":
            mask[:] = 0.0
        elif masking == "anchor frames":
            mask[g.uniform(size=frames) < 0.5] = 1.0
        elif masking == "all anchors":
            mask[:] = 1.0
        cfg = DenoiserConfig(radius=3, latent_carryover=carryover)
        den = ToyDenoiser(cfg)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask), mode)
        z = VideoTensor(g.standard_normal(shape).astype(z_dtype))
        sched = SampleSchedule(3)
        for s in range(3):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            got = den.denoise(prepared, z, t_from)
            # the pinned formula: fill, latent carryover, clamp
            folded = fold_anchor_frames(prepared.mask.data)
            x0 = inverse_distance_fill(prepared.condition.data, folded,
                                       cfg.temporal_scale(mode), cfg.radius, cfg.fill_floor)
            if carryover > 0.0:
                x0 = x0 + carryover * folded * (_smooth3(z.data) - x0)
            expected = (z.data - np.clip(x0, -1.0, 1.0)) / t_from
            assert got.data.dtype == expected.dtype
            assert got.data.tobytes() == expected.tobytes()
            z = step(z, got, t_from, t_to)

    @given(items=st.integers(1, 4), frames=st.integers(1, 3), height=st.integers(1, 6),
           width=st.integers(1, 6), channels=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1),
           maskings=st.lists(st.sampled_from(["random", "none", "anchor frames",
                                              "all anchors"]), min_size=4, max_size=4),
           cond_dtype=st.sampled_from([np.float32, np.float64]),
           z_dtype=st.sampled_from([np.float32, np.float64]),
           carryover=st.sampled_from([0.0, 0.5]), mode=st.sampled_from(MODES))
    @settings(max_examples=80, deadline=None)
    def test_items_match_one_call_per_item(self, items, frames, height, width, channels,
                                           seed, maskings, cond_dtype, z_dtype, carryover,
                                           mode):
        g = np.random.default_rng(seed)
        shape = (items * frames, height, width, channels)
        cond = g.uniform(-1.2, 1.2, shape).astype(cond_dtype)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.4).astype(np.float32)
        slices = [slice(i * frames, (i + 1) * frames) for i in range(items)]
        for sl, masking in zip(slices, maskings):
            if masking == "none":
                mask[sl] = 0.0
            elif masking == "anchor frames":
                mask[sl][g.uniform(size=frames) < 0.5] = 1.0
            elif masking == "all anchors":
                mask[sl] = 1.0
        den = ToyDenoiser(DenoiserConfig(radius=3, latent_carryover=carryover))
        batched = den.prepare(VideoTensor(cond), MaskVideo(mask), mode, items=items)
        singles = [den.prepare(VideoTensor(cond[sl]), MaskVideo(mask[sl]), mode)
                   for sl in slices]
        z = VideoTensor(g.standard_normal(shape).astype(z_dtype))
        sched = SampleSchedule(2)
        for s in range(2):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            want = np.concatenate([den.denoise(p, VideoTensor(z.data[sl]), t_from).data
                                   for p, sl in zip(singles, slices)])
            got = den.denoise(batched, z, t_from).data
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            z = step(z, den.denoise(batched, z, t_from), t_from, t_to)

    def test_items_must_split_the_frames(self):
        cond = VideoTensor(np.zeros((5, 2, 2, 1), np.float32))
        with pytest.raises(ShapeError):
            ToyDenoiser().prepare(cond, MaskVideo(np.zeros((5, 2, 2, 1), np.float32)),
                                  items=2)

    def test_prepared_state_is_immutable(self):
        cond = np.full((1, 4, 4, 1), 0.3, np.float32)
        mask = np.zeros((1, 4, 4, 1), np.float32)
        mask[0, 1, 1, 0] = 1.0
        prepared = ToyDenoiser().prepare(VideoTensor(cond), MaskVideo(mask))
        for arr in (prepared.x0, prepared.carry):
            with pytest.raises(ValueError):
                arr[0, 0, 0, 0] = 1.0

    def test_nothing_masked_skips_fill_and_average(self):
        cond = np.random.default_rng(11).uniform(-0.5, 0.5, (2, 4, 4, 3))
        prepared = ToyDenoiser().prepare(VideoTensor(cond),
                                         MaskVideo(np.ones((2, 4, 4, 1), np.float32)))
        assert prepared.carry is None
        assert prepared.x0.dtype == np.float32
        np.testing.assert_array_equal(prepared.x0, cond.astype(np.float32))

    def test_prepare_validates(self):
        cond = VideoTensor(np.zeros((1, 4, 4, 3), np.float32))
        with pytest.raises(ShapeError):
            ToyDenoiser().prepare(cond, MaskVideo(np.zeros((1, 4, 5, 1), np.float32)))
        with pytest.raises(ValueError):
            ToyDenoiser().prepare(cond, MaskVideo(np.zeros((1, 4, 4, 1), np.float32)),
                                  "fast")

    def test_cache_consistency(self):
        # repeated steps on one condition agree bit for bit, whether each step
        # gets its own prepared state or all share one
        g = np.random.default_rng(8)
        cond = g.uniform(-0.5, 0.5, (1, 6, 6, 1)).astype(np.float32)
        mask = (g.uniform(size=(1, 6, 6, 1)) < 0.3).astype(np.float32)
        cond = cond * (1.0 - mask)
        den = ToyDenoiser()
        z = g.standard_normal((1, 6, 6, 1)).astype(np.float32)
        first = _denoise(den, cond, mask, z=z, t=0.5)
        second = _denoise(den, cond, mask, z=z, t=0.5)
        np.testing.assert_array_equal(first.data, second.data)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        for _ in range(2):
            np.testing.assert_array_equal(den.denoise(prepared, VideoTensor(z), 0.5).data,
                                          first.data)


class TestAnchorFolding:
    def test_full_frames_become_observed(self):
        mask = np.zeros((3, 4, 4, 1), np.float32)
        mask[1] = 1.0
        mask[2, 0, 0, 0] = 1.0
        out = fold_anchor_frames(mask)
        assert not out[1].any()
        assert out[2, 0, 0, 0] == 1.0
        assert not out[0].any()

    def test_no_full_frames_is_identity(self):
        mask = np.zeros((2, 4, 4, 1), np.float32)
        mask[0, 0, 0, 0] = 1.0
        assert fold_anchor_frames(mask) is mask

    def test_trusted_frame_content_used(self):
        # a frame marked all-ones with content in the condition acts as an
        # observed source for neighboring masked voxels
        cond = np.zeros((2, 3, 3, 1), np.float32)
        cond[1] = 0.6
        mask = np.zeros((2, 3, 3, 1), np.float32)
        mask[0, 1, 1, 0] = 1.0
        mask[1] = 1.0
        den = ToyDenoiser(DenoiserConfig(lambda_dense=1.0, radius=3,
                                         latent_carryover=0.0))
        z = np.zeros((2, 3, 3, 1), np.float32)
        v = _denoise(den, cond, mask, z=z, t=1.0)
        x0 = z - 1.0 * v.data
        assert x0[0, 1, 1, 0] > 0.0  # pulled toward the trusted frame's 0.6


class TestTrainingLoss:
    def test_toy_beats_zero_velocity_baseline(self):
        for seed in range(10):
            case = rng.normals(seed, "loss-case", (2, 6, 6, 3)) * 0.4
            x0 = VideoTensor(np.clip(case, -1, 1))
            eps = VideoTensor(rng.normals(seed, "loss-eps", (2, 6, 6, 3)))
            t = 0.5
            z = VideoTensor((1 - t) * x0.data + t * eps.data)
            mask = MaskVideo(np.zeros((2, 6, 6, 1), np.float32))
            v_star = velocity_target(x0, eps).data.astype(np.float64)
            den = ToyDenoiser()
            v_hat = den.denoise(den.prepare(x0, mask), z, t).data.astype(np.float64)
            # mean squared velocity error, against predicting zero velocity
            assert np.mean((v_hat - v_star) ** 2) < np.mean(v_star ** 2)
