"""Toy denoiser: neighborhood fill oracle, fixed points, prepared conditioning, velocity error."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import NarrowingDenoiser
from outpainter import denoiser as dmod
from outpainter import rng
from outpainter.denoiser import (MODES, DenoiserConfig, ToyDenoiser, _kernel_spectrum,
                                 inverse_distance_fill)
from outpainter.sampler import SampleSchedule, ScheduleError, step, velocity_target
from outpainter.tiling import SpatiallyTiledDenoiser, plan
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


def _shifted_slices(n, off):
    # destination and source slices so that dst[i] reads src[i + off]
    if off >= 0:
        return slice(0, n - off), slice(off, n)
    return slice(-off, n), slice(0, n + off)


def _smooth3(z, dtype=np.float32):
    """The pinned latent average: an edge-aware 3x3 within-frame mean, as
    nine shifted-slice adds in (dy, dx) order, from +0.0, of z rounded to
    `dtype`, over a `dtype` neighbour count, then cast to z's dtype.  The
    denoiser computes it in float32; float64 is the formula it replaced."""
    f, h, w, c = z.shape
    src = z.astype(dtype, copy=False)
    acc = np.zeros(z.shape, dtype=dtype)
    cnt = np.zeros((1, h, w, 1), dtype=dtype)
    ones = np.ones((1, h, w, 1), dtype=dtype)
    for dy in (-1, 0, 1):
        if abs(dy) >= h:
            continue
        yd, ys = _shifted_slices(h, dy)
        for dx in (-1, 0, 1):
            if abs(dx) >= w:
                continue
            xd, xs = _shifted_slices(w, dx)
            acc[:, yd, xd] += src[:, ys, xs]
            cnt[:, yd, xd] += ones[:, ys, xs]
    acc /= cnt
    return acc.astype(z.dtype, copy=False)


def _pinned_velocity(cond, mask, z, t, cfg, mode, average=np.float32):
    """The pinned formula: fill, latent carryover with the latent average
    taken in `average` precision, clamp, (z - x0) / t."""
    x0 = inverse_distance_fill(cond, mask, cfg.temporal_scale(mode), cfg.radius,
                               cfg.fill_floor)
    if cfg.latent_carryover > 0.0:
        x0 = x0 + cfg.latent_carryover * mask * (_smooth3(z, average) - x0)
    return (z - np.clip(x0, -1.0, 1.0)) / t


def _denoise(den, condition, mask, z=None, t=0.5, mode="dense"):
    """Prepare `condition` and `mask`, then denoise one step of `z` at `t`."""
    if z is None:
        z = np.zeros_like(condition)
    prepared = den.prepare(VideoTensor(condition), MaskVideo(mask), mode)
    return den.denoise(prepared, z, t)


class TestRequest:
    def test_shape_validation(self):
        cond = np.zeros((1, 4, 4, 3), np.float32)
        prepared = ToyDenoiser().prepare(VideoTensor(cond),
                                         MaskVideo(np.zeros((1, 4, 4, 1), np.float32)))
        with pytest.raises(ShapeError):
            ToyDenoiser().denoise(prepared, np.zeros((1, 4, 5, 3), np.float32), 0.5)
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
        # the kernel's non-zero entries are the ball clipped to the item,
        # each weighted 1/d^2, read back from its spectrum (an index past the
        # half of its padded axis is a negative offset)
        def kernel_weights(radius, lam, shape):
            spectrum, size, smallest = _kernel_spectrum(radius, lam, shape)
            kernel = np.fft.irfftn(spectrum, s=size, axes=(0, 1, 2))
            return {tuple(int(i) if i <= n // 2 else int(i) - n for i, n in zip(idx, size)):
                    kernel[idx] for idx in zip(*np.nonzero(np.abs(kernel) > 1e-9))}, smallest

        for radius, lam, shape in [(6, 2.0, (3, 4, 5)), (6, 2.0, (9, 13, 13)),
                                   (4, 0.5, (6, 3, 7)), (3, 8.0, (5, 9, 9)),
                                   (1, 1.0, (1, 1, 1)), (16, 15.9, (2, 2, 3))]:
            f, h, w = shape
            want = {}
            for df in range(-f + 1, f):
                for dy in range(-h + 1, h):
                    for dx in range(-w + 1, w):
                        d2 = (lam * df) ** 2 + dy * dy + dx * dx
                        if 0.0 < d2 <= radius ** 2:
                            want[df, dy, dx] = 1.0 / d2
            got, smallest = kernel_weights(radius, lam, shape)
            assert got.keys() == want.keys()
            np.testing.assert_allclose([got[k] for k in want], list(want.values()), rtol=1e-9)
            assert smallest == min(want.values(), default=1.0)
        # a radius far beyond the item enumerates only what fits
        got, _ = kernel_weights(10 ** 9, 0.5, (2, 2, 3))
        assert len(got) == 3 * 3 * 5 - 1
        assert _kernel_spectrum(10 ** 9, 0.5, (2, 2, 3))[1] == (3, 3, 5)

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

    @given(items=st.integers(1, 3), frames=st.integers(1, 6), height=st.integers(1, 7),
           width=st.integers(1, 7), channels=st.integers(1, 3), radius=st.integers(1, 16),
           lam=st.floats(0.5, 8.0),
           maskings=st.lists(st.sampled_from(["random", "all ones", "all zeros"]),
                             min_size=3, max_size=3),
           floor=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 17), min_size=1, max_size=6),
           budget=st.sampled_from([1, dmod.FILL_GROUP_BYTES]))
    # the empty ball: one pixel a frame and a frame step beyond the radius
    @example(items=2, frames=3, height=1, width=1, channels=2, radius=1, lam=2.0,
             maskings=["random"] * 3, floor=0.5, seed=0, picks=[0, 4, 4], budget=1)
    # reach 0: frames fill from their own frame alone; one row picked twice
    @example(items=1, frames=4, height=5, width=6, channels=3, radius=3, lam=4.0,
             maskings=["random"] * 3, floor=-0.25, seed=1, picks=[2, 1, 2], budget=1 << 18)
    # a blank item and a fully observed one beside a random one, every row
    @example(items=3, frames=2, height=4, width=3, channels=1, radius=4, lam=1.5,
             maskings=["all ones", "all zeros", "random"], floor=0.75, seed=2,
             picks=[0, 1, 2, 3, 4, 5], budget=1)
    @settings(max_examples=60, deadline=None)
    def test_rows_fill_as_the_whole(self, items, frames, height, width, channels, radius,
                                    lam, maskings, floor, seed, picks, budget):
        """`inverse_distance_fill(..., rows=R)` puts `floor` on exactly the
        voxels where the whole fill's rows R have it, as the oracle cannot
        reach them, and elsewhere is within a float32 ulp of those rows and
        within 1e-6 of the oracle, whatever the chunks' budget."""
        g = np.random.default_rng(seed)
        shape = (items, frames, height, width)
        cond = g.uniform(-1.0, 1.0, shape + (channels,)).astype(np.float32)
        mask = (g.uniform(size=shape + (1,)) < 0.5).astype(np.float32)
        for i, masking in enumerate(maskings[:items]):
            if masking != "random":
                mask[i] = 1.0 if masking == "all ones" else 0.0
        rows = [p % (items * frames) for p in picks]
        whole = inverse_distance_fill(cond, mask, lam, radius, floor)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dmod, "FILL_GROUP_BYTES", budget)
            got = inverse_distance_fill(cond, mask, lam, radius, floor, rows=rows)
        want = whole.reshape((-1,) + whole.shape[2:])[rows]
        expected = np.concatenate([_fill_oracle(cond[i], mask[i], lam, radius, np.nan)
                                   for i in range(items)])[rows]
        uncovered = np.isnan(expected)
        assert (got[uncovered] == np.float32(floor)).all()
        assert (want[uncovered] == np.float32(floor)).all()
        _within_an_ulp(got[~uncovered], want[~uncovered])
        np.testing.assert_allclose(got[~uncovered], expected[~uncovered], rtol=0, atol=1e-6)

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
        np.testing.assert_allclose(v, (z - cond) / 0.5, atol=1e-6)
        landed = step(z, v, 0.5, 0.0)  # half-size step over remaining time
        np.testing.assert_allclose(landed, cond, atol=1e-6)

    def test_masked_pixel_predicts_surrounding_constant(self):
        cond = np.full((1, 5, 5, 3), 0.3, np.float32)
        mask = np.zeros((1, 5, 5, 1), np.float32)
        mask[0, 2, 2, 0] = 1.0
        cond[0, 2, 2] = 0.0
        z = np.random.default_rng(2).standard_normal((1, 5, 5, 3)).astype(np.float32)
        v = _denoise(ToyDenoiser(PURE_FILL), cond, mask, z=z, t=0.8)
        x0_hat = z - 0.8 * v
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
        z = g.standard_normal((2, 6, 6, 3)).astype(np.float32)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        sched = SampleSchedule(6, 0)
        for s in range(6):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            v = den.denoise(prepared, z, t_from)
            z = step(z, v, t_from, t_to)
        np.testing.assert_allclose(z, cond, atol=1e-6)

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
        np.testing.assert_allclose(got, expected, atol=1e-6)

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
        x0_a = z_a - 0.5 * v_a
        x0_b = z_b - 0.5 * v_b
        assert np.abs(x0_a - x0_b).max() > 1e-3

    @given(frames=st.integers(1, 4), height=st.integers(1, 7), width=st.integers(1, 7),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
           masking=st.sampled_from(["random", "none", "blank frames", "all blank"]),
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
        elif masking == "blank frames":
            mask[g.uniform(size=frames) < 0.5] = 1.0
        elif masking == "all blank":
            mask[:] = 1.0
        cfg = DenoiserConfig(radius=3, latent_carryover=carryover)
        den = ToyDenoiser(cfg)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask), mode)
        z = g.standard_normal(shape).astype(z_dtype)
        sched = SampleSchedule(3, 0)
        for s in range(3):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            got = den.denoise(prepared, z, t_from)
            expected = _pinned_velocity(cond, prepared.mask.data, z, t_from, cfg, mode)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            z = step(z, got, t_from, t_to)

    @given(rows=st.integers(2, 4), blocks=st.integers(1, 3), rest=st.integers(1, 3),
           slack=st.floats(0.0, 0.99), height=st.integers(1, 6), width=st.integers(1, 6),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
           z_dtype=st.sampled_from([np.float32, np.float64]), zero_frames=st.booleans())
    @example(rows=3, blocks=2, rest=1, slack=0.5, height=1, width=5, channels=3, seed=0,
             z_dtype=np.float32, zero_frames=True)
    @example(rows=2, blocks=1, rest=1, slack=0.0, height=4, width=1, channels=1, seed=1,
             z_dtype=np.float64, zero_frames=False)
    @settings(max_examples=60, deadline=None)
    def test_frame_blocks_match_pinned_formula(self, rows, blocks, rest, slack, height, width,
                                               channels, seed, z_dtype, zero_frames):
        """A call that spans several frame blocks, the last one partial,
        equals the pinned formula byte for byte."""
        frames = rows * blocks + min(rest, rows - 1)
        g = np.random.default_rng(seed)
        shape = (frames, height, width, channels)
        cond = g.uniform(-1.2, 1.2, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.6).astype(np.float32)
        cfg = DenoiserConfig(radius=3)
        den = ToyDenoiser(cfg)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        z = g.standard_normal(shape).astype(z_dtype)
        if zero_frames:
            z[::2] = -0.0  # frames of negative zeros keep their sign as in the formula
        plane = 4 * (height + 2) * (width + 2) * channels  # bytes of one padded frame
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dmod, "BLOCK_BYTES", int(plane * (rows + slack)))
            got = den.denoise(prepared, z, 0.8)
        expected = _pinned_velocity(cond, mask, z, 0.8, cfg, "dense")
        assert got.dtype == expected.dtype == z_dtype
        assert got.tobytes() == expected.tobytes()
        assert den.denoise(prepared, z, 0.8).tobytes() == got.tobytes()

    @given(frames=st.integers(1, 5), height=st.integers(1, 7), width=st.integers(1, 7),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
           masking=st.sampled_from(["random", "none", "blank frames"]),
           z_dtype=st.sampled_from([np.float32, np.float64]),
           scale=st.sampled_from([0.01, 1.0, 40.0]), zero_frames=st.booleans(),
           carryover=st.sampled_from([0.0, 0.5, 0.99]), t=st.sampled_from([1.0, 0.55, 0.025]))
    @example(frames=2, height=3, width=3, channels=3, seed=0, masking="blank frames",
             z_dtype=np.float64, scale=40.0, zero_frames=True, carryover=0.99, t=0.025)
    @settings(max_examples=80, deadline=None)
    def test_float32_average_stays_within_its_rounding_bound(self, frames, height, width,
                                                              channels, seed, masking, z_dtype,
                                                              scale, zero_frames, carryover, t):
        """The denoiser's velocity v, whose latent average is float32, against
        v64 from the same formula with the average in float64: |t (v - v64)|
        <= (gamma10(u) + u_d + gamma10(u64) + 23 u_d) A, where u = 2^-24,
        u64 = 2^-53, u_d is the unit roundoff of z's dtype, gamma_k(u) =
        k u / (1 - k u), M = max|z| and A = max(M, max|x0|, 1).

        - The float32 average s: each z is rounded to float32 once, then
          goes through at most eight rounded adds and one rounded divide by
          an exact count, ten relative errors of at most u each, so
          |s - s*| <= gamma10(u) M against the exact mean s*.
        - The float64 average s64 does the same in float64 and is rounded to
          z's dtype: |s64 - s*| <= (u_d + gamma10(u64)) M.
        - Both then run the same rounded ops in z's dtype: e = x0 + c (s -
          x0) with 0 <= c < 1, clamped to [-1, 1], then (z - e) / t.  The
          exact e moves by c |s - s64| <= |s - s64|, and the clamp does not
          widen that.  Each side's own roundings add at most u_d times the
          exact results: 2.02 A, 2.02 A and 3.03 A for the three ops of e
          (as |s| <= 1.01 A), 2 A for z - e (as |e| <= 1) and 2.01 A for the
          divide once multiplied back by t; 11.1 u_d A per side, 23 u_d A for
          both, with room for the float64 subtraction and product that form
          t (v - v64) here.

        With carry off, or nothing masked, the average is unused and v ==
        v64 byte for byte.  Frames of -0.0 are included."""
        g = np.random.default_rng(seed)
        shape = (frames, height, width, channels)
        cond = g.uniform(-1.2, 1.2, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.5).astype(np.float32)
        if masking == "none":
            mask[:] = 0.0
        elif masking == "blank frames":
            mask[g.uniform(size=frames) < 0.5] = 1.0
        cfg = DenoiserConfig(radius=3, latent_carryover=carryover)
        den = ToyDenoiser(cfg)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        z = (scale * g.standard_normal(shape)).astype(z_dtype)
        if zero_frames:
            z[::2] = -0.0
        v = den.denoise(prepared, z, t)
        v64 = _pinned_velocity(cond, mask, z, t, cfg, "dense", average=np.float64)
        assert v.dtype == v64.dtype == z_dtype
        if prepared.carry is None:
            assert v.tobytes() == v64.tobytes()
            return
        u, u64 = 2.0 ** -24, 2.0 ** -53
        u_d = u if z_dtype == np.float32 else u64
        gamma10, gamma10_64 = 10 * u / (1 - 10 * u), 10 * u64 / (1 - 10 * u64)
        a = max(float(np.abs(z).max()), float(np.abs(prepared.x0).max()), 1.0)
        bound = (gamma10 + u_d + gamma10_64 + 23 * u_d) * a
        deviation = float(np.abs(t * (v.astype(np.float64) - v64)).max())
        assert deviation <= bound

    @given(items=st.integers(1, 4), frames=st.integers(1, 3), height=st.integers(1, 6),
           width=st.integers(1, 6), channels=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1),
           maskings=st.lists(st.sampled_from(["random", "none", "blank frames",
                                              "all blank"]), min_size=4, max_size=4),
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
            elif masking == "blank frames":
                mask[sl][g.uniform(size=frames) < 0.5] = 1.0
            elif masking == "all blank":
                mask[sl] = 1.0
        den = ToyDenoiser(DenoiserConfig(radius=3, latent_carryover=carryover))
        batched = den.prepare(VideoTensor(cond), MaskVideo(mask), mode, items=items)
        singles = [den.prepare(VideoTensor(cond[sl]), MaskVideo(mask[sl]), mode)
                   for sl in slices]
        z = g.standard_normal(shape).astype(z_dtype)
        sched = SampleSchedule(2, 0)
        for s in range(2):
            t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
            want = np.concatenate([den.denoise(p, z[sl], t_from)
                                   for p, sl in zip(singles, slices)])
            got = den.denoise(batched, z, t_from)
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
                                         MaskVideo(np.zeros((2, 4, 4, 1), np.float32)))
        assert prepared.carry is None
        assert prepared.x0.dtype == np.float32
        np.testing.assert_array_equal(prepared.x0, cond.astype(np.float32))

    def test_blank_frame_is_filled(self):
        """A wholly masked frame of a partly observed item is generated: its
        clean estimate is the fill from the observed frames, not its blank
        condition, and steps carry the latent over on it."""
        g = np.random.default_rng(12)
        cond = g.uniform(0.5, 0.7, (3, 4, 4, 3)).astype(np.float32)
        cond[1] = 0.0
        mask = np.zeros((3, 4, 4, 1), np.float32)
        mask[1] = 1.0
        cfg = DenoiserConfig(lambda_dense=1.0, radius=3)
        prepared = ToyDenoiser(cfg).prepare(VideoTensor(cond), MaskVideo(mask))
        fill = inverse_distance_fill(cond, mask, 1.0, 3, cfg.fill_floor)
        assert prepared.x0.tobytes() == fill.tobytes()
        assert (prepared.x0[1] >= 0.5).all()
        assert (prepared.carry[1] == cfg.latent_carryover).all() and not prepared.carry[0].any()

    @pytest.mark.parametrize("floor", [-0.75, 0.0, 0.5])
    def test_unobserved_item_is_its_fill_without_a_transform(self, monkeypatch, floor):
        """An item with no observed voxel gets what `inverse_distance_fill`
        makes of it, byte for byte, without handing it to the fill."""
        g = np.random.default_rng(13)
        cond = g.uniform(-0.9, 0.9, (2 * 3, 4, 5, 3)).astype(np.float32)
        mask = np.ones((2 * 3, 4, 5, 1), np.float32)
        mask[0, 1:3, 1:4] = 0.0  # the first item is partly observed
        cfg = DenoiserConfig(radius=3, fill_floor=floor)
        filled = []
        real = dmod.inverse_distance_fill
        monkeypatch.setattr(dmod, "inverse_distance_fill",
                            lambda c, *a: filled.append(len(c)) or real(c, *a))
        prepared = ToyDenoiser(cfg).prepare(VideoTensor(cond), MaskVideo(mask), items=2)
        assert filled == [1]
        for item in (slice(0, 3), slice(3, 6)):
            want = real(cond[item], mask[item], cfg.lambda_dense, cfg.radius, floor)
            assert prepared.x0[item].tobytes() == want.tobytes()
        assert (prepared.x0[3:] == np.float32(floor)).all()
        assert (prepared.carry == cfg.latent_carryover * mask).all()

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
        np.testing.assert_array_equal(first, second)
        prepared = den.prepare(VideoTensor(cond), MaskVideo(mask))
        for _ in range(2):
            np.testing.assert_array_equal(den.denoise(prepared, z, 0.5), first)


def _within_an_ulp(got, want):
    """Every float32 of `got` is `want`'s, or one of its neighbours."""
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert (np.abs(got.astype(np.float64) - want) <= np.spacing(np.abs(want))).all()


class TestRows:
    @given(items=st.integers(1, 3), maskings=st.permutations(["random", "none", "all blank"]),
           frames=st.integers(1, 3), height=st.integers(1, 7), width=st.integers(1, 7),
           channels=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1),
           picks=st.lists(st.integers(0, 8), min_size=1, max_size=5),
           carryover=st.sampled_from([0.0, 0.5]), mode=st.sampled_from(MODES),
           z_dtype=st.sampled_from([np.float32, np.float64]), adapter=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_rows_denoise_as_the_whole(self, items, maskings, frames, height, width, channels,
                                       seed, picks, carryover, mode, z_dtype, adapter):
        """A state prepared for rows `idx` is the whole state narrowed to
        them: its mask, carry and items byte for byte, and its `x0` within a
        float32 ulp, with the toy denoiser and through the spatial adapter,
        on items with something, nothing or everything masked, with carry on
        and off, and with a frame picked twice.  The whole state narrowed to
        `idx` denoises `z[idx]` as the whole denoises `z` and takes `idx`,
        byte for byte."""
        g = np.random.default_rng(seed)
        shape = (items * frames, height, width, channels)
        cond = g.uniform(-1.2, 1.2, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.4).astype(np.float32)
        for i, masking in enumerate(maskings[:items]):
            if masking != "random":
                mask[i * frames:(i + 1) * frames] = float(masking == "all blank")
        toy = ToyDenoiser(DenoiserConfig(radius=3, latent_carryover=carryover))
        den, whole = toy, NarrowingDenoiser(toy)
        if adapter:
            spatial = plan((1, height, width), 1, 4, 5, 0, 2, 2)
            den, whole = (SpatiallyTiledDenoiser(d, spatial) for d in (den, whole))
        idx = [p % shape[0] for p in picks + picks[:1]]
        got, want = (d.prepare(VideoTensor(cond), MaskVideo(mask), mode, items=items, rows=idx)
                     for d in (den, whole))
        if adapter:
            assert got.plan == want.plan
            assert [tiles for tiles, _ in got.parts] == [tiles for tiles, _ in want.parts]
        for a, b in zip(*([part for _, part in p.parts] if adapter else [p]
                          for p in (got, want))):
            assert a.items == b.items and a.mask.data.tobytes() == b.mask.data.tobytes()
            assert (a.carry is None) == (b.carry is None)
            assert a.carry is None or a.carry.tobytes() == b.carry.tobytes()
            _within_an_ulp(a.x0, b.x0)
        prepared = whole.prepare(VideoTensor(cond), MaskVideo(mask), mode, items=items)
        z = g.standard_normal(shape).astype(z_dtype)
        z.flags.writeable = False
        rows = z[idx]
        rows.flags.writeable = False
        for t in (0.9, 0.3):
            want_v = whole.denoise(prepared, z, t)[idx]
            got_v = whole.denoise(want, rows, t)
            assert got_v.dtype == want_v.dtype and got_v.tobytes() == want_v.tobytes()


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
            v_hat = den.denoise(den.prepare(x0, mask), z.data, t).astype(np.float64)
            # mean squared velocity error, against predicting zero velocity
            assert np.mean((v_hat - v_star) ** 2) < np.mean(v_star ** 2)
