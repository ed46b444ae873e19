"""Flow schedule, noise injection, Euler stepping, and rng streams."""
import numpy as np
import pytest

from outpainter import rng
from outpainter.sampler import SampleSchedule, ScheduleError, add_noise, step, velocity_target
from outpainter.video import VideoTensor


def _pair(seed=0, shape=(2, 4, 4, 3)):
    g = np.random.default_rng(seed)
    x0 = VideoTensor(g.uniform(-0.9, 0.9, shape).astype(np.float32))
    eps = VideoTensor(g.standard_normal(shape).astype(np.float32))
    return x0, eps


class TestSchedule:
    def test_times_grid(self):
        sched = SampleSchedule(4, 0)
        np.testing.assert_allclose(sched.times, [1.0, 0.75, 0.5, 0.25, 0.0])
        assert sched.times[0] == 1.0 and sched.times[-1] == 0.0

    def test_strictly_decreasing(self):
        sched = SampleSchedule(40, 8)
        assert (np.diff(sched.times) < 0).all()

    def test_equal_schedules_compare_and_hash_equal(self):
        assert SampleSchedule(2, 0) == SampleSchedule(2, 0)
        assert hash(SampleSchedule(2, 0)) == hash(SampleSchedule(2, 0))
        assert SampleSchedule(4, 1) != SampleSchedule(4, 2)
        assert len({SampleSchedule(3, 1), SampleSchedule(3, 1), SampleSchedule(3, 0)}) == 2

    def test_invalid_params(self):
        with pytest.raises(ScheduleError):
            SampleSchedule(0, 0)
        with pytest.raises(ScheduleError):
            SampleSchedule(4, 5)
        with pytest.raises(ScheduleError):
            SampleSchedule(4, -1)


class TestAddNoise:
    def test_endpoints(self):
        x0, eps = _pair()
        np.testing.assert_array_equal(add_noise(x0, eps, 0.0).data, x0.data)
        np.testing.assert_array_equal(add_noise(x0, eps, 1.0).data, eps.data)

    def test_midpoint_formula(self):
        x0 = VideoTensor(np.zeros((1, 2, 2, 1), np.float32))
        eps = VideoTensor(np.full((1, 2, 2, 1), 2.0, np.float32))
        np.testing.assert_allclose(add_noise(x0, eps, 0.5).data, 1.0)

    def test_t_out_of_range(self):
        x0, eps = _pair()
        with pytest.raises(ScheduleError):
            add_noise(x0, eps, 1.5)

    def test_derivative_is_velocity_target(self):
        x0, eps = _pair(seed=4)
        h = 1e-4
        fd = (add_noise(x0, eps, 0.5 + h).data.astype(np.float64)
              - add_noise(x0, eps, 0.5 - h).data.astype(np.float64)) / (2 * h)
        np.testing.assert_allclose(fd, velocity_target(x0, eps).data, atol=1e-3)


class TestVelocityTarget:
    def test_equal_inputs_zero(self):
        x0, _ = _pair()
        assert not velocity_target(x0, x0).data.any()

    def test_constant_case(self):
        x0 = VideoTensor(np.ones((1, 2, 2, 1), np.float32))
        eps = VideoTensor(np.zeros((1, 2, 2, 1), np.float32))
        np.testing.assert_allclose(velocity_target(x0, eps).data, -1.0)


class TestStep:
    def test_single_exact_step(self):
        x0, eps = _pair(seed=1)
        v = velocity_target(x0, eps)
        z0 = step(eps.data, v.data, 1.0, 0.0)
        np.testing.assert_allclose(z0, x0.data, atol=1e-6)

    @pytest.mark.parametrize("total", [1, 4, 40])
    def test_multi_step_descent(self, total):
        x0, eps = _pair(seed=total)
        v = velocity_target(x0, eps)
        sched = SampleSchedule(total, 0)
        z = eps.data
        for s in range(total):
            z = step(z, v.data, float(sched.times[s]), float(sched.times[s + 1]))
        np.testing.assert_allclose(z, x0.data, atol=1e-6)

    def test_zero_velocity_identity(self):
        _, eps = _pair()
        zero = np.zeros(eps.shape, np.float32)
        np.testing.assert_array_equal(step(eps.data, zero, 1.0, 0.5), eps.data)

    def test_wrong_direction_rejected(self):
        x0, eps = _pair()
        with pytest.raises(ScheduleError):
            step(eps.data, x0.data, 0.5, 0.5)


class TestRngStreams:
    def test_label_independence(self):
        a = rng.normals(3, "alpha", (64,))
        b = rng.normals(3, "beta", (64,))
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        np.testing.assert_array_equal(rng.normals(5, "x", (2, 3)),
                                      rng.normals(5, "x", (2, 3)))

    def test_uniform_range(self):
        u = rng.uniforms(1, "u", 1000)
        assert u.min() > 0.0 and u.max() <= 1.0

    @pytest.mark.parametrize("n", [1, 7, 2 * rng.NORMAL_BLOCK - 1, 2 * rng.NORMAL_BLOCK,
                                   2 * rng.NORMAL_BLOCK + 1])
    def test_blocked_normals_equal_one_shot_box_muller(self, n):
        # the whole field's Box-Muller pairs drawn at once: cosines, then sines
        pairs = (n + 1) // 2
        r = np.sqrt(-2.0 * np.log(rng.uniforms(8, "blk/u1", pairs)))
        theta = 2.0 * np.pi * rng.uniforms(8, "blk/u2", pairs)
        want = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].astype(np.float32)
        got = rng.normals(8, "blk", (n,))
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_small_blocks_keep_the_field(self, monkeypatch):
        want = {n: rng.normals(6, "s", (n,)) for n in range(1, 30)}
        monkeypatch.setattr(rng, "NORMAL_BLOCK", 3)
        for n, field in want.items():
            assert rng.normals(6, "s", (n,)).tobytes() == field.tobytes()

    def test_uniforms_from_an_offset_continue_the_stream(self):
        whole = rng.uniforms(2, "o", 50)
        assert rng.uniforms(2, "o", 20, start=30).tobytes() == whole[30:].tobytes()

    def test_normals_moments(self):
        z = rng.normals(2, "m", (20000,))
        assert abs(float(z.mean())) < 0.05
        assert abs(float(z.std()) - 1.0) < 0.05
