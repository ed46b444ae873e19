"""PSNR/SSIM oracles, seam energy, revisit consistency, report schema."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpainter.metrics import (RegionError, psnr, report,
                                revisit_consistency, seam_energy, ssim)
from outpainter.scene import CameraKey, CaseGeometry, SceneSpec, make_case
from outpainter.tiling import plan, blend
from outpainter.video import MaskVideo, VideoTensor


def _psnr_oracle(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(4.0 / mse)


def _ssim_oracle(a, b):
    """Direct sliding-window implementation, 8x8 uniform windows."""
    c1 = (0.01 * 2.0) ** 2
    c2 = (0.03 * 2.0) ** 2
    ga = a.astype(np.float64).mean(axis=3)
    gb = b.astype(np.float64).mean(axis=3)
    scores = []
    for fa, fb in zip(ga, gb):
        h, w = fa.shape
        vals = []
        for i in range(h - 7):
            for j in range(w - 7):
                wa = fa[i:i + 8, j:j + 8]
                wb = fb[i:i + 8, j:j + 8]
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a = (wa * wa).mean() - mu_a ** 2
                var_b = (wb * wb).mean() - mu_b ** 2
                cov = (wa * wb).mean() - mu_a * mu_b
                vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                            / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
        scores.append(np.mean(vals))
    return float(np.mean(scores))


def _video(shape, seed):
    g = np.random.default_rng(seed)
    return VideoTensor(g.uniform(-1, 1, shape).astype(np.float32))


class TestPsnr:
    def test_identical_is_infinite(self):
        v = _video((2, 8, 8, 3), 0)
        assert psnr(v, v) == math.inf

    def test_closed_form_20db(self):
        a = VideoTensor(np.zeros((1, 8, 8, 1), np.float32))
        b = VideoTensor(np.full((1, 8, 8, 1), 0.2, np.float32))
        # float32 cannot hold 0.2 exactly, so allow representation error
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-6)

    def test_matches_oracle(self):
        for seed in range(10):
            a = _video((2, 8, 8, 3), seed)
            b = _video((2, 8, 8, 3), seed + 100)
            assert psnr(a, b) == pytest.approx(_psnr_oracle(a.data, b.data), abs=1e-9)

    def test_region_selection(self):
        a = _video((1, 4, 4, 1), 1)
        b = VideoTensor(a.data.copy().copy())
        data = b.data.copy()
        mask = np.zeros((1, 4, 4, 1), np.float32)
        mask[0, :, 2:] = 1.0
        data[0, :, 2:] += 0.5
        b = VideoTensor(np.clip(data, -1, 1))
        m = MaskVideo(mask)
        assert psnr(a, b, m.data == 0.0) == math.inf
        assert math.isfinite(psnr(a, b, m.data > 0.0))

    def test_empty_region_rejected(self):
        a = _video((1, 4, 4, 1), 2)
        m = MaskVideo(np.zeros((1, 4, 4, 1), np.float32))
        with pytest.raises(RegionError):
            psnr(a, a, m.data > 0.0)


class TestSsim:
    def test_identical_is_one(self):
        v = _video((2, 10, 10, 3), 3)
        assert ssim(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_constant_offset_closed_form(self):
        mu_a, mu_b = 0.3, 0.5
        a = VideoTensor(np.full((1, 8, 8, 1), mu_a, np.float32))
        b = VideoTensor(np.full((1, 8, 8, 1), mu_b, np.float32))
        c1 = (0.01 * 2.0) ** 2
        expected = (2 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1)
        assert ssim(a, b) == pytest.approx(expected, abs=1e-6)

    def test_matches_sliding_window_oracle(self):
        for seed in range(5):
            a = _video((1, 16, 16, 3), seed)
            b = _video((1, 16, 16, 3), seed + 50)
            assert ssim(a, b) == pytest.approx(_ssim_oracle(a.data, b.data), abs=1e-6)

    def test_too_small_rejected(self):
        v = _video((1, 4, 4, 1), 4)
        with pytest.raises(Exception):
            ssim(v, v)


class TestSeamEnergy:
    def test_linear_ramp_is_zero(self):
        ramp = np.linspace(-0.9, 0.9, 16, dtype=np.float32)
        v = VideoTensor(np.broadcast_to(ramp[None, None, :, None],
                                        (4, 16, 16, 1)).copy())
        p = plan((4, 16, 16), 4, 8, 8, 0, 2, 2)
        assert seam_energy(v, p) == pytest.approx(0.0, abs=1e-12)

    def test_single_tile_has_no_seam(self):
        p = plan((2, 8, 8), 2, 8, 8, 0, 0, 0)
        assert seam_energy(_video((2, 8, 8, 3), seed=1), p) == 0.0

    def test_distinct_tile_constants_positive(self):
        p = plan((1, 16, 16), 1, 8, 8, 0, 0, 0)
        data = np.zeros((1, 16, 16, 1), np.float32)
        data[0, :, 8:] = 0.8
        assert seam_energy(VideoTensor(data), p) > 0.0

    def test_blended_lower_than_pasted(self):
        for seed in range(5):
            g = np.random.default_rng(seed)
            p = plan((1, 16, 16), 1, 10, 10, 0, 4, 4)
            outputs = [(t, np.full(t.shape + (1,), float(g.uniform(-0.8, 0.8)), np.float32))
                       for t in p.tiles]
            blended = VideoTensor(blend(outputs, p))
            pasted = np.zeros((1, 16, 16, 1), np.float32)
            for t, out in outputs:
                pasted[:, t.y0:t.y1, t.x0:t.x1] = out
            assert seam_energy(blended, p) < seam_energy(VideoTensor(pasted), p)


def _static_case(seed=21, frames=9):
    spec = SceneSpec(seed=seed, texture_octaves=2,
                     texture_base_freq=1.0 / 16.0, sprites=(),
                     camera=(CameraKey(0, 64.0, 64.0),))
    geometry = CaseGeometry(full=(-8, -8, 16, 16), crop=(-8, -8, 16, 16))
    return make_case(spec, frames, geometry)


class TestRevisit:
    def test_ground_truth_is_perfectly_consistent(self):
        case = _static_case()
        assert revisit_consistency(case.ground_truth, case) == math.inf

    def test_noise_at_second_visit_scores_lower(self):
        case = _static_case()
        g = np.random.default_rng(0)
        corrupted = case.ground_truth.data.copy()
        corrupted[-1] = g.uniform(-1, 1, corrupted[-1].shape).astype(np.float32)
        score = revisit_consistency(VideoTensor(corrupted), case)
        assert math.isfinite(score)
        assert score < 40.0


class TestReport:
    def test_schema_and_values(self):
        a = _video((2, 10, 10, 3), 6)
        mask = np.zeros((2, 10, 10, 1), np.float32)
        mask[:, :, 5:] = 1.0
        m = MaskVideo(mask)
        rep = report(a, a, m)
        text = json.dumps(rep)  # must be JSON-serializable
        assert "psnr" in text
        assert rep["data_range"] == 2.0
        assert rep["psnr"]["all"] == "+inf"
        assert rep["psnr"]["observed"] == "+inf"
        assert rep["psnr"]["outpainted"] == "+inf"
        assert rep["ssim"] == pytest.approx(1.0)

    def test_finite_values_match_library(self):
        a = _video((1, 10, 10, 3), 7)
        b = _video((1, 10, 10, 3), 8)
        mask = np.zeros((1, 10, 10, 1), np.float32)
        mask[0, :, 6:] = 1.0
        m = MaskVideo(mask)
        rep = report(a, b, m)
        assert rep["psnr"]["all"] == pytest.approx(psnr(a, b))
        assert rep["psnr"]["outpainted"] == pytest.approx(
            psnr(a, b, m.data > 0.0))
        assert rep["ssim"] == pytest.approx(ssim(a, b))


    def test_traced_peak_is_one_float64_copy_of_the_clip(self):
        """Scoring a 48-frame 32x48 clip (0.84 MiB of float32) holds one
        float64 copy of it and its selections at once: 2.00 MiB measured,
        pinned here plus 10%.  It read 3.56 MiB while PSNR cast both clips
        to float64 before it subtracted them."""
        g = np.random.default_rng(0)
        shape = (48, 32, 48, 3)
        a, b = (VideoTensor(g.uniform(-1, 1, shape).astype(np.float32)) for _ in range(2))
        m = MaskVideo((g.random(shape[:3] + (1,)) < 0.5).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report(a, b, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / 2 ** 20 <= 2.2


def _report_psnr_oracle(out, ref, mask):
    """Report's PSNR per region: an f64 mean of squared errors over the
    selected voxels, None where a region selects none."""
    sq = (out.astype(np.float64) - ref.astype(np.float64)) ** 2
    observed = np.broadcast_to(mask == 0.0, sq.shape)
    regions = {"all": np.ones(sq.shape, bool), "observed": observed, "outpainted": ~observed}
    result = {}
    for which, keep in regions.items():
        if not keep.any():
            result[which] = None
            continue
        mse = sq[keep].mean()
        result[which] = "+inf" if mse == 0.0 else 10.0 * math.log10(4.0 / mse)
    return result


@given(shape=st.tuples(st.integers(1, 3), st.integers(8, 11), st.integers(8, 11),
                       st.sampled_from((1, 3))),
       masks=st.sampled_from(("none", "all", "random")), same=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_report_psnr_matches_oracle(shape, masks, same, seed):
    g = np.random.default_rng(seed)
    out = g.uniform(-1, 1, shape).astype(np.float32)
    ref = out.copy() if same else g.uniform(-1, 1, shape).astype(np.float32)
    if masks == "random":
        mask = g.integers(0, 2, shape[:3] + (1,)).astype(np.float32)
    else:
        mask = np.full(shape[:3] + (1,), float(masks == "all"), np.float32)
    rep = report(VideoTensor(out), VideoTensor(ref), MaskVideo(mask))
    assert rep["psnr"] == _report_psnr_oracle(out, ref, mask)
