"""Tile planning, blend weights, per-step blended denoising."""
import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from outpainter import tiling
from outpainter.denoiser import DenoiserConfig, ToyDenoiser
from outpainter.sampler import SampleSchedule, step
from outpainter.tiling import (WEIGHT_EPS, ConfigError, CoverageError,
                               SpatiallyTiledDenoiser, Tile, TilePlan, blend, group_items,
                               plan, prepare_tiles, tile_weight, tiled_denoise_pass)
from outpainter.video import MaskVideo, ShapeError, VideoTensor


def test_tiling_does_not_import_the_toy_denoiser():
    # the tile machinery drives any denoiser through prepare/denoise alone
    nodes = [n for n in ast.walk(ast.parse(Path(tiling.__file__).read_text()))
             if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or "" for n in nodes]
    names += [alias.name for n in nodes for alias in n.names]
    assert not any("denoiser" in name.split(".") for name in names), names


def _tiles_on_axis(p, axis):
    attr = {0: ("f0", "f1"), 1: ("y0", "y1"), 2: ("x0", "x1")}[axis]
    return sorted({(getattr(t, attr[0]), getattr(t, attr[1])) for t in p.tiles})


class TestPlan:
    def test_exact_fit_single_tile(self):
        p = plan((16, 4, 4), 16, 4, 4)
        assert _tiles_on_axis(p, 0) == [(0, 16)]

    def test_stride_arithmetic(self):
        p = plan((24, 4, 4), 16, 4, 4, overlap_t=8)
        assert _tiles_on_axis(p, 0) == [(0, 16), (8, 24)]

    def test_flush_shift(self):
        p = plan((20, 4, 4), 16, 4, 4, overlap_t=8)
        assert _tiles_on_axis(p, 0) == [(0, 16), (4, 20)]

    def test_small_extent_shrinks_tile(self):
        p = plan((4, 4, 4), 16, 8, 8, overlap_t=8)
        assert p.tiles == (Tile(0, 4, 0, 4, 0, 4),)

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            plan((16, 4, 4), 8, 4, 4, overlap_t=8)

    def test_degenerate_extent(self):
        with pytest.raises(ConfigError):
            plan((0, 4, 4), 4, 4, 4)

    def test_tile_validation(self):
        with pytest.raises(ShapeError):
            Tile(2, 2, 0, 4, 0, 4)
        with pytest.raises(ShapeError):
            Tile(-1, 2, 0, 4, 0, 4)

    @given(extent=st.integers(1, 40), size=st.integers(1, 20),
           overlap=st.integers(0, 19))
    @settings(max_examples=80, deadline=None)
    def test_axis_coverage(self, extent, size, overlap):
        if overlap >= size:
            overlap = size - 1
        p = plan((extent, 1, 1), size, 1, 1, overlap_t=overlap)
        covered = np.zeros(extent, bool)
        for t in p.tiles:
            covered[t.f0:t.f1] = True
            assert t.f1 - t.f0 == min(size, extent)
        assert covered.all()


class TestWeights:
    def test_all_positive(self):
        p = plan((8, 12, 12), 4, 6, 6, 2, 2, 2)
        for t in p.tiles:
            assert (tile_weight(t, p) > 0).all()

    def test_single_tile_plateau(self):
        p = plan((4, 6, 6), 4, 6, 6)
        w = tile_weight(p.tiles[0], p)
        np.testing.assert_array_equal(w, np.ones_like(w))

    def test_interior_tile_closed_form(self):
        p = plan((1, 10, 1), 1, 4, 1, 0, 2, 0)
        interior = [t for t in p.tiles if t.y0 == 2][0]
        w = tile_weight(interior, p)[0, :, 0, 0]
        i = np.arange(4) + 0.5
        expected = WEIGHT_EPS + (1 - WEIGHT_EPS) * np.sin(np.pi * i / 4) ** 2
        np.testing.assert_allclose(w, expected, atol=1e-12)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    def test_boundary_halves_are_flat(self):
        p = plan((1, 10, 1), 1, 4, 1, 0, 2, 0)
        first = [t for t in p.tiles if t.y0 == 0][0]
        last = [t for t in p.tiles if t.y1 == 10][0]
        assert (tile_weight(first, p)[0, :2, 0, 0] == 1.0).all()
        assert (tile_weight(last, p)[0, 2:, 0, 0] == 1.0).all()


class TestBlend:
    def test_constant_partition_of_unity(self):
        p = plan((6, 20, 20), 4, 8, 8, 2, 3, 3)
        outputs = [(t, np.full(t.shape + (3,), 0.25, np.float32)) for t in p.tiles]
        out = blend(outputs, p)
        np.testing.assert_allclose(out, 0.25, atol=1e-6)

    def test_single_tile_identity(self):
        p = plan((4, 6, 6), 4, 6, 6)
        g = np.random.default_rng(0)
        content = g.uniform(-0.9, 0.9, (4, 6, 6, 3)).astype(np.float32)
        out = blend([(p.tiles[0], content)], p)
        np.testing.assert_array_equal(out, content)

    def test_symmetric_overlap_point_is_average(self):
        # extent 25 with 16-wide tiles at 0 and 9: local indices 12 and 3
        # carry equal window weights, so the blend is the exact mean
        p = plan((1, 25, 1), 1, 16, 1, 0, 7, 0)
        assert _tiles_on_axis(p, 1) == [(0, 16), (9, 25)]
        a, b = 0.5, -0.3
        outputs = [(t, np.full(t.shape + (1,), a if t.y0 == 0 else b, np.float32))
                   for t in p.tiles]
        out = blend(outputs, p)
        # blend rounds the float64 average to float32 on output
        assert out[0, 12, 0, 0] == pytest.approx((a + b) / 2, abs=1e-6)

    def test_uncovered_voxels_rejected(self):
        p = TilePlan((1, 8, 1), (Tile(0, 1, 0, 4, 0, 1),))
        outputs = [(p.tiles[0], np.zeros((1, 4, 1, 1), np.float32))]
        with pytest.raises(CoverageError):
            blend(outputs, p)

    def test_empty_rejected(self):
        with pytest.raises(CoverageError):
            blend([], plan((1, 4, 1), 1, 4, 1))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_random_plans_preserve_constants(self, seed):
        g = np.random.default_rng(seed)
        extent = (int(g.integers(1, 10)), int(g.integers(1, 24)), int(g.integers(1, 24)))
        sizes = [int(g.integers(1, e + 4)) for e in extent]
        overlaps = [int(g.integers(0, s)) for s in sizes]
        p = plan(extent, sizes[0], sizes[1], sizes[2], *overlaps)
        c = float(g.uniform(-1, 1))
        outputs = [(t, np.full(t.shape + (1,), c, np.float32)) for t in p.tiles]
        np.testing.assert_allclose(blend(outputs, p), c, atol=1e-6)


def _full_weight(tile, tile_plan):
    """The tile's separable Hann product over its whole box, built from the
    axis factors: a flat half on each side that touches the extent."""
    wf, wy, wx = (tiling._axis_weights(b - a, a == 0, b == n)
                  for a, b, n in zip((tile.f0, tile.y0, tile.x0), (tile.f1, tile.y1, tile.x1),
                                     tile_plan.extent))
    return wf[:, None, None, None] * wy[None, :, None, None] * wx[None, None, :, None]


def _whole_clip_blend(outputs, tile_plan):
    """The blend before it streamed: one float64 sum over the whole extent
    with each tile's full weight, divided once and rounded to float32."""
    num = np.zeros(tile_plan.extent + outputs[0].shape[3:])
    den = np.zeros(tile_plan.extent + (1,))
    for t, out in zip(tile_plan.tiles, outputs):
        w = _full_weight(t, tile_plan)
        num[t.f0:t.f1, t.y0:t.y1, t.x0:t.x1] += w * out
        den[t.f0:t.f1, t.y0:t.y1, t.x0:t.x1] += w
    return (num / den).astype(np.float32)


def _adapter_plan(frames, height, width):
    """The all-frames plan the spatial adapter prepares for a clip."""
    adapter = SpatiallyTiledDenoiser(ToyDenoiser(), plan((1, height, width), 1, 5, 6, 0, 2, 2))
    shape = (frames, height, width)
    return adapter.prepare(VideoTensor(np.zeros(shape + (3,), np.float32)),
                           MaskVideo(np.zeros(shape + (1,), np.float32))).plan


class TestStreamingBlend:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tile_plan", [
        plan((30, 7, 9), 10, 4, 5, 3, 1, 2),
        TilePlan((20, 3, 4), (Tile(12, 20, 0, 3, 0, 4), Tile(0, 8, 0, 3, 0, 4),
                              Tile(6, 14, 0, 3, 0, 4), Tile(3, 9, 0, 3, 0, 4))),
        _adapter_plan(6, 11, 13),
    ], ids=["temporal-overlap", "out-of-frame-order", "adapter-all-frames"])
    def test_equals_whole_clip_float64_blend(self, tile_plan, dtype):
        g = np.random.default_rng(4)
        outputs = [g.uniform(-1.5, 1.5, t.shape + (3,)).astype(dtype) for t in tile_plan.tiles]
        got = blend(zip(tile_plan.tiles, outputs), tile_plan)
        want = _whole_clip_blend(outputs, tile_plan)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), channels=st.sampled_from([1, 3]),
           dtype=st.sampled_from([np.float32, np.float64]), block_frames=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_plans_equal_full_weight_blend(self, seed, channels, dtype, block_frames):
        """The stored weights, broadcast to each tile, are the full separable
        product byte for byte, and so is their sum; the blend, in blocks of
        frames or not, equals the whole-clip reference."""
        g = np.random.default_rng(seed)
        extent = tuple(int(g.integers(1, n)) for n in (12, 14, 14))
        sizes = [int(g.integers(1, e + 4)) for e in extent]
        p = plan(extent, *sizes, *(int(g.integers(0, s)) for s in sizes))
        weights, den = p.weights
        full = np.zeros(extent + (1,))
        for t, w in zip(p.tiles, weights):
            want = _full_weight(t, p)
            assert np.broadcast_to(w, want.shape).tobytes() == want.tobytes()
            full[t.f0:t.f1, t.y0:t.y1, t.x0:t.x1] += want
        assert np.broadcast_to(den, full.shape).tobytes() == full.tobytes()
        outputs = [g.uniform(-1.5, 1.5, t.shape + (channels,)).astype(dtype) for t in p.tiles]
        with pytest.MonkeyPatch.context() as mp:
            if block_frames:  # a budget of that many whole-extent frames, and a few bytes
                mp.setattr(tiling, "BLOCK_BYTES", 8 * extent[1] * extent[2] * channels
                           * block_frames + 4)
            got = blend(zip(p.tiles, outputs), p)
        assert got.tobytes() == _whole_clip_blend(outputs, p).tobytes()

    def test_each_output_is_dropped_before_the_next_is_pulled(self):
        """Once the blend pulls output i+1 it holds no reference to output
        i, so a pass frees each group's step output before the next group
        runs."""
        p = plan((12, 4, 4), 4, 4, 4, 1)
        refs, held = [], []

        def outputs():
            for tile in p.tiles:
                held.append(sum(ref() is not None for ref in refs))
                data = np.ones(tile.shape + (1,), np.float32)
                refs.append(weakref.ref(data))
                yield tile, data
                del data

        blend(outputs(), p)
        assert held == [0] * len(p.tiles)

    @pytest.mark.parametrize("tile_plan", [
        plan((30, 7, 9), 10, 4, 5, 3, 1, 2),
        TilePlan((20, 3, 4), (Tile(12, 20, 0, 3, 0, 4), Tile(0, 8, 0, 3, 0, 4),
                              Tile(6, 14, 0, 3, 0, 4), Tile(3, 9, 0, 3, 0, 4))),
        _adapter_plan(6, 11, 13),
    ], ids=["temporal-overlap", "out-of-frame-order", "adapter-all-frames"])
    def test_sums_are_reused_zeroed_and_never_shared(self, tile_plan):
        """A complete blend returns its float64 sums to the plan zeroed, the
        next blend takes them back, and a blend that fails keeps them."""
        g = np.random.default_rng(5)
        passes = [[g.uniform(-1.5, 1.5, t.shape + (3,)).astype(np.float32)
                   for t in tile_plan.tiles] for _ in range(2)]
        for outputs in passes:
            got = blend(zip(tile_plan.tiles, outputs), tile_plan)
            assert got.tobytes() == _whole_clip_blend(outputs, tile_plan).tobytes()
            [sums] = tile_plan.sums.values()
            assert sums.dtype == np.float64 and not sums.any()
        assert blend(zip(tile_plan.tiles, passes[0]), tile_plan) is not None
        assert tile_plan.sums[(tile_plan.extent[1], tile_plan.extent[2], 3)] is sums
        with pytest.raises(CoverageError):
            blend(zip(tile_plan.tiles, passes[1][:-1]), tile_plan)
        assert not tile_plan.sums

    def test_spanned_axes_are_stored_at_length_one(self):
        # the default config's completion plan: tiles span each frame whole
        weights, den = plan((192, 32, 48), 49, 32, 48, 12).weights
        assert den.shape == (192, 1, 1, 1)
        assert {w.shape for w in weights} == {(49, 1, 1, 1)}
        assert _adapter_plan(6, 11, 13).weights[1].shape == (1, 11, 13, 1)

    def test_frame_ordered_plan_closes_frames_early(self):
        p = plan((30, 4, 4), 10, 4, 4, 3)
        assert [t.f0 for t in p.tiles] == [0, 7, 14, 20]
        assert p.closes == (7, 14, 20, 30)
        assert p.open_frames == 10

    def test_out_of_order_plan_closes_nothing_early(self):
        p = TilePlan((20, 1, 1), (Tile(12, 20, 0, 1, 0, 1), Tile(0, 12, 0, 1, 0, 1)))
        assert p.closes == (0, 20)
        assert p.open_frames == 20
        assert _adapter_plan(6, 11, 13).open_frames == 6

    def test_long_clip_completion_holds_one_tile_open(self):
        # the default config's completion plan on a 192-frame clip
        p = plan((192, 32, 48), 49, 32, 48, 12)
        assert len(p.tiles) == 5
        assert p.open_frames <= 49


class TestGroups:
    def test_budget_splits_runs_of_one_shape(self, monkeypatch):
        monkeypatch.setattr(tiling, "GROUP_VOXELS", 10)
        shapes = [(1, 2, 2)] * 5 + [(1, 3, 3)] * 2 + [(2, 4, 4)]
        assert group_items(shapes) == [slice(0, 1), slice(1, 3), slice(3, 5),
                                       slice(5, 6), slice(6, 7), slice(7, 8)]
        monkeypatch.setattr(tiling, "GROUP_VOXELS", 22 * 4)
        assert group_items([(1, 2, 2)] * 24) == [slice(0, 12), slice(12, 24)]

    def test_default_budget_keeps_one_shape_together(self):
        assert group_items([(16, 12, 12)] * 5) == [slice(0, 5)]
        assert group_items([]) == []

    @pytest.mark.parametrize("tiles, view", [
        ((Tile(0, 2, 0, 2, 0, 3), Tile(2, 4, 0, 2, 0, 3)), True),
        ((Tile(0, 2, 0, 2, 0, 3), Tile(1, 3, 0, 2, 0, 3)), False),
        ((Tile(0, 2, 0, 2, 0, 2), Tile(2, 4, 0, 2, 0, 2)), True),
    ], ids=["abutting-whole-frames", "overlapping", "part-frames"])
    def test_group_is_gathered_as_the_concatenation_of_its_tiles(self, tiles, view):
        """A group's tiles reach `run` as one read-only array; tiles that abut
        in frames as a view, so a stacked layout is neither copied nor
        duplicated, and the latent itself stays writable."""
        data = np.arange(5 * 2 * 3, dtype=np.float64).reshape(5, 2, 3, 1)
        seen = []

        def run(prep, z_group):
            seen.append(z_group)
            return z_group

        outputs = list(tiling.tile_outputs([(tiles, None)], data, run))
        [group] = seen
        np.testing.assert_array_equal(
            group, np.concatenate([data[t.f0:t.f1, t.y0:t.y1, t.x0:t.x1] for t in tiles]))
        assert np.shares_memory(group, data) == view
        assert not group.flags.writeable and data.flags.writeable
        for tile, out in outputs:
            np.testing.assert_array_equal(out, data[tile.f0:tile.f1, tile.y0:tile.y1,
                                                    tile.x0:tile.x1])

    def test_streamed_outputs_must_follow_the_plan(self):
        p = plan((1, 10, 1), 1, 4, 1, 0, 2, 0)
        outputs = [(t, np.zeros(t.shape + (1,), np.float32)) for t in p.tiles]
        assert blend(iter(outputs), p).shape == (1, 10, 1, 1)
        with pytest.raises(CoverageError):
            blend(iter(outputs[::-1]), p)
        with pytest.raises(CoverageError):
            blend(iter(outputs[:-1]), p)


class TestTiledPass:
    def _problem(self, seed=0, shape=(6, 12, 12, 3)):
        g = np.random.default_rng(seed)
        cond = g.uniform(-0.8, 0.8, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.3).astype(np.float32)
        cond = cond * (1.0 - mask)
        z = g.standard_normal(shape).astype(np.float32)
        return (VideoTensor(z), VideoTensor(cond), MaskVideo(mask))

    def test_single_tile_matches_untiled(self):
        den = ToyDenoiser(DenoiserConfig(radius=3))
        for seed in range(3):
            z, cond, mask = self._problem(seed)
            p = plan(z.shape[:3], z.frames, z.height, z.width)
            tiled = tiled_denoise_pass(z.data, p, den, 1.0, 0.75,
                                       prepare_tiles(den, cond, mask, p))
            v = den.denoise(den.prepare(cond, mask), z.data, 1.0)
            untiled = step(z.data, v, 1.0, 0.75)
            np.testing.assert_allclose(tiled, untiled, atol=1e-6)

    def test_all_observed_converges_to_condition(self):
        den = ToyDenoiser(DenoiserConfig(radius=3))
        g = np.random.default_rng(2)
        cond = VideoTensor(g.uniform(-0.8, 0.8, (6, 12, 12, 3)).astype(np.float32))
        mask = MaskVideo(np.zeros((6, 12, 12, 1), np.float32))
        z = g.standard_normal((6, 12, 12, 3)).astype(np.float32)
        sched = SampleSchedule(5, 0)
        p = plan((6, 12, 12), 4, 6, 6, 2, 2, 2)
        prepared = prepare_tiles(den, cond, mask, p)
        for s in range(5):
            z = tiled_denoise_pass(z, p, den, float(sched.times[s]),
                                   float(sched.times[s + 1]), prepared)
        np.testing.assert_allclose(z, cond.data, atol=1e-6)

    def test_one_tile_groups_equal_default_groups(self, monkeypatch):
        den = ToyDenoiser(DenoiserConfig(radius=3))
        z0, cond, mask = self._problem(seed=4, shape=(8, 20, 20, 3))
        p = plan((8, 20, 20), 4, 8, 8, 2, 3, 3)
        sched = SampleSchedule(3, 0)
        outs = []
        for budget in (tiling.GROUP_VOXELS, 1):
            monkeypatch.setattr(tiling, "GROUP_VOXELS", budget)
            prepared = prepare_tiles(den, cond, mask, p)
            assert len(prepared) == (1 if budget > 1 else len(p.tiles))
            z = z0.data
            for s in range(3):
                z = tiled_denoise_pass(z, p, den, float(sched.times[s]),
                                       float(sched.times[s + 1]), prepared)
            outs.append(z.tobytes())
        assert outs[0] == outs[1]

    @given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from(["plan", "reversed", "shuffled"]),
           one_tile_groups=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pass_into_its_own_latent_equals_a_new_latent(self, seed, order, one_tile_groups):
        """`out=z` writes each step into the latent it reads, and gives the
        bytes of a pass into a new array, on plans whose tiles are out of
        frame order too: a frame is written only once no later tile reads
        it."""
        g = np.random.default_rng(seed)
        extent = tuple(int(g.integers(1, n)) for n in (14, 9, 9))
        sizes = [int(g.integers(1, e + 3)) for e in extent]
        tiles = plan(extent, *sizes, *(int(g.integers(0, s)) for s in sizes)).tiles
        if order == "reversed":
            tiles = tiles[::-1]
        elif order == "shuffled":
            tiles = tuple(tiles[i] for i in g.permutation(len(tiles)))
        p = TilePlan(extent, tiles)
        z, cond, mask = self._problem(seed, extent + (3,))
        den = ToyDenoiser(DenoiserConfig(radius=2))
        sched = SampleSchedule(3, 0)
        with pytest.MonkeyPatch.context() as mp:
            if one_tile_groups:
                mp.setattr(tiling, "GROUP_VOXELS", 1)
            prepared = prepare_tiles(den, cond, mask, p)
            z, latent = z.data, z.data.copy()
            for s in range(3):
                t_from, t_to = float(sched.times[s]), float(sched.times[s + 1])
                z = tiled_denoise_pass(z, p, den, t_from, t_to, prepared)
                out = tiled_denoise_pass(latent, p, den, t_from, t_to, prepared, out=latent)
                assert out is latent and latent.tobytes() == z.tobytes()

    def test_extent_mismatch_rejected(self):
        den = ToyDenoiser()
        z, cond, mask = self._problem()
        p = plan((5, 12, 12), 5, 12, 12)
        with pytest.raises(ShapeError):
            prepare_tiles(den, cond, mask, p)
        prepared = prepare_tiles(den, VideoTensor(cond.data[:5]), MaskVideo(mask.data[:5]), p)
        with pytest.raises(ShapeError):
            tiled_denoise_pass(z.data, p, den, 1.0, 0.5, prepared)


class TestSpatialAdapter:
    def test_matches_spatial_pass(self):
        den = ToyDenoiser(DenoiserConfig(radius=3))
        g = np.random.default_rng(5)
        shape = (4, 16, 16, 3)
        cond = g.uniform(-0.8, 0.8, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.3).astype(np.float32)
        cond = cond * (1.0 - mask)
        z = g.standard_normal(shape).astype(np.float32)
        spatial = plan((1, 16, 16), 1, 8, 8, 0, 4, 4)
        adapter = SpatiallyTiledDenoiser(den, spatial)
        v = adapter.denoise(adapter.prepare(VideoTensor(cond), MaskVideo(mask)), z, 1.0)
        stepped_via_adapter = step(z, v, 1.0, 0.75)
        full_plan = plan(shape[:3], shape[0], 8, 8, 0, 4, 4)
        prepared = prepare_tiles(den, VideoTensor(cond), MaskVideo(mask), full_plan)
        stepped_via_pass = tiled_denoise_pass(z, full_plan, den, 1.0, 0.75, prepared)
        np.testing.assert_allclose(stepped_via_adapter, stepped_via_pass, atol=1e-6)

    def test_items_and_groups_match_one_call_per_item(self, monkeypatch):
        den = ToyDenoiser(DenoiserConfig(radius=3))
        g = np.random.default_rng(6)
        shape = (3 * 4, 16, 16, 3)
        cond = g.uniform(-0.8, 0.8, shape).astype(np.float32)
        mask = (g.uniform(size=shape[:3] + (1,)) < 0.3).astype(np.float32)
        mask[4:8] = 0.0  # an item with nothing masked
        z = g.standard_normal(shape)
        adapter = SpatiallyTiledDenoiser(den, plan((1, 16, 16), 1, 8, 8, 0, 4, 4))
        per_item = np.concatenate([
            adapter.denoise(adapter.prepare(VideoTensor(cond[i:i + 4]),
                                            MaskVideo(mask[i:i + 4])),
                            z[i:i + 4], 0.5)
            for i in (0, 4, 8)])
        for budget in (tiling.GROUP_VOXELS, 1):
            monkeypatch.setattr(tiling, "GROUP_VOXELS", budget)
            prepared = adapter.prepare(VideoTensor(cond), MaskVideo(mask), items=3)
            assert adapter.denoise(prepared, z, 0.5).tobytes() == per_item.tobytes()
        # the three 4-frame items shared one frame plan, and its blend sums
        assert sorted(adapter.frame_plans) == [4, 12]

    def test_extent_mismatch_rejected(self):
        adapter = SpatiallyTiledDenoiser(ToyDenoiser(), plan((1, 8, 8), 1, 8, 8))
        z = VideoTensor(np.zeros((1, 6, 6, 1), np.float32))
        with pytest.raises(ShapeError):
            adapter.prepare(z, MaskVideo(np.zeros((1, 6, 6, 1), np.float32)))
        cond = VideoTensor(np.zeros((1, 8, 8, 1), np.float32))
        prepared = adapter.prepare(cond, MaskVideo(np.zeros((1, 8, 8, 1), np.float32)))
        with pytest.raises(ShapeError):
            adapter.denoise(prepared, np.zeros((2, 8, 8, 1), np.float32), 0.5)
