"""Keyframe selection, local windows, swapping, and multi-scale densification."""
import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import NarrowingDenoiser, narrowed
from outpainter import gcg, rng, tiling
from outpainter.denoiser import DenoiserConfig, ToyDenoiser
from outpainter.gcg import (GcgError, GcgParams, build_window, construct_gcg, auto_delta,
                            max_index_gap, midpoints, multiscale_gcg, select_keyframes)
from outpainter.sampler import SampleSchedule, step
from outpainter.tiling import ConfigError, Tile, TilePlan
from outpainter.video import MaskVideo, VideoTensor


def _window_oracle(k, count, delta, total):
    """Exhaustive feasibility search: the largest stride up to delta that
    admits a window, positioned with k as close to the center slot as
    possible (ties to the smaller slot index)."""
    best = None
    for stride in range(delta, 0, -1):
        candidates = []
        for j in range(count):
            start = k - stride * j
            end = start + stride * (count - 1)
            if start >= 0 and end <= total - 1:
                candidates.append((abs(j - count // 2), j, start))
        if candidates:
            _, _, start = min(candidates)
            best = tuple(start + stride * j for j in range(count))
            break
    return best


class TestSelectKeyframes:
    def test_481_thirteen(self):
        assert select_keyframes(481, 13) == tuple(range(0, 481, 40))

    def test_count_equals_frames(self):
        assert select_keyframes(7, 7) == tuple(range(7))

    def test_two_endpoints(self):
        assert select_keyframes(100, 2) == (0, 99)

    def test_single(self):
        assert select_keyframes(10, 1) == (0,)

    def test_too_many_rejected(self):
        with pytest.raises(ConfigError):
            select_keyframes(5, 6)


class TestBuildWindow:
    def test_centered_interior(self):
        assert build_window(100, 5, 1, 1000) == (98, 99, 100, 101, 102)

    def test_shifted_at_origin(self):
        assert build_window(0, 5, 5, 1000) == (0, 5, 10, 15, 20)

    def test_stride_reduced_when_infeasible(self):
        assert build_window(3, 5, 5, 12) == (1, 3, 5, 7, 9)

    def test_matches_enumeration_oracle(self):
        for total in (8, 12, 20, 50):
            for count in (3, 5):
                for delta in (1, 2, 5):
                    for k in range(total):
                        expected = _window_oracle(k, count, delta, total)
                        if expected is None:
                            with pytest.raises(ConfigError):
                                build_window(k, count, delta, total)
                        else:
                            got = build_window(k, count, delta, total)
                            assert got == expected, (k, count, delta, total)
                            assert k in got

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            build_window(0, 5, 1, 4)

    def test_huge_delta_starts_at_widest_stride(self):
        # the walk starts at (48 - 1) // (5 - 1) = 11, not at delta
        for k in (0, 24, 47):
            assert build_window(k, 5, 10**8, 48) == build_window(k, 5, 11, 48)
        assert build_window(0, 1, 10**8, 1) == (0,)


def _windows(keys, frames, count=5, delta=2, skip=()):
    """Each keyframe's local window, except for the keyframes in `skip`."""
    return {k: build_window(k, count, delta, frames) for k in keys if k not in skip}


SEGMENT = select_keyframes(24, 5)


# radius > lambda, so a frame's stack neighbours reach its fill and a
# window's latent differs from the keyframe stack's
_SWAP_DENOISER = ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=3))


class _NamedDenoiser:
    """`_SWAP_DENOISER`, naming the frames of each latent it denoises for a
    one-segment construction on `condition`: ("slot", i) for slot i of the
    keyframe stack, and ("row", f) for frame f of a window, so a keyframe's
    swap row is ("row", k).  A state prepared for some rows is the whole
    state narrowed to them, and its frames are the rows it was prepared
    for.  Each call is recorded as [t, names, latent], and the Euler step
    that follows it appends its output."""

    def __init__(self, condition):
        self.condition, self.names, self.calls = condition, [], []

    def _names(self, prepared):
        return next(names for state, names in self.names if state is prepared)

    def prepare(self, condition, mask, mode="dense", items=1, rows=None):
        prepared = _SWAP_DENOISER.prepare(condition, mask, mode, items)
        if np.array_equal(condition.data, self.condition.data[list(SEGMENT)]):
            names = [("slot", i) for i in range(len(SEGMENT))]
        else:
            names = [("row", next(f for f, frame in enumerate(self.condition.data)
                                  if np.array_equal(frame, x))) for x in condition.data]
        if rows is not None:
            prepared, names = narrowed(prepared, rows), [names[j] for j in rows]
        self.names.append((prepared, names))
        return prepared

    def denoise(self, prepared, z, t):
        self.calls.append([t, self._names(prepared), z.copy()])
        return _SWAP_DENOISER.denoise(prepared, z, t)


def _swap_trace(monkeypatch, windows, swap_steps, steps=6):
    """Per step of a one-segment construction, by stack slot: the slots the
    Euler step left, and the slots as the next step (or the output) reads
    them; and each swap row the step left, by keyframe (None if no row
    stepped).  A slot that does not step is neither left nor read."""
    cond, mask = _masked_case(24)
    den = _NamedDenoiser(cond)
    real_step = gcg.step

    def spy(z, v, t_from, t_to):
        out = real_step(z, v, t_from, t_to)
        den.calls[-1].append(out.copy())
        return out

    monkeypatch.setattr(gcg, "step", spy)
    sample = SampleSchedule(steps, swap_steps)
    [out] = construct_gcg(cond, mask, [SEGMENT], windows, den, sample, 3)
    times = [float(t) for t in sample.times[:-1]]
    read, stepped, rows = ([{} for _ in times] for _ in range(3))
    for t, names, z, z_out in den.calls:
        s = times.index(t)
        for (kind, at), latent, left in zip(names, z, z_out):
            if kind == "slot":
                read[s][at], stepped[s][at] = latent, left
            else:
                rows[s][at] = left
    return stepped, read[1:] + [dict(enumerate(out))], [r or None for r in rows]


def _window_latents(window, k, sample):
    """Keyframe k's latent in its window after each step, the window
    denoised alone from the construction's per-frame noise."""
    cond, mask = _masked_case(24)
    idx = list(window)
    prepared = _SWAP_DENOISER.prepare(VideoTensor(cond.data[idx]), MaskVideo(mask.data[idx]),
                                      "sparse")
    z = np.concatenate([rng.normals(3, f"gcg:init:{f}", (1,) + cond.shape[1:]) for f in idx])
    latents = []
    for s in range(sample.total_steps):
        t_from, t_to = float(sample.times[s]), float(sample.times[s + 1])
        z = step(z, _SWAP_DENOISER.denoise(prepared, z, t_from), t_from, t_to)
        latents.append(z[window.index(k)])
    return latents


class TestSwap:
    def test_early_step_copies_window_latents(self, monkeypatch):
        windows = _windows(SEGMENT, 24)
        stepped, read, rows = _swap_trace(monkeypatch, windows, swap_steps=3)
        for i, k in enumerate(SEGMENT):
            latents = _window_latents(windows[k], k, SampleSchedule(6, 3))
            for s in range(3):
                assert not stepped[s]  # the swap overwrites every slot of the stack
                # a swap row steps as its keyframe does within the whole window
                assert rows[s][k].tobytes() == latents[s].tobytes()
            np.testing.assert_array_equal(read[2][i], latents[2])

    def test_late_step_is_identity(self, monkeypatch):
        stepped, read, _ = _swap_trace(monkeypatch, _windows(SEGMENT, 24), swap_steps=3)
        for s in range(3, 6):
            assert sorted(read[s]) == sorted(stepped[s]) == list(range(len(SEGMENT)))
            for i in range(len(SEGMENT)):
                np.testing.assert_array_equal(read[s][i], stepped[s][i])

    def test_swap_budget_boundary(self, monkeypatch):
        for swap_steps in (0, 3, 6):
            stepped, read, rows = _swap_trace(monkeypatch, _windows(SEGMENT, 24), swap_steps)
            assert [sorted(a) for a in stepped] == [
                [] if s < swap_steps else list(range(len(SEGMENT))) for s in range(6)]
            # the rows are handed over to the stack once, at the swap's last step
            written = [[i for i in read[s]
                        if i not in stepped[s] or not np.array_equal(read[s][i], stepped[s][i])]
                       for s in range(6)]
            last = swap_steps - 1
            assert written == [list(range(len(SEGMENT))) if s == last else [] for s in range(6)]
            for i in written[last] if swap_steps else ():
                assert read[last][i].tobytes() == rows[last][SEGMENT[i]].tobytes()
            assert [r is not None for r in rows] == [s < swap_steps for s in range(6)]


def _observed_case(frames=24, hw=(6, 6), seed=3):
    data = rng.normals(seed, "gcg-case", (frames,) + hw + (1,)) * 0.4
    video = VideoTensor(np.clip(data, -1, 1))
    mask = MaskVideo(np.zeros((frames,) + hw + (1,), np.float32))
    return video, mask


class TestConstructGcg:
    def test_all_observed_reaches_input_keyframes(self):
        video, mask = _observed_case()
        [out] = construct_gcg(video, mask, [SEGMENT], _windows(SEGMENT, 24), ToyDenoiser(),
                              SampleSchedule(4, 2), 7)
        np.testing.assert_allclose(out, video.data[list(SEGMENT)], atol=1e-6)

    def test_disabled_swap_equals_independent_stack(self):
        video, mask = _observed_case(seed=4)
        # partially mask so the trajectory is nontrivial
        m = np.zeros(mask.data.shape, np.float32)
        m[:, :, 3:] = 1.0
        cond = VideoTensor(video.data * (1 - m))
        mask = MaskVideo(m)
        sample = SampleSchedule(4, 0)
        den = ToyDenoiser(DenoiserConfig(radius=3))
        [out] = construct_gcg(cond, mask, [SEGMENT], _windows(SEGMENT, 24), den, sample, 11,
                              noise_tag="probe")
        # manual keyframe-stack denoising from the same per-frame noise
        idx = list(SEGMENT)
        cond_g = VideoTensor(cond.data[idx].copy())
        mask_g = MaskVideo(mask.data[idx].copy())
        z = np.concatenate(
            [rng.normals(11, f"probe:init:{f}", (1,) + cond.shape[1:]) for f in idx])
        prepared = den.prepare(cond_g, mask_g, "sparse")
        for s in range(4):
            t_from, t_to = float(sample.times[s]), float(sample.times[s + 1])
            v = den.denoise(prepared, z, t_from)
            z = step(z, v, t_from, t_to)
        np.testing.assert_array_equal(out, z)

    @pytest.mark.parametrize("adapter", [False, True], ids=["toy", "spatial-adapter"])
    def test_denoiser_reads_every_latent_read_only(self, monkeypatch, adapter):
        """Stack slots and window rows alike reach the toy denoiser, directly
        or through the adapter, as read-only latents, and only the frames
        whose output is read do.  Without the adapter each latent is a view
        of the phase's latent, with an anchor among the slots too."""
        calls = []
        real = ToyDenoiser.denoise

        def spy(self, prepared, z, t):
            calls.append((len(z), z.flags.writeable, z.base is not None))
            return real(self, prepared, z, t)

        monkeypatch.setattr(ToyDenoiser, "denoise", spy)
        cond, mask = _masked_case(24)
        den = _SWAP_DENOISER
        if adapter:
            den = tiling.SpatiallyTiledDenoiser(den, tiling.plan((1, 8, 8), 1, 6, 6, 0, 2, 2))
        for anchors in (frozenset(), frozenset(SEGMENT[2:3])):
            calls.clear()
            construct_gcg(cond, mask, [SEGMENT], _windows(SEGMENT, 24, skip=anchors), den,
                          SampleSchedule(4, 2), 3, anchors=anchors)
            # each of the 2 swap steps denoises one window row per keyframe,
            # and each of the 2 later steps the slots, anchors' aside; the
            # adapter's four same-shaped tiles are one part, of each frame four times
            spatial, held = (4 if adapter else 1), len(SEGMENT) - len(anchors)
            assert sum(frames for frames, _, _ in calls) == spatial * (2 * held + 2 * held)
            assert not any(writeable for _, writeable, _ in calls)
            if not adapter:
                assert all(view for _, _, view in calls)

    def test_swap_changes_output_on_masked_content(self):
        video, mask = _observed_case(seed=5)
        m = np.zeros(mask.data.shape, np.float32)
        m[:, :, 3:] = 1.0
        cond = VideoTensor(video.data * (1 - m))
        mask = MaskVideo(m)
        # the neighborhood must reach across stack frames (radius > lambda),
        # otherwise per-frame trajectories are stack-independent and the swap
        # is vacuously a no-op
        den = ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=6))
        outs = {}
        for S in (2, 0):
            [outs[S]] = construct_gcg(cond, mask, [SEGMENT], _windows(SEGMENT, 24), den,
                                      SampleSchedule(4, S), 13)
        assert not np.array_equal(outs[2], outs[0])


def _round(frames, keys, count, delta):
    """One densification round's overlapping segments and its windows."""
    seg_plan = tiling.plan((len(keys), 1, 1), count, 1, 1, min(2, count - 1))
    return ([tuple(keys[t.f0:t.f1]) for t in seg_plan.tiles],
            _windows(keys, frames, count, delta))


def _masked_case(frames, hw=(8, 8), seed=9):
    video, _ = _observed_case(frames=frames, hw=hw, seed=seed)
    m = np.zeros(video.shape[:3] + (1,), np.float32)
    m[:, :, 5:] = 1.0
    return VideoTensor(video.data * (1 - m)), MaskVideo(m)


class TestRound:
    @pytest.mark.parametrize("adapter", [False, True], ids=["toy", "spatial-adapter"])
    @pytest.mark.parametrize("frames, keys, count, delta", [
        (33, tuple(range(0, 33, 3)), 5, 1),  # segments share windows
        (5, tuple(range(5)), 5, 1),  # every window is the keyframe stack
        (12, tuple(range(0, 12, 2)), 4, 2),  # a window is the first segment's stack
    ], ids=["shared-windows", "5-frames", "12-frames"])
    def test_round_equals_one_construction_per_schedule(self, adapter, frames, keys,
                                                        count, delta):
        cond, mask = _masked_case(frames)
        den = ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=3))
        if adapter:
            den = tiling.SpatiallyTiledDenoiser(den, tiling.plan((1, 8, 8), 1, 6, 6, 0, 2, 2))
        segments, windows = _round(frames, keys, count, delta)
        sample = SampleSchedule(4, 2)
        together = construct_gcg(cond, mask, segments, windows, den, sample, 3,
                                 noise_tag="round")
        assert len(together) == len(segments)
        for seg, out in zip(segments, together):
            [alone] = construct_gcg(cond, mask, [seg], {k: windows[k] for k in seg}, den,
                                    sample, 3, noise_tag="round")
            assert out.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("swap_steps", [0, 2, 6])
    def test_windows_stop_stepping_after_the_swap(self, monkeypatch, swap_steps):
        cond, mask = _masked_case(33)
        keys = tuple(range(0, 33, 3))
        segments, windows = _round(33, keys, 5, 1)
        slots = sum(segments, ())
        den = ToyDenoiser(DenoiserConfig(radius=3))
        sample = SampleSchedule(6, swap_steps)
        real = ToyDenoiser.denoise
        anchored = frozenset(keys[::2])
        outs = []
        for anchors in (frozenset(), anchored):  # an anchor has no window
            round_windows = {k: w for k, w in windows.items() if k not in anchors}
            # one swap row per keyframe with a window, however many segments name it
            rows = len(round_windows)
            assert rows < sum(k in round_windows for k in slots)
            frames = {}  # denoised frames per step time

            def spy(self, prepared, z, t):
                frames[t] = frames.get(t, 0) + len(z)
                return real(self, prepared, z, t)

            monkeypatch.setattr(ToyDenoiser, "denoise", spy)
            outs.append(construct_gcg(cond, mask, segments, round_windows, den, sample, 3,
                                      anchors=anchors))
            # through the swap, the rows; after it, every slot but the anchors'
            assert [frames[float(t)] for t in sample.times[:-1]] == (
                [rows] * swap_steps + [len(slots) - sum(k in anchors for k in slots)]
                * (6 - swap_steps))
        # a keyframe outside the anchors evolves as it does with no anchors
        for seg, a, *others in zip(segments, *outs):
            for b in others:
                for pos, k in enumerate(seg):
                    if k not in anchored:
                        assert a[pos].tobytes() == b[pos].tobytes()


def _lockstep_construct_gcg(video_ds, mask_ds, segments, windows, denoiser, sample, rng_seed,
                            noise_tag="gcg"):
    """`construct_gcg` as it ran before the windows ran first, kept as its
    oracle: the stacks and each distinct window are one latent, [stack 1;
    ...; stack n; window 1; ...], stepped in lockstep, and the swap copies
    slots within it.  Every window is prepared and held for the whole
    round."""
    distinct = list(dict.fromkeys(windows.values()))
    stacks = list(segments) + distinct
    n = len(segments)
    bounds = np.cumsum([0] + [len(idx) for idx in stacks]).tolist()
    tiles = tuple(Tile(a, b, 0, video_ds.height, 0, video_ds.width)
                  for a, b in zip(bounds, bounds[1:]))
    slot = dict(zip(distinct, bounds[n:]))
    src = [slot[windows[k]] + windows[k].index(k) if k in windows else i
           for i, k in enumerate(sum(segments, ()))]
    frames = list(sum(stacks, ()))
    condition, mask = VideoTensor(video_ds.data[frames]), MaskVideo(mask_ds.data[frames])
    key_tiles, window_tiles = (tiling.prepare_tiles(denoiser, condition, mask,
                                                    TilePlan(condition.shape[:3], part), "sparse")
                               for part in (tiles[:n], tiles[n:]))
    keeping = [(group, prep) for group, prep in key_tiles
               if any(src[i] == i for tile in group for i in range(tile.f0, tile.f1))]
    z = np.concatenate([rng.normals(rng_seed, f"{noise_tag}:init:{f}", (1,) + video_ds.shape[1:])
                        for f in frames])
    stepped = np.empty(z.shape, dtype=np.float64)
    for s in range(sample.total_steps):
        t_from, t_to = float(sample.times[s]), float(sample.times[s + 1])

        def step_group(prep, z_group):
            return step(z_group, denoiser.denoise(prep, z_group, t_from), t_from, t_to)

        live = keeping + window_tiles if s < sample.swap_steps else key_tiles
        for tile, out in tiling.tile_outputs(live, z, step_group):
            stepped[tile.f0:tile.f1] = out
        z = stepped
        if s < sample.swap_steps:
            z[:len(src)] = z[src]
    return [z[tile.f0:tile.f1] for tile in tiles[:n]]


@contextlib.contextmanager
def _group_budget(voxels):
    saved, tiling.GROUP_VOXELS = tiling.GROUP_VOXELS, voxels
    try:
        yield
    finally:
        tiling.GROUP_VOXELS = saved


@st.composite
def _constructions(draw):
    """A round's segments and windows as `_run_segments` lays them out, a
    schedule, a seed, and whether the denoiser runs through the spatial
    adapter."""
    frames = draw(st.integers(1, 24))
    keys = sorted(draw(st.sets(st.integers(0, frames - 1), min_size=1, max_size=9)))
    count = draw(st.integers(1, min(5, len(keys))))
    segments, windows = _round(frames, tuple(keys), count, draw(st.integers(1, 3)))
    total = draw(st.integers(1, 4))
    sample = SampleSchedule(total, draw(st.integers(0, total)))
    return frames, segments, windows, sample, draw(st.integers(0, 2 ** 16)), draw(st.booleans())


def _narrowing(adapter):
    """The round's toy denoiser, directly or through the spatial adapter,
    whose prepare for rows narrows the whole prepared state."""
    den = NarrowingDenoiser(ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=3)))
    return tiling.SpatiallyTiledDenoiser(den, tiling.plan((1, 8, 8), 1, 6, 6, 0, 2, 2)) \
        if adapter else den


class TestWindowsFirst:
    @settings(max_examples=60, deadline=None)
    @given(case=_constructions(), budget=st.sampled_from([1, tiling.GROUP_VOXELS]))
    def test_equals_the_lockstep_construction(self, case, budget):
        """Byte for byte, with the rows prepared as the whole state narrowed
        to them: the row fill's own rounding is bounded in test_denoiser."""
        frames, segments, windows, sample, seed, adapter = case
        cond, mask = _masked_case(frames)
        den = _narrowing(adapter)
        with _group_budget(budget):
            got = construct_gcg(cond, mask, segments, windows, den, sample, seed)
            want = _lockstep_construct_gcg(cond, mask, segments, windows, den, sample, seed)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @settings(max_examples=60, deadline=None)
    @given(case=_constructions(), budget=st.sampled_from([1, tiling.GROUP_VOXELS]),
           data=st.data())
    def test_anchors_stay_zero(self, case, budget, data):
        """Some keyframes drawn as anchors, which have no window: every other
        slot equals the lockstep construction, byte for byte with the rows
        prepared as the whole state narrowed to them; an anchor's slots
        return zero, no noise is drawn for an anchor, and no anchor's slot
        reaches the denoiser."""
        frames, segments, windows, sample, seed, adapter = case
        keys = sorted(set(sum(segments, ())))
        anchors = frozenset(data.draw(st.sets(st.sampled_from(keys))))
        windows = {k: w for k, w in windows.items() if k not in anchors}
        cond, mask = _masked_case(frames)
        den = _narrowing(adapter)
        real, real_normals, labels = den.denoise, rng.normals, []

        def denoise(prepared, z, t):
            # every stepped latent row starts from noise, an anchor's slot from zero
            assert all(row.any() for row in z)
            return real(prepared, z, t)

        def normals(seed, label, shape):
            labels.append(label)
            return real_normals(seed, label, shape)

        with _group_budget(budget), pytest.MonkeyPatch.context() as patch:
            want = _lockstep_construct_gcg(cond, mask, segments, windows, den, sample, seed)
            patch.setattr(den, "denoise", denoise)
            patch.setattr(gcg.rng, "normals", normals)
            got = construct_gcg(cond, mask, segments, windows, den, sample, seed,
                                anchors=anchors)
        assert {f"gcg:init:{k}" for k in keys} - set(labels) == {f"gcg:init:{k}" for k in anchors}
        for seg, a, b in zip(segments, got, want):
            for pos, k in enumerate(seg):
                expected = np.zeros_like(b[pos]) if k in anchors else b[pos]
                assert a[pos].tobytes() == expected.tobytes()

    def test_windows_add_only_their_rows_to_the_peak(self):
        """Windows are prepared for their keyframes' rows only, and dropped,
        all but those rows, before the stacks are prepared.  So adding them
        to a run with no swap raises the traced peak by at most the rows'
        float32 `x0` (three channels) and `carry` (one) per keyframe, and a
        little bookkeeping, where holding every window raised it by far
        more."""
        frames, hw = 41, (32, 48)
        cond, mask = _masked_case(frames, hw)
        keys = select_keyframes(frames, 5)
        windows = _windows(keys, frames, delta=1)  # five disjoint windows
        assert len(set(sum(windows.values(), ()))) == 25
        den = ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=3))
        rows = len(keys) * np.prod(hw) * (3 + 1) * 4

        def growth(construct):
            peaks = []
            # with no swap, nothing reads a window; the second pair runs with warm caches
            for w, swap in (({}, 0), (windows, 2)) * 2:
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    construct(cond, mask, [keys], w, den, SampleSchedule(6, swap), 3)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
            return peaks[3] - peaks[2]

        with _group_budget(1):
            assert growth(construct_gcg) <= rows + 16 * 1024
            assert growth(_lockstep_construct_gcg) > 4 * rows


class TestGroupBudget:
    @pytest.mark.parametrize("adapter", [False, True], ids=["toy", "spatial-adapter"])
    def test_one_stack_groups_equal_default_groups(self, monkeypatch, adapter):
        # 33 frames, tau 4: several rounds of overlapping segments, which
        # share window stacks across constructions
        cond, mask = _masked_case(33)
        den = ToyDenoiser(DenoiserConfig(lambda_sparse=2.0, radius=3))
        if adapter:
            den = tiling.SpatiallyTiledDenoiser(den, tiling.plan((1, 8, 8), 1, 6, 6, 0, 2, 2))
        outs = []
        for budget in (tiling.GROUP_VOXELS, 1):
            monkeypatch.setattr(tiling, "GROUP_VOXELS", budget)
            merged, keys = multiscale_gcg(cond, mask, GcgParams(keyframes=5, delta=2, tau=4),
                                          denoiser=den, sample=SampleSchedule(3, 2), rng_seed=5)
            seg = select_keyframes(33, 5)
            [direct] = construct_gcg(cond, mask, [seg], _windows(seg, 33), den,
                                     SampleSchedule(3, 2), 5)
            outs.append((merged.data.tobytes(), keys, direct.tobytes()))
        assert outs[0] == outs[1]


class TestGaps:
    def test_max_gap(self):
        assert max_index_gap((0, 10, 25)) == 15
        assert max_index_gap(range(0, 50, 7)) == 7
        assert max_index_gap((0, 40, 80, 120)) == 40

    def test_max_gap_needs_two(self):
        with pytest.raises(ValueError):
            max_index_gap((3,))

    def test_midpoints_floor(self):
        assert midpoints((0, 41), 20) == (20,)

    def test_midpoints_respect_tau(self):
        assert midpoints((0, 10, 20), 20) == ()
        assert midpoints((0, 40, 80), 20) == (20, 60)


def _spy_rounds(monkeypatch) -> list:
    """(keys, output) of each densification round, in order."""
    rounds = []
    real = gcg._run_segments

    def spy(keys, *args):
        out = real(keys, *args)
        rounds.append((tuple(keys), out.copy()))
        return out

    monkeypatch.setattr(gcg, "_run_segments", spy)
    return rounds


def _first_outputs(rounds) -> dict:
    """Each keyframe's frame in the first round whose keys name it."""
    first = {}
    for keys, out in rounds:
        for pos, k in enumerate(keys):
            first.setdefault(k, out[pos])
    return first


class TestMultiscale:
    def test_no_densification_equals_direct_construction(self):
        video, mask = _observed_case(frames=20, seed=6)
        m = np.zeros(mask.data.shape, np.float32)
        m[:, 4:, :] = 1.0
        cond = VideoTensor(video.data * (1 - m))
        mask = MaskVideo(m)
        sample = SampleSchedule(3, 1)
        den = ToyDenoiser(DenoiserConfig(radius=3))
        initial = select_keyframes(20, 5)
        merged, keys = multiscale_gcg(cond, mask, GcgParams(keyframes=5, delta=2, tau=5),
                                      denoiser=den, sample=sample, rng_seed=9)
        assert keys == initial  # gaps are 4..5 <= tau, no rounds run
        [direct] = construct_gcg(cond, mask, [initial], _windows(initial, 20), den, sample, 9,
                                 noise_tag="gcg:r0")
        # the single-segment merge is the direct construction rounded to float32
        np.testing.assert_array_equal(merged.data, direct.astype(np.float32))

    def test_densifies_to_tau_with_immutable_anchors(self, monkeypatch):
        video, mask = _observed_case(frames=33, seed=7)
        m = np.zeros(mask.data.shape, np.float32)
        m[:, :, 4:] = 1.0
        cond = VideoTensor(video.data * (1 - m))
        mask = MaskVideo(m)
        rounds = _spy_rounds(monkeypatch)
        toy = ToyDenoiser(DenoiserConfig(radius=3))
        adapter = tiling.SpatiallyTiledDenoiser(toy, tiling.plan((1, 6, 6), 1, 4, 4, 0, 2, 2))
        for den in (toy, adapter):
            rounds.clear()
            merged, keys = multiscale_gcg(cond, mask, GcgParams(keyframes=5, delta=2, tau=4),
                                          denoiser=den, sample=SampleSchedule(3, 1), rng_seed=5)
            assert max_index_gap(keys) <= 4
            assert merged.frames == len(keys)
            assert len(rounds) >= 2
            # each final keyframe is the output of the round that first made it
            first = _first_outputs(rounds)
            assert set(first) == set(keys)
            for pos, k in enumerate(keys):
                assert merged.data[pos].tobytes() == first[k].tobytes()
        # the adapter's blended velocities do not bring an anchor's slot back
        # to the anchor bit for bit, so a later round's output for it differs
        assert any(out[pos].tobytes() != first[k].tobytes()
                   for ks, out in rounds[1:] for pos, k in enumerate(ks) if k in rounds[0][0])

    def test_481_reaches_25_keyframes(self):
        video, mask = _observed_case(frames=481, hw=(4, 4), seed=8)
        m = np.zeros(mask.data.shape, np.float32)
        m[:, :, 2:] = 1.0
        cond = VideoTensor(video.data * (1 - m))
        mask = MaskVideo(m)
        merged, keys = multiscale_gcg(cond, mask, GcgParams(keyframes=13, delta=5, tau=20),
                                      denoiser=ToyDenoiser(DenoiserConfig(radius=2)),
                                      sample=SampleSchedule(2, 1), rng_seed=3)
        assert len(keys) == 25
        assert max_index_gap(keys) == 20

    def test_round_cap_stops_stalled_densification(self, monkeypatch):
        # with no midpoints added the gaps never shrink; the round cap,
        # ceil(log2(33 / 4)) + 2 = 6, must end the loop
        monkeypatch.setattr(gcg, "midpoints", lambda indices, tau: ())
        video, mask = _observed_case(frames=33, seed=7)
        m = np.zeros(mask.data.shape, np.float32)
        m[:, :, 4:] = 1.0
        with pytest.raises(GcgError, match="within 6 rounds"):
            multiscale_gcg(VideoTensor(video.data * (1 - m)), MaskVideo(m),
                           GcgParams(keyframes=5, delta=2, tau=4),
                           denoiser=ToyDenoiser(DenoiserConfig(radius=3)),
                           sample=SampleSchedule(1, 0), rng_seed=5)


class TestAutoDelta:
    def test_static_content_gets_sparse_stride(self):
        video = VideoTensor(np.full((6, 4, 4, 1), 0.2, np.float32))
        assert auto_delta(video, 3) == 3

    def test_dynamic_content_gets_dense_stride(self):
        g = np.random.default_rng(0)
        video = VideoTensor(g.uniform(-1, 1, (6, 4, 4, 1)).astype(np.float32))
        assert auto_delta(video, 3) == 1

    def test_one_frame_has_no_motion(self):
        g = np.random.default_rng(0)
        video = VideoTensor(g.uniform(-1, 1, (1, 4, 4, 1)).astype(np.float32))
        assert auto_delta(video, 3) == 3
