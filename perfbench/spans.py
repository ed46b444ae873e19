"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions from outside: it replaces
each function in the namespace where its callers look it up (modules import
names with ``from .x import y``, so ``tiling.step`` and ``gcg.step`` are two
separate bindings of one function).  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, clip]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (or -1) and ``clip`` the id of the clip
being run.  Spans stay in memory and are written out once, at the end of the
run.  Outside a clip (set-up, warm-up, scoring) the wrappers only forward the
call, so tracing is off there.
"""
from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

from outpainter import cli, denoiser, gcg, pipeline, rng, tiling, video

NAME, START, END, PARENT, CLIP = range(5)

# (module, attribute, span name): every binding a caller looks up.
TRACED = (
    (pipeline, "run", "pipeline.run"),
    (pipeline, "tiled_denoise_pass", "tiling.pass"),
    (pipeline, "resize_bicubic", "video.resize_bicubic"),
    (tiling, "step", "sampler.step"),
    (gcg, "step", "sampler.step"),
    (tiling, "blend", "tiling.blend"),
    (gcg, "blend", "tiling.blend"),
    (gcg, "multiscale_gcg", "gcg.multiscale"),
    (gcg, "construct_gcg", "gcg.construct"),
    (rng, "normals", "rng.normals"),
    (denoiser, "inverse_distance_fill", "denoiser.fill"),
    (denoiser.ToyDenoiser, "denoise", "denoiser.denoise"),
    (tiling.SpatiallyTiledDenoiser, "denoise", "tiling.adapter"),
)

# Every per-layer metric, with its unit, in the order they are reported.
PER_LAYER = (
    [(f"pipeline.{s}_s", "s") for s in
     ("pad", "downsample", "guidance", "completion", "refinement", "trim")]
    + [("cli.overhead_s", "s"),
       ("denoiser.denoise_calls", "count"), ("denoiser.fill_calls", "count"),
       ("denoiser.fill_s", "s"), ("denoiser.fill_reuse", "ratio"),
       ("denoiser.zero_mask_calls", "count"), ("denoiser.denoise_self_s", "s"),
       ("tiling.pass_calls", "count"), ("tiling.tiles_per_pass", "count"),
       ("tiling.pass_self_s", "s"), ("tiling.blend_calls", "count"),
       ("tiling.blend_s", "s"), ("tiling.adapter_calls", "count"),
       ("tiling.adapter_self_s", "s"),
       ("sampler.step_calls", "count"), ("sampler.step_s", "s"),
       ("video.tensor_checks", "count"),
       ("gcg.multiscale_s", "s"), ("gcg.construct_calls", "count"),
       ("gcg.construct_self_s", "s"), ("gcg.rounds", "count"),
       ("gcg.keyframes", "count"),
       ("rng.normals_calls", "count"), ("rng.normals_s", "s"),
       ("video.resize_bicubic_calls", "count"), ("video.resize_bicubic_s", "s"),
       ("trace.clip_s_p50", "s")]
)


class Tracer:
    """Records spans and counters for the clips run between ``begin`` and
    ``end``; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.tags: dict[int, set] = defaultdict(set)
        self.stages: dict[int, dict[str, float]] = {}
        self.fired: Counter = Counter()  # calls per wrapped binding, in clips
        self.clip: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.clip])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def begin(self, clip: int) -> None:
        self.clip = clip

    def end(self) -> None:
        if self._stack:
            raise RuntimeError("clip ended with open spans")
        self.clip = None

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, name: str, label: str, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.clip is None:
                return fn(*args, **kwargs)
            tracer.fired[label] += 1
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str, fn):
        """Counters read from a call's arguments or result, outside its span."""
        if name == "denoiser.denoise":
            def zero_mask(args, kwargs):
                if not args[1].mask.data.any():
                    self.counts[self.clip]["denoiser.zero_mask_calls"] += 1
            return zero_mask, None
        if name == "tiling.pass":
            sig = inspect.signature(fn)

            def tiles(args, kwargs):
                plan = sig.bind(*args, **kwargs).arguments["tile_plan"]
                self.counts[self.clip]["tiling.tiles"] += len(plan.tiles)
            return tiles, None
        if name == "gcg.construct":
            sig = inspect.signature(fn)

            def tag(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.tags[self.clip].add(bound.arguments["noise_tag"])
            return tag, None
        if name == "pipeline.run":
            def stages(result):
                self.stages[self.clip] = dict(result.timings)
            return None, stages
        if name == "gcg.multiscale":
            def keys(result):
                self.counts[self.clip]["gcg.keyframes"] += len(result[1])
            return None, keys
        return None, None

    def _count_checks(self, fn):
        tracer = self

        def counted(obj):
            if tracer.clip is not None:
                tracer.counts[tracer.clip]["video.tensor_checks"] += 1
            return fn(obj)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TRACED:
            fn = owner.__dict__[attr]
            before, after = self._hooks(name, fn)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, binding(owner, attr), before, after))
        for cls in (video.VideoTensor, video.MaskVideo):
            fn = cls.__dict__["__post_init__"]
            self._saved.append((cls, "__post_init__", fn))
            cls.__post_init__ = self._count_checks(fn)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def call_cli(self, argv: list[str]) -> int:
        """``cli.main(argv)`` as the root span of the current clip."""
        idx = self.open("cli.main")
        try:
            return cli.main(argv)
        finally:
            self.close(idx)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover
        (children never overlap: the run is single-threaded)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def clip_layers(self, clip: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds in one clip."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            if span[CLIP] != clip:
                continue
            row = out[span[NAME]]
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += self_s
        return out

    def clip_metrics(self, clip: int) -> dict[str, float]:
        """Per-layer metrics of one clip (all but ``trace.clip_s_p50``).

        Stage times are ``RunResult.timings``, the unrounded source of the
        manifest's ``stage_seconds``."""
        layers = self.clip_layers(clip)
        counts = self.counts[clip]
        stages = self.stages.get(clip, {})

        def get(name, key):
            return layers[name][key] if name in layers else 0

        m = {f"pipeline.{s}_s": float(stages.get(s, 0.0)) for s in
             ("pad", "downsample", "guidance", "completion", "refinement", "trim")}
        m["cli.overhead_s"] = get("cli.main", "total_s") - get("pipeline.run", "total_s")
        denoise_calls = get("denoiser.denoise", "calls")
        fill_calls = get("denoiser.fill", "calls")
        m["denoiser.denoise_calls"] = denoise_calls
        m["denoiser.fill_calls"] = fill_calls
        m["denoiser.fill_s"] = get("denoiser.fill", "total_s")
        m["denoiser.fill_reuse"] = 1.0 - fill_calls / denoise_calls if denoise_calls else 0.0
        m["denoiser.zero_mask_calls"] = counts["denoiser.zero_mask_calls"]
        m["denoiser.denoise_self_s"] = get("denoiser.denoise", "self_s")
        pass_calls = get("tiling.pass", "calls")
        m["tiling.pass_calls"] = pass_calls
        m["tiling.tiles_per_pass"] = counts["tiling.tiles"] / pass_calls if pass_calls else 0.0
        m["tiling.pass_self_s"] = get("tiling.pass", "self_s")
        m["tiling.blend_calls"] = get("tiling.blend", "calls")
        m["tiling.blend_s"] = get("tiling.blend", "total_s")
        m["tiling.adapter_calls"] = get("tiling.adapter", "calls")
        m["tiling.adapter_self_s"] = get("tiling.adapter", "self_s")
        m["sampler.step_calls"] = get("sampler.step", "calls")
        m["sampler.step_s"] = get("sampler.step", "total_s")
        m["video.tensor_checks"] = counts["video.tensor_checks"]
        m["gcg.multiscale_s"] = get("gcg.multiscale", "total_s")
        m["gcg.construct_calls"] = get("gcg.construct", "calls")
        m["gcg.construct_self_s"] = get("gcg.construct", "self_s")
        m["gcg.rounds"] = len(self.tags[clip])
        m["gcg.keyframes"] = counts["gcg.keyframes"]
        m["rng.normals_calls"] = get("rng.normals", "calls")
        m["rng.normals_s"] = get("rng.normals", "total_s")
        m["video.resize_bicubic_calls"] = get("video.resize_bicubic", "calls")
        m["video.resize_bicubic_s"] = get("video.resize_bicubic", "total_s")
        return m

    def write(self, path) -> None:
        """One JSON object per span, with its self time."""
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": span[NAME], "start": span[START],
                                     "end": span[END], "parent": span[PARENT],
                                     "clip": span[CLIP], "self_s": self_s}) + "\n")


def binding(owner, attr: str) -> str:
    """Label of one wrapped binding, e.g. ``gcg.step`` or ``ToyDenoiser.denoise``."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def median_metrics(per_clip: list[dict[str, float]]) -> dict[str, float]:
    """Median over clips of every per-clip metric."""
    return {k: float(statistics.median(m[k] for m in per_clip)) for k in per_clip[0]}
