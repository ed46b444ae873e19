"""Command-line surface: exit codes, determinism, manifests, file formats."""
import contextlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import nan_velocity_in
from outpainter import metrics, pipeline
from outpainter.cli import _atomic_write_json, main
from outpainter.scene import CameraKey, SceneSpec
from outpainter.video import read_mask, read_ppm, read_raw, write_raw, VideoTensor


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("HLOP_SEED", raising=False)


def _write_scene(path: Path, seed=17, frames=None) -> Path:
    spec = SceneSpec(seed=seed, texture_octaves=2,
                     texture_base_freq=1.0 / 16.0, sprites=(),
                     camera=(CameraKey(0, 64.0, 64.0),))
    path.write_text(spec.to_json())
    return path


def _config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "pad": {"target_height": 16, "target_width": 24,
                "offset_y": 0, "offset_x": 0},
        "mode": "full",
        "seed": 0,
        "sampler": {"total_steps": 2, "swap_steps": 1},
        "gcg": {"keyframes": 3, "delta": 1, "tau": 5},
        "tiling": {"tile_t": 8, "overlap_t": 2, "tile_y": 16, "tile_x": 24,
                   "overlap_y": 4, "overlap_x": 6},
        "denoiser": {"radius": 3},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _synth(tmp_path: Path, prefix="case", seed=3, frames=8) -> Path:
    """Render `_write_scene`'s scene; `seed=None` passes no --seed flag."""
    scene_file = _write_scene(tmp_path / "scene.json")
    out = tmp_path / prefix
    flags = [] if seed is None else ["--seed", str(seed)]
    assert main(["synth", "--scene", str(scene_file), "--frames", str(frames),
                 "--crop=-8,-12,16,16", "--full=-8,-12,16,24",
                 *flags, "--out-prefix", str(out)]) == 0
    return out


def _same_files(a: Path, b: Path) -> bool:
    return all(Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes()
               for suffix in (".input.hlvd", ".truth.hlvd", ".mask.hlvd"))


def _usage_error(tmp_path: Path, capsys, config: Path, *flags: str) -> str:
    """Run `outpaint` expecting exit 2 with a one-line error; return the line."""
    with pytest.MonkeyPatch.context() as mp:  # synth checks HLOP_SEED too
        mp.delenv("HLOP_SEED", raising=False)
        prefix = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "o.hlvd"
    assert main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


# One valid sprite of a scene file.
_SPRITE = {"shape": "disc", "size": 4.0, "color": [0.1, 0.2, 0.3],
           "x0": 64.0, "y0": 64.0, "vx": 0.5, "vy": 0.0}


def _synth_error(tmp_path: Path, capsys, argv: list) -> str:
    """Run `synth` expecting exit 2 with a one-line error and no files."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("x.*"))
    return err


class TestSynth:
    def test_writes_triplet_deterministically(self, tmp_path):
        a = _synth(tmp_path, "a")
        b = _synth(tmp_path, "b")
        assert _same_files(a, b)
        clip = read_raw(f"{a}.input.hlvd")
        truth = read_raw(f"{a}.truth.hlvd")
        mask = read_mask(f"{a}.mask.hlvd")
        assert clip.shape == (8, 16, 16, 3)
        assert truth.shape == (8, 16, 24, 3)
        assert mask.data.shape == (8, 16, 24, 1)

    def test_crop_equals_full_identical_files(self, tmp_path):
        scene_file = _write_scene(tmp_path / "scene.json")
        out = tmp_path / "same"
        assert main(["synth", "--scene", str(scene_file), "--frames", "4",
                     "--crop=-8,-8,16,16", "--full=-8,-8,16,16",
                     "--out-prefix", str(out)]) == 0
        assert Path(f"{out}.input.hlvd").read_bytes() == \
            Path(f"{out}.truth.hlvd").read_bytes()

    def test_scene_flag_seed_changes_render(self, tmp_path):
        a = _synth(tmp_path, "a", seed=1)
        b = _synth(tmp_path, "b", seed=2)
        assert not _same_files(a, b)

    def test_scene_file_seed_without_flag(self, tmp_path):
        # _write_scene's scene file sets seed 17
        assert _same_files(_synth(tmp_path, "none", seed=None),
                           _synth(tmp_path, "flag", seed=17))

    def test_scene_env_seed_beats_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HLOP_SEED", "5")
        env = _synth(tmp_path, "env", seed=1)
        monkeypatch.delenv("HLOP_SEED")
        assert _same_files(env, _synth(tmp_path, "flag", seed=5))

    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "preset"
        assert main(["synth", "--preset", "textured", "--seed", "1",
                     "--out-prefix", str(out)]) == 0
        assert read_raw(f"{out}.input.hlvd").frames == 32

    def test_scene_without_rects_is_usage_error(self, tmp_path):
        scene_file = _write_scene(tmp_path / "scene.json")
        assert main(["synth", "--scene", str(scene_file),
                     "--out-prefix", str(tmp_path / "x")]) == 2

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out-prefix", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)], ids=["negative", "2**64"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bad_seed_exit_2(self, tmp_path, capsys, monkeypatch, seed, source):
        argv = ["synth", "--preset", "textured", "--out-prefix", str(tmp_path / "x")]
        if source == "env":
            monkeypatch.setenv("HLOP_SEED", seed)
        else:
            argv += ["--seed", seed]
        assert "seed must be an integer" in _synth_error(tmp_path, capsys, argv)

    @pytest.mark.parametrize("edit, flags, named", [
        ({"bogus": 1}, (), "bogus"),
        ({"seed": None}, (), "seed"),
        ({"seed": -1}, (), "seed"),
        ({}, ("--crop=a,b,c,d",), "a,b,c,d"),
        ({}, ("--frames", "0"), "--frames"),
        ({}, ("--full=0,0,4,4",), "not contained"),
        ({}, ("--crop=0,0,0,4",), "empty"),
        ({"sprites": [_SPRITE | {"size": "big"}]}, (), "scene.sprites[0].size"),
        ({"texture_base_freq": "x"}, (), "scene.texture_base_freq"),
        ({"sprites": [_SPRITE | {"shape": "hexagon"}]}, (), "sprite shape"),
        ({"sprites": [_SPRITE | {"color": [0.1, 0.2]}]}, (), "sprite color"),
        ({"sprites": [_SPRITE | {"color": [0.1, "red", 0.3]}]}, (), "sprites[0].color"),
        ({"sprites": [_SPRITE | {"color": [5.0, 0.2, 0.3]}]}, (), "sprite color"),
        ({"sprites": [_SPRITE | {"size": 0.0}]}, (), "sprite size"),
        ({"sprites": [_SPRITE | {"visible_from": 9, "visible_until": 2}]}, (), "visible_from"),
        ({"channels": 2}, (), "channels"),
        ({"texture_octaves": 0}, (), "texture_octaves"),
        ({"texture_octaves": 9}, (), "texture_octaves"),
        ({"texture_base_freq": 0}, (), "texture_base_freq"),
        ({"camera": []}, (), "camera"),
        ({"world_extent": 1024}, (), "world_extent"),
    ], ids=["unknown-key", "missing-seed", "negative-seed", "crop-not-int", "zero-frames",
            "crop-outside-full", "empty-crop", "sprite-size-not-number", "freq-not-number",
            "sprite-shape", "sprite-color-length", "sprite-color-not-number",
            "sprite-color-range", "sprite-size", "sprite-never-visible", "channels",
            "no-octaves", "too-many-octaves", "zero-freq", "empty-camera", "world-extent"])
    def test_malformed_scene_input_exit_2(self, tmp_path, capsys, edit, flags, named):
        scene_file = _write_scene(tmp_path / "scene.json")
        doc = json.loads(scene_file.read_text())
        doc.update(edit)
        scene_file.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        argv = ["synth", "--scene", str(scene_file), "--frames", "4", "--crop=-8,-12,16,16",
                "--full=-8,-12,16,24", *flags, "--out-prefix", str(tmp_path / "x")]
        assert named in _synth_error(tmp_path, capsys, argv)

    def test_preset_rejects_scene_flags(self, tmp_path, capsys):
        argv = ["synth", "--preset", "textured", "--frames", "8",
                "--out-prefix", str(tmp_path / "x")]
        assert "--frames" in _synth_error(tmp_path, capsys, argv)


# Strings int() reads as 5, 50 or 0 that are not ASCII digits alone.
@pytest.mark.parametrize("text", ["\u0665", "5_0", " 5", "5 ", "+5", "-0", ""],
                         ids=["arabic-indic-5", "underscore", "leading-space",
                              "trailing-space", "plus", "minus-zero", "empty"])
@pytest.mark.parametrize("source", ["--seed", "HLOP_SEED", "--frames", "--every"])
def test_integer_inputs_take_ascii_digits_only(tmp_path, capsys, monkeypatch, source, text):
    """Each integer a flag or HLOP_SEED gives exits 2 with one error line
    unless it is ASCII digits alone, as the config's JSON integers are."""
    synth = ["synth", "--scene", str(_write_scene(tmp_path / "scene.json")), "--crop=-8,-12,16,16",
             "--full=-8,-12,16,24", "--out-prefix", str(tmp_path / "x")]
    if source == "HLOP_SEED":
        monkeypatch.setenv("HLOP_SEED", text)
    argv = {"--seed": synth + [f"--seed={text}"], "HLOP_SEED": synth,
            "--frames": synth + [f"--frames={text}"],
            "--every": ["export-ppm", str(tmp_path / "in.hlvd"), str(tmp_path / "x"),
                        f"--every={text}"]}[source]
    err = _synth_error(tmp_path, capsys, argv)
    assert source in err
    assert ("seed must be an integer" if source in ("--seed", "HLOP_SEED")
            else "must be >= 1") in err


class TestOutpaint:
    def test_run_writes_output_and_manifest(self, tmp_path):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        out = tmp_path / "out.hlvd"
        assert main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out)]) == 0
        assert read_raw(out).shape == (8, 16, 24, 3)
        manifest = json.loads(out.with_suffix(".hlvd.manifest.json").read_text())
        assert manifest["mode"] == "full"
        assert manifest["keyframes"]
        assert set(manifest["stage_seconds"]) == {"pad", "downsample", "guidance",
                                                  "completion", "refinement"}
        assert manifest["peak_rss_mb"] > 0
        assert manifest["toolchain"] == {"numpy": np.__version__,
                                         "python": platform.python_version()}
        assert manifest["config"]["working"] == {"height": 8, "width": 12}

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        out1 = tmp_path / "out1.hlvd"
        main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out1)])
        manifest = json.loads(out1.with_suffix(".hlvd.manifest.json").read_text())
        config2 = tmp_path / "config2.json"
        config2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "out2.hlvd"
        main(["outpaint", str(config2), f"{prefix}.input.hlvd", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_modes_differ(self, tmp_path):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        outs = {}
        for mode in ("full", "baseline"):
            out = tmp_path / f"{mode}.hlvd"
            assert main(["outpaint", str(config), f"{prefix}.input.hlvd",
                         str(out), "--mode", mode]) == 0
            outs[mode] = read_raw(out).data
        assert not np.array_equal(outs["full"], outs["baseline"])

    def test_huge_delta_runs_at_widest_stride(self, tmp_path):
        # a delta wider than the 8-frame clip runs as delta = F - 1 does
        prefix = _synth(tmp_path)
        outs = []
        for delta in (10**12, 7):
            config = _config(tmp_path, gcg={"keyframes": 3, "delta": delta, "tau": 5})
            out = tmp_path / f"delta{delta}.hlvd"
            assert main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_field_exit_2(self, tmp_path):
        prefix = _synth(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "full"}))
        assert main(["outpaint", str(bad), f"{prefix}.input.hlvd",
                     str(tmp_path / "o.hlvd")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        prefix = _synth(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["outpaint", str(bad), f"{prefix}.input.hlvd",
                     str(tmp_path / "o.hlvd")]) == 2

    def test_unparsable_integer_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pad": {"target_height": 16, "target_width": 24}, "seed": %s}'
                       % ("9" * 5000))
        assert "not valid JSON" in _usage_error(tmp_path, capsys, bad)

    @pytest.mark.parametrize("doc", [
        {"pad": 3},
        [{"pad": {"target_height": 16, "target_width": 24}}],
        {"pad": {"target_height": 16, "target_width": 24}, "working": {"height": 4}},
        {"pad": {"target_height": "tall", "target_width": 24}},
    ], ids=["pad-not-object", "top-level-list", "working-height-only", "pad-value-not-int"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        _usage_error(tmp_path, capsys, bad)

    @pytest.mark.parametrize("overrides, named", [
        ({"workers": 2}, "workers"),
        ({"colour": "red"}, "colour"),
        ({"denoiser": {"radius": 3, "sigma": 1.0}}, "denoiser.sigma"),
        ({"pad": {"target_height": 16, "target_width": 24, "offset_z": 0}}, "pad.offset_z"),
        ({"codec": {"kind": "avgpool", "factor": 1}}, "codec.kind"),
        ({"denoiser": {"kind": "toy"}}, "denoiser.kind"),
        ({"sampler": {"refine_strength": 0.5}}, "sampler.refine_strength"),
    ], ids=["workers", "top-level", "denoiser-key", "pad-key", "codec-kind", "denoiser-kind",
            "refine-strength"])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, overrides, named):
        err = _usage_error(tmp_path, capsys, _config(tmp_path, **overrides))
        assert named in err

    @pytest.mark.parametrize("seed", ["x", 1.5, True, -1, 2 ** 64],
                             ids=["string", "float", "bool", "negative", "2**64"])
    def test_bad_config_seed_exit_2(self, tmp_path, capsys, seed):
        err = _usage_error(tmp_path, capsys, _config(tmp_path, seed=seed))
        assert "seed must be an integer" in err

    def test_bad_flag_and_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        config = _config(tmp_path)
        assert "seed" in _usage_error(tmp_path, capsys, config, "--seed", "-1")
        monkeypatch.setenv("HLOP_SEED", str(2 ** 64))
        assert "seed" in _usage_error(tmp_path, capsys, config)

    @pytest.mark.parametrize("section, key, value", [
        ("gcg", "keyframes", True), ("gcg", "delta_auto", "no"), ("gcg", "delta_auto", 0),
        ("sampler", "total_steps", 2.5), ("denoiser", "fill_floor", "0.5"),
        ("tiling", "tile_t", 16.0), ("working", "height", 8.5),
        ("pad", "target_width", 24.9), ("pad", "target_height", "16"),
        ("denoiser", "radius", 3.9), ("denoiser", "lambda_dense", "2")])
    def test_value_not_of_field_type_exit_2(self, tmp_path, capsys, section, key, value):
        doc = json.loads(_config(tmp_path).read_text())
        doc.setdefault(section, {"width": 24} if section == "working" else {})[key] = value
        err = _usage_error(tmp_path, capsys, _config(tmp_path, **doc))
        assert f"config field {section}.{key} must be" in err and "stage" not in err

    @pytest.mark.parametrize("key, value, named", [
        ("radius", 1000000000, "radius must be in [1, 16]"),
        ("lambda_dense", 1e-300, "lambda_sparse and lambda_dense must be >= 0.5")],
        ids=["radius-huge", "lambda-tiny"])
    def test_unbounded_neighborhood_exit_2(self, tmp_path, capsys, key, value, named):
        err = _usage_error(tmp_path, capsys, _config(tmp_path, denoiser={key: value}))
        assert f"config field denoiser: {named}" in err

    def test_hlvd_trailing_bytes_exit_2(self, tmp_path, capsys):
        prefix = _synth(tmp_path)
        padded = tmp_path / "padded.hlvd"
        padded.write_bytes(Path(f"{prefix}.input.hlvd").read_bytes() + b"junk")
        capsys.readouterr()
        assert main(["export-ppm", str(padded), str(tmp_path / "frames")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "payload" in err
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("command", ["outpaint", "ablate"])
    def test_out_of_range_input_exit_2(self, tmp_path, capsys, command):
        prefix = _synth(tmp_path)
        data = read_raw(f"{prefix}.input.hlvd").data.copy()
        data[2, 3, 4, 1] = 5.0
        bad = tmp_path / "bad.hlvd"
        write_raw(bad, VideoTensor(data))
        out = tmp_path / "out"
        target = out / "o.hlvd" if command == "outpaint" else out
        capsys.readouterr()
        assert main([command, str(_config(tmp_path)), str(bad), str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "[-1, 1]" in err and "is 5\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["outpaint", "ablate"])
    def test_canvas_smaller_than_clip_exit_2(self, tmp_path, capsys, command):
        prefix = _synth(tmp_path)
        config = _config(tmp_path, pad={"target_height": 4, "target_width": 4})
        out = tmp_path / "out"
        target = out / "o.hlvd" if command == "outpaint" else out
        capsys.readouterr()
        assert main([command, str(config), f"{prefix}.input.hlvd", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds target 4" in err
        assert not out.exists()

    def test_bad_input_file_exit_2(self, tmp_path):
        config = _config(tmp_path)
        bad = tmp_path / "bad.hlvd"
        bad.write_bytes(b"XXXX" + b"\x00" * 20)
        assert main(["outpaint", str(config), str(bad),
                     str(tmp_path / "o.hlvd")]) == 2

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        out_env = tmp_path / "env.hlvd"
        out_flag = tmp_path / "flag.hlvd"
        monkeypatch.setenv("HLOP_SEED", "9")
        main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out_env),
              "--seed", "4"])
        monkeypatch.delenv("HLOP_SEED")
        main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out_flag),
              "--seed", "9"])
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_bad_env_seed_exit_2(self, tmp_path, monkeypatch):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        monkeypatch.setenv("HLOP_SEED", "not-a-number")
        assert main(["outpaint", str(config), f"{prefix}.input.hlvd",
                     str(tmp_path / "o.hlvd")]) == 2


# Every key of the config's JSON form, with its default value.
_KEYS = {(section, key): value
         for section, doc in pipeline.PipelineConfig(pad=pipeline.PadSpec(16, 24)).to_dict().items()
         for key, value in (doc.items() if isinstance(doc, dict) else [(None, doc)])}


def _own_type(default):
    """Values of the type of `default`.  Integers stay small, so that a
    drawn step count or tile size runs in a moment."""
    if type(default) is bool:
        return st.booleans()
    if type(default) is int:
        return st.integers(-1, 24)
    if type(default) is float:
        return st.floats() | st.floats(-1.0, 2.0)
    return st.sampled_from(pipeline.MODES) | st.text(max_size=4)


@pytest.fixture(scope="module")
def short_clips(tmp_path_factory):
    """Input clips of 1 to 6 frames, by frame count."""
    root = tmp_path_factory.mktemp("clips")
    clips = {}
    for frames in range(1, 7):
        (root / str(frames)).mkdir()
        clips[frames] = f"{_synth(root / str(frames), frames=frames)}.input.hlvd"
    return root, clips


@given(frames=st.integers(1, 6), edits=st.lists(st.sampled_from(sorted(_KEYS, key=str)).flatmap(
    lambda path: st.tuples(st.just(path), _own_type(_KEYS[path]))), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_config_exits_0_or_2(short_clips, frames, edits):
    """A config with values of each key's own type either runs (exit 0) or
    is refused with one `error:` line (exit 2); it never fails at run time."""
    root, clips = short_clips
    doc = json.loads(_config(root).read_text())
    for (section, key), value in edits:
        if key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
    config = root / "fuzzed.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["outpaint", str(config), clips[frames], str(root / "out.hlvd")])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestEval:
    def test_perfect_match_report(self, tmp_path):
        prefix = _synth(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(["eval", f"{prefix}.truth.hlvd", f"{prefix}.truth.hlvd",
                     f"{prefix}.mask.hlvd", str(report_path)]) == 0
        rep = json.loads(report_path.read_text())
        assert rep["psnr"]["all"] == "+inf"
        assert rep["ssim"] == 1.0

    def test_report_into_a_missing_directory(self, tmp_path):
        prefix = _synth(tmp_path)
        report_path = tmp_path / "nodir" / "r.json"
        assert main(["eval", f"{prefix}.truth.hlvd", f"{prefix}.truth.hlvd",
                     f"{prefix}.mask.hlvd", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["ssim"] == 1.0

    def test_values_match_library(self, tmp_path):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        out = tmp_path / "out.hlvd"
        main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out)])
        report_path = tmp_path / "report.json"
        assert main(["eval", str(out), f"{prefix}.truth.hlvd",
                     f"{prefix}.mask.hlvd", str(report_path)]) == 0
        rep = json.loads(report_path.read_text())
        expected = metrics.report(read_raw(out), read_raw(f"{prefix}.truth.hlvd"),
                                  read_mask(f"{prefix}.mask.hlvd"))
        assert rep == json.loads(json.dumps(expected))


def _scoring_error(capsys, argv: list, written: Path) -> str:
    """Run `argv` expecting exit 2 with a one-line error and `written` absent."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not written.exists()
    return err


def _small_triplet(tmp_path: Path) -> Path:
    """An 8-frame 6x6 clip, with a truth and a mask of its shape, and a
    config that outpaints it onto a 6x6 canvas: frames below the 8x8 SSIM
    window."""
    g = np.random.default_rng(0)
    prefix = tmp_path / "small"
    write_raw(f"{prefix}.input.hlvd", VideoTensor(g.uniform(-1, 1, (8, 6, 6, 3))))
    write_raw(f"{prefix}.truth.hlvd", VideoTensor(g.uniform(-1, 1, (8, 6, 6, 3))))
    write_raw(f"{prefix}.mask.hlvd", VideoTensor(np.zeros((8, 6, 6, 1))))
    return prefix


def _other_shape(tmp_path: Path, prefix: Path, name: str) -> str:
    """The file `{prefix}.{name}.hlvd` with one frame fewer."""
    path = tmp_path / f"short.{name}.hlvd"
    write_raw(path, VideoTensor(read_raw(f"{prefix}.{name}.hlvd").data[1:]))
    return str(path)


class TestScoringFiles:
    @pytest.mark.parametrize("bad", ["truth", "mask"])
    def test_eval_shape_mismatch_exit_2(self, tmp_path, capsys, bad):
        prefix = _synth(tmp_path)
        files = {name: f"{prefix}.{name}.hlvd" for name in ("truth", "mask")}
        files[bad] = _other_shape(tmp_path, prefix, bad)
        report = tmp_path / "report.json"
        err = _scoring_error(capsys, ["eval", f"{prefix}.truth.hlvd", files["truth"],
                                      files["mask"], str(report)], report)
        assert f"{bad} {files[bad]} is (7, 16, 24," in err

    def test_eval_frames_below_ssim_window_exit_2(self, tmp_path, capsys):
        prefix = _small_triplet(tmp_path)
        report = tmp_path / "report.json"
        err = _scoring_error(capsys, ["eval", f"{prefix}.input.hlvd", f"{prefix}.truth.hlvd",
                                      f"{prefix}.mask.hlvd", str(report)], report)
        assert "6x6 are smaller than the 8x8 SSIM window" in err

    def test_eval_three_channel_mask_exit_2(self, tmp_path, capsys):
        prefix = _synth(tmp_path)
        mask = tmp_path / "rgb.mask.hlvd"
        write_raw(mask, read_raw(f"{prefix}.truth.hlvd"))
        report = tmp_path / "report.json"
        err = _scoring_error(capsys, ["eval", f"{prefix}.truth.hlvd", f"{prefix}.truth.hlvd",
                                      str(mask), str(report)], report)
        assert f"{mask}: channel count 3 not in (1,)" in err

    @pytest.mark.parametrize("bad", ["truth", "mask"])
    def test_ablate_shape_mismatch_exit_2(self, tmp_path, capsys, bad):
        prefix = _synth(tmp_path)
        files = {name: f"{prefix}.{name}.hlvd" for name in ("truth", "mask")}
        files[bad] = _other_shape(tmp_path, prefix, bad)
        outdir = tmp_path / "ablation"
        err = _scoring_error(capsys, ["ablate", str(_config(tmp_path)), f"{prefix}.input.hlvd",
                                      str(outdir), "--truth", files["truth"],
                                      "--mask", files["mask"]], outdir)
        assert f"{bad} {files[bad]} is (7, 16, 24," in err

    def test_ablate_frames_below_ssim_window_exit_2(self, tmp_path, capsys):
        prefix = _small_triplet(tmp_path)
        config = _config(tmp_path, pad={"target_height": 6, "target_width": 6})
        outdir = tmp_path / "ablation"
        err = _scoring_error(capsys, ["ablate", str(config), f"{prefix}.input.hlvd", str(outdir),
                                      "--truth", f"{prefix}.truth.hlvd",
                                      "--mask", f"{prefix}.mask.hlvd"], outdir)
        assert "SSIM window" in err

    @pytest.mark.parametrize("given", ["truth", "mask"])
    def test_ablate_needs_truth_and_mask_together(self, tmp_path, capsys, given):
        prefix = _synth(tmp_path)
        outdir = tmp_path / "ablation"
        err = _scoring_error(capsys, ["ablate", str(_config(tmp_path)), f"{prefix}.input.hlvd",
                                      str(outdir), f"--{given}", f"{prefix}.{given}.hlvd"],
                             outdir)
        assert "--truth and --mask together" in err


class TestExportPpm:
    def test_every_frame_and_mapping(self, tmp_path):
        frame = np.zeros((2, 4, 4, 3), np.float32)
        frame[0] = 1.0
        frame[1] = -1.0
        src = tmp_path / "v.hlvd"
        write_raw(src, VideoTensor(frame))
        outdir = tmp_path / "frames"
        assert main(["export-ppm", str(src), str(outdir)]) == 0
        files = sorted(outdir.glob("*.ppm"))
        assert len(files) == 2
        assert (read_ppm(files[0]).data == 1.0).all()
        assert (read_ppm(files[1]).data == -1.0).all()

    def test_every_exceeding_frames_exports_first_only(self, tmp_path):
        prefix = _synth(tmp_path)
        outdir = tmp_path / "frames"
        assert main(["export-ppm", f"{prefix}.input.hlvd", str(outdir),
                     "--every", "100"]) == 0
        assert [p.name for p in sorted(outdir.glob("*.ppm"))] == ["frame_00000.ppm"]

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_non_positive_every_exit_2(self, tmp_path, capsys, every):
        prefix = _synth(tmp_path)
        outdir = tmp_path / "frames"
        capsys.readouterr()
        assert main(["export-ppm", f"{prefix}.input.hlvd", str(outdir),
                     f"--every={every}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --every must be >= 1, got {every}\n"
        assert not outdir.exists()

    def test_round_trip_quantization(self, tmp_path):
        prefix = _synth(tmp_path)
        outdir = tmp_path / "frames"
        main(["export-ppm", f"{prefix}.input.hlvd", str(outdir), "--every", "8"])
        original = read_raw(f"{prefix}.input.hlvd")
        back = read_ppm(outdir / "frame_00000.ppm")
        assert np.abs(back.data - original.data[:1]).max() <= 1.0 / 127.5


class TestAblate:
    def test_all_modes_with_metrics(self, tmp_path):
        prefix = _synth(tmp_path)
        config = _config(tmp_path)
        outdir = tmp_path / "ablation"
        assert main(["ablate", str(config), f"{prefix}.input.hlvd", str(outdir),
                     "--truth", f"{prefix}.truth.hlvd",
                     "--mask", f"{prefix}.mask.hlvd"]) == 0
        table = json.loads((outdir / "ablation.json").read_text())["modes"]
        assert set(table) == {"full", "spatial_only", "temporal_only", "baseline"}
        for row in table.values():
            assert "psnr_outpainted" in row and "ssim" in row
        for mode in table:
            assert (outdir / f"{mode}.hlvd").exists()


class TestUnreadableInput:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["outpaint", "eval", "export-ppm", "ablate --truth"])
    def test_exit_2(self, tmp_path, capsys, command, kind):
        prefix = _synth(tmp_path)
        bad = tmp_path / "bad.hlvd"
        if kind == "directory":
            bad.mkdir()
        truth, mask = f"{prefix}.truth.hlvd", f"{prefix}.mask.hlvd"
        out = tmp_path / "out"
        argv = {"outpaint": ["outpaint", str(_config(tmp_path)), str(bad), str(out / "o.hlvd")],
                "eval": ["eval", str(bad), truth, mask, str(out / "report.json")],
                "export-ppm": ["export-ppm", str(bad), str(out)],
                "ablate --truth": ["ablate", str(_config(tmp_path)), f"{prefix}.input.hlvd",
                                   str(out), "--truth", str(bad), "--mask", mask]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
        assert not out.exists()


_HEADER = b"HLVD" + np.array([1, 2, 2, 3], "<u4").tobytes()  # 12 floats, 48 bytes
_NAN = np.zeros(12, "<f4")
_NAN[5] = np.nan


@pytest.mark.parametrize("content, message", [
    (b"NOPE" + b"\x00" * 64, "{}: bad magic, not an HLVD file"),
    (b"HLVD\x01\x00", "{}: bad magic, not an HLVD file"),
    (_HEADER + b"\x00" * 44, "{}: payload of 44 bytes, expected 48 for 12 floats"),
    (_HEADER + b"\x00" * 52, "{}: payload of 52 bytes, expected 48 for 12 floats"),
    (_HEADER + _NAN.tobytes(), "{}: non-finite values in payload"),
    (None, "cannot read {}: No such file or directory"),
    ("directory", "cannot read {}: Is a directory"),
], ids=["magic", "short-header", "short-payload", "long-payload", "non-finite", "missing",
        "directory"])
def test_malformed_hlvd_message(tmp_path, capsys, content, message):
    """Each malformed or unreadable HLVD file exits 2 with its own one-line
    message, naming the file."""
    bad = tmp_path / "bad.hlvd"
    if content == "directory":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    assert main(["export-ppm", str(bad), str(tmp_path / "frames")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(bad)}\n"
    assert not (tmp_path / "frames").exists()


def test_failed_json_write_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _atomic_write_json(path, {"a": 1, "b": object()})
    assert list(tmp_path.iterdir()) == []


def test_interrupt_is_not_a_stage_error(tmp_path, monkeypatch):
    prefix = _synth(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "temporal_completion", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["outpaint", str(_config(tmp_path)), f"{prefix}.input.hlvd",
              str(tmp_path / "o.hlvd")])


def test_nan_made_while_sampling_exits_1(tmp_path, capsys, monkeypatch):
    prefix = _synth(tmp_path)
    config = _config(tmp_path)
    steps = json.loads(config.read_text())["sampler"]["total_steps"]
    poisoned = nan_velocity_in(monkeypatch, pipeline, "temporal_completion", steps)
    out = tmp_path / "o.hlvd"
    capsys.readouterr()
    assert main(["outpaint", str(config), f"{prefix}.input.hlvd", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(poisoned) == 1
    assert err.startswith("error: stage 'completion' failed: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not out.exists()
