import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from equiaudit import (
    CnnModel,
    ConvLayer,
    GridGeometry,
    Nonlinearity,
    gaussian_filter,
    save_model,
)
from equiaudit.cli import main

SMALL_CONFIG = {
    "geometry": {"extent": 1.2, "spacing": 0.05, "refinements": 2},
    "transforms": ["rot:90"],
    "model": {
        "layers": 1,
        "channels": 1,
        "kernel_radius": 0.2,
        "nonlinearity": "identity",
        "symmetrization": "radial",
        "bias_scale": 0.0,
    },
    "corpus": {"glyphs": True},
    "seed": 0,
}


def _write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["out"] = str(tmp_path / "out")
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_classify_finite_rotation(capsys):
    assert main(["classify", "rot:36"]) == 0
    line = capsys.readouterr().out.strip()
    head, rest = line.split(" -> ")
    assert head == "rot:36"
    label, angle_kv, det_kv, admits_kv = rest.split(" ")
    assert label == "elliptic_finite_order(10)"
    assert float(angle_kv.removeprefix("angle=")) == pytest.approx(36.0)
    assert float(det_kv.removeprefix("det=")) == pytest.approx(1.0)
    assert admits_kv == "admits=yes_with_invariant_features"


def test_classify_hyperbolic_says_no(capsys):
    assert main(["classify", "shear:1"]) == 0
    line = capsys.readouterr().out.strip()
    assert "parabolic" in line
    assert line.endswith("admits=no")


def test_classify_rejects_malformed_and_singular(capsys):
    for bad in ("rot", "mat:1,2,2,4", "spin:90"):
        assert main(["classify", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("equiaudit:")


@pytest.mark.parametrize("spec", ["scale:1e300", "scale:1e7", "mat:1e300,1e300,1,1e300"])
def test_uninvertible_specs_exit_1_naming_the_spec(tmp_path, capsys, spec):
    # scale:1e300 has det inf; scale:1e7 an inverse of det 1e-14, which the
    # package's own inverse() would reject halfway through an audit
    assert main(["classify", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"equiaudit: malformed transform spec {spec!r}")
    cfg_path, _ = _write_config(tmp_path, transforms=[spec])
    assert main(["audit", "--config", str(cfg_path)]) == 1
    assert f"config error: malformed transform spec {spec!r}" in capsys.readouterr().err


def test_classify_far_from_singular_extreme_entries(capsys):
    # det 1 and an inverse of det 1, however large the entries
    assert main(["classify", "mat:1e200,0,0,1e-200"]) == 0
    assert " -> hyperbolic " in capsys.readouterr().out


def test_demo_wm_rotation_summary_and_files(tmp_path, capsys):
    # the channel-preserving residual is the whole response scale at every
    # spacing, the channel-swapped one is rounding noise
    for name, flags in (("wm", []), ("wm04", ["--spacing", "0.04"])):
        out = tmp_path / name
        assert main(["demo", "wm-rotation", "--out", str(out), *flags]) == 0
        printed = capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        assert summary == printed
        for dump in (
            "scene",
            "scene_rot180",
            "response_w",
            "response_m",
            "realigned_w",
            "realigned_m",
        ):
            assert (out / f"{dump}.pgm").exists()
            assert (out / f"{dump}.pgm.json").exists()
        m = re.search(
            r"channel-preserving residual ([\d.eE+-]+) \(scale ([\d.eE+-]+)\) vs "
            r"channel-swapped residual ([\d.eE+-]+) \(tol ([\d.eE+-]+)\)",
            summary,
        )
        assert m is not None, summary
        preserve, scale, swap, tol = map(float, m.groups())
        assert preserve >= 0.75 * scale, flags
        assert swap <= tol, flags


def test_demo_scale_fov_reports_response_drop(tmp_path, capsys):
    out = tmp_path / "fov"
    assert main(["demo", "scale-fov", "--out", str(out), "--spacing", "0.02"]) == 0
    summary = capsys.readouterr().out
    for name in ("template", "scene", "response", "scene_scaled", "response_scaled"):
        assert (out / f"{name}.pgm").exists()
    m = re.search(r"ratio ([\d.eE+-]+)", summary)
    assert m is not None
    assert float(m.group(1)) < 0.8


def test_demo_unknown_name(tmp_path, capsys):
    assert main(["demo", "nope", "--out", str(tmp_path)]) == 1
    assert "unknown demo" in capsys.readouterr().err


def test_demo_bad_spacing_exits_1(tmp_path, capsys):
    out = tmp_path / "fov"
    assert main(["demo", "scale-fov", "--out", str(out), "--spacing", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("equiaudit:")
    assert "spacing" in captured.err
    assert captured.out == ""
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("name", ["wm-rotation", "scale-fov"])
def test_demo_out_of_memory_exits_1(tmp_path, name):
    # spacing 1e-9 passes the grid's addressability check, but one kernel axis
    # alone needs several GiB; under a 2.5 GiB address-space limit the
    # allocation fails, and the demo must report it rather than crash
    resource = pytest.importorskip("resource")
    limit = int(2.5 * 2**30)

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "equiaudit", "demo", name,
         "--out", str(tmp_path), "--spacing", "1e-9"],
        capture_output=True,
        text=True,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("equiaudit:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "summary.txt").exists()


def test_audit_small_config_passes_and_writes_report(tmp_path, capsys):
    cfg_path, cfg = _write_config(tmp_path)
    assert main(["audit", "--config", str(cfg_path), "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "rot:90" in out and "[ok]" in out
    assert "consistent: True" in out

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["consistent"] is True
    assert report["config"]["transforms"] == ["rot:90"]
    assert report["config"]["geometry"]["spacing"] == 0.05
    assert "generated_at" not in report
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for expected in (
        "alignment[rot:90]",
        "classification[rot:90]",
        "filter-fixed-point[rot:90]",
        "naturality[rot:90]",
        "commutation[rot:90]",
        "generator-invariance[rot:90]",
        "aligner-necessity[rot:90]",
    ):
        assert expected in names
    # mollifier recovery is a library function, not an audit check
    assert "filter-recovery" not in names
    align = next(c for c in report["checks"] if c["name"] == "alignment[rot:90]")
    assert align["verdict"] == "aligned_within_tol"
    assert set(align) >= {"name", "paper_ref", "params", "residual", "verdict"}

    csv = (tmp_path / "out" / "curves" / "alignment_rot_90.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "# seed 0"
    assert lines[1] == "spacing,residual"
    assert len(lines) >= 4
    images = sorted((tmp_path / "out" / "images").glob("*.pgm"))
    assert images
    for img in images:
        assert img.with_suffix(".pgm.json").exists() or (
            img.parent / (img.name + ".json")
        ).exists()


def test_audit_deterministic_rerun_is_byte_identical(tmp_path):
    cfg_path, cfg = _write_config(tmp_path)
    argv = ["audit", "--config", str(cfg_path), "--deterministic"]
    assert main(argv) == 0
    out = tmp_path / "out"
    report1 = (out / "report.json").read_bytes()
    csv1 = (out / "curves" / "alignment_rot_90.csv").read_bytes()
    pgm = sorted((out / "images").glob("*.pgm"))[0]
    img1 = pgm.read_bytes()
    assert main(argv) == 0
    assert (out / "report.json").read_bytes() == report1
    assert (out / "curves" / "alignment_rot_90.csv").read_bytes() == csv1
    assert pgm.read_bytes() == img1


def test_audit_seed_comes_from_the_config_not_the_environment(tmp_path, capsys, monkeypatch):
    # a run is its config: an environment variable does not change the seed
    cfg_path, cfg = _write_config(tmp_path)
    assert cfg["seed"] == 0
    monkeypatch.setenv("EQUIAUDIT_SEED", "7")
    assert main(["audit", "--config", str(cfg_path), "--deterministic"]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 0
    assert report["config"]["seed"] == 0


def test_audit_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    # --seed overrides the config's seed; the environment changes nothing
    cfg_path, _ = _write_config(tmp_path)
    monkeypatch.setenv("EQUIAUDIT_SEED", "7")
    argv = ["audit", "--config", str(cfg_path), "--deterministic", "--seed", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 3
    assert report["config"]["seed"] == 3


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["audit", "--transforms", "shear:1e300", "--refinements", "1"],
            1,
            "equiaudit: config error: transform 'shear:1e300': ",
        ),
        (["classify", "mat:-1,1e300,0,1"], 0, "mat:-1,1e300,0,1 -> reflection_conjugate "),
    ],
    ids=["audit", "classify"],
)
def test_map_whose_norm_overflows_is_an_error_not_a_traceback(
    tmp_path, capsys, argv, code, expected
):
    # the square of an entry of 1e300 overflows a float in operator_norm, which
    # an audit needs for its warps; classify reads only trace and det
    if argv[0] == "audit":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(expected)
        assert "too large for its operator norm" in captured.err
    else:
        assert captured.out.startswith(expected)
        assert captured.err == ""
    assert "Traceback" not in captured.err


def test_audit_config_echo_is_the_filled_in_config(tmp_path, capsys, monkeypatch):
    # a partial config: every key it leaves out is echoed with its default,
    # the JSON integer extent as a float, and a flag as the value it set
    monkeypatch.chdir(tmp_path)
    (tmp_path / "partial.json").write_text(
        json.dumps({"transforms": ["rot:90"], "geometry": {"extent": 1}})
    )
    argv = ["audit", "--config", "partial.json", "--refinements", "1", "--deterministic"]
    assert main(argv) in (0, 2)
    capsys.readouterr()
    config = json.loads((tmp_path / "audit_out" / "report.json").read_text())["config"]
    assert config == {
        "geometry": {"extent": 1.0, "spacing": 0.04, "refinements": 1},
        "transforms": ["rot:90"],
        "model": {
            "layers": 1,
            "channels": 1,
            "kernel_radius": 0.24,
            "nonlinearity": "identity",
            "symmetrization": "radial",
            "bias_scale": 0.0,
        },
        "corpus": {"glyphs": True},
        "out": "audit_out",
        "seed": 0,
    }
    assert type(config["geometry"]["extent"]) is float


@pytest.mark.parametrize(
    "flag, specs",
    [
        ("rot:90,scale:3,0.5", ["rot:90", "scale:3,0.5"]),
        ("mat:0,-1,1,0", ["mat:0,-1,1,0"]),
        ("conj:scale:3,1:rot:90,shear:1", ["conj:scale:3,1:rot:90", "shear:1"]),
    ],
)
def test_audit_transforms_flag_keeps_commas_inside_a_spec(tmp_path, capsys, flag, specs):
    cfg_path, _ = _write_config(tmp_path)
    argv = ["audit", "--config", str(cfg_path), "--refinements", "1", "--transforms", flag]
    assert main(argv) in (0, 2)
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["transforms"] == specs


@pytest.mark.parametrize(
    "model, seed",
    [
        ({"nonlinearity": "lipschitz_sigmoid(1)"}, 0),
        ({"nonlinearity": "lipschitz_sigmoid(1)"}, 1),
        ({"nonlinearity": "relu", "bias_scale": 1}, 1),
    ],
    ids=["sigmoid-seed0", "sigmoid-seed1", "relu-bias-seed1"],
)
def test_audit_scale_leaves_out_the_constant_background(tmp_path, capsys, model, seed):
    # the default config with a channel that answers an empty input with a
    # constant: sigma(0) = 0.5 for the sigmoid, relu(b) for a positive bias.
    # Counted into the scale, that constant lifts tol(h) above the shear:1
    # misalignment, which then passes as aligned and makes the run inconsistent
    (tmp_path / "config.json").write_text(json.dumps({"model": model}))
    argv = ["audit", "--config", str(tmp_path / "config.json"), "--deterministic"]
    argv += ["--seed", str(seed), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert "consistent: True" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    observed = {e["transform"]: e["observed"] for e in report["expectations"]}
    assert observed["shear:1"] == "misaligned"


def test_audit_constant_channel_is_a_config_error(tmp_path, capsys):
    # relu of a hugely negative bias: channel 0 is 0.0 on every corpus entry
    lam = gaussian_filter(0.06, GridGeometry(0.2, 0.05))
    model = CnnModel((ConvLayer(((lam,),), (-1e3,), Nonlinearity("relu")),))
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    cfg_path, _ = _write_config(tmp_path, model=str(model_path))
    assert main(["audit", "--config", str(cfg_path), "--deterministic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("equiaudit: config error:")
    assert "channel 0" in err and "constant" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("layers", [5, None, []], ids=["number", "null", "empty"])
def test_audit_model_file_without_a_layer_list_is_a_config_error(tmp_path, capsys, layers):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"layers": layers}))
    cfg_path, _ = _write_config(tmp_path, model=str(model_path))
    assert main(["audit", "--config", str(cfg_path), "--deterministic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("equiaudit: config error:")
    assert "'layers' list" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["shear:1,shear:+1", "rot:90,rot:90"])
def test_audit_transforms_with_colliding_output_names_are_a_config_error(
    tmp_path, capsys, flag
):
    # both specs would write naturality_<name>.csv and alignment_<name>.*.pgm
    cfg_path, _ = _write_config(tmp_path)
    assert main(["audit", "--config", str(cfg_path), "--transforms", flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("equiaudit: config error:")
    first, second = flag.split(",")
    assert f"{first!r} and {second!r}" in err
    assert not (tmp_path / "out").exists()


def test_audit_flag_overrides_config(tmp_path, capsys):
    cfg_path, _ = _write_config(tmp_path)
    out2 = tmp_path / "elsewhere"
    assert (
        main(
            [
                "audit",
                "--config",
                str(cfg_path),
                "--deterministic",
                "--out",
                str(out2),
                "--seed",
                "3",
            ]
        )
        == 0
    )
    capsys.readouterr()
    report = json.loads((out2 / "report.json").read_text())
    assert report["seed"] == 3
    assert report["config"]["out"] == str(out2)


def test_audit_config_errors_exit_1(tmp_path, capsys, monkeypatch):
    # an empty out would write into the working directory
    monkeypatch.chdir(tmp_path)
    # a model file whose nonlinearity is a number, not a string
    lam = gaussian_filter(0.06, GridGeometry(0.2, 0.05))
    numeric_nl = tmp_path / "numeric_nl.json"
    save_model(CnnModel((ConvLayer(((lam,),), (0.0,), Nonlinearity("identity")),)), numeric_nl)
    payload = json.loads(numeric_nl.read_text())
    payload["layers"][0]["nonlinearity"] = 3
    numeric_nl.write_text(json.dumps(payload))
    for overrides in (
        {"wrong_key": 1},
        {"transforms": []},
        {"transforms": ["spin:90"]},
        {"geometry": {"extent": 1.2, "spacing": 0.05, "refinements": 0}},
        {"model": str(tmp_path / "missing_model.json")},
        {"geometry": [1]},
        {"corpus": 5},
        {"seed": [1]},
        {"geometry": {"extent": [1]}},
        {"model": {"nonlinearity": 3}},
        {"model": str(numeric_nl)},
        {"model": {"symmetrization": "n_fold", "n_fold": 0}},
        {"model": {"layers": 1.5}},
        {"model": {"channels": 1e999}},
        # a grid of about 82 EB, more than a 64-bit process can address:
        # GridGeometry rejects it before anything is allocated
        {"geometry": {"spacing": 1e-9}},
        # so does one whose side overflows a float when squared
        {"geometry": {"extent": 1e300}},
        {"model": {"kernel_radius": 1e300}},
        {"geometry": {"refinements": 2.5}},
        {"seed": 2.5},
        {"seed": True},
        {"model": {"layers": True}},
        {"corpus": {"bogus": 1}},
        {"corpus": {"glyphs": "no"}},
        {"out": None},
        {"out": 5},
        {"out": {}},
        {"out": ""},
    ):
        cfg_path, _ = _write_config(tmp_path, **overrides)
        assert main(["audit", "--config", str(cfg_path)]) == 1, overrides
        assert "config error" in capsys.readouterr().err
    assert main(["audit", "--config", str(cfg_path), "--out", ""]) == 1
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "numeric_nl.json"]
    assert main(["audit", "--config", str(tmp_path / "no_such.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [0, -0.1, float("nan"), float("inf"), 0.01, 1e-300])
def test_audit_bad_kernel_radius_names_the_key(tmp_path, capsys, radius):
    cfg_path, cfg = _write_config(tmp_path)
    cfg["model"]["kernel_radius"] = radius
    cfg_path.write_text(json.dumps(cfg))
    assert main(["audit", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("equiaudit: config error:")
    assert "model.kernel_radius" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("geometry", "extent", True),
        ("geometry", "spacing", False),
        ("model", "kernel_radius", True),
        ("model", "bias_scale", True),
        ("model", "bias_scale", float("nan")),
        ("model", "bias_scale", float("inf")),
        ("model", "bias_scale", float("-inf")),
        ("model", "nonlinearity", "lipschitz_sigmoid(inf)"),
    ],
)
def test_audit_bad_number_names_the_key(tmp_path, capsys, section, key, value):
    # a bool is not a number, and a non-finite one names its key instead of
    # ending in a grid that is not finite
    cfg_path, cfg = _write_config(tmp_path)
    cfg[section][key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["audit", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("equiaudit: config error:")
    assert f"{section}.{key}" in err


TINY_CONFIG = {
    "geometry": {"extent": 0.4, "spacing": 0.1, "refinements": 1},
    "transforms": ["rot:90"],
    "model": {"kernel_radius": 0.12},
    "corpus": {"glyphs": True},
    "out": "out",
}
# each leaf of a config and the wrong-type JSON values that replace it;
# a bool stays a valid corpus.glyphs, and "" is wrong only for out
_WRONG = [None, True, False, [], {}, float("nan"), float("inf"), float("-inf")]
_LEAVES = [
    (("geometry", "extent"), _WRONG),
    (("geometry", "spacing"), _WRONG),
    (("geometry", "refinements"), _WRONG),
    (("transforms",), _WRONG),
    (("transforms", 0), _WRONG),
    (("model", "layers"), _WRONG),
    (("model", "channels"), _WRONG),
    (("model", "kernel_radius"), _WRONG),
    (("model", "bias_scale"), _WRONG),
    (("model", "n_fold"), _WRONG),
    (("model", "nonlinearity"), _WRONG),
    (("model", "symmetrization"), _WRONG),
    (("corpus", "glyphs"), [None, [], {}, float("nan"), float("inf")]),
    (("seed",), _WRONG),
    (("out",), _WRONG + [""]),
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_audit_fuzzed_config_is_a_config_error(data):
    path, values = data.draw(st.sampled_from(_LEAVES))
    value = data.draw(st.sampled_from(values))
    cfg = json.loads(json.dumps(TINY_CONFIG))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["audit", "--config", "config.json"])
        finally:
            os.chdir(cwd)
    assert code == 1, (path, value)
    assert err.getvalue().startswith("equiaudit: config error:"), (path, value)
    assert "Traceback" not in err.getvalue()


# wrong arity, non-finite, huge or singular maps, and maps whose inverse's
# operator norm overflows (the warps need it)
_BAD_SPECS = [
    "shear:1e150",
    "shear:1e100",
    "shear:1e20",
    "mat:1e154,0,0,1e-154",
    "scale:1e150,1e-150",
    "mat:1e200,0,0,1e-200",
    "scale:1,2,3",
    "mat:1,2,3",
    "rot:nan",
    "shear:inf",
    "rot:1e400",
    "scale:1e300",
    "scale:1e-300",
    "mat:1,1,1,1",
    "scale:0",
    "shear:",
    "conj:rot:90",
]


@pytest.mark.parametrize("spec", _BAD_SPECS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_audit_fuzzed_transform_spec_is_a_config_error_naming_it(spec, data):
    # the bad spec among good ones, from the config file or from --transforms
    good = data.draw(st.lists(st.sampled_from(["rot:90", "shear:1", "reflect:30"]), unique=True))
    at = data.draw(st.integers(0, len(good)))
    specs = good[:at] + [spec] + good[at:]
    cfg = json.loads(json.dumps(TINY_CONFIG))
    argv = ["audit", "--config", "config.json"]
    if data.draw(st.booleans()):
        argv += ["--transforms", ",".join(specs)]
    else:
        cfg["transforms"] = specs
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code == 1, argv
    assert len(lines) == 1, lines
    assert lines[0].startswith("equiaudit: config error:"), lines
    assert spec in lines[0], lines
    assert [str(w.message) for w in caught] == []


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported only where a lipschitz_sigmoid layer is evaluated
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, equiaudit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "equiaudit", "classify", "rot:90"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rot:90 -> elliptic_finite_order(4)")
