import json
import re
import subprocess
import sys

import pytest

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
    out = tmp_path / "wm"
    assert main(["demo", "wm-rotation", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    summary = (out / "summary.txt").read_text()
    assert summary == printed
    for name in (
        "scene",
        "scene_rot180",
        "response_w",
        "response_m",
        "realigned_w",
        "realigned_m",
    ):
        assert (out / f"{name}.pgm").exists()
        assert (out / f"{name}.pgm.json").exists()
    m = re.search(
        r"channel-preserving residual ([\d.eE+-]+) \(floor ([\d.eE+-]+)\) vs "
        r"channel-swapped residual ([\d.eE+-]+) \(tol ([\d.eE+-]+)\)",
        summary,
    )
    assert m is not None
    preserve, floor, swap, tol = map(float, m.groups())
    assert preserve >= 1.5 * floor
    assert swap <= tol


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
        "filter-recovery",
        "naturality[rot:90]",
        "commutation[rot:90]",
        "generator-invariance[rot:90]",
        "aligner-necessity[rot:90]",
    ):
        assert expected in names
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


def test_audit_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg_path, _ = _write_config(tmp_path)
    monkeypatch.setenv("EQUIAUDIT_SEED", "7")
    assert main(["audit", "--config", str(cfg_path), "--deterministic"]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 7
    assert report["config"]["seed"] == 7


def test_audit_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    cfg_path, _ = _write_config(tmp_path)
    monkeypatch.setenv("EQUIAUDIT_SEED", "7")
    argv = ["audit", "--config", str(cfg_path), "--deterministic", "--seed", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 3
    assert report["config"]["seed"] == 3


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


def test_audit_config_errors_exit_1(tmp_path, capsys):
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
    ):
        cfg_path, _ = _write_config(tmp_path, **overrides)
        assert main(["audit", "--config", str(cfg_path)]) == 1, overrides
        assert "config error" in capsys.readouterr().err
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
