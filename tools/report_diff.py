"""Byte-identity check of the audit outputs of two checkouts.

Usage:

    python3 tools/report_diff.py PARENT_DIR CHANGE_DIR

Each checkout runs with its own ``src/`` on PYTHONPATH, every case in a fresh
directory of its own. The cases are ``equiaudit audit --deterministic`` on:

- each auditbench workload (read from ``auditbench/run.py`` next to this
  script) at seeds 0 and 11;
- the built-in default config at ``refinements: 4``;
- ``deep_audit`` with relu layers at seeds 0 and 2 (seed 2 has a constant
  channel and exits 1);
- ``deep_audit`` with a softmax last layer at seed 0, whose channel operator
  evaluates the whole last layer;
- ``deep_audit`` with relu layers and ``bias_scale: 1`` at seed 1, whose
  channel operator cuts a last layer with a nonzero bias (seed 0 of that
  config has a constant channel and exits 1);
- ``deep_audit`` with ``n_fold`` and with ``none`` symmetrization at seed 0,
  the runs that build random blob filters;
- the built-in default config with a ``lipschitz_sigmoid(1)`` channel at
  seed 0, whose response to an empty input is not zero;
- the built-in default config with ``--model-file``, a model file that the
  parent checkout writes once for both sides (the default recipe at spacing
  0.04, seed 0);

both ``equiaudit demo`` figures at spacing 0.02; and ``equiaudit classify``
on one spec of each kind, the half-turn, a hyperbolic map whose squared
trace overflows and a rotation conjugated by a shear. A case is identical
when stdout, stderr, the exit code and every file of its output directory
(``report.json``, ``curves/``, ``images/``, or a demo's summary and images;
``classify`` writes none) match byte for byte. Prints one line per case and
exits 1 when any case differs, 0 when none does. When a case's
``report.json`` differs, a second line names what changed in it: the checks
on one side only (``removed`` from the parent, ``added`` by the change), the
checks on both sides that differ, and the other top-level keys that differ.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "auditbench" / "run.py"
AUDIT_SEEDS = (0, 11)
RELU_SEEDS = (0, 2)
DEMO_SPACING = "0.02"
CLASSIFY_SPECS = (
    "mat:1,0,0,1",
    "rot:90",
    "rot:180",
    "rot:0.5",
    "shear:1",
    "scale:2,0.5",
    "reflect:30",
    "scale:1.7",
    "mat:1e200,0,0,1e-200",
    "conj:shear:1:rot:45",
)
OUT_COMMANDS = ("audit", "demo")  # the subcommands that take --out
WRITE_MODEL = (
    "import sys\n"
    "from numpy.random import default_rng\n"
    "from equiaudit import build_model, save_model\n"
    "from equiaudit.cli import DEFAULT_CONFIG\n"
    "save_model(build_model(DEFAULT_CONFIG['model'], 0.04, default_rng(0)), sys.argv[1])\n"
)


def read_workloads(path=RUN_PY):
    """The WORKLOADS literal of auditbench/run.py, read without running it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"report_diff: no WORKLOADS in {path}")


def cases(model_file):
    """(name, config or None, CLI arguments after the subcommand's name)."""
    workloads = read_workloads()
    out = []
    for name, config in workloads.items():
        for seed in AUDIT_SEEDS:
            out.append((f"{name}-seed{seed}", dict(config, seed=seed), ["audit"]))
    out.append(("default-refinements4", {"geometry": {"refinements": 4}}, ["audit"]))
    deep = workloads["deep_audit"]
    relu = dict(deep, model=dict(deep["model"], nonlinearity="relu"))
    for seed in RELU_SEEDS:
        out.append((f"deep_audit_relu-seed{seed}", dict(relu, seed=seed), ["audit"]))
    softmax = dict(deep, model=dict(deep["model"], nonlinearity="softmax"), seed=0)
    out.append(("deep_audit_softmax-seed0", softmax, ["audit"]))
    relu_bias = dict(deep, model=dict(relu["model"], bias_scale=1), seed=1)
    out.append(("deep_audit_relu_bias-seed1", relu_bias, ["audit"]))
    for sym in ("n_fold", "none"):
        blobs = dict(deep, model=dict(deep["model"], symmetrization=sym), seed=0)
        out.append((f"deep_audit_{sym}-seed0", blobs, ["audit"]))
    sigmoid = {"model": {"nonlinearity": "lipschitz_sigmoid(1)"}, "seed": 0}
    out.append(("default-sigmoid-seed0", sigmoid, ["audit"]))
    out.append(("default-model-file", {}, ["audit", "--model-file", str(model_file)]))
    for demo in ("wm-rotation", "scale-fov"):
        out.append((f"demo-{demo}", None, ["demo", demo, "--spacing", DEMO_SPACING]))
    for spec in CLASSIFY_SPECS:
        out.append((f"classify-{spec}", None, ["classify", spec]))
    return out


def _env(checkout):
    # the package reads no seed from the environment, but older checkouts
    # compared against it let EQUIAUDIT_SEED override the config's seed
    env = {k: v for k, v in os.environ.items() if k != "EQUIAUDIT_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def run_case(checkout, work, config, args):
    """Run one case in the empty directory ``work``; return its stdout,
    stderr, exit code and {relative path: bytes} of its output directory."""
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "equiaudit", *args]
    if args[0] in OUT_COMMANDS:
        argv += ["--out", "out"]
    if config is not None:
        (work / "config.json").write_text(json.dumps(config, indent=2))
        argv += ["--config", "config.json", "--deterministic"]
    proc = subprocess.run(argv, cwd=work, env=_env(checkout), capture_output=True)
    out = work / "out"
    files = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode, "files": files}


def differences(a, b):
    diffs = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
    for path in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(path) != b["files"].get(path):
            diffs.append(path)
    return diffs


def report_changes(a, b):
    """What differs between two report.json byte strings, as one line."""
    reports = [json.loads(r) for r in (a, b)]
    checks = [{c["name"]: c for c in r.pop("checks", [])} for r in reports]
    names = sorted(set(checks[0]) | set(checks[1]))
    lists = {
        "removed": [n for n in names if n not in checks[1]],
        "added": [n for n in names if n not in checks[0]],
        "changed": [
            n for n in names if n in checks[0] and n in checks[1] and checks[0][n] != checks[1][n]
        ],
        "changed keys": [
            k for k in sorted(set(reports[0]) | set(reports[1]))
            if reports[0].get(k) != reports[1].get(k)
        ],
    }
    return "; ".join(f"{what} {', '.join(items)}" for what, items in lists.items() if items)


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(d).resolve() for d in argv)
    for checkout in (parent, change):
        if not (checkout / "src" / "equiaudit" / "__init__.py").is_file():
            print(f"report_diff: no equiaudit sources under {checkout / 'src'}", file=sys.stderr)
            return 2
    n_diff = 0
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        model_file = Path(tmp) / "model.json"
        subprocess.run(
            [sys.executable, "-c", WRITE_MODEL, str(model_file)], env=_env(parent), check=True
        )
        all_cases = cases(model_file)
        for name, config, args in all_cases:
            runs = [
                run_case(checkout, Path(tmp) / side / name, config, args)
                for side, checkout in (("parent", parent), ("change", change))
            ]
            diffs = differences(*runs)
            n_diff += bool(diffs)
            status = "DIFF " + ", ".join(diffs) if diffs else "same"
            print(f"{name}: exit {runs[0]['exit']}, {len(runs[0]['files'])} files, {status}")
            if "report.json" in diffs and all("report.json" in r["files"] for r in runs):
                changes = report_changes(*(r["files"]["report.json"] for r in runs))
                print(f"  report.json: {changes or 'same values, other bytes'}")
    if n_diff:
        print(f"differ: {n_diff} of {len(all_cases)} cases")
        return 1
    print(f"identical: {len(all_cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
