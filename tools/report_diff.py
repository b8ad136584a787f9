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

and both ``equiaudit demo`` figures at spacing 0.02. A case is identical when
stdout, stderr, the exit code and every file of its output directory
(``report.json``, ``curves/``, ``images/``, or a demo's summary and images)
match byte for byte. Prints one line per case and exits 1 when any case
differs, 0 when none does.
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


def read_workloads(path=RUN_PY):
    """The WORKLOADS literal of auditbench/run.py, read without running it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"report_diff: no WORKLOADS in {path}")


def cases():
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
    for demo in ("wm-rotation", "scale-fov"):
        out.append((f"demo-{demo}", None, ["demo", demo, "--spacing", DEMO_SPACING]))
    return out


def run_case(checkout, work, config, args):
    """Run one case in the empty directory ``work``; return its stdout,
    stderr, exit code and {relative path: bytes} of its output directory."""
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "equiaudit", *args, "--out", "out"]
    if config is not None:
        (work / "config.json").write_text(json.dumps(config, indent=2))
        argv += ["--config", "config.json", "--deterministic"]
    env = {k: v for k, v in os.environ.items() if k != "EQUIAUDIT_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
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
    all_cases = cases()
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        for name, config, args in all_cases:
            runs = [
                run_case(checkout, Path(tmp) / side / name, config, args)
                for side, checkout in (("parent", parent), ("change", change))
            ]
            diffs = differences(*runs)
            n_diff += bool(diffs)
            status = "DIFF " + ", ".join(diffs) if diffs else "same"
            print(f"{name}: exit {runs[0]['exit']}, {len(runs[0]['files'])} files, {status}")
    if n_diff:
        print(f"differ: {n_diff} of {len(all_cases)} cases")
        return 1
    print(f"identical: {len(all_cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
