"""Benchmark of ``equiaudit audit`` on three fixed workloads.

Usage (from the root of a checkout):

    python3 auditbench/run.py --workload stock_audit --seed 0 --seconds 5 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median wall
time of fresh interpreters that import ``equiaudit.cli``), ``audit_s`` (wall
time of ``equiaudit.cli.main(["audit", ...])`` in a fresh process, after its
imports) and ``peak_rss_mb`` (peak resident memory of that process). With
``--trace 1`` the audit runs with every public function traced and it reports
the per-layer metrics instead.

Each audit runs in its own worker process and counts as one attempted
operation; it fails when any output check in checks.py fails. Audits repeat
until their summed time reaches ``--seconds`` (at least one). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Every workload uses radial filters, so the paper fixes each verdict in
# advance: a map aligns exactly when it is orthogonal.
WORKLOADS = {
    # the built-in default config of `equiaudit audit`, spelled out so the
    # workload does not move when the default does; convolution dominates
    "stock_audit": {
        "geometry": {"extent": 1.6, "spacing": 0.04, "refinements": 3},
        "transforms": ["rot:90", "shear:1", "scale:2"],
        "model": {
            "layers": 1,
            "channels": 1,
            "kernel_radius": 0.24,
            "nonlinearity": "identity",
            "symmetrization": "radial",
            "bias_scale": 0.0,
        },
    },
    # two layers of two channels: the channel mixing in layer_forward does
    # most of the work. The layers are linear: with relu and bias 0 about a
    # quarter of the seeds give an identically zero channel 0 on the corpus,
    # which full_paper_audit does not detect, and the run ends in exit 2.
    "deep_audit": {
        "geometry": {"extent": 1.2, "spacing": 0.04, "refinements": 3},
        "transforms": ["rot:90", "reflect:0", "shear:1", "scale:2"],
        "model": {
            "layers": 2,
            "channels": 2,
            "kernel_radius": 0.16,
            "nonlinearity": "identity",
            "symmetrization": "radial",
            "bias_scale": 0.0,
        },
    },
    # off-lattice maps make bilinear resampling interpolate for real. The
    # kernel is the smallest for which the filter-fixed-point check passes a
    # radial filter under rot:45 on every seed tried (at radius 0.10 about one
    # seed in ten fails it); shear:1.5 rather than shear:0.5, whose
    # misalignment is too weak to pass the floor confirmation on every seed.
    "warp_audit": {
        "geometry": {"extent": 1.6, "spacing": 0.04, "refinements": 3},
        "transforms": ["rot:45", "rot:30", "reflect:30", "shear:1.5", "scale:1.5"],
        "model": {
            "layers": 1,
            "channels": 1,
            "kernel_radius": 0.16,
            "nonlinearity": "identity",
            "symmetrization": "radial",
            "bias_scale": 0.0,
        },
    },
}

SETUP_RUNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s


def fail(message):
    print(f"auditbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(argv, env, deadline):
    """Run a child process to completion; return its wall time in seconds."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before starting a child process")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"child process timed out: {argv}")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"child process exited {proc.returncode}: {argv}\n{proc.stderr}")
    return wall


def measure_setup(env, deadline):
    """Median wall time of a fresh interpreter importing the CLI; one
    unmeasured import first writes the bytecode caches."""
    argv = [sys.executable, "-c", "import equiaudit.cli"]
    run_child(argv, env, deadline)
    return statistics.median(run_child(argv, env, deadline) for _ in range(SETUP_RUNS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "equiaudit" / "__init__.py").is_file():
        fail(f"no equiaudit sources under {src}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=str(src))

    out = HERE / "out"
    work = out / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        config = dict(WORKLOADS[args.workload], seed=args.seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2))

        setup_s = None if args.trace else measure_setup(env, deadline)
        results = []
        spent = 0.0
        while not results or spent < args.seconds:
            audit_out = work / f"audit{len(results)}"
            result_path = work / f"result{len(results)}.json"
            argv = [sys.executable, str(HERE / "worker.py"), str(config_path), str(audit_out), str(result_path)]
            if args.trace:
                argv.append(str(traces / f"{args.workload}-seed{args.seed}.json"))
            wall = run_child(argv, env, deadline)
            result = json.loads(result_path.read_text())
            if not Path(result["package_file"]).resolve().is_relative_to(src.resolve()):
                fail(f"imported equiaudit from {result['package_file']}, not from {src}")
            results.append(result)
            spent += result["audit_s"]
            shutil.rmtree(audit_out)
            if time.monotonic() + 2.0 * wall > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in results:
        for message in r["failures"] + r["selftest_missed"]:
            print(message, file=sys.stderr)
    if args.trace:
        traced_s = statistics.median(r["audit_s"] for r in results)
        print(f"# audit_s with tracing on (not a metric): {traced_s:.6g} s")
        names = results[0]["per_layer"]
        metrics = {
            name: {
                "value": statistics.median(r["per_layer"][name][0] for r in results),
                "unit": names[name][1],
            }
            for name in names
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "audit_s": {"value": statistics.median(r["audit_s"] for r in results), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in results),
                "unit": "MB",
            },
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not any(r["selftest_missed"] for r in results),
                "attempted": len(results),
                "failed": sum(1 for r in results if r["failures"]),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
