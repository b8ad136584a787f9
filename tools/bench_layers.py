"""Before/after timings of equiaudit's kernels, the stock audit and the test suite.

Usage, from the root of a checkout:

    python3 tools/bench_layers.py --checkout parent=/path/to/parent \\
        --checkout change=. --out BENCH_10.json

Each checkout is measured with its own ``src/`` on PYTHONPATH by the
interpreter that runs this script. The layer timings and the audit are
measured in ROUNDS rounds that alternate the order of the checkouts, each
checkout in a fresh process per round, so that a drift in the machine's
speed shows as spread instead of as a difference between checkouts. Each
timing records, per checkout, the median over rounds, every round's value
and ``wins``: the number of rounds in which that checkout was the fastest.
Per checkout it records:

- ``stock_audit_s``: wall time of ``python3 -m equiaudit audit --deterministic``
  with the built-in default config, interpreter start-up included: the median
  over rounds, and each round's value;
- ``stock_audit_peak_rss_mb``: the peak resident memory of that audit's
  process (its ``ru_maxrss``, read with ``os.wait4``), per round;
- ``stock_audit_traced_peak_mb``: the ``tracemalloc`` peak of one in-process
  ``equiaudit audit --deterministic`` of the built-in default config, in a
  fresh process per round: model build, audit and writing the outputs into a
  temporary directory. It counts live allocations only, so unlike the
  resident peak it does not move with the allocator's heap layout;
- ``depth``: the default audit at ``refinements`` 4 and 5, with its wall
  time ``audit_s`` and its ``peak_rss_mb``, in DEPTH_ROUNDS rounds that
  alternate the order of the checkouts like the rounds above (the time at 5
  moves by about 10 % between fresh runs, so one run cannot tell a change
  from noise): the median over rounds, each round's value and the wins;
- ``suite_s``: wall time of one tier-1 pytest run in the checkout, and its
  summary line;
- ``convolve``, ``resample_affine`` and ``layer_forward``: per-call times,
  each on a compact corpus bump and, for the kernels, on a dense random
  field, which has no zero samples to skip; ``convolve`` also on a kernel of
  97 samples per side on a 161-sample image, wide against the image. Each
  round gives the median over repeated calls;
- ``convolve_fft``: the same ``convolve`` calls on the FFT engine
  (``exact=False``), and ``convolve_fft_max_rel_diff``: the largest
  difference between the FFT and the direct output over all rounds, relative
  to the direct output's sup;
- ``translate``: per-call times of an off-lattice shift by half a sample
  along x, the other bilinear caller besides ``resample_affine``, on the
  same corpus bump;
- the numpy and scipy versions.

With ``--layers`` the script only
prints one round of layer timings of the package on its own PYTHONPATH, as
JSON, and with ``--traced-peak`` the ``tracemalloc`` peak in MB; the full run
calls itself those ways.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (spacing, image side n, kernel side k) on the stock extent 1.6: the stock
# kernel radius 0.24 at each refinement level, and one wide kernel of radius
# 0.96
CONV_SIZES = (
    (0.04, 81, 13), (0.02, 161, 25), (0.01, 321, 49), (0.005, 641, 97), (0.02, 161, 97)
)
RESAMPLE_MAPS = ("shear:1", "rot:45")
LAYER_CHANNELS = ((1, 1), (2, 2), (4, 4))
# ten rounds: three cannot tell a 10-20 % difference on a shared machine
ROUNDS = 10
DEPTHS = (4, 5)
DEPTH_ROUNDS = 5
MIN_REPEATS = 3
MAX_REPEATS = 25
MIN_SECONDS = 1.0


def _timed(fn) -> float:
    """Median wall time of fn in ms, over at least MIN_REPEATS calls and
    MIN_SECONDS, after one unmeasured call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_REPEATS and (
        len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS
    ):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def layer_timings() -> dict:
    import numpy as np
    import scipy

    from equiaudit import (
        ConvLayer,
        FeatureStack,
        Grid,
        GridGeometry,
        Nonlinearity,
        convolve,
        layer_forward,
        random_radial_filter,
        resample_affine,
        translate,
    )
    from equiaudit.audit import make_corpus
    from equiaudit.transform import parse_transform

    def inputs(h):
        geom = GridGeometry(1.6, h)
        bump = make_corpus(geom, seed=0)[1]
        dense = Grid(geom, np.random.default_rng(0).standard_normal((geom.size, geom.size)))
        return geom, bump, dense

    def kernel(h, seed=0, radius=0.24):
        return random_radial_filter(GridGeometry(radius, h), radius, np.random.default_rng(seed))

    def conv_cases():
        for h, n, k in CONV_SIZES:
            geom, bump, dense = inputs(h)
            lam = kernel(h, radius=(k - 1) / 2 * h)
            assert (geom.size, lam.grid.geometry.size) == (n, k)
            for name, f in (("bump", bump), ("dense", dense)):
                yield f"n{n}_k{k}_{name}", f, lam

    out = {"numpy": np.__version__, "scipy": scipy.__version__}
    out["convolve"] = {key: _timed(lambda: convolve(f, lam)) for key, f, lam in conv_cases()}

    geom, bump, dense = inputs(0.01)
    res = {}
    for spec in RESAMPLE_MAPS:
        T = parse_transform(spec)
        for name, f in (("bump", bump), ("dense", dense)):
            res[f"n{geom.size}_{spec}_{name}"] = _timed(lambda: resample_affine(f, T))
    out["resample_affine"] = res

    corpus = make_corpus(geom, seed=0)
    lay = {}
    for c_in, c_out in LAYER_CHANNELS:
        layer = ConvLayer(
            tuple(tuple(kernel(0.01, 1 + m * c_out + c) for c in range(c_out)) for m in range(c_in)),
            (0.0,) * c_out,
            Nonlinearity("identity"),
        )
        stack = FeatureStack(corpus[1 : 1 + c_in])
        lay[f"cin{c_in}_cout{c_out}_n{geom.size}_k49_bumps"] = _timed(
            lambda: layer_forward(stack, layer)
        )
    out["layer_forward"] = lay

    # the FFT engine comes last, as in every earlier BENCH_*.json, so the
    # timings above stay comparable with those files
    fft, diff = {}, {}
    for key, f, lam in conv_cases():
        fft[key] = _timed(lambda: convolve(f, lam, exact=False))
        want = convolve(f, lam).values
        got = convolve(f, lam, exact=False).values
        diff[key] = float(np.abs(got - want).max() / np.abs(want).max())
    out["convolve_fft"] = fft
    out["convolve_fft_max_rel_diff"] = diff

    # after every timing that earlier BENCH_*.json files hold, for the same
    # reason
    geom, bump, _ = inputs(0.01)
    half = (geom.spacing / 2, 0.0)
    out["translate"] = {f"n{geom.size}_h/2_bump": _timed(lambda: translate(bump, half))}
    return out


def traced_peak_mb() -> float:
    """tracemalloc peak in MB of one in-process ``equiaudit audit
    --deterministic`` of the built-in default config: the model build, the
    audit and the writing of its outputs into a temporary directory, so that
    memory the writer holds counts too. The package is imported before
    tracing starts."""
    import contextlib
    import io
    import tracemalloc

    from equiaudit.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        code = main(["audit", "--deterministic", "--out", tmp])
        peak = tracemalloc.get_traced_memory()[1]
    if code != 0:
        raise RuntimeError(f"equiaudit audit exited {code}")
    return peak / 2 ** 20


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    # the package reads no seed from the environment, but older checkouts
    # compared against it let EQUIAUDIT_SEED override the config's seed
    env.pop("EQUIAUDIT_SEED", None)
    return env


def _round(checkout: Path) -> dict:
    env = _env(checkout)
    layers = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--layers"],
        env=env, capture_output=True, text=True, check=True,
    )
    audit_s, rss_mb = _audit(env)
    traced = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--traced-peak"],
        env=env, capture_output=True, text=True, check=True,
    )
    return {
        "layers": json.loads(layers.stdout),
        "stock_audit_s": audit_s,
        "stock_audit_peak_rss_mb": rss_mb,
        "stock_audit_traced_peak_mb": float(traced.stdout),
    }


def _audit(env: dict, *args: str) -> tuple:
    """Wall time and peak resident memory in MB of one default-config
    ``equiaudit audit`` in a fresh process, with extra CLI ``args``."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "equiaudit", "audit", "--deterministic", "--out", "out", *args],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return wall, usage.ru_maxrss / 1024.0


def _depth_round(checkout: Path) -> dict:
    """Wall time and peak resident memory of one audit per depth."""
    env = _env(checkout)
    out = {}
    for r in DEPTHS:
        audit_s, rss_mb = _audit(env, "--refinements", str(r))
        out[f"refinements_{r}"] = {"audit_s": audit_s, "peak_rss_mb": rss_mb}
    return out


def _suite(checkout: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=_env(checkout), capture_output=True, text=True,
    )
    lines = [l for l in proc.stdout.splitlines() if re.search(r"\d+ (passed|failed)", l)]
    return {
        "suite_s": time.perf_counter() - t0,
        "suite_summary": lines[-1] if lines else proc.stdout[-200:],
    }


def _record(rounds: dict, name: str, get, unit: str = "") -> dict:
    """Median over rounds, every round's value and the win count (rounds in
    which it was lowest) of the value ``get`` reads from a round of checkout
    ``name``; ``rounds`` maps every checkout to its rounds."""
    mine = rounds[name]
    wins = sum(all(get(r) <= get(o[i]) for o in rounds.values()) for i, r in enumerate(mine))
    values = [get(r) for r in mine]
    return {f"median{unit}": statistics.median(values), f"rounds{unit}": values, "wins": wins}


def _combine(rounds: dict, name: str) -> dict:
    """The recorded timings of checkout ``name``; ``rounds`` maps every
    checkout to its rounds."""
    mine = rounds[name]
    out = {
        "numpy": mine[0]["layers"]["numpy"],
        "scipy": mine[0]["layers"]["scipy"],
        "stock_audit_s": _record(rounds, name, lambda r: r["stock_audit_s"]),
        "stock_audit_peak_rss_mb": _record(rounds, name, lambda r: r["stock_audit_peak_rss_mb"]),
        "stock_audit_traced_peak_mb": _record(
            rounds, name, lambda r: r["stock_audit_traced_peak_mb"]
        ),
    }
    for family in ("convolve", "convolve_fft", "resample_affine", "translate", "layer_forward"):
        out[family] = {
            key: _record(rounds, name, lambda r, f=family, k=key: r["layers"][f][k], "_ms")
            for key in mine[0]["layers"][family]
        }
    out["convolve_fft_max_rel_diff"] = {
        key: max(r["layers"]["convolve_fft_max_rel_diff"][key] for r in mine)
        for key in mine[0]["layers"]["convolve_fft_max_rel_diff"]
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", default=[], metavar="NAME=DIR")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.layers:
        print(json.dumps(layer_timings()))
        return 0
    if args.traced_peak:
        print(traced_peak_mb())
        return 0
    if not args.checkout:
        parser.error("give at least one --checkout NAME=DIR")
    report = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
    }
    checkouts = []
    for item in args.checkout:
        name, _, path = item.partition("=")
        checkout = Path(path).resolve()
        if not (checkout / "src" / "equiaudit").is_dir():
            parser.error(f"{checkout} has no src/equiaudit")
        checkouts.append((name, checkout))
    rounds = {name: [] for name, _ in checkouts}
    for r in range(ROUNDS):
        for name, checkout in checkouts if r % 2 == 0 else checkouts[::-1]:
            print(f"round {r}: {name} ({checkout})", file=sys.stderr)
            rounds[name].append(_round(checkout))
    depth_rounds = {name: [] for name, _ in checkouts}
    for r in range(DEPTH_ROUNDS):
        for name, checkout in checkouts if r % 2 == 0 else checkouts[::-1]:
            print(f"depth round {r}: {name} ({checkout})", file=sys.stderr)
            depth_rounds[name].append(_depth_round(checkout))
    for name, checkout in checkouts:
        report[name] = _combine(rounds, name)
        report[name]["depth"] = {
            f"refinements_{d}": {
                key: _record(depth_rounds, name, lambda r, d=d, k=key: r[f"refinements_{d}"][k])
                for key in ("audit_s", "peak_rss_mb")
            }
            for d in DEPTHS
        }
        report[name].update(_suite(checkout))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
