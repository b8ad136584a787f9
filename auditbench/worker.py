"""One audit in a fresh interpreter: the timed ``equiaudit audit`` call, then
the output checks and their self-test, outside the timed region.

Usage: python3 worker.py CONFIG OUT_DIR RESULT_JSON [TRACE_JSON]

With TRACE_JSON the package's public functions are traced (see spans.py),
the spans are written there and the result carries the per-layer metrics.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks


def main(config_path, out_dir, result_path, trace_path=None):
    import equiaudit
    from equiaudit import cli

    config = json.loads(Path(config_path).read_text())
    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    argv = ["audit", "--config", config_path, "--out", out_dir, "--deterministic"]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    audit_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    geo, recipe, seed = config["geometry"], config["model"], config["seed"]
    factor = 2 ** (geo["refinements"] - 1)
    # the package snaps an extent up to whole samples at the coarsest spacing
    fine_nk = tuple(
        2 * factor * math.ceil(r / geo["spacing"] - 1e-9) + 1
        for r in (geo["extent"], recipe["kernel_radius"])
    )
    result = {"exit_code": exit_code, "audit_s": audit_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        per_layer = tracer.metrics(fine_nk)
        per_layer["run.cpu_s"] = (cpu_s, "s")
        result["per_layer"] = per_layer
        tracer.write(trace_path)

    # independent recomputations, outside the timed region and after the
    # memory reading
    from scipy.signal import convolve2d

    report_path = Path(out_dir) / "report.json"
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    transforms = config["transforms"]
    rng = np.random.default_rng(seed)
    model = equiaudit.build_model(recipe, geo["spacing"], rng)
    corpus = equiaudit.make_corpus(equiaudit.GridGeometry(geo["extent"], geo["spacing"]), seed=seed)
    field = equiaudit.refine(corpus[1], factor)
    kernel = equiaudit.refine_model(model, factor).layers[0].kernels[0][0]
    if (field.geometry.size, kernel.grid.geometry.size) != fine_nk:
        raise RuntimeError(f"finest (n, k) is not {fine_nk}")
    got = equiaudit.convolve(field, kernel).values
    want = convolve2d(field.values, kernel.grid.values, mode="same") * field.spacing**2
    conv_pair = (got, want)
    rot_pair = (
        equiaudit.resample_affine(field, equiaudit.LinearMap2.rotation(90.0)).values,
        np.rot90(field.values),
    )
    result["failures"] = (
        checks.check_report(report, exit_code, transforms)
        + checks.check_convolve(*conv_pair)
        + checks.check_rot90(*rot_pair)
    )
    # only outputs that pass can show that a broken copy of them is caught
    result["selftest_missed"] = (
        [] if result["failures"] else checks.selftest(report, transforms, conv_pair, rot_pair)
    )
    result["package_file"] = equiaudit.__file__
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
