"""Span tracing of equiaudit's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every equiaudit module that
binds it by name, because ``audit``, ``generator`` and ``cli`` import
``convolve``, ``resample_affine``, ``build_model`` and ``save_pgm16``
directly. Spans are kept in memory (name, start, end, parent span, size
attributes) and written out once, after the run. A span's self time is its
duration minus the durations of its direct wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (defining module, function name, span name)
TRACED = (
    ("conv", "convolve", "conv.convolve"),
    ("conv", "layer_forward", "conv.layer_forward"),
    ("conv", "transform_filter", "conv.transform_filter"),
    ("conv", "refine_model", "conv.refine_model"),
    ("conv", "build_model", "conv.build_model"),
    ("grid", "resample_affine", "grid.resample_affine"),
    ("grid", "interior_mask", "grid.interior_mask"),
    ("grid", "refine", "grid.refine"),
    ("audit", "full_paper_audit", "audit.full_paper_audit"),
    ("audit", "naturality_check", "audit.naturality_check"),
    ("audit", "filter_fixed_point_residual", "audit.filter_fixed_point_residual"),
    ("audit", "commutation_check", "audit.commutation_check"),
    ("audit", "norot_counterexample", "audit.norot_counterexample"),
    ("audit", "mollifier_recover_filter", "audit.mollifier_recover_filter"),
    ("audit", "make_corpus", "audit.make_corpus"),
    ("gridio", "save_pgm16", "gridio.save_pgm16"),
    ("cli", "main", "cli.main"),
)


def _convolve_size(args, kwargs, result):
    f, lam = args[0], args[1]
    return {
        "n": f.geometry.size,
        "k": lam.grid.geometry.size,
        "taps": int((lam.grid.values != 0.0).sum()),
    }


def _resample_size(args, kwargs, result):
    return {"samples": int(result.values.size)}


def _pgm_size(args, kwargs, result):
    path = str(args[1])
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


SIZES = {
    "conv.convolve": _convolve_size,
    "grid.resample_affine": _resample_size,
    "gridio.save_pgm16": _pgm_size,
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, sizes or None,
        #        summed duration of direct children]
        self.spans = []
        self._open = []  # [span index, summed duration of direct children]

    def wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, None, 0.0])
            self._open.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, children = self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                span = self.spans[index]
                span[1], span[2], span[5] = start, end, children
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function, and the operator model_channel_operator
        returns, in each loaded equiaudit module that binds them."""
        targets = []
        for mod, fname, span in TRACED:
            original = getattr(importlib.import_module("equiaudit." + mod), fname)
            targets.append((original, self.wrap(span, original)))
        generator = importlib.import_module("equiaudit.generator")
        original_op = generator.model_channel_operator

        @functools.wraps(original_op)
        def traced_operator(*args, **kwargs):
            op = original_op(*args, **kwargs)
            return generator.OperatorHandle(
                self.wrap("generator.forward", op.fn), op.declared_receptive_radius, op.name
            )

        targets.append((original_op, traced_operator))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "equiaudit"]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            fields = ["name", "start", "end", "parent", "sizes", "children_s"]
            json.dump({"fields": fields, "spans": self.spans}, fh)

    def metrics(self, fine_nk):
        """Per-layer metrics from the recorded spans.

        ``.s`` is inclusive time, counted once when a function re-enters
        itself; ``.self_s`` excludes wrapped children. ``fine_nk`` is the
        workload's finest (image size, kernel size).
        """
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        sizes = defaultdict(float)
        fine = []
        for name, start, end, parent, size, children in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - children
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] += dur
            if name == "conv.convolve":
                sizes["tap_px"] += size["taps"] * size["n"] ** 2
                if (size["n"], size["k"]) == fine_nk:
                    fine.append(dur)
            elif name == "grid.resample_affine":
                sizes["samples"] += size["samples"]
            elif name == "gridio.save_pgm16":
                sizes["pgm_bytes"] += size["bytes"]
        out = {
            "conv.convolve.calls": (calls["conv.convolve"], "count"),
            "conv.convolve.self_s": (self_s["conv.convolve"], "s"),
            "conv.convolve.gtap_px": (sizes["tap_px"] / 1e9, "Gtap_px"),
            "conv.convolve.ns_per_tap_px": (
                1e9 * self_s["conv.convolve"] / sizes["tap_px"] if sizes["tap_px"] else 0.0,
                "ns",
            ),
            "conv.convolve.fine_ms": (1e3 * statistics.median(fine) if fine else 0.0, "ms"),
            "conv.layer_forward.calls": (calls["conv.layer_forward"], "count"),
            "conv.layer_forward.self_s": (self_s["conv.layer_forward"], "s"),
            "conv.transform_filter.s": (total["conv.transform_filter"], "s"),
            "conv.refine_model.s": (total["conv.refine_model"], "s"),
            "conv.build_model.s": (total["conv.build_model"], "s"),
            "generator.forward.calls": (calls["generator.forward"], "count"),
            "generator.forward.s": (total["generator.forward"], "s"),
            "grid.resample_affine.calls": (calls["grid.resample_affine"], "count"),
            "grid.resample_affine.self_s": (self_s["grid.resample_affine"], "s"),
            "grid.resample_affine.msamples": (sizes["samples"] / 1e6, "Msample"),
            "grid.resample_affine.ns_per_sample": (
                1e9 * self_s["grid.resample_affine"] / sizes["samples"] if sizes["samples"] else 0.0,
                "ns",
            ),
            "grid.interior_mask.s": (total["grid.interior_mask"], "s"),
            "grid.refine.s": (total["grid.refine"], "s"),
            "audit.full_paper_audit.s": (total["audit.full_paper_audit"], "s"),
            "audit.full_paper_audit.self_s": (self_s["audit.full_paper_audit"], "s"),
        }
        for fname in (
            "naturality_check",
            "filter_fixed_point_residual",
            "commutation_check",
            "norot_counterexample",
            "mollifier_recover_filter",
            "make_corpus",
        ):
            out[f"audit.{fname}.s"] = (total["audit." + fname], "s")
        out["gridio.save_pgm16.calls"] = (calls["gridio.save_pgm16"], "count")
        out["gridio.save_pgm16.s"] = (total["gridio.save_pgm16"], "s")
        out["gridio.save_pgm16.bytes"] = (sizes["pgm_bytes"], "B")
        out["cli.main.self_s"] = (self_s["cli.main"], "s")
        return out
