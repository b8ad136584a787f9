"""Command-line front end: audit runs, transform classification, figure demos.

One JSON config drives an audit run; every flag is an override of a config
key, so a checked-in config file reproduces a run exactly. Outputs: a
report.json with all checks and verdicts, CSV residual curves, and 16-bit PGM
field dumps.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .audit import (
    full_paper_audit,
    glyph,
    make_corpus,
    tolerance,
)
from .conv import (
    CnnModel,
    ConvLayer,
    Nonlinearity,
    build_model,
    convolve,
    filter_from_grid,
    json_integer,
    json_number,
    model_forward,
    radial_filter,
    receptive_radius,
    load_model,
)
from .errors import EquiauditError
from .grid import GridGeometry, _sum_grids, distance, interior_mask, render, resample_affine
from .gridio import save_pgm16
from .transform import LinearMap2, alignment_admits_invariance, classify, parse_transform

__all__ = ["DEFAULT_CONFIG", "cmd_audit", "cmd_classify", "cmd_demo", "main"]

DEFAULT_CONFIG = {
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
    "corpus": {"glyphs": True},
    "out": "audit_out",
    "seed": 0,
}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _section(raw: dict, name: str) -> dict:
    merged = dict(DEFAULT_CONFIG[name])
    merged.update(_json_object(raw.get(name, {}), name))
    bad = set(merged) - set(DEFAULT_CONFIG[name])
    if bad:
        raise ValueError(f"unknown {name} keys: {sorted(bad)}")
    return merged


def _run_config(raw: dict) -> dict:
    """The checked config with its defaults filled in: what an audit run
    reads its inputs from, and what report.json echoes under "config"."""
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    geo = _section(raw, "geometry")
    refinements = json_integer(geo["refinements"], "geometry.refinements")
    if refinements < 1:
        raise ValueError("geometry.refinements must be >= 1")
    extent = json_number(geo["extent"], "geometry.extent")
    spacing = json_number(geo["spacing"], "geometry.spacing")
    GridGeometry(extent, spacing)
    transforms = raw.get("transforms", DEFAULT_CONFIG["transforms"])
    if not isinstance(transforms, (list, tuple)) or not transforms:
        raise ValueError("transforms must be a nonempty list of spec strings")
    seen = {}
    for spec in transforms:
        T = parse_transform(str(spec))
        # fail fast on maps the warps cannot address: T^-1 needs a finite
        # norm, and the domain it pulls back must be addressable at the spacing
        try:
            GridGeometry(T.inverse().operator_norm() * extent, spacing)
        except ValueError as e:
            raise ValueError(f"transform {spec!r}: {e}") from None
        # a spec's curves and images are named after it
        name = _safe_name(f"alignment[{spec}]")
        if name in seen:
            raise ValueError(f"transforms {seen[name]!r} and {spec!r} name the same output files")
        seen[name] = spec
    model = raw.get("model", DEFAULT_CONFIG["model"])
    if not isinstance(model, (str, dict)):
        raise ValueError("model must be a file path or a synthesis recipe")
    corpus = _section(raw, "corpus")
    if not isinstance(corpus["glyphs"], bool):
        raise ValueError(f"corpus.glyphs must be true or false, got {corpus['glyphs']!r}")
    out = raw.get("out", DEFAULT_CONFIG["out"])
    if not isinstance(out, str) or not out:
        raise ValueError(f"out must be a nonempty path string, got {out!r}")
    return {
        "geometry": {
            "extent": extent,
            "spacing": spacing,
            "refinements": refinements,
        },
        "transforms": [str(s) for s in transforms],
        "model": model,
        "corpus": corpus,
        "out": out,
        "seed": json_integer(raw.get("seed", DEFAULT_CONFIG["seed"]), "seed"),
    }


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_").replace("_.", ".")


def _effective_config(args) -> dict:
    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        _json_object(raw, "config file")
    raw["geometry"] = dict(_json_object(raw.get("geometry", {}), "geometry"))
    if args.extent is not None:
        raw["geometry"]["extent"] = args.extent
    if args.spacing is not None:
        raw["geometry"]["spacing"] = args.spacing
    if args.refinements is not None:
        raw["geometry"]["refinements"] = args.refinements
    if args.transforms is not None:
        # a comma starts a new spec only before "<letters>:", so the commas
        # inside scale:3,0.5 or mat:0,-1,1,0 stay with their spec
        specs = re.split(r",(?=\s*[A-Za-z]+:)", args.transforms)
        raw["transforms"] = [s.strip() for s in specs if s.strip()]
    if args.model_file is not None:
        raw["model"] = args.model_file
    if args.out is not None:
        raw["out"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    return _run_config(raw)


def _write_outputs(out_dir: Path, report: dict, artifacts, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    curves = out_dir / "curves"
    curves.mkdir(exist_ok=True)
    for check in report["checks"]:
        curve = check.get("spacing_curve")
        if not curve:
            continue
        lines = [f"# seed {seed}", "spacing,residual"]
        for h, r in zip(curve["spacings"], curve["residuals"]):
            lines.append(f"{h!r},{r!r}")
        (curves / f"{_safe_name(check['name'])}.csv").write_text("\n".join(lines) + "\n")
    images = out_dir / "images"
    images.mkdir(exist_ok=True)
    # one whole-domain image at a time
    for name, crop in sorted(artifacts.items()):
        save_pgm16(crop.expand(), images / f"{_safe_name(name)}.pgm", extra={"seed": seed})


def cmd_audit(args) -> int:
    try:
        config = _effective_config(args)
        geo, seed = config["geometry"], config["seed"]
        geom = GridGeometry(geo["extent"], geo["spacing"])
        model = config["model"]
        if isinstance(model, str):
            model = load_model(model)
        else:
            model = build_model(model, geo["spacing"], np.random.default_rng(seed))
        corpus = make_corpus(geom, seed=seed, include_glyphs=config["corpus"]["glyphs"])
        result = full_paper_audit(model, config["transforms"], corpus, geo["refinements"])
    except (ValueError, EquiauditError, OSError, json.JSONDecodeError, MemoryError) as e:
        print(f"equiaudit: config error: {e}", file=sys.stderr)
        return 1
    report = dict(result.report, config=config, seed=seed)
    if not args.deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    out_dir = Path(config["out"])
    _write_outputs(out_dir, report, result.artifacts, seed)
    for exp in report["expectations"]:
        mark = "ok" if exp["consistent"] else "MISMATCH"
        print(
            f"{exp['transform']}: {exp['kind']}, expected {exp['expected']}, "
            f"observed {exp['observed']} [{mark}]"
        )
    print(f"report: {out_dir / 'report.json'}")
    print(f"consistent: {report['consistent']}")
    return 0 if report["consistent"] else 2


def cmd_classify(args) -> int:
    try:
        T = parse_transform(args.spec)
        cls = classify(T)
    except (ValueError, EquiauditError) as e:
        print(f"equiaudit: {e}", file=sys.stderr)
        return 1
    admits = alignment_admits_invariance(T)
    angle = (
        math.degrees(cls.canonical_angle) if cls.canonical_angle is not None else float("nan")
    )
    print(f"{args.spec} -> {cls.label()} angle={angle:.6g} det={T.det:.6g} admits={admits}")
    return 0


def _demo_wm_rotation(out_dir: Path, spacing: float) -> str:
    """Two matched-filter channels W and M; a 180 degree rotation swaps what
    they see, and no channel-preserving realignment can hide that."""
    h = spacing
    kernel_geom = GridGeometry(0.24, h)
    u_t = 0.09
    w_k = filter_from_grid(glyph("W", (0.0, 0.0), u_t, kernel_geom))
    m_k = filter_from_grid(glyph("M", (0.0, 0.0), u_t, kernel_geom))
    model = CnnModel(
        (ConvLayer(((w_k, m_k),), (0.0, 0.0), Nonlinearity("identity")),)
    )
    geom = GridGeometry(1.6, h)
    u_s = 0.12
    scene = _sum_grids(
        [glyph("W", (0.5, 0.3), u_s, geom), glyph("M", (-0.4, -0.35), u_s, geom)]
    )
    rot = LinearMap2.rotation(180.0)
    resp = model_forward(scene, model)
    rotated = resample_affine(scene, rot)
    resp_rot = model_forward(rotated, model)
    realigned = [resample_affine(c, rot.inverse()) for c in resp_rot.channels]
    r_op = receptive_radius(model)
    mask = interior_mask(geom, r_op + h)
    scale = max(c.sup_norm() for c in resp.channels)
    tol = tolerance(h, scale)
    res_preserve = max(distance(realigned[c], resp.channels[c], mask=mask) for c in (0, 1))
    res_swap = max(distance(realigned[c], resp.channels[1 - c], mask=mask) for c in (0, 1))
    dumps = {
        "scene": scene,
        "scene_rot180": rotated,
        "response_w": resp.channels[0],
        "response_m": resp.channels[1],
        "realigned_w": realigned[0],
        "realigned_m": realigned[1],
    }
    for name, grid in dumps.items():
        save_pgm16(grid, out_dir / f"{name}.pgm")
    return (
        f"wm-rotation: channel-preserving residual {res_preserve:.3g} "
        f"(scale {scale:.3g}) vs channel-swapped residual {res_swap:.3g} "
        f"(tol {tol:.3g}); rot:180 swaps the W/M channels"
    )


def _demo_scale_fov(out_dir: Path, spacing: float) -> str:
    """A difference-of-Gaussians template has a preferred blob size; doubling
    the scene scale pushes the feature outside the template's field of view."""
    h = spacing
    kgeom = GridGeometry(0.5, h)
    a, b, k = 0.08, 0.16, 0.25

    def prof(r):
        r = np.asarray(r, dtype=np.float64)
        return np.exp(-(r * r) / (2 * a * a)) - k * np.exp(-(r * r) / (2 * b * b))

    lam = radial_filter(prof, kgeom)
    geom = GridGeometry(1.2, h)
    sigma = 0.113  # near the template's preferred blob scale
    scene = render(
        geom, lambda x, y: np.exp(-(np.asarray(x) ** 2 + np.asarray(y) ** 2) / (2 * sigma**2))
    )
    resp = convolve(scene, lam)
    scaled = resample_affine(scene, LinearMap2.scaling(2.0))
    resp_scaled = convolve(scaled, lam)
    peak = float(resp.values.max())
    peak_scaled = float(resp_scaled.values.max())
    ratio = peak_scaled / peak
    dumps = {
        "template": lam.grid,
        "scene": scene,
        "response": resp,
        "scene_scaled": scaled,
        "response_scaled": resp_scaled,
    }
    for name, grid in dumps.items():
        save_pgm16(grid, out_dir / f"{name}.pgm")
    return (
        f"scale-fov: peak response {peak:.4g} on the original vs "
        f"{peak_scaled:.4g} after a 2x rescale (ratio {ratio:.3g} < 0.8): "
        f"the fixed field of view misses the enlarged feature"
    )


def cmd_demo(args) -> int:
    demos = {"wm-rotation": _demo_wm_rotation, "scale-fov": _demo_scale_fov}
    fn = demos.get(args.name)
    if fn is None:
        print(
            f"equiaudit: unknown demo {args.name!r}; choose from {sorted(demos)}",
            file=sys.stderr,
        )
        return 1
    spacing = args.spacing if args.spacing is not None else 0.01
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary = fn(out_dir, spacing)
    except (ValueError, EquiauditError, MemoryError) as e:
        print(f"equiaudit: {e}", file=sys.stderr)
        return 1
    print(summary)
    (out_dir / "summary.txt").write_text(summary + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="equiaudit",
        description=(
            "Audit whether a continuous CNN's features can be realigned under "
            "2D linear transforms of its input."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("audit", help="run the full law audit and write a report")
    pa.add_argument("--config", help="JSON run config; flags override its keys")
    pa.add_argument("--extent", type=float, help="domain half-width override")
    pa.add_argument("--spacing", type=float, help="base sample spacing override")
    pa.add_argument("--refinements", type=int, help="number of spacings (h, h/2, ...)")
    pa.add_argument("--transforms", help="comma-separated transform specs")
    pa.add_argument("--model-file", help="load the model from this JSON file")
    pa.add_argument("--out", help="output directory override")
    pa.add_argument("--seed", type=int, help="seed override")
    pa.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timestamps so identical runs are byte-identical",
    )
    pa.set_defaults(fn=cmd_audit)

    pc = sub.add_parser("classify", help="classify one transform spec")
    pc.add_argument("spec", help="e.g. rot:36, shear:1, mat:1,0,0,1, conj:mat:...:rot:90")
    pc.set_defaults(fn=cmd_classify)

    pd = sub.add_parser("demo", help="render a figure demo")
    pd.add_argument("name", help="wm-rotation or scale-fov")
    pd.add_argument("--out", default="demo_out", help="output directory")
    pd.add_argument("--spacing", type=float, help="sample spacing (default 0.01)")
    pd.set_defaults(fn=cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
