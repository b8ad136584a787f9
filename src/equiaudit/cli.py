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
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .audit import (
    AuditSettings,
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
    model_forward,
    radial_filter,
    receptive_radius,
    load_model,
)
from .errors import EquiauditError
from .grid import Grid, GridGeometry, distance, interior_mask, render, resample_affine
from .gridio import save_pgm16
from .transform import LinearMap2, alignment_admits_invariance, classify, parse_transform

__all__ = ["RunConfig", "DEFAULT_CONFIG", "cmd_audit", "cmd_classify", "cmd_demo", "main"]

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


def _json_number(convert, value, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    extent: float
    spacing: float
    refinements: int
    transforms: Tuple[str, ...]
    model: Union[str, dict]
    corpus: dict
    out: str
    seed: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        geo = dict(DEFAULT_CONFIG["geometry"])
        geo.update(_json_object(raw.get("geometry", {}), "geometry"))
        bad = set(geo) - set(DEFAULT_CONFIG["geometry"])
        if bad:
            raise ValueError(f"unknown geometry keys: {sorted(bad)}")
        refinements = json_integer(geo["refinements"], "geometry.refinements")
        if refinements < 1:
            raise ValueError("geometry.refinements must be >= 1")
        transforms = raw.get("transforms", DEFAULT_CONFIG["transforms"])
        if not isinstance(transforms, (list, tuple)) or not transforms:
            raise ValueError("transforms must be a nonempty list of spec strings")
        for spec in transforms:
            parse_transform(str(spec))  # fail fast on malformed specs
        model = raw.get("model", DEFAULT_CONFIG["model"])
        if not isinstance(model, (str, dict)):
            raise ValueError("model must be a file path or a synthesis recipe")
        corpus = dict(DEFAULT_CONFIG["corpus"])
        corpus.update(_json_object(raw.get("corpus", {}), "corpus"))
        bad = set(corpus) - set(DEFAULT_CONFIG["corpus"])
        if bad:
            raise ValueError(f"unknown corpus keys: {sorted(bad)}")
        if not isinstance(corpus["glyphs"], bool):
            raise ValueError(f"corpus.glyphs must be true or false, got {corpus['glyphs']!r}")
        return cls(
            extent=_json_number(float, geo["extent"], "geometry.extent"),
            spacing=_json_number(float, geo["spacing"], "geometry.spacing"),
            refinements=refinements,
            transforms=tuple(str(s) for s in transforms),
            model=model,
            corpus=corpus,
            out=str(raw.get("out", DEFAULT_CONFIG["out"])),
            seed=json_integer(raw.get("seed", DEFAULT_CONFIG["seed"]), "seed"),
        )

    def echo(self) -> dict:
        return {
            "geometry": {
                "extent": self.extent,
                "spacing": self.spacing,
                "refinements": self.refinements,
            },
            "transforms": list(self.transforms),
            "model": self.model,
            "corpus": self.corpus,
            "out": self.out,
            "seed": self.seed,
        }


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_").replace("_.", ".")


def _effective_config(args) -> RunConfig:
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
        raw["transforms"] = [s.strip() for s in args.transforms.split(",") if s.strip()]
    if args.model_file is not None:
        raw["model"] = args.model_file
    if args.out is not None:
        raw["out"] = args.out
    # precedence: --seed, then EQUIAUDIT_SEED, then the config file
    env_seed = os.environ.get("EQUIAUDIT_SEED")
    if args.seed is not None:
        raw["seed"] = args.seed
    elif env_seed is not None:
        raw["seed"] = int(env_seed)
    return RunConfig.from_dict(raw)


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
    for name, grid in sorted(artifacts.items()):
        save_pgm16(grid, images / f"{_safe_name(name)}.pgm", extra={"seed": seed})


def cmd_audit(args) -> int:
    try:
        config = _effective_config(args)
        geom = GridGeometry(config.extent, config.spacing)
        rng = np.random.default_rng(config.seed)
        if isinstance(config.model, str):
            model = load_model(config.model)
        else:
            model = build_model(config.model, config.spacing, rng)
        corpus = make_corpus(geom, seed=config.seed, include_glyphs=config.corpus["glyphs"])
        settings = AuditSettings(refinements=config.refinements, seed=config.seed)
        result = full_paper_audit(model, config.transforms, corpus, settings)
    except (ValueError, EquiauditError, OSError, json.JSONDecodeError, MemoryError) as e:
        print(f"equiaudit: config error: {e}", file=sys.stderr)
        return 1
    report = dict(result.report)
    report["config"] = config.echo()
    if not args.deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    out_dir = Path(config.out)
    _write_outputs(out_dir, report, result.artifacts, config.seed)
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
    scene_vals = (
        glyph("W", (0.5, 0.3), u_s, geom).values
        + glyph("M", (-0.4, -0.35), u_s, geom).values
    )
    scene = Grid(geom, scene_vals)
    rot = LinearMap2.rotation(180.0)
    resp = model_forward(scene, model)
    rotated = resample_affine(scene, rot)
    resp_rot = model_forward(rotated, model)
    realigned = [resample_affine(c, rot.inverse()) for c in resp_rot.channels]
    r_op = receptive_radius(model)
    mask = interior_mask(geom, r_op + h)
    scale = max(c.sup_norm() for c in resp.channels)
    tol = tolerance(h, scale)
    floor = 10.0 * tol
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
        f"(floor {floor:.3g}) vs channel-swapped residual {res_swap:.3g} "
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
