"""Configuration-driven command line front end.

Commands, and the flags each takes besides --config and --out:
    scan          run a, b, Delta over the spectral grid; write JSON + CSV
                  (--cache-dir)
    verify        run the identity-check suite; write report JSON + text
                  (--seed, --cache-dir)

The traveling-wave obstruction is the verify check `soliton_obstruction`
(`checks.include: ["soliton_obstruction"]` runs it alone);
demos/soliton_obstruction.py tells its story.

Any other flag is a usage error (exit 2 from argparse).  A config key
outside CONFIG_SCHEMA, or a `checks.include` that is empty or names a check
outside DEFAULT_CHECKS, is a fatal error.  The check points and tolerances
the config does not set are constants in `verify` (FD_STEP, MU_Z_SAMPLES,
SHIFT_ZETA, SHIFT_TOL, MISMATCH_FLOOR and the SOLITON_* values).

Exit codes: 0 success, 2 completed with per-lambda flags, 1 fatal error.
Greens tables are cached under $NVSCATTER_CACHE when set (or --cache-dir).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import jsonschema

from .grids import (Potential, load_potential, make_grid, make_lambda_grid,
                    sample_potential)
from .lippmann import save_determinant_csv
from .scattering import (ScatteringData, save_scattering, save_scattering_csv,
                         scan)
from . import verify as V

CACHE_ENV = "NVSCATTER_CACHE"

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_CPLX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

DEFAULT_CHECKS = ["ab_on_T", "delta_properties", "dbar_a", "dbar_mu",
                  "dbar_lndelta", "shift_lemma", "soliton_obstruction",
                  "transparency_chain"]

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["gaussian", "exp-bump", "ring"]},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"A": _NUM, "sigma": _POS, "alpha": _POS},
                },
                "eps": _POS,
                "file": {"type": "string"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"R": _POS, "N": {"type": "integer", "minimum": 16}},
        },
        "lambda_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "annulus_radii": {"type": "array", "items": _POS},
                "phases": {"type": "integer", "minimum": 1},
                "t_samples": {"type": "integer", "minimum": 0},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"with_determinant": {"type": "boolean"}},
        },
        "checks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "include": {"type": "array", "minItems": 1,
                            "items": {"enum": DEFAULT_CHECKS}},
                "dbar_lambda": _CPLX,
                "dbar_mu_lambda": _CPLX,
                "dbar_lndelta_lambda": _CPLX,
                "dbar_tol": _POS,
                "shift_lambdas": {"type": "array", "items": _CPLX},
            },
        },
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}


class ConfigError(ValueError):
    pass


def _cplx(pair, default=None) -> complex:
    if pair is None:
        return default
    return complex(pair[0], pair[1])


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {where}: {exc.message}") from exc
    return cfg


def build_inputs(cfg: dict):
    """Materialize (potential, lambda grid) from a config."""
    gspec = cfg.get("grid", {})
    grid = make_grid(gspec.get("R", 8.0), gspec.get("N", 128))
    pspec = cfg.get("potential", {})
    if "file" in pspec:
        v = load_potential(pspec["file"])
        if (v.grid.R, v.grid.N) != (grid.R, grid.N):
            raise ConfigError("potential file grid differs from config grid")
    else:
        v = sample_potential(grid, pspec.get("family", "gaussian"),
                             pspec.get("params", {"A": 0.5, "sigma": 1.0}),
                             eps=pspec.get("eps", 1.0))
    lspec = cfg.get("lambda_grid", {})
    lgrid = make_lambda_grid(lspec.get("annulus_radii"),
                             lspec.get("phases", 16),
                             lspec.get("t_samples", 32))
    return v, lgrid


def _with_determinant(cfg: dict) -> bool:
    return cfg.get("solver", {}).get("with_determinant", True)


def _write_scan(data: ScatteringData, out_dir: str,
                with_determinant: bool) -> None:
    """scattering.json and .csv; with Delta on, determinant.csv with one
    row per lambda (a failed lambda is its NaN "failed: ..." sample)."""
    os.makedirs(out_dir, exist_ok=True)
    save_scattering(data, os.path.join(out_dir, "scattering.json"))
    save_scattering_csv(data, os.path.join(out_dir, "scattering.csv"))
    if with_determinant:
        save_determinant_csv([r.delta_sample() for r in data.records],
                             os.path.join(out_dir, "determinant.csv"))


def cmd_scan(cfg: dict, out_dir: str, cache_dir) -> int:
    v, lgrid = build_inputs(cfg)
    with_determinant = _with_determinant(cfg)
    data = scan(v, lgrid, with_determinant=with_determinant,
                cache_dir=cache_dir)
    _write_scan(data, out_dir, with_determinant)
    n_flagged = sum(bool(r.flags) for r in data.records)
    print(f"scan: {len(data.records)} lambda samples, {n_flagged} flagged; "
          f"output in {out_dir}")
    return 2 if n_flagged else 0


def run_checks(cfg: dict, cache_dir, seed: int):
    v, lgrid = build_inputs(cfg)
    ck = cfg.get("checks", {})
    include = ck.get("include", DEFAULT_CHECKS)
    records = []
    data = None
    if {"ab_on_T", "delta_properties", "transparency_chain"} & set(include):
        data = scan(v, lgrid, with_determinant=_with_determinant(cfg),
                    cache_dir=cache_dir)
    if "ab_on_T" in include:
        records.append(V.check_ab_on_T(data))
    if "delta_properties" in include:
        records.extend(V.check_delta_properties(data))
    tol = ck.get("dbar_tol", 0.05)
    if "dbar_a" in include:
        lam = _cplx(ck.get("dbar_lambda"), 0.5 + 0j)
        records.append(V.check_dbar_a(v, lam, tol=tol, cache_dir=cache_dir))
    if "dbar_mu" in include:
        lam = _cplx(ck.get("dbar_mu_lambda"),
                    0.5 * np.exp(1j * np.pi / 4))
        records.append(V.check_dbar_mu(v, lam, tol=tol, cache_dir=cache_dir))
    if "dbar_lndelta" in include:
        lam = _cplx(ck.get("dbar_lndelta_lambda"), 0.4 + 0j)
        records.append(V.check_dbar_lndelta(v, lam, tol=tol,
                                            cache_dir=cache_dir))
    if "shift_lemma" in include:
        lams = [_cplx(p) for p in ck.get("shift_lambdas", [[0.5, 0],
                                                           [0.3, 0.4]])]
        records.append(V.check_shift_lemma(v, V.SHIFT_ZETA, lams,
                                           cache_dir=cache_dir))
    if "soliton_obstruction" in include:
        records.extend(V.soliton_records(seed))
    if "transparency_chain" in include:
        records.append(V.check_transparency(v, data))
    meta = {"grid": {"R": v.grid.R, "N": v.grid.N},
            "potential": {"family": v.family, "params": v.params,
                          "fingerprint": v.fingerprint()},
            "lambda_grid": lgrid.descriptor, "seed": seed}
    return V.assemble_report(records, meta), data


def cmd_verify(cfg: dict, out_dir: str, cache_dir, seed: int) -> int:
    report, data = run_checks(cfg, cache_dir, seed)
    os.makedirs(out_dir, exist_ok=True)
    V.save_report(report, os.path.join(out_dir, "report.json"))
    if data is not None:
        _write_scan(data, out_dir, _with_determinant(cfg))
    print(report.summary())
    return 0 if report.overall == "pass" else 2


def make_parser() -> argparse.ArgumentParser:
    """One subparser per command, with only the flags that command reads."""
    p = argparse.ArgumentParser(prog="nvscatter", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name) for name in ("scan", "verify")}
    for sp in cmds.values():
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default from config)")
        sp.add_argument("--cache-dir", default=None,
                        help=f"greens-table cache (default ${CACHE_ENV})")
    cmds["verify"].add_argument("--seed", type=int, default=None,
                                help="soliton sample seed (default from "
                                     "config, else 0)")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        out_dir = args.out or cfg.get("output_dir", ".")
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or None
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, cache_dir)
        if args.command == "verify":
            seed = cfg.get("seed", 0) if args.seed is None else args.seed
            return cmd_verify(cfg, out_dir, cache_dir, seed)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
