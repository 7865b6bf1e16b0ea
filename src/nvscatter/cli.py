"""Configuration-driven command line front end.

Commands:
    scan          run a, b, Delta over the spectral grid; write JSON + CSV
    verify        run the identity-check suite; write report JSON + text
    demo-soliton  phase-mismatch demonstration for traveling-wave candidates
    export        re-emit CSV mirrors from a previous scan's JSON output

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
from .scattering import (ScatteringData, load_scattering, save_scattering,
                         save_scattering_csv, scan, write_scattering_csv)
from . import verify as V

CACHE_ENV = "NVSCATTER_CACHE"

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_CPLX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

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
            "properties": {
                "mu_tol": _POS,
                "eps_weight": _POS,
                "with_determinant": {"type": "boolean"},
                "table_refine": {"type": "integer", "minimum": 1},
            },
        },
        "checks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "include": {"type": "array", "items": {"type": "string"}},
                "dbar_lambda": _CPLX,
                "dbar_mu_lambda": _CPLX,
                "dbar_lndelta_lambda": _CPLX,
                "dbar_step": _POS,
                "dbar_tol": _POS,
                "shift_zeta": _CPLX,
                "shift_lambdas": {"type": "array", "items": _CPLX},
                "shift_tol": _POS,
                "mu_z_samples": {"type": "array", "items": _CPLX},
            },
        },
        "soliton": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "c_values": {"type": "array", "items": _CPLX},
                "annuli": {"type": "array",
                           "items": {"type": "array", "items": _POS,
                                     "minItems": 2, "maxItems": 2}},
                "n_samples": {"type": "integer", "minimum": 1},
                "mismatch_floor": _POS,
            },
        },
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "scan_file": {"type": "string"},
    },
}

DEFAULT_CHECKS = ["ab_on_T", "delta_properties", "dbar_a", "dbar_mu",
                  "dbar_lndelta", "shift_lemma", "soliton_obstruction",
                  "transparency_chain"]


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
    """Materialize (potential, lambda grid, solver opts) from a config."""
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


def _solver_opts(cfg: dict, cache_dir):
    sol = cfg.get("solver", {})
    table_opts = {"refine": sol.get("table_refine", 1)}
    if cache_dir:
        table_opts["cache_dir"] = cache_dir
    return {
        "mu_tol": sol.get("mu_tol", 1e-10),
        "eps": sol.get("eps_weight", 1.0),
        "with_determinant": sol.get("with_determinant", True),
        "table_opts": table_opts,
    }


def _write_scan(data: ScatteringData, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_scattering(data, os.path.join(out_dir, "scattering.json"))
    save_scattering_csv(data, os.path.join(out_dir, "scattering.csv"))
    dets = [r.delta for r in data.records if r.delta is not None]
    if dets:
        save_determinant_csv(dets, os.path.join(out_dir, "determinant.csv"))


def cmd_scan(cfg: dict, out_dir: str, threads: int, cache_dir) -> int:
    v, lgrid = build_inputs(cfg)
    opts = _solver_opts(cfg, cache_dir)
    data = scan(v, lgrid, threads=threads, **opts)
    _write_scan(data, out_dir)
    n_flagged = sum(bool(r.flags) for r in data.records)
    print(f"scan: {len(data.records)} lambda samples, {n_flagged} flagged; "
          f"output in {out_dir}")
    return 2 if n_flagged else 0


def _soliton_samples(annuli, n, rng):
    lams = []
    for rmin, rmax in annuli:
        radii = np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=n))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        lams.append(radii * np.exp(1j * phases))
    return np.concatenate(lams)


def run_checks(cfg: dict, threads: int, cache_dir, seed: int):
    v, lgrid = build_inputs(cfg)
    opts = _solver_opts(cfg, cache_dir)
    table_opts = opts["table_opts"]
    ck = cfg.get("checks", {})
    include = ck.get("include", DEFAULT_CHECKS)
    records = []
    data = None
    if {"ab_on_T", "delta_properties", "transparency_chain"} & set(include):
        data = scan(v, lgrid, threads=threads, **opts)
    if "ab_on_T" in include:
        records.append(V.check_ab_on_T(data))
    if "delta_properties" in include:
        records.extend(V.check_delta_properties(data))
    step = ck.get("dbar_step", 1e-3)
    tol = ck.get("dbar_tol", 0.05)
    if "dbar_a" in include:
        lam = _cplx(ck.get("dbar_lambda"), 0.5 + 0j)
        records.append(V.check_dbar_a(v, lam, h_step=step, tol=tol,
                                      table_opts=table_opts))
    if "dbar_mu" in include:
        lam = _cplx(ck.get("dbar_mu_lambda"),
                    0.5 * np.exp(1j * np.pi / 4))
        zs = [_cplx(p) for p in ck.get("mu_z_samples", [[0, 0], [1, 0],
                                                        [0, 1]])]
        records.append(V.check_dbar_mu(v, zs, lam, h_step=step, tol=tol,
                                       table_opts=table_opts))
    if "dbar_lndelta" in include:
        lam = _cplx(ck.get("dbar_lndelta_lambda"), 0.4 + 0j)
        records.append(V.check_dbar_lndelta(v, lam, h_step=step, tol=tol,
                                            eps=opts["eps"],
                                            table_opts=table_opts))
    if "shift_lemma" in include:
        zeta = _cplx(ck.get("shift_zeta"), 1 + 1j)
        lams = [_cplx(p) for p in ck.get("shift_lambdas", [[0.5, 0],
                                                           [0.3, 0.4]])]
        records.append(V.check_shift_lemma(v, zeta, lams,
                                           tol=ck.get("shift_tol", 1e-3),
                                           table_opts=table_opts))
    if "soliton_obstruction" in include:
        records.extend(soliton_records(cfg, seed))
    if "transparency_chain" in include:
        records.append(V.transparency_chain_demo(v, data))
    meta = {"grid": {"R": v.grid.R, "N": v.grid.N},
            "potential": {"family": v.family, "params": v.params,
                          "fingerprint": v.fingerprint()},
            "lambda_grid": lgrid.descriptor, "seed": seed}
    return V.assemble_report(records, meta), data


def soliton_records(cfg: dict, seed: int):
    sol = cfg.get("soliton", {})
    cs = [_cplx(p) for p in sol.get("c_values", [[0, 0], [1, 0], [4, 3]])]
    annuli = sol.get("annuli", [[0.01, 0.1], [10.0, 100.0]])
    n = sol.get("n_samples", 64)
    floor = sol.get("mismatch_floor", 1e-8)
    rng = np.random.default_rng(seed)
    return [V.soliton_obstruction(c, _soliton_samples(annuli, n, rng),
                                  mismatch_floor=floor) for c in cs]


def cmd_verify(cfg: dict, out_dir: str, threads: int, cache_dir,
               seed: int) -> int:
    report, data = run_checks(cfg, threads, cache_dir, seed)
    os.makedirs(out_dir, exist_ok=True)
    V.save_report(report, os.path.join(out_dir, "report.json"))
    if data is not None:
        _write_scan(data, out_dir)
    print(report.summary())
    return 0 if report.overall == "pass" else 2


def cmd_demo_soliton(cfg: dict, out_dir: str, seed: int) -> int:
    records = soliton_records(cfg, seed)
    os.makedirs(out_dir, exist_ok=True)
    report = V.assemble_report(records, {"seed": seed})
    V.save_report(report, os.path.join(out_dir, "soliton_report.json"))
    print("Traveling-wave obstruction demo")
    print("-------------------------------")
    for r in records:
        c = r.details["c"]
        frac = r.details["fraction"]
        print(f"velocity c = {c[0]:+g}{c[1]:+g}i: phase mismatch nonzero at "
              f"{100 * frac:.1f}% of sampled spectral points -> {r.status}")
        if "warning" in r.details:
            print(f"  warning: {r.details['warning']}")
    print("A localized traveling wave would need the translation phase to")
    print("match the cubic flow phase at every spectral point; the nonzero")
    print("mismatch on open regions near 0 and infinity forces its")
    print("scattering coefficient b to vanish there, and hence everywhere --")
    print("so no such (regular, decaying) soliton exists.")
    return 0 if report.overall == "pass" else 2


def cmd_export(cfg: dict, out_dir: str, scan_file: str | None) -> int:
    src = scan_file or cfg.get("scan_file") or os.path.join(
        cfg.get("output_dir", "."), "scattering.json")
    doc = load_scattering(src)
    os.makedirs(out_dir, exist_ok=True)
    dst = os.path.join(out_dir, "scattering_export.csv")
    write_scattering_csv(dst, doc["lambda"], doc["a"], doc["b"],
                         doc["delta"], doc["flags"])
    print(f"export: wrote {dst}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nvscatter", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("scan", "verify", "demo-soliton", "export"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default from config)")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads (default from config, else 1)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--cache-dir", default=None,
                        help=f"greens-table cache (default ${CACHE_ENV})")
        if name == "export":
            sp.add_argument("--scan-file", default=None,
                            help="scattering JSON to convert")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        out_dir = args.out or cfg.get("output_dir", ".")
        threads = (args.threads if args.threads is not None
                   else cfg.get("threads", 1))
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, threads, cache_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, threads, cache_dir, seed)
        if args.command == "demo-soliton":
            return cmd_demo_soliton(cfg, out_dir, seed)
        if args.command == "export":
            return cmd_export(cfg, out_dir, args.scan_file)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
