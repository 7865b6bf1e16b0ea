"""The three workloads: input make-up, one timed round, operations, checks.

A workload's `setup()` validates its config and builds the potential and
the first lambda set.  `round(k)` runs the program once on the lambda set
of round k, whose base phase comes from the seed and k; every set keeps its
mirror (1/conj lam, -1/conj lam) and quarter-turn (i lam) partners.  Rounds
of one run use different phases, so no round can reuse another's work.
Program functions are looked up through their modules at call time, so the
tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

from nvscatter import cli, greens, lippmann, scattering
from nvscatter.grids import LambdaGrid, SpectralPoint

import checks as C

GOLDEN = 0.6180339887498949
GAUSSIAN = {"family": "gaussian", "params": {"A": 0.5, "sigma": 1.0}}


def base_phase(seed: int, k: int) -> float:
    u = np.random.default_rng(seed).random()
    return 2.0 * np.pi * ((u + k * GOLDEN) % 1.0)


def lambda_grid(lams, descriptor) -> LambdaGrid:
    return LambdaGrid(tuple(SpectralPoint(complex(l)) for l in lams),
                      descriptor)


def _pair(c) -> list:
    return [float(c.real), float(c.imag)]


class Workload:
    name = ""
    lambdas_per_round = 0

    def __init__(self, out_dir, seed: int):
        self.out = str(out_dir)
        self.seed = seed
        self._n = 0

    def fresh_dir(self, stem: str) -> str:
        self._n += 1
        path = os.path.join(self.out, f"{stem}-{self._n}")
        os.makedirs(path)
        return path

    def write_config(self, cfg: dict) -> str:
        path = os.path.join(self.fresh_dir("config"), "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        return path

    def setup(self) -> None:
        """Config validation, the potential and the first lambda set."""
        self.cfg = cli.load_config(self.write_config(self.config(0)))
        self.v, self.lgrid0 = cli.build_inputs(self.cfg)
        self.lambdas(0)

    def config(self, k: int) -> dict:
        raise NotImplementedError

    def lambdas(self, k: int) -> LambdaGrid:
        raise NotImplementedError


class ScanAB(Workload):
    """`nvscatter scan` at N = 128, determinant off, on a rotated grid.

    The CLI config cannot rotate the lambda grid, so the workload makes the
    calls `nvscatter scan` makes (load_config, build_inputs, scan, both
    writers) with the config's grid turned by the round's base phase.
    """

    name = "scan-ab-n128"
    lambdas_per_round = 40   # 3 radii x 4 phases, mirrored, + 16 on |lam|=1

    def config(self, k):
        return {"potential": GAUSSIAN, "grid": {"R": 8.0, "N": 128},
                "lambda_grid": {"annulus_radii": [0.1, 0.25, 0.45],
                                "phases": 4, "t_samples": 16}}

    def lambdas(self, k):
        theta = base_phase(self.seed, k)
        lams = self.lgrid0.lambdas() * np.exp(1j * theta)
        return lambda_grid(lams, dict(self.lgrid0.descriptor, rotation=theta))

    def round(self, k):
        data = scattering.scan(self.v, self.lambdas(k),
                               with_determinant=False)
        out = self.fresh_dir("scan")
        path = os.path.join(out, "scattering.json")
        scattering.save_scattering(data, path)
        scattering.save_scattering_csv(data,
                                       os.path.join(out, "scattering.csv"))
        return data, path

    def operations(self, result):
        recs = result[0].records
        bad = sum(bool(r.flags) or not (np.isfinite(r.a) and np.isfinite(r.b))
                  for r in recs)
        return len(recs), bad

    def checks(self, results):
        out = []
        for data, path in results:
            lams = [complex(r.lam) for r in data.records]
            a = [complex(r.a) for r in data.records]
            b = [complex(r.b) for r in data.records]
            out += C.b_symmetry(lams, b)
            out.append(C.roundtrip(scattering.load_scattering(path),
                                   lams, a, b))
        # dense references at two lambda of the first round
        data = results[0][0]
        on_t = next(r for r, p in zip(data.records, data.lgrid.points)
                    if p.on_T)
        inner = next(r for r in data.records if abs(abs(r.lam) - 0.45) < 1e-9)
        for rec in (on_t, inner):
            table = greens.build_greens_table(self.v.grid, rec.lam)
            out += C.nystrom(self.v, table, rec.a, rec.b)
            if rec is on_t:
                out.append(C.k0_on_T(table))
        return out


class Determinant(Workload):
    """determinant_scan + detect_exceptional at N = 128 (eigen backend)."""

    name = "det-n128"
    lambdas_per_round = 6    # lam, i lam, 0.2 lam/|lam|; mirrors 1/conj(.)

    def config(self, k):
        return {"potential": GAUSSIAN, "grid": {"R": 8.0, "N": 128},
                "lambda_grid": {"annulus_radii": [0.45], "phases": 1,
                                "t_samples": 0}}

    def lambdas(self, k):
        theta = base_phase(self.seed, k)
        inner = [0.45 * np.exp(1j * theta), 0.45j * np.exp(1j * theta),
                 0.2 * np.exp(1j * theta)]
        lams = inner + [1.0 / np.conj(l) for l in inner]
        return lambda_grid(lams, {"rotation": theta})

    def round(self, k):
        return lippmann.detect_exceptional(self.v, self.lambdas(k))

    def operations(self, result):
        bad = sum(bool(s.flag) or not np.isfinite(s.delta)
                  for s in result.samples)
        return len(result.samples), bad

    def checks(self, results):
        out = []
        for ex in results:
            lams = [complex(s.lam) for s in ex.samples]
            deltas = [complex(s.delta) for s in ex.samples]
            out.append(C.delta_realness(deltas))
            out += C.delta_pairs(lams, deltas)
            out += C.not_exceptional([s.hs_norm for s in ex.samples],
                                     len(ex.flagged))
        for s in results[0].samples[2:4]:     # |lam| = 0.2 and 1/0.45
            table = greens.build_greens_table(self.v.grid, s.lam)
            out.append(C.slogdet(self.v, table, s.delta))
        return out


class VerifyDbar(Workload):
    """`nvscatter verify` at N = 64: three d-bar checks and the shift lemma.

    The check lambdas are turned by the round's base phase; for the radial
    potential the identities and their discretisation residuals do not
    depend on it.  One config tolerance covers the three d-bar checks, so
    the config sets the loosest pinned value and each record is judged
    again at its own pinned tolerance (checks.VERIFY_TOLS).
    """

    name = "verify-dbar-n64"
    # dbar_a, dbar_mu: centre + 2 x 4 stencil; dbar_lndelta: mirror +
    # 8 stencil Delta; shift_lemma: 2 lambda x 2 potentials
    lambdas_per_round = 31

    def config(self, k):
        e = np.exp(1j * base_phase(self.seed, k))
        return {"potential": GAUSSIAN, "grid": {"R": 8.0, "N": 64},
                "lambda_grid": {"annulus_radii": [0.5], "phases": 1,
                                "t_samples": 0},
                "checks": {"include": list(C.VERIFY_TOLS),
                           "dbar_lambda": _pair(0.5 * e),
                           "dbar_mu_lambda": _pair(0.5 * np.exp(0.25j * np.pi)
                                                   * e),
                           "dbar_lndelta_lambda": _pair(0.4 * e),
                           "dbar_tol": max(C.VERIFY_TOLS["dbar_a"],
                                           C.VERIFY_TOLS["dbar_mu"],
                                           C.VERIFY_TOLS["dbar_lndelta"]),
                           "shift_lambdas": [_pair(0.5 * e),
                                             _pair((0.3 + 0.4j) * e)]}}

    def lambdas(self, k):
        return self.lgrid0

    def round(self, k):
        cfg_path = self.write_config(self.config(k))
        out = self.fresh_dir("verify")
        cache = os.path.join(out, "cache")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--config", cfg_path, "--out", out,
                             "--cache-dir", cache])
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        return code, report, cache

    def operations(self, result):
        recs = result[1]["records"]
        return len(recs), sum(not C.verify_record(r).ok for r in recs)

    def checks(self, results):
        out = [C.exit_code(code, report["overall"])
               for code, report, _ in results]
        cache = results[0][2]
        cached = greens.load_table(os.path.join(cache,
                                                sorted(os.listdir(cache))[0]))
        fresh = greens.build_greens_table(cached.grid, cached.lam)
        out.append(C.cache_reload(cached, fresh))
        for *_, path in results:
            shutil.rmtree(path)
        return out


WORKLOADS = {w.name: w for w in (ScanAB, Determinant, VerifyDbar)}
