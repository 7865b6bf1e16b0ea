"""Scattering data a(lambda), b(lambda) and full spectral-grid scans.

With kappa = lambda - 1/conj(lambda),

    a(lambda) = (1/2pi)^2 * integral mu v
    b(lambda) = (1/2pi)^2 * integral exp(-(kappa*conj(z) - conj(kappa)*z)/2) mu v

The b-exponent is purely imaginary for every lambda != 0 (it equals
-i*Im(kappa*conj(z))), so the factor has modulus one; on |lambda| = 1 it
degenerates to 1 and b = a pointwise.  Setting mu = 1 gives the Born
approximation b ~ vhat(i*kappa), an oracle needing no fundamental solution.
"""

from __future__ import annotations

import json
import csv
from dataclasses import dataclass, field

import numpy as np

from .grids import LambdaGrid, Potential, fourier_hat_v
from .greens import build_greens_table
from .lippmann import (DeterminantSample, MuField, build_kernel,
                       modified_fredholm_det, solve_mu)

FOURPI2 = 4.0 * np.pi ** 2
MAX_FREQ_CELLS = 4.0


def _kappa(lam: complex) -> complex:
    return lam - 1.0 / np.conj(lam)


def compute_a(v: Potential, mu: MuField) -> complex:
    """a(lambda) = (1/2pi)^2 * h^2 * sum(mu * v)."""
    if v.grid != mu.grid:
        raise ValueError("potential and mu grids differ")
    h = v.grid.h
    return complex(np.sum(mu.samples * v.samples) * h * h / FOURPI2)


def compute_b(v: Potential, mu: MuField) -> complex:
    """b(lambda) with the analytic modulus-one oscillatory factor.

    Rejects lambda whose oscillation wavelength 2pi/|kappa| drops below
    MAX_FREQ_CELLS grid cells (aliasing guard).
    """
    if v.grid != mu.grid:
        raise ValueError("potential and mu grids differ")
    lam = complex(mu.lam)
    kap = _kappa(lam)
    h = v.grid.h
    if abs(kap) > 2.0 * np.pi / (MAX_FREQ_CELLS * h):
        raise ValueError(
            f"aliasing guard: |kappa|={abs(kap):.3g} oscillates faster than "
            f"one period per {MAX_FREQ_CELLS} cells at h={h:.3g}")
    phase = _b_phase(lam, v.grid.nodes())
    return complex(np.sum(phase * mu.samples * v.samples) * h * h / FOURPI2)


def _b_phase(lam: complex, z: np.ndarray) -> np.ndarray:
    """exp(-(kappa conj(z) - conj(kappa) z)/2) = exp(-i Im(kappa conj(z))).

    Written through the imaginary part, so the modulus is one by
    construction.
    """
    return np.exp(-1j * np.imag(_kappa(lam) * np.conj(z)))


def born_b(v: Potential, lam) -> complex:
    """mu = 1 approximation: b ~ vhat(i*kappa); exact Fourier-side oracle."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return fourier_hat_v(v, 1j * _kappa(lam))


def r_coefficient(lam, b: complex) -> complex:
    """r(lambda) = pi * sgn(|lambda|^2 - 1) * b(lambda) / conj(lambda).

    The sign factor was fixed numerically: a second-order expansion of a in
    the potential (independent of the integral-equation solver) matches
    d a / d conj(lambda) = r(lambda) * conj(b) with THIS orientation in both
    the |lambda| < 1 and |lambda| > 1 regimes.
    """
    lam = complex(lam)
    sgn = np.sign(abs(lam) ** 2 - 1.0)
    if sgn == 0:
        raise ValueError("r(lambda) undefined on |lambda| = 1")
    return complex(np.pi * sgn * b / np.conj(lam))


# ---------------------------------------------------------------------------
# grid scan


@dataclass
class ScatteringRecord:
    lam: complex
    a: complex
    b: complex
    delta: DeterminantSample | None
    mu_residual: float
    flags: list = field(default_factory=list)

    def delta_sample(self) -> DeterminantSample:
        """The Delta sample, or a NaN one (NaN diagnostics too) flagged
        "failed: <record flags>" when this lambda has none."""
        if self.delta is not None:
            return self.delta
        return DeterminantSample(self.lam, np.nan + 0j, 0, np.nan,
                                 f"failed: {'; '.join(self.flags)}",
                                 {"support_bound": np.nan,
                                  "support_nodes": np.nan,
                                  "min_pivot_ratio": np.nan})


@dataclass
class ScatteringData:
    """Scan results over a spectral grid for one potential."""

    lgrid: LambdaGrid
    records: list
    fingerprint: str
    family: str
    vhat0: complex
    grid_R: float
    grid_N: int

    def t_records(self):
        return [r for r, p in zip(self.records, self.lgrid.points) if p.on_T]


def solve_point(v: Potential, lam, *, with_ab: bool = True,
                with_determinant: bool = True, cache_dir=None):
    """(record, mu) at one lambda: table -> mu -> a, b; kernel -> Delta.

    A failed stage becomes a record flag and leaves its values NaN (a, b)
    or None (Delta, mu).  A vanishing potential needs no table: mu = 1,
    a = b = 0, Delta = 1.  cache_dir is the Green's-table cache, if any.
    """
    flags = []
    a = b = np.nan + 0j
    det = mu = None
    mu_res = np.nan
    if not np.any(v.samples):
        if with_ab:
            mu = MuField(lam, v.grid, np.ones(v.samples.shape, dtype=complex),
                         0.0, 0)
        if with_determinant:
            det = DeterminantSample(lam, 1.0 + 0j, 0, 0.0, "",
                                    {"support_bound": 0.0, "support_nodes": 0,
                                     "min_pivot_ratio": 1.0})
        return ScatteringRecord(lam, 0j, 0j, det, 0.0, []), mu
    try:
        table = build_greens_table(v.grid, lam, cache_dir=cache_dir)
    except Exception as exc:  # noqa: BLE001
        return ScatteringRecord(lam, a, b, None, mu_res,
                                [f"table-failed: {exc}"]), None
    if with_ab:
        try:
            mu = solve_mu(v, table)
            mu_res = mu.residual
            a = compute_a(v, mu)
            try:
                b = compute_b(v, mu)
            except ValueError as exc:
                flags.append(f"b-aliased: {exc}")
        except Exception as exc:  # noqa: BLE001
            flags.append(f"mu-failed: {exc}")
    if with_determinant:
        try:
            det = modified_fredholm_det(build_kernel(v, table))
            if det.flag:
                flags.append(det.flag)
        except Exception as exc:  # noqa: BLE001
            flags.append(f"determinant-failed: {exc}")
    return ScatteringRecord(lam, a, b, det, mu_res, flags), mu


def scan(v: Potential, lgrid: LambdaGrid, with_determinant: bool = True,
         with_ab: bool = True, cache_dir=None) -> ScatteringData:
    """solve_point per lambda, in grid order; no mu field is kept."""
    records = [solve_point(v, p.lam, with_ab=with_ab,
                           with_determinant=with_determinant,
                           cache_dir=cache_dir)[0]
               for p in lgrid.points]
    return ScatteringData(lgrid, records, v.fingerprint(), v.family,
                          fourier_hat_v(v, 0.0), v.grid.R, v.grid.N)


# ---------------------------------------------------------------------------
# serialization: JSON (complex as [re, im]) plus a CSV mirror for plotting


def _pair(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def save_scattering(data: ScatteringData, path) -> None:
    doc = {
        "metadata": {
            "fingerprint": data.fingerprint,
            "family": data.family,
            "R": data.grid_R,
            "N": data.grid_N,
            "vhat0": _pair(data.vhat0),
            "lambda_grid": data.lgrid.descriptor,
        },
        "lambda": [_pair(r.lam) for r in data.records],
        "a": [_pair(r.a) for r in data.records],
        "b": [_pair(r.b) for r in data.records],
        "delta": [_pair(r.delta.delta) if r.delta is not None else None
                  for r in data.records],
        "flags": [list(r.flags) for r in data.records],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def load_scattering(path) -> dict:
    """Raw round-trip load; complex fields reassembled from [re, im] pairs."""
    with open(path) as f:
        doc = json.load(f)

    def cplx(pairs):
        return [complex(p[0], p[1]) if p is not None else None for p in pairs]

    doc["lambda"] = cplx(doc["lambda"])
    doc["a"] = cplx(doc["a"])
    doc["b"] = cplx(doc["b"])
    doc["delta"] = cplx(doc["delta"])
    return doc


def write_scattering_csv(path, lams, a, b, deltas, flags) -> None:
    """CSV mirror of per-lambda columns; a missing Delta (None) is NaN.

    Floats are written with repr, so they round-trip exactly.
    """
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["re_lambda", "im_lambda", "abs_lambda", "arg_lambda",
                     "re_a", "im_a", "re_b", "im_b", "re_delta", "im_delta",
                     "flags"])
        for lam, ai, bi, d, fl in zip(lams, a, b, deltas, flags):
            lam = complex(lam)
            ai, bi = complex(ai), complex(bi)
            d = complex(d) if d is not None else complex(np.nan, 0.0)
            wr.writerow([repr(lam.real), repr(lam.imag), repr(abs(lam)),
                         repr(float(np.angle(lam))), repr(ai.real),
                         repr(ai.imag), repr(bi.real), repr(bi.imag),
                         repr(d.real), repr(d.imag), ";".join(fl)])


def save_scattering_csv(data: ScatteringData, path) -> None:
    recs = data.records
    write_scattering_csv(path, [r.lam for r in recs], [r.a for r in recs],
                         [r.b for r in recs],
                         [r.delta.delta if r.delta is not None else None
                          for r in recs],
                         [r.flags for r in recs])
