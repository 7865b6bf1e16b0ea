"""Identity checks: every structural property becomes a measured residual.

Each check returns a record {id, anchor, residual, tol, status}.  Anchors
name the mathematical statement being tested (not a code location) so
reports stay meaningful when internals change.  d-bar derivatives are
central finite differences in (Re lambda, Im lambda) with a step-halving
consistency probe; all d-bar checks skip a band around |lambda| = 1 where
the sign factor sgn(1 - |lambda|^2) flips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .grids import Potential, fourier_hat_v, translate_potential
from .scattering import ScatteringData, born_b, r_coefficient, solve_point

T_BAND = 0.05
FD_STEP = 1e-3
GUARD = 1e-14


@dataclass
class CheckRecord:
    id: str
    anchor: str
    residual: float
    tol: float
    status: str  # pass | fail | inapplicable
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == "inapplicable":
            return
        if not (np.isfinite(self.residual) and self.residual >= 0):
            raise ValueError("residual must be finite and non-negative")


def _record(cid, anchor, residual, tol, details=None) -> CheckRecord:
    status = "pass" if residual <= tol else "fail"
    return CheckRecord(cid, anchor, float(residual), float(tol), status,
                       details or {})


def _inapplicable(cid, anchor, reason) -> CheckRecord:
    return CheckRecord(cid, anchor, float("nan"), float("nan"),
                       "inapplicable", {"reason": reason})


# ---------------------------------------------------------------------------
# scan-level checks


def check_ab_on_T(data: ScatteringData, tol: float = 1e-3) -> CheckRecord:
    """a(lambda) = b(lambda) on the unit circle when Delta does not vanish."""
    anchor = "a-equals-b-on-unit-circle"
    recs = data.t_records()
    if not recs:
        return _inapplicable("ab_on_T", anchor, "no unit-circle samples")
    if any("exceptional" in f for r in recs for f in r.flags):
        return _inapplicable("ab_on_T", anchor,
                             "inapplicable -- Delta vanishes on T")
    res = max(abs(r.a - r.b) / (abs(r.a) + abs(r.b) + GUARD) for r in recs)
    return _record("ab_on_T", anchor, res, tol, {"n_samples": len(recs)})


def check_delta_properties(data: ScatteringData, realness_tol: float = 1e-6,
                           t_spread_tol: float = 1e-3,
                           limit_tol: float = 0.01,
                           inversion_tol: float = 1e-4,
                           continuity_ref: float = 1e-3) -> list:
    """Five determinant properties: continuity proxy, limits at 0/infinity,
    constancy on T, realness, inversion symmetry."""
    recs = [r for r in data.records if r.delta is not None
            and np.isfinite(r.delta.delta)]
    if not recs:
        return [_inapplicable(f"delta_{k}", "determinant-properties",
                              "no determinant samples")
                for k in ("continuity", "limits", "t_const", "real",
                          "inversion")]
    out = []

    # continuity proxy: largest jump between radially adjacent samples per
    # phase ray, compared against 10x a reference refinement error
    by_phase = {}
    for r in recs:
        lam = complex(r.lam)
        key = round(float(np.angle(lam)), 9)
        by_phase.setdefault(key, []).append((abs(lam), r.delta.delta))
    jump = 0.0
    for ray in by_phase.values():
        ray.sort()
        for (_, d1), (_, d2) in zip(ray[:-1], ray[1:]):
            jump = max(jump, abs(d2 - d1))
    out.append(_record("delta_continuity", "determinant-continuity-proxy",
                       jump, 10.0 * continuity_ref,
                       {"note": "largest radial jump; reference is the "
                                "configured refinement error"}))

    # limits: Delta -> 1 toward 0 and infinity (smallest/largest |lambda|)
    radii = np.array([abs(complex(r.lam)) for r in recs])
    lim_res = max(abs(recs[int(np.argmin(radii))].delta.delta - 1.0),
                  abs(recs[int(np.argmax(radii))].delta.delta - 1.0))
    out.append(_record("delta_limits", "determinant-tends-to-one",
                       lim_res, limit_tol,
                       {"rmin": float(radii.min()),
                        "rmax": float(radii.max())}))

    # constancy on T
    t_vals = [r.delta.delta for r, p in zip(data.records, data.lgrid.points)
              if p.on_T and r.delta is not None]
    if t_vals:
        t_vals = np.array(t_vals)
        spread = float(np.ptp(np.abs(t_vals)) / (abs(t_vals.mean()) + GUARD))
        out.append(_record("delta_t_const", "determinant-constant-on-T",
                           spread, t_spread_tol,
                           {"t_value": [float(t_vals.mean().real),
                                        float(t_vals.mean().imag)]}))
    else:
        out.append(_inapplicable("delta_t_const",
                                 "determinant-constant-on-T",
                                 "no unit-circle samples"))

    # realness
    real_res = max(abs(r.delta.delta.imag) / (1.0 + abs(r.delta.delta))
                   for r in recs)
    out.append(_record("delta_real", "determinant-real-valued",
                       real_res, realness_tol))

    # inversion symmetry Delta(lambda) = Delta(1/conj(lambda))
    pairs = 0
    inv_res = 0.0
    for r in recs:
        lam = complex(r.lam)
        if abs(lam) >= 1.0:
            continue
        target = 1.0 / np.conj(lam)
        for r2 in recs:
            if abs(complex(r2.lam) - target) < 1e-9:
                inv_res = max(inv_res, abs(r.delta.delta - r2.delta.delta)
                              / (1.0 + abs(r.delta.delta)))
                pairs += 1
                break
    if pairs:
        out.append(_record("delta_inversion",
                           "determinant-inversion-symmetry",
                           inv_res, inversion_tol, {"pairs": pairs}))
    else:
        out.append(_inapplicable("delta_inversion",
                                 "determinant-inversion-symmetry",
                                 "no inversion-mirrored sample pairs"))
    return out


# ---------------------------------------------------------------------------
# d-bar finite-difference checks


def _point(v, lam, table_opts, *, need=("a",), eps=1.0):
    """The values named in `need` ("a", "b", "mu" samples or "delta") at
    one lambda; ValueError, naming lambda and the record's flags, if the
    record lacks one."""
    rec, mu = solve_point(v, lam, with_ab="delta" not in need,
                          with_determinant="delta" in need, eps=eps,
                          table_opts=table_opts)
    got = {"a": rec.a, "b": rec.b, "mu": None if mu is None else mu.samples,
           "delta": None if rec.delta is None else rec.delta.delta}
    if any(got[k] is None or not np.all(np.isfinite(got[k])) for k in need):
        raise ValueError(f"no {'/'.join(need)} at lambda={lam:.6g}: "
                         f"{'; '.join(rec.flags)}")
    return [got[k] for k in need]


def _stencil_ok(lam: complex, h: float) -> bool:
    pts = [lam + h, lam - h, lam + 1j * h, lam - 1j * h, lam]
    return all(abs(abs(p) - 1.0) > T_BAND and p != 0 for p in pts)


def _fd_dbar(f, lam: complex, h: float) -> complex:
    """(d/d conj(lambda)) f = (f_x + i f_y)/2 by central differences."""
    fx = (f(lam + h) - f(lam - h)) / (2.0 * h)
    fy = (f(lam + 1j * h) - f(lam - 1j * h)) / (2.0 * h)
    return 0.5 * (fx + 1j * fy)


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), GUARD)


def _fd_residual(res: float, res_half: float, tol: float):
    """(residual, details) of a d-bar check from its step-h and step-h/2
    residuals.

    The half step is consistent when res_half <= res + tol/4; the residual
    is then res, else max(res, res_half), so a finite difference that
    disagrees with its own step halving cannot pass on the luckier step.
    """
    consistent = bool(res_half <= res + 0.25 * tol)
    details = {"residual_half_step": res_half, "fd_consistent": consistent}
    return (res if consistent else max(res, res_half)), details


def check_dbar_a(v: Potential, lam, h_step: float = FD_STEP,
                 tol: float = 0.05, table_opts: dict | None = None) -> CheckRecord:
    """d a / d conj(lambda) = pi sgn(|lambda|^2-1) |b|^2 / conj(lambda).

    Sign orientation fixed by the solver-independent second-order test (see
    r_coefficient).
    """
    anchor = "dbar-derivative-of-a"
    lam = complex(lam)
    if not _stencil_ok(lam, h_step):
        return _inapplicable("dbar_a", anchor, "stencil crosses T or 0")

    def a_of(l):
        return _point(v, l, table_opts)[0]

    b, = _point(v, lam, table_opts, need=("b",))
    rhs = np.pi * np.sign(abs(lam) ** 2 - 1.0) * b * np.conj(b) / np.conj(lam)
    lhs = _fd_dbar(a_of, lam, h_step)
    lhs_half = _fd_dbar(a_of, lam, h_step / 2.0)
    res, details = _fd_residual(_rel(lhs, rhs), _rel(lhs_half, rhs), tol)
    return _record("dbar_a", anchor, res, tol, details)


def check_dbar_mu(v: Potential, z_samples, lam, h_step: float = FD_STEP,
                  tol: float = 0.05, table_opts: dict | None = None) -> CheckRecord:
    """d mu / d conj(lambda) = r(lambda) e^{phase(z)} conj(mu) at sampled z."""
    anchor = "dbar-derivative-of-mu"
    lam = complex(lam)
    if not _stencil_ok(lam, h_step):
        return _inapplicable("dbar_mu", anchor, "stencil crosses T or 0")
    grid = v.grid
    ax = grid.axis()
    idx = [(int(np.argmin(np.abs(ax - complex(z).real))),
            int(np.argmin(np.abs(ax - complex(z).imag))))
           for z in z_samples]

    def mu_of(l):
        m, = _point(v, l, table_opts, need=("mu",))
        return np.array([m[i, j] for i, j in idx])

    b, mu0 = _point(v, lam, table_opts, need=("b", "mu"))
    rl = r_coefficient(lam, b)
    kap = lam - 1.0 / np.conj(lam)
    zs = np.array([ax[i] + 1j * ax[j] for i, j in idx])
    phase = np.exp(0.5 * (kap * np.conj(zs) - np.conj(kap) * zs))
    mu_c = np.array([mu0[i, j] for i, j in idx])
    rhs = rl * phase * np.conj(mu_c)
    lhs = _fd_dbar(mu_of, lam, h_step)
    lhs_half = _fd_dbar(mu_of, lam, h_step / 2.0)
    res, details = _fd_residual(max(_rel(l, r) for l, r in zip(lhs, rhs)),
                                max(_rel(l, r) for l, r in zip(lhs_half, rhs)),
                                tol)
    return _record("dbar_mu", anchor, res, tol, details)


def check_dbar_lndelta(v: Potential, lam, h_step: float = FD_STEP,
                       tol: float = 0.05, eps: float = 1.0,
                       table_opts: dict | None = None) -> CheckRecord:
    """d ln Delta / d conj(lambda) =
    -pi sgn(|lambda|^2-1) (a(1/conj(lambda)) - vhat(0)) / conj(lambda)."""
    anchor = "dbar-derivative-of-log-determinant"
    lam = complex(lam)
    if not _stencil_ok(lam, h_step):
        return _inapplicable("dbar_lndelta", anchor, "stencil crosses T or 0")

    def ln_delta(l):
        d, = _point(v, l, table_opts, need=("delta",), eps=eps)
        if abs(d) < 1e-8:
            raise ArithmeticError("Delta too small on stencil")
        return np.log(d)

    a_mirror, = _point(v, 1.0 / np.conj(lam), table_opts)
    rhs = (-np.pi * np.sign(abs(lam) ** 2 - 1.0)
           * (a_mirror - fourier_hat_v(v, 0.0)) / np.conj(lam))
    try:
        lhs = _fd_dbar(ln_delta, lam, h_step)
        lhs_half = _fd_dbar(ln_delta, lam, h_step / 2.0)
    except ArithmeticError as exc:
        return _inapplicable("dbar_lndelta", anchor, str(exc))
    res, details = _fd_residual(_rel(lhs, rhs), _rel(lhs_half, rhs), tol)
    return _record("dbar_lndelta", anchor, res, tol, details)


# ---------------------------------------------------------------------------
# translation and soliton checks


def shift_phase(lam: complex, zeta: complex) -> complex:
    """Phase relating b of a translated potential to b of the original."""
    kap = lam - 1.0 / np.conj(lam)
    return np.exp(-0.5 * (kap * np.conj(zeta) - np.conj(kap) * zeta))


def check_shift_lemma(v: Potential, zeta, lam_samples, tol: float = 1e-3,
                      table_opts: dict | None = None) -> CheckRecord:
    """Translating v by zeta keeps a and multiplies b by a unit phase.

    Both sides come from fully independent solves.
    """
    anchor = "translation-covariance-of-scattering-data"
    zeta = complex(zeta)
    v_shift = translate_potential(v, zeta)
    res_a = res_b = 0.0
    for lam in lam_samples:
        lam = complex(lam)
        a0, b0 = _point(v, lam, table_opts, need=("a", "b"))
        a1, b1 = _point(v_shift, lam, table_opts, need=("a", "b"))
        res_a = max(res_a, abs(a1 - a0) / (abs(a0) + GUARD))
        res_b = max(res_b, abs(b1 - shift_phase(lam, zeta) * b0)
                    / (abs(b0) + GUARD))
    return _record("shift_lemma", anchor, max(res_a, res_b), tol,
                   {"zeta": [zeta.real, zeta.imag], "residual_a": res_a,
                    "residual_b": res_b, "n_lambda": len(list(lam_samples))})


def soliton_mismatch(lam: complex, c: complex) -> complex:
    """Translation phase-rate minus cubic flow phase-rate.

    A traveling-wave solution moving with velocity c would need these two
    exponents to agree for every lambda; m != 0 on an open set forces b = 0
    there.
    """
    lam = complex(lam)
    kap = lam - 1.0 / np.conj(lam)
    translation = -0.5 * (kap * np.conj(c) - np.conj(kap) * c)
    cubic = (lam ** 3 + lam ** -3) - np.conj(lam ** 3 + lam ** -3)
    return translation - cubic


def soliton_obstruction(c, lam_samples, mismatch_floor: float = 1e-8,
                        min_fraction: float = 0.95) -> CheckRecord:
    """Fraction of generic lambda with nonvanishing phase mismatch."""
    anchor = "soliton-phase-obstruction"
    c = complex(c)
    lams = [complex(l) for l in lam_samples]
    if any(l == 0 for l in lams):
        raise ValueError("lambda samples must exclude 0")
    n_generic = sum(abs(complex(l).imag) > 1e-12 for l in lams)
    hits = sum(abs(soliton_mismatch(l, c)) > mismatch_floor for l in lams)
    frac = hits / len(lams)
    details = {"c": [c.real, c.imag], "fraction": frac,
               "n_samples": len(lams)}
    if n_generic < len(lams) // 2:
        details["warning"] = "insufficient generic samples (most lambda real)"
    res = max(0.0, min_fraction - frac)
    return _record(f"soliton_obstruction_c={c:g}", anchor, res, 0.0, details)


def transparency_chain_demo(v_weak: Potential, data: ScatteringData,
                            factor: float = 0.5) -> CheckRecord:
    """A visibly nonzero weak potential must scatter: max|b| is at least
    `factor` times the Born prediction somewhere on the grid."""
    anchor = "no-transparent-potentials"
    if not np.any(v_weak.samples):
        return _inapplicable("transparency_chain", anchor,
                             "zero potential -- vacuous")
    if any("exceptional" in f for r in data.records for f in r.flags):
        return _inapplicable("transparency_chain", anchor,
                             "exceptional flags present")
    bmax = max((abs(r.b) for r in data.records if np.isfinite(r.b)),
               default=0.0)
    born_max = max(abs(born_b(v_weak, p.lam)) for p in data.lgrid.points)
    res = max(0.0, factor * born_max - bmax) / (born_max + GUARD)
    return _record("transparency_chain", anchor, res, 0.0,
                   {"max_b": bmax, "max_born_b": born_max})


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class VerificationReport:
    records: list
    metadata: dict
    overall: str

    def to_json(self) -> str:
        doc = {"metadata": self.metadata, "overall": self.overall,
               "records": [asdict(r) for r in self.records]}
        return json.dumps(doc, indent=1, default=_json_default)

    def summary(self) -> str:
        lines = [f"{r.id:32s} {r.status:12s} residual={r.residual:.3e} "
                 f"tol={r.tol:.3e}" if r.status != "inapplicable" else
                 f"{r.id:32s} {r.status:12s} ({r.details.get('reason','')})"
                 for r in self.records]
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return str(obj)


def assemble_report(records, metadata: dict | None = None) -> VerificationReport:
    """Sort by id, reject duplicates, overall = AND over applicable checks."""
    records = sorted(records, key=lambda r: r.id)
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate check ids: {dupes}")
    applicable = [r for r in records if r.status != "inapplicable"]
    overall = "pass" if all(r.status == "pass" for r in applicable) else "fail"
    return VerificationReport(records, metadata or {}, overall)


def save_report(report: VerificationReport, path) -> None:
    with open(path, "w") as f:
        f.write(report.to_json())
