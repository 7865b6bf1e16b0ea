import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvscatter import greens, scattering, verify
from nvscatter.greens import GreensTable, cache_key
from nvscatter.grids import make_grid, make_lambda_grid, sample_potential
from nvscatter.scattering import scan
from nvscatter.verify import (CheckRecord, VerificationReport,
                              assemble_report, check_ab_on_T, check_dbar_a,
                              check_dbar_lndelta, check_dbar_mu,
                              check_delta_properties, check_shift_lemma,
                              check_transparency, save_report, shift_phase,
                              soliton_mismatch, soliton_obstruction)


@pytest.fixture(scope="module")
def weak64(grid64):
    return sample_potential(grid64, "gaussian", {"A": 0.3, "sigma": 1.0})


@pytest.fixture(scope="module")
def scan64(weak64):
    lgrid = make_lambda_grid(annulus_radii=[0.3, 0.6], phases=2, t_samples=4)
    return scan(weak64, lgrid)


def test_check_record_validation():
    with pytest.raises(ValueError, match="finite"):
        CheckRecord("x", "anchor", -1.0, 0.1, "pass")
    with pytest.raises(ValueError, match="finite"):
        CheckRecord("x", "anchor", float("nan"), 0.1, "fail")
    rec = CheckRecord("x", "anchor", float("nan"), float("nan"),
                      "inapplicable")
    assert rec.status == "inapplicable"


def test_ab_on_T(scan64):
    rec = check_ab_on_T(scan64)
    assert rec.status == "pass"
    assert rec.residual < 1e-12
    assert rec.details["n_samples"] == 4


def test_ab_on_T_inapplicable(weak64):
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=2, t_samples=0)
    data = scan(weak64, lgrid, with_determinant=False)
    rec = check_ab_on_T(data)
    assert rec.status == "inapplicable"


def test_delta_properties(scan64):
    recs = check_delta_properties(scan64)
    by_id = {r.id: r for r in recs}
    assert set(by_id) == {"delta_continuity", "delta_limits",
                          "delta_t_const", "delta_real", "delta_inversion"}
    for r in recs:
        assert r.status == "pass", (r.id, r.residual)
    # mirrored radii are present, so inversion pairs must have been found
    assert by_id["delta_inversion"].details["pairs"] > 0
    assert "t_value" in by_id["delta_t_const"].details


def test_delta_properties_without_determinant(weak64):
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=2, t_samples=0)
    data = scan(weak64, lgrid, with_determinant=False)
    recs = check_delta_properties(data)
    assert all(r.status == "inapplicable" for r in recs)


def test_dbar_a(weak64):
    rec = check_dbar_a(weak64, 0.5)
    assert rec.status == "pass", rec.residual
    assert rec.details["fd_consistent"]


def test_dbar_a_stencil_guard(weak64):
    rec = check_dbar_a(weak64, 1.001)
    assert rec.status == "inapplicable"
    rec = check_dbar_a(weak64, 0.97)
    assert rec.status == "inapplicable"


def test_dbar_mu(weak64):
    lam = 0.5 * np.exp(0.25j * np.pi)
    rec = check_dbar_mu(weak64, lam)
    assert rec.status == "pass", rec.residual
    assert rec.details["fd_consistent"]


def test_dbar_lndelta(weak64):
    # N = 64 resolution limits this residual to the several-percent range
    rec = check_dbar_lndelta(weak64, 0.4, tol=0.12)
    assert rec.status == "pass", rec.residual


def test_dbar_lndelta_stencil_tables_use_cache(tmp_path):
    grid = make_grid(8.0, 16)
    v = sample_potential(grid, "gaussian", {"A": 0.3, "sigma": 1.0})
    lam, h = 0.4 + 0j, verify.FD_STEP
    check_dbar_lndelta(v, lam, cache_dir=tmp_path)
    files = set(os.listdir(tmp_path))
    for step in (h, h / 2):
        for l in (lam + step, lam - step, lam + 1j * step, lam - 1j * step):
            assert cache_key(l, grid, greens.RULE_ID) + ".bin" in files


@pytest.mark.parametrize("check", [
    lambda v, lam: check_dbar_a(v, lam),
    lambda v, lam: check_dbar_mu(v, lam),
    lambda v, lam: check_dbar_lndelta(v, lam, tol=0.12),
], ids=["dbar_a", "dbar_mu", "dbar_lndelta"])
def test_dbar_inconsistent_half_step_reports_larger_residual(
        check, weak64, monkeypatch):
    # scale g at one half-step stencil point: the step-h difference is
    # untouched, the step-h/2 one is wrong
    lam = 0.4 + 0j
    bad = lam + verify.FD_STEP / 2.0
    build = scattering.build_greens_table

    def perturbed(grid, l, **opts):
        t = build(grid, l, **opts)
        if l == bad:
            t = GreensTable(t.lam, t.grid, 1.5 * t.samples, t.record)
        return t

    monkeypatch.setattr(scattering, "build_greens_table", perturbed)
    rec = check(weak64, lam)
    assert not rec.details["fd_consistent"]
    assert rec.residual == rec.details["residual_half_step"]
    assert rec.status == "fail"


def test_shift_phase_unit_modulus():
    for lam in (0.5, 2.0 * np.exp(1.1j), 0.3 - 0.8j):
        assert abs(abs(shift_phase(lam, 1.0 + 2.0j)) - 1.0) < 1e-14
    # kappa = 0 on T: translations change nothing there
    assert shift_phase(np.exp(0.7j), 3.0 - 1.0j) == pytest.approx(1.0)


def test_shift_lemma(weak64):
    rec = check_shift_lemma(weak64, 1.0 + 1.0j, [0.5, 0.3 + 0.4j])
    assert rec.status == "pass", rec.residual
    assert rec.details["residual_a"] < rec.tol
    assert rec.details["residual_b"] < rec.tol


@given(st.floats(0.1, 5), st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_soliton_mismatch_vanishes_real(lam, c):
    """Real lambda and real velocity: both phase rates are identically 0."""
    assert abs(soliton_mismatch(lam, c)) < 1e-9 * max(1.0, abs(lam) ** 3,
                                                      abs(lam) ** -3)


def test_soliton_mismatch_generic_nonzero():
    assert abs(soliton_mismatch(0.5 * np.exp(0.3j), 0.0)) > 1e-3
    assert abs(soliton_mismatch(0.7j, 4.0 + 3.0j)) > 1e-3


def test_soliton_obstruction_pass():
    rng = np.random.default_rng(3)
    lams = 0.3 * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, 64))
    rec = soliton_obstruction(1.0 + 2.0j, lams)
    assert rec.status == "pass"
    assert rec.details["fraction"] == 1.0
    assert rec.id == "soliton_obstruction_c=1+2j"


def test_soliton_obstruction_degenerate_samples():
    rec = soliton_obstruction(1.0, [0.3, 0.5, 2.0])  # all real: mismatch = 0
    assert rec.status == "fail"
    assert "warning" in rec.details
    with pytest.raises(ValueError, match="exclude 0"):
        soliton_obstruction(1.0, [0.5, 0.0])


def test_transparency_chain(weak64, scan64, grid64):
    rec = check_transparency(weak64, scan64)
    assert rec.status == "pass"
    assert rec.details["max_b"] > 0
    v0 = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    assert check_transparency(v0, scan64).status == "inapplicable"


def test_assemble_report():
    recs = [CheckRecord("b", "x", 0.0, 1.0, "pass"),
            CheckRecord("a", "y", 0.5, 1.0, "pass"),
            CheckRecord("c", "z", float("nan"), float("nan"),
                        "inapplicable", {"reason": "n/a"})]
    rep = assemble_report(recs, {"note": "t"})
    assert rep.overall == "pass"
    assert [r.id for r in rep.records] == ["a", "b", "c"]
    doc = json.loads(rep.to_json())
    assert doc["overall"] == "pass"
    assert doc["metadata"]["note"] == "t"
    assert "overall: pass" in rep.summary()


def test_assemble_report_fail_and_duplicates():
    recs = [CheckRecord("a", "x", 2.0, 1.0, "fail"),
            CheckRecord("b", "y", 0.0, 1.0, "pass")]
    assert assemble_report(recs).overall == "fail"
    with pytest.raises(ValueError, match="duplicate"):
        assemble_report(recs + [CheckRecord("a", "x", 0.0, 1.0, "pass")])


def test_save_report(tmp_path):
    rep = assemble_report([CheckRecord("a", "x", 0.0, 1.0, "pass")])
    path = tmp_path / "report.json"
    save_report(rep, path)
    doc = json.loads(path.read_text())
    assert doc["records"][0]["id"] == "a"
