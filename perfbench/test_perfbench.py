"""Tests of the benchmark itself: every correctness check passes on the
program's outputs and fails on a slightly perturbed copy of them; lambda
sets keep their partners for any seed; the tracer patches and restores.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from nvscatter import greens, scattering  # noqa: E402
from nvscatter.grids import make_grid, sample_potential  # noqa: E402

THETA = 0.3
LAM = 0.45 * np.exp(1j * THETA)
# lam, its mirrors 1/conj, -1/conj, its quarter turn and that one's
# mirror, and one point on |lam| = 1
LAMS = [LAM, 1 / np.conj(LAM), -1 / np.conj(LAM), 1j * LAM,
        1 / np.conj(1j * LAM), np.exp(1j * THETA)]


@pytest.fixture(scope="module")
def v():
    return sample_potential(make_grid(8.0, 64), "gaussian",
                            {"A": 0.5, "sigma": 1.0})


@pytest.fixture(scope="module")
def data(v):
    return scattering.scan(v, W.lambda_grid(LAMS, {}))


@pytest.fixture(scope="module")
def tables(v):
    return {i: greens.build_greens_table(v.grid, LAMS[i]) for i in (0, 5)}


def _field(data, name):
    return [complex(getattr(r, name)) for r in data.records]


def _deltas(data):
    return [complex(r.delta.delta) for r in data.records]


def _scaled(values, i, factor):
    out = list(values)
    out[i] = out[i] * factor
    return out


def _by_name(check_list):
    return {c.name: c for c in check_list}


def test_b_symmetry(data):
    lams, b = _field(data, "lam"), _field(data, "b")
    assert all(c.ok for c in C.b_symmetry(lams, b))
    # b is nearly real for a radial potential, so perturb its modulus
    conj = _by_name(C.b_symmetry(lams, _scaled(b, 1, 1 + 1e-3)))
    assert not conj["b_conj_sym"].ok
    neg = _by_name(C.b_symmetry(lams, _scaled(b, 2, 1 + 1e-3)))
    assert not neg["b_neg_sym"].ok
    # no mirror pairs at all: nothing was checked, which is a failure
    assert not any(c.ok for c in C.b_symmetry(lams[:1], b[:1]))


def test_nystrom(v, data, tables):
    a, b = data.records[0].a, data.records[0].b
    assert all(c.ok for c in C.nystrom(v, tables[0], a, b))
    bad = _by_name(C.nystrom(v, tables[0], a * (1 + 1e-6), np.conj(b)))
    assert not bad["nystrom_a"].ok and not bad["nystrom_b"].ok


def test_k0_on_T(tables):
    t = tables[5]
    assert C.k0_on_T(t).ok
    bumped = greens.GreensTable(t.lam, t.grid, t.samples.copy(), t.record)
    N = t.grid.N
    bumped.samples[N + 2, N] *= 1 + 1e-6
    assert not C.k0_on_T(bumped).ok
    assert not C.k0_on_T(tables[0]).ok        # not on the unit circle


def test_roundtrip(data, tmp_path):
    path = tmp_path / "scattering.json"
    scattering.save_scattering(data, path)
    doc = scattering.load_scattering(path)
    lams, a, b = (_field(data, k) for k in ("lam", "a", "b"))
    assert C.roundtrip(doc, lams, a, b).ok
    b[0] = complex(np.nextafter(b[0].real, 1.0), b[0].imag)
    assert not C.roundtrip(doc, lams, a, b).ok


def test_delta_checks(v, data, tables):
    lams, d = _field(data, "lam"), _deltas(data)
    assert C.delta_realness(d).ok
    assert not C.delta_realness(_scaled(d, 3, 1 + 1e-5j)).ok
    assert all(c.ok for c in C.delta_pairs(lams, d))
    assert not _by_name(C.delta_pairs(lams, _scaled(d, 1, 1 + 1e-6)))[
        "delta_inversion"].ok
    assert not _by_name(C.delta_pairs(lams, _scaled(d, 3, 1 + 1e-6)))[
        "delta_quarter_turn"].ok
    assert C.slogdet(v, tables[0], d[0]).ok
    assert not C.slogdet(v, tables[0], d[0] * (1 + 1e-6)).ok


def test_not_exceptional(data):
    hs = [r.delta.hs_norm for r in data.records]
    assert all(c.ok for c in C.not_exceptional(hs, 0))
    assert not _by_name(C.not_exceptional(hs + [1.0], 0))[
        "hs_norm_below_one"].ok
    assert not _by_name(C.not_exceptional(hs, 1))["none_flagged"].ok


def test_verify_records():
    rec = {"id": "dbar_lndelta", "status": "pass", "residual": 0.071}
    assert C.verify_record(rec).ok
    assert not C.verify_record(dict(rec, residual=0.121)).ok
    assert not C.verify_record(dict(rec, id="dbar_a")).ok   # tol 0.05
    assert not C.verify_record(dict(rec, status="inapplicable",
                                    residual=float("nan"))).ok
    assert C.exit_code(0, "pass").ok and C.exit_code(2, "fail").ok
    assert not C.exit_code(2, "pass").ok and not C.exit_code(0, "fail").ok


def test_cache_reload(v, tables, tmp_path):
    t = tables[0]
    path = tmp_path / "t.bin"
    greens.save_table(t, path)
    cached = greens.load_table(path)
    assert C.cache_reload(cached, t).ok
    i = np.unravel_index(np.argmax(np.abs(t.samples)), t.samples.shape)
    cached.samples[i] *= 1 + 1e-12
    assert not C.cache_reload(cached, t).ok
    assert not C.cache_reload(greens.load_table(path), tables[5]).ok


@pytest.mark.parametrize("cls", [W.ScanAB, W.Determinant])
def test_lambda_sets_keep_partners(cls, tmp_path):
    wl = cls(tmp_path, seed=7)
    wl.setup()
    for seed in range(12):
        wl.seed = seed
        for k in range(3):
            lams = wl.lambdas(k).lambdas()
            assert len(lams) == wl.lambdas_per_round
            inner = [l for l in lams if abs(l) < 1 - 1e-9]
            partners = [1 / np.conj(l) for l in inner]
            if cls is W.ScanAB:
                partners += [-1 / np.conj(l) for l in inner]
                partners += [1j * l for l in inner]
            for p in partners:
                assert np.min(np.abs(lams - p)) < 1e-9
    wl.seed = 3
    assert np.array_equal(wl.lambdas(0).lambdas(), wl.lambdas(0).lambdas())
    assert not np.allclose(wl.lambdas(0).lambdas(), wl.lambdas(1).lambdas())


def test_tracer_patches_where_looked_up(v):
    tr = Tracer()
    original = greens.build_greens_table
    with tr.active():
        assert scattering.build_greens_table is not original
        assert scattering.build_greens_table.__wrapped__ is original
        scattering.scan(v, W.lambda_grid([0.5], {}), with_determinant=False)
    assert scattering.build_greens_table is original
    assert greens.build_greens_table is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "scattering.scan"
    assert {"greens.build_greens_table", "lippmann.solve_mu",
            "scattering.compute_a", "scattering.compute_b"} <= set(names)
    m = tr.metrics(0.0)
    assert [k for k, _ in PER_LAYER] == list(m)
    assert m["greens.build_greens_table.calls"][0] == 1
    assert m["greens.distinct_per_build"][0] == 1.0


def test_self_time():
    tr = Tracer()
    tr.spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0],
                ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_matches():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "det-n128", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
