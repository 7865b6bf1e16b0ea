import csv
import json
import os

import numpy as np
import pytest

from nvscatter.cli import (CACHE_ENV, ConfigError, build_inputs, load_config,
                           main, make_parser)

BASE = {
    "potential": {"family": "gaussian", "params": {"A": 0.2, "sigma": 1.0}},
    "grid": {"R": 8.0, "N": 16},
    "lambda_grid": {"annulus_radii": [0.5], "phases": 2, "t_samples": 2},
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for k, v in overrides.items():
        if v is None:
            cfg.pop(k, None)
        else:
            cfg[k] = v
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nosuch"):
        load_config(str(tmp_path / "nosuch.json"))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_load_config_unknown_key(tmp_path, capsys):
    """Unknown keys, the removed threads, solver.mu_tol, solver.eps_weight,
    solver.table_refine, checks.dbar_step, checks.shift_zeta,
    checks.shift_tol, checks.mu_z_samples and soliton section, and a
    checks.include that is empty or names an unknown check, are config
    errors that name the key."""
    p = write_cfg(tmp_path, extra_key={"x": 1})
    with pytest.raises(ConfigError, match="extra_key"):
        load_config(p)
    for key, cfg in [("threads", {"threads": 2}),
                     ("mu_tol", {"solver": {"mu_tol": 1e-8}}),
                     ("eps_weight", {"solver": {"eps_weight": 2.0}}),
                     ("table_refine", {"solver": {"table_refine": 2}}),
                     ("dbar_step", {"checks": {"dbar_step": 1e-3}}),
                     ("shift_zeta", {"checks": {"shift_zeta": [1, 1]}}),
                     ("shift_tol", {"checks": {"shift_tol": 1e-3}}),
                     ("mu_z_samples", {"checks": {"mu_z_samples": [[0, 0]]}}),
                     ("soliton", {"soliton": {"c_values": [[0, 0]]}}),
                     ("soliton", {"soliton": {"annuli": [[0.01, 0.1]]}}),
                     ("soliton", {"soliton": {"n_samples": 16}}),
                     ("soliton", {"soliton": {"mismatch_floor": 1e-8}}),
                     ("'dbar-a' is not one of",
                      {"checks": {"include": ["dbar-a"]}}),
                     ("checks/include", {"checks": {"include": []}})]:
        p = write_cfg(tmp_path, **cfg)
        assert main(["scan", "--config", p,
                     "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, rejected", [
    ("scan", {"cache_dir"}, ["--seed"]),
    ("verify", {"seed", "cache_dir"}, []),
    ("demo-soliton", {"seed"}, ["--cache-dir"]),
    ("export", {"scan_file"}, ["--seed", "--cache-dir"]),
], ids=["scan", "verify", "demo-soliton", "export"])
def test_subcommand_flags(command, flags, rejected, tmp_path, capsys):
    # each command takes only the flags it reads; any other is a usage error
    args = make_parser().parse_args([command])
    assert set(vars(args)) == {"command", "config", "out"} | flags
    for flag in rejected:
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "o"), flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_config_path_in_error(tmp_path):
    p = write_cfg(tmp_path, grid={"R": -1.0, "N": 16})
    with pytest.raises(ConfigError, match="grid/R"):
        load_config(p)


def test_build_inputs_defaults():
    v, lgrid = build_inputs({"grid": {"R": 8.0, "N": 16}})
    assert v.family == "gaussian"
    assert v.grid.N == 16
    assert len(lgrid) == 12 * 16 + 32


def test_build_inputs_potential_file(tmp_path):
    from nvscatter.grids import make_grid, sample_potential, save_potential

    v = sample_potential(make_grid(8.0, 16), "ring", {"A": 1.0, "sigma": 2.0})
    vp = tmp_path / "v.bin"
    save_potential(v, vp)
    cfg = {"grid": {"R": 8.0, "N": 16},
           "potential": {"file": str(vp)}}
    v2, _ = build_inputs(cfg)
    np.testing.assert_array_equal(v2.samples, v.samples)
    with pytest.raises(ConfigError, match="grid differs"):
        build_inputs({"grid": {"R": 8.0, "N": 32},
                      "potential": {"file": str(vp)}})


def test_scan_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["scan", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "scattering.json").exists()
    assert (out / "scattering.csv").exists()
    assert (out / "determinant.csv").exists()
    assert "0 flagged" in capsys.readouterr().out


def test_determinant_csv_has_one_row_per_lambda(tmp_path, monkeypatch):
    # a lambda whose table fails keeps its determinant.csv row, flagged
    import nvscatter.scattering as scattering

    bad = 0.5 * np.exp(0.5j * np.pi)
    build = scattering.build_greens_table

    def failing(grid, lam, **kwargs):
        if abs(lam - bad) < 1e-12:
            raise RuntimeError("forced table failure")
        return build(grid, lam, **kwargs)

    monkeypatch.setattr(scattering, "build_greens_table", failing)
    cfg = write_cfg(tmp_path, grid={"R": 8.0, "N": 32})
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
    with open(out / "determinant.csv") as f:
        rows = list(csv.DictReader(f))
    # radius 0.5 mirrored to 2.0, 2 phases each, 2 on T
    assert len(rows) == 6
    failed = [r for r in rows if r["flag"]]
    assert len(failed) == 1
    assert failed[0]["flag"].startswith("failed: table-failed:")
    assert complex(float(failed[0]["re_lambda"]),
                   float(failed[0]["im_lambda"])) == pytest.approx(bad)
    assert failed[0]["re_delta"] == "nan"

    # with every Delta failed the file is still written, one row per lambda
    def always(grid, lam, **kwargs):
        raise RuntimeError("forced table failure")

    monkeypatch.setattr(scattering, "build_greens_table", always)
    out = tmp_path / "all"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
    with open(out / "determinant.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    assert all(r["flag"].startswith("failed:") for r in rows)


def test_scan_flags_exit_code(tmp_path):
    # |lambda| = 0.02 -> |kappa| ~ 50 aliases at h = 1: flagged, exit 2
    cfg = write_cfg(tmp_path, lambda_grid={"annulus_radii": [0.02],
                                           "phases": 1, "t_samples": 0})
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_scan_bad_config_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, grid={"R": 8.0, "N": 17})  # odd N
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path, capsys):
    rc = main(["scan", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cache_dir_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    cache = tmp_path / "cache"
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "o1"),
               "--cache-dir", str(cache)])
    assert rc == 0
    files = sorted(os.listdir(cache))
    assert files and all(f.endswith(".bin") for f in files)
    mtimes = {f: (cache / f).stat().st_mtime_ns for f in files}
    rc = main(["scan", "--config", cfg, "--out", str(tmp_path / "o2")
               , "--cache-dir", str(cache)])
    assert rc == 0
    # second run reused every cached table instead of rewriting it
    assert {f: (cache / f).stat().st_mtime_ns for f in files} == mtimes


def test_cache_env_var(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert os.listdir(cache)


def test_verify_subset(tmp_path, capsys):
    cfg = write_cfg(tmp_path, checks={"include": ["ab_on_T",
                                                  "transparency_chain"]})
    out = tmp_path / "v"
    rc = main(["verify", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0, captured
    assert "overall: pass" in captured
    doc = json.loads((out / "report.json").read_text())
    assert {r["id"] for r in doc["records"]} == {"ab_on_T",
                                                 "transparency_chain"}
    assert doc["overall"] == "pass"
    assert (out / "scattering.json").exists()


def test_verify_stage_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a mu solve that fails at one stencil point of dbar_a is an error with
    # the record's flag, not a traceback
    import nvscatter.scattering as scattering
    import nvscatter.verify as verify
    from nvscatter.lippmann import ExceptionalSetError

    lam = 0.5 + 0j
    bad = lam + verify.FD_STEP
    solve = scattering.solve_mu

    def failing(v, table, **kwargs):
        if table.lam == bad:
            raise ExceptionalSetError("forced non-convergence")
        return solve(v, table, **kwargs)

    monkeypatch.setattr(scattering, "solve_mu", failing)
    cfg = write_cfg(tmp_path, checks={"include": ["dbar_a"],
                                      "dbar_lambda": [0.5, 0.0]})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "mu-failed" in err


def test_verify_soliton_only(tmp_path):
    # one record per verify.SOLITON_VELOCITIES
    cfg = write_cfg(tmp_path, checks={"include": ["soliton_obstruction"]})
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    assert rc == 0
    doc = json.loads((tmp_path / "v" / "report.json").read_text())
    assert len(doc["records"]) == 3


def test_demo_soliton(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "d"
    rc = main(["demo-soliton", "--config", cfg, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "velocity c = +4+3i" in text
    assert "no such" in text
    assert (out / "soliton_report.json").exists()


def test_demo_soliton_seed_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["demo-soliton", "--config", cfg, "--out", str(o1),
                 "--seed", "7"]) == 0
    assert main(["demo-soliton", "--config", cfg, "--out", str(o2),
                 "--seed", "7"]) == 0
    r1 = json.loads((o1 / "soliton_report.json").read_text())
    r2 = json.loads((o2 / "soliton_report.json").read_text())
    assert r1 == r2


def test_export_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["export", "--config", cfg, "--out", str(out), "--scan-file",
               str(out / "scattering.json")])
    assert rc == 0
    lines = (out / "scattering_export.csv").read_text().splitlines()
    assert lines[0].startswith("re_lambda,")
    # header + samples: radius 0.5 mirrored to 2.0, 2 phases each, 2 on T
    assert len(lines) == 1 + 6
    # one format: the export reproduces the scan's own CSV mirror exactly
    assert lines == (out / "scattering.csv").read_text().splitlines()


def test_export_missing_scan_exit_1(tmp_path, capsys):
    rc = main(["export", "--out", str(tmp_path), "--scan-file",
               str(tmp_path / "missing.json")])
    assert rc == 1
