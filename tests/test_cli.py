import csv
import json
import os

import numpy as np
import pytest

from padicpme.cli import build_initial, main
from padicpme.errors import DomainError
from padicpme.functions import read_radial_csv
from padicpme.padic import GridSpec


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_kernel_heat_artifacts(tmp_path):
    out = tmp_path / "zprof.csv"
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", "1.0",
               "--shells", "8", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    side = _read_json(tmp_path / "zprof.json")
    assert side["kind"] == "heat_kernel"
    assert abs(side["mass"] - 1.0) <= side["mass_certificate"] + 1e-10
    assert side["series_agreement_max"] < 1e-10
    man = _read_json(tmp_path / "zprof.manifest.json")
    assert man["command"] == "kernel"
    assert sorted(man["artifacts"]) == man["artifacts"]
    assert str(out) in man["artifacts"] and str(tmp_path / "zprof.json") in man["artifacts"]
    assert "numpy" in man["versions"] and "scipy" in man["versions"]
    assert man["wall_seconds"] >= 0


def test_kernel_ball_mode(tmp_path):
    out = tmp_path / "zn.csv"
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", "0.5",
               "--ball", "0", "--out", str(out)])
    assert rc == 0
    side = _read_json(tmp_path / "zn.json")
    assert side["kind"] == "ball_kernel"
    assert side["lambda"] == pytest.approx(4 / 7)
    assert abs(side["mass_over_ball"] - 1.0) <= side["mass_certificate"] + 1e-9


def test_kernel_ball_certificate_at_large_times(tmp_path, capsys):
    """Z_N is right at large t: at t = 100 (p = 2, alpha = 2, N = 1) the
    mass over B_1 is 1 and Z_N = p^{-N} = 0.5 on every shell and at 0.
    The sidecar's c(t) series overflows by t = 10000, and ends in one
    error line naming it, with exit code 1, not a traceback."""
    for t in ("10", "100"):
        out = tmp_path / f"zn_{t}.csv"
        rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", t,
                   "--ball", "1", "--out", str(out)])
        assert rc == 0
        side = _read_json(tmp_path / f"zn_{t}.json")
        assert abs(side["mass_over_ball"] - 1.0) <= side["mass_certificate"]
    assert side["mass_certificate"] <= 1e-12
    assert abs(side["mass_over_ball"] - 1.0) <= 1e-12
    prof = read_radial_csv(str(out), 2)
    assert len(prof.shell_values) == 14
    for v in [prof.value_at_zero] + [v for _, v in prof.shell_values]:
        assert abs(v - 0.5) <= 1e-12
    capsys.readouterr()
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", "10000",
               "--ball", "1", "--out", str(tmp_path / "zn_big.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "ball coefficient" in err[0]


def test_kernel_resolvent_mode(tmp_path):
    out = tmp_path / "green.csv"
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--mu", "1.0",
               "--out", str(out)])
    assert rc == 0
    side = _read_json(tmp_path / "green.json")
    assert side["kind"] == "resolvent_kernel"
    assert side["tail_constant"] == pytest.approx(24 / 7)


def test_kernel_flag_conflicts_and_domain(tmp_path, capsys):
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--mu", "1.0",
               "--t", "1.0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # the resolvent tail needs alpha > 1
    rc = main(["kernel", "--p", "2", "--alpha", "0.5", "--mu", "1.0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    # heat mode needs a time
    rc = main(["kernel", "--p", "2", "--alpha", "2.0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    # non-prime p
    rc = main(["kernel", "--p", "6", "--alpha", "2.0", "--t", "1.0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_operator_dump_round_trip(tmp_path):
    out = tmp_path / "op.csv"
    rc = main(["operator", "--p", "2", "--alpha", "2.0", "--N", "1",
               "--M", "1", "--out", str(out)])
    assert rc == 0
    dim = 4
    mat = np.zeros((dim, dim))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "value"]
    for i, j, v in rows[1:]:
        mat[int(i), int(j)] = float(v)
    side = _read_json(tmp_path / "op.json")
    assert np.allclose(mat.sum(axis=1), side["lambda"], atol=1e-12)
    assert side["row_sum_max_deviation"] < 1e-12


def test_operator_dump_cap(tmp_path):
    rc = main(["operator", "--p", "2", "--alpha", "2.0", "--N", "5",
               "--M", "5", "--out", str(tmp_path / "op.csv")])
    assert rc == 2


def test_evolve_heat_conserves_mass(tmp_path):
    outdir = tmp_path / "run"
    rc = main(["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
               "--M", "1", "--t-end", "1.0", "--snapshots", "4",
               "--out", str(outdir)])
    assert rc == 0
    snaps = sorted(outdir.glob("snapshot_*.csv"))
    assert len(snaps) == 5
    diag = _read_json(outdir / "diagnostics.json")
    assert diag["kind"] == "heat_evolution"
    assert diag["mass"] == pytest.approx([diag["mass"][0]] * 5, abs=1e-12)
    linf = diag["linf"]
    assert all(b <= a + 1e-12 for a, b in zip(linf, linf[1:]))
    man = _read_json(outdir / "manifest.json")
    assert len(man["artifacts"]) == 6  # 5 snapshots + diagnostics
    for a in man["artifacts"]:
        assert os.path.exists(a)


def test_evolve_heat_beyond_the_dense_cap(tmp_path):
    """dim 2^14, where a dense semigroup matrix would take 2 GB; indicator
    and radial_power initial data."""
    for name, initial in (("indicator", '{"kind": "indicator"}'),
                          ("radial", '{"kind": "radial_power", '
                                     '"exponent": 1.5}')):
        outdir = tmp_path / name
        rc = main(["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "7",
                   "--M", "7", "--t-end", "0.5", "--snapshots", "2",
                   "--initial", initial, "--out", str(outdir)])
        assert rc == 0
        assert len(sorted(outdir.glob("snapshot_*.csv"))) == 3
        diag = _read_json(outdir / "diagnostics.json")
        mass0 = diag["mass"][0]
        assert diag["mass"] == pytest.approx([mass0] * 3, rel=1e-12,
                                             abs=1e-12)
        l1 = diag["l1"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(l1, l1[1:]))


def test_evolve_heat_at_large_times(tmp_path):
    """By t = 100 the unit indicator on B_0 in B_1 has spread to 1/2 in
    every cell, with its mass kept."""
    outdir = tmp_path / "run"
    rc = main(["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
               "--M", "2", "--t-end", "100", "--snapshots", "1",
               "--out", str(outdir)])
    assert rc == 0
    diag = _read_json(outdir / "diagnostics.json")
    assert diag["mass"] == pytest.approx([1.0, 1.0], abs=1e-12)
    with open(outdir / "snapshot_0001.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert [float(r["re"]) for r in rows] == pytest.approx([0.5] * 8,
                                                           abs=1e-12)


def test_evolve_heat_bad_initial(tmp_path):
    base = ["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
            "--M", "1", "--t-end", "1.0", "--out", str(tmp_path / "r")]
    assert main(base + ["--initial", "not json"]) == 2
    assert main(base + ["--initial", '{"kind": "bogus"}']) == 2
    assert main(base + ["--initial",
                        '{"kind": "radial_power", "exponent": -1}']) == 2


def test_evolve_from_config(tmp_path):
    cfg = {"p": 2, "alpha": 2.0, "N": 1, "M": 1, "m": 2.0,
           "tau": 0.05, "t_end": 0.1,
           "initial": {"kind": "indicator", "radius_exp": 0}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    rc = main(["evolve", "--config", str(cfg_path), "--out", str(outdir)])
    assert rc == 0
    diag = _read_json(outdir / "diagnostics.json")
    assert diag["kind"] == "pme_evolution"
    assert len(diag["times"]) == 3
    l1 = diag["l1"]
    assert all(b <= a + 1e-10 for a, b in zip(l1, l1[1:]))
    assert len(sorted(outdir.glob("snapshot_*.csv"))) == 3
    man = _read_json(outdir / "manifest.json")
    assert man["command"] == "evolve"
    assert man["config"]["config_path"] == str(cfg_path)


def test_evolve_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["evolve", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["evolve", "--config", str(bad)]) == 2
    no_init = tmp_path / "noinit.json"
    no_init.write_text(json.dumps({"p": 2, "alpha": 2.0, "N": 1, "M": 1,
                                   "m": 2.0, "tau": 0.05, "t_end": 0.1}))
    assert main(["evolve", "--config", str(no_init)]) == 2


def test_verify_suite_output(capsys):
    rc = main(["verify", "explicit"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 3
    for ln in lines:
        assert ln.startswith("PASS explicit.")
        assert ": " in ln
    assert "all checks passed" in out


def test_explicit_artifacts_and_overwrite(tmp_path):
    out = tmp_path / "prof.csv"
    argv = ["explicit", "--p", "2", "--alpha", "2.0", "--m", "2.0",
            "--t0", "2.0", "--t", "1.0", "--k-min", "-3", "--k-max", "3",
            "--out", str(out)]
    assert main(argv) == 0
    side = _read_json(tmp_path / "prof.json")
    assert side["rho"] == pytest.approx(-31 / 140, abs=1e-14)
    assert side["residual_sup"] < 1e-10
    assert side["time_factor"] == pytest.approx(1.0)
    first = out.read_text()
    # atomic overwrite leaves a single consistent file and no temp litter
    assert main(argv) == 0
    assert out.read_text() == first
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp_")] == []


def test_explicit_bad_window(tmp_path):
    rc = main(["explicit", "--p", "2", "--alpha", "2.0", "--m", "2.0",
               "--t0", "2.0", "--t", "1.0", "--k-min", "3", "--k-max", "-3",
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    rc = main(["explicit", "--p", "2", "--alpha", "2.0", "--m", "2.0",
               "--t0", "1.0", "--t", "2.0",
               "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_build_initial_kinds(tmp_path):
    grid = GridSpec(2, 1, 1)
    u = build_initial(grid, {"kind": "indicator", "radius_exp": 0,
                             "coeff": 2.0})
    assert u.sum() == pytest.approx(2.0 * 2)  # 2 cells of B_0 at M=1
    v = build_initial(grid, {"kind": "radial_power", "exponent": 1.0})
    assert v[0] == 0.0
    with pytest.raises(DomainError):
        build_initial(grid, {"kind": "csv"})
    with pytest.raises(DomainError):
        build_initial(grid, {})
