import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from padicpme import heat, pme, verification
from padicpme.cli import _write_run, build_initial, main
from padicpme.errors import DomainError, SolverError
from padicpme.functions import GridFunction, write_grid_csv
from padicpme.padic import GridSpec

from conftest import read_radial_rows


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
    assert man["versions"] == {"numpy": np.__version__}
    assert man["wall_seconds"] >= 0


def test_kernel_heat_compares_each_shell_once(tmp_path, monkeypatch):
    """Each shell's alternating series is summed once per kernel_Z call:
    the table's gap feeds both its own check and series_agreement_max, and
    the mass estimate's one call over the shells [-25, 25] sums it again.
    At alpha = 2, t = 1 the cross-check runs on the shells j >= 0."""
    calls = Counter()
    alternating = heat.kernel_Z_alternating

    def counted(params, shell):
        calls[shell] += 1
        return alternating(params, shell)

    monkeypatch.setattr(heat, "kernel_Z_alternating", counted)
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", "1.0",
               "--shells", "8", "--out", str(tmp_path / "z.csv")])
    assert rc == 0
    assert calls == {j: 2 if j <= 8 else 1 for j in range(26)}
    assert _read_json(tmp_path / "z.json")["series_agreement_max"] > 0


def test_kernel_ball_mode(tmp_path):
    out = tmp_path / "zn.csv"
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", "0.5",
               "--ball", "0", "--out", str(out)])
    assert rc == 0
    side = _read_json(tmp_path / "zn.json")
    assert side["kind"] == "ball_kernel"
    assert side["lambda"] == pytest.approx(4 / 7)
    assert abs(side["mass_over_ball"] - 1.0) <= side["mass_certificate"] + 1e-9


def test_kernel_ball_certificate_at_large_times(tmp_path):
    """Z_N is right at large t: at t = 100 (p = 2, alpha = 2, N = 1) the
    mass over B_1 is 1 and Z_N = p^{-N} = 0.5 on every shell and at 0.
    At t = 10000 the run still succeeds; c(t) ~ -e^{lam t} has left the
    double range, and the sidecar writes null for it and its certificate."""
    for t in ("10", "100", "10000"):
        out = tmp_path / f"zn_{t}.csv"
        rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--t", t,
                   "--ball", "1", "--out", str(out)])
        assert rc == 0
        side = _read_json(tmp_path / f"zn_{t}.json")
        assert abs(side["mass_over_ball"] - 1.0) <= side["mass_certificate"]
        assert side["mass_certificate"] <= 1e-12
        assert abs(side["mass_over_ball"] - 1.0) <= 1e-12
        if t == "100":
            zero, shells, _ = read_radial_rows(out)
            assert len(shells) == 14
            for v in [zero, *shells.values()]:
                assert abs(v - 0.5) <= 1e-12
    assert side["mass_return_coefficient"] is None
    assert side["mass_return_certificate"] is None


def test_kernel_resolvent_mode(tmp_path):
    out = tmp_path / "green.csv"
    rc = main(["kernel", "--p", "2", "--alpha", "2.0", "--mu", "1.0",
               "--out", str(out)])
    assert rc == 0
    side = _read_json(tmp_path / "green.json")
    assert side["kind"] == "resolvent_kernel"
    assert side["tail_constant"] == pytest.approx(24 / 7)


def test_kernel_resolvent_positive_with_certificates(tmp_path):
    """E_mu > 0 on every shell and at 0 where the series terms span many
    orders of magnitude, and each value comes with its certificate."""
    out = tmp_path / "green.csv"
    rc = main(["kernel", "--p", "5", "--alpha", "3", "--mu", "4",
               "--out", str(out)])
    assert rc == 0
    zero, shells, _ = read_radial_rows(out)
    assert len(shells) == 25
    assert zero.real > 0
    assert all(v.real > 0 for v in shells.values())
    side = _read_json(tmp_path / "green.json")
    assert "series_target" not in side
    assert 0 < side["zero_truncation_bound"] <= 1e-13 * side["value_at_zero"]
    assert sorted(map(int, side["shell_truncation_bounds"])) == list(range(-12, 13))
    for k, v in shells.items():
        assert 0 < side["shell_truncation_bounds"][str(k)] <= 1e-13 * v.real


def _read_strict_json(path):
    """The sidecar as JSON proper: NaN and Infinity raise."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}")
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def test_kernel_heat_where_the_alternating_argument_overflows(tmp_path, capsys):
    """z = t p^{alpha (1 - shell)} leaves the double range on the inner
    shells: at alpha = 50 inside the mass estimate's shells, and at
    alpha = 2 from shell -1023 on.  The first run writes mass 1 with its
    certificate; the second ends at the outer shells, whose series leave
    the double range, with that message."""
    rc = main(["kernel", "--p", "2", "--alpha", "50", "--t", "1",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 0
    side = _read_strict_json(tmp_path / "z.json")
    assert abs(side["mass"] - 1.0) <= side["mass_certificate"] < 1e-6
    rc = main(["kernel", "--p", "2", "--alpha", "2", "--t", "1",
               "--shells", "2000", "--out", str(tmp_path / "far.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: kernel series leaves the double range\n")
    assert not (tmp_path / "far.csv").exists()


def test_kernel_heat_at_huge_times_writes_a_finite_certificate(tmp_path):
    rc = main(["kernel", "--p", "2", "--alpha", "3", "--t", "1e300",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 0
    side = _read_strict_json(tmp_path / "z.json")
    assert math.isfinite(side["mass_certificate"])
    assert abs(side["mass"] - 1.0) <= side["mass_certificate"]


def test_kernel_resolvent_tail_constant_beyond_the_double_range(tmp_path):
    """Below mu ~ 1e-154, mu^{-2} leaves the double range: the sidecar
    writes null for the tail constant and the CSV has no tail row, while
    the certified values are written as for any mu."""
    for mu in ("1e-160", "1e-200"):
        out = tmp_path / f"green_{mu}.csv"
        rc = main(["kernel", "--p", "2", "--alpha", "2", "--mu", mu,
                   "--out", str(out)])
        assert rc == 0
        side = _read_strict_json(tmp_path / f"green_{mu}.json")
        assert side["tail_constant"] is None
        assert side["tail_exponent"] == -3.0
        assert side["value_at_zero"] > 0
        _, shells, tail = read_radial_rows(out)
        assert tail is None
        assert len(shells) == 25


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


def test_a_failing_run_leaves_no_partial_snapshots(tmp_path):
    """Snapshots that fail after two items leave no temp file and no new
    snapshot, diagnostics or manifest: an earlier run's files stay."""
    grid = GridSpec(2, 1, 1)
    outdir = tmp_path / "run"
    outdir.mkdir()
    old = {f"snapshot_{j:04d}.csv": f"old {j}" for j in range(3)}
    for name, text in old.items():
        (outdir / name).write_text(text)

    def snapshots():
        yield np.zeros(grid.dim)
        yield np.ones(grid.dim)
        raise RuntimeError("third snapshot failed")

    diagnostics = {"times": [0.0, 0.5, 1.0], "mass": [0.0, 1.0, 1.0]}
    with pytest.raises(RuntimeError, match="third snapshot failed"):
        _write_run(str(outdir), grid, snapshots(), diagnostics, "evolve-heat",
                   {}, 0.0)
    assert {path.name: path.read_text() for path in outdir.iterdir()} == old


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


@pytest.mark.parametrize("argv, message", [
    pytest.param(["evolve-heat", "--p", "2", "--alpha", "2", "--N", "1",
                  "--M", "1", "--t-end", "0"], "--t-end must be positive",
                 id="evolve-heat-t-end"),
    pytest.param(["evolve-heat", "--p", "2", "--alpha", "2", "--N", "1",
                  "--M", "1", "--t-end", "1", "--snapshots", "0"],
                 "--snapshots must be at least 1", id="evolve-heat-snapshots"),
    pytest.param(["kernel", "--p", "2", "--alpha", "2", "--t", "1",
                  "--ball", "-5", "--shells", "3"],
                 "--shells 3 leaves no shells inside B_-5", id="kernel-ball"),
])
def test_cli_option_checks_exit_2(tmp_path, capsys, argv, message):
    """Each refusal exits 2 with one error line, before any file."""
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    pytest.param(["kernel", "--p", "2", "--alpha", "1e-300", "--t", "1"],
                 "heat kernel series: t (p^alpha - 1) = 0.0 leaves the "
                 "double range", id="kernel-alpha-1e-300"),
    pytest.param(["kernel", "--p", "2", "--alpha", "2", "--t", "1e-320"],
                 "heat kernel series: 1/t = inf leaves the double range",
                 id="kernel-t-1e-320"),
    pytest.param(["kernel", "--p", "2", "--alpha", "0.01", "--t", "1e-100"],
                 "kernel series window leaves the double range",
                 id="kernel-window"),
    pytest.param(["kernel", "--p", "2", "--alpha", "100", "--t", "1"],
                 "alternating kernel series at shell 1 leaves the double "
                 "range", id="kernel-alpha-100"),
    pytest.param(["kernel", "--p", "2", "--alpha", "3000", "--t", "1"],
                 "heat kernel series: t (p^alpha - 1) = inf leaves the "
                 "double range", id="kernel-alpha-3000"),
    pytest.param(["explicit", "--p", "2", "--alpha", "1e-300", "--m", "2",
                  "--t0", "1", "--t", "0"],
                 "gamma_p(p=2, z=1.0) rounds to 0 at alpha=1e-300: the "
                 "gamma ratio leaves the double range",
                 id="explicit-alpha-1e-300"),
    pytest.param(["kernel", "--p", "2", "--alpha", "3000", "--t", "1",
                  "--ball", "1"],
                 "ball eigenvalue floor at p=2, alpha=3000.0, N=1 leaves the "
                 "double range",
                 id="kernel-ball-alpha-3000"),
    pytest.param(["evolve-heat", "--p", "2", "--alpha", "1100", "--N", "1",
                  "--M", "1", "--t-end", "1"],
                 "ball eigenvalue floor at p=2, alpha=1100.0, N=1 leaves the "
                 "double range",
                 id="evolve-heat-alpha-1100"),
    pytest.param(["operator", "--p", "2", "--alpha", "1100", "--N", "1",
                  "--M", "1"],
                 "image of 1_B at p=2, alpha=1100.0, radius p^-1 leaves the "
                 "double range",
                 id="operator-alpha-1100"),
])
def test_extreme_alpha_or_t_exit_1(tmp_path, capsys, argv, message):
    """A kernel or profile whose closed forms leave the double range at an
    extreme alpha or t exits 1 with one error line naming what left it,
    and writes nothing."""
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["kernel", "--p", "2", "--alpha", "2", "--t", "1"],
                 id="kernel"),
    pytest.param(["operator", "--p", "2", "--alpha", "2", "--N", "1",
                  "--M", "1"], id="operator"),
])
def test_an_unwritable_out_file_exits_2(tmp_path, capsys, argv):
    """_write_artifacts: an --out whose directory does not exist, or that
    is a directory, exits 2 with one error line naming that path, and
    leaves no file."""
    (tmp_path / "adir").mkdir()
    for out in (str(tmp_path / "nodir" / "out.csv"), str(tmp_path / "adir")):
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and \
            err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["adir"]
    assert os.listdir(tmp_path / "adir") == []


def test_a_run_directory_that_is_a_file_exits_2(tmp_path, capsys,
                                                monkeypatch):
    """evolve-heat and evolve with --out an existing file, or a path under
    one, exit 2 with one error line naming it, evolve before its first
    implicit step, and leave it and the directory as they were."""
    steps = []

    def refuse(*args):
        steps.append(args)
        raise SolverError("refused")

    monkeypatch.setattr(pme, "implicit_step", refuse)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_GOOD_CONFIG))
    for argv in (["evolve-heat", "--p", "2", "--alpha", "2", "--N", "1",
                  "--M", "1", "--t-end", "1"],
                 ["evolve", "--config", str(config)]):
        for out, reason in ((taken, "File exists"),
                            (taken / "run", "Not a directory")):
            assert main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: cannot write {out}: {reason}\n"
    assert steps == []
    assert taken.read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["run.json", "taken"]


def test_a_refusing_evolve_leaves_no_run_directory(tmp_path, capsys,
                                                   monkeypatch):
    """evolve checks --out but makes it only once the run has solved, so
    a step that refuses exits 1 and leaves no directory."""
    def refuse(*args):
        raise SolverError("refused")

    monkeypatch.setattr(pme, "implicit_step", refuse)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_GOOD_CONFIG))
    assert main(["evolve", "--config", str(config),
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: refused\n"
    assert os.listdir(tmp_path) == ["run.json"]


def test_evolve_heat_bad_initial(tmp_path):
    base = ["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
            "--M", "1", "--t-end", "1.0", "--out", str(tmp_path / "r")]
    assert main(base + ["--initial", "not json"]) == 2
    assert main(base + ["--initial", '{"kind": "bogus"}']) == 2
    assert main(base + ["--initial",
                        '{"kind": "radial_power", "exponent": -1}']) == 2


def test_complex_csv_initial_data_is_refused(tmp_path, capsys):
    """A grid CSV with a nonzero imaginary part stops evolve and
    evolve-heat with exit 2 and one error line, before any snapshot; the
    same data with im = 0 run."""
    grid = GridSpec(2, 1, 2)
    re = np.linspace(0.1, 0.8, grid.dim)
    for name, im in (("complex", re), ("real", np.zeros(grid.dim))):
        path = tmp_path / f"{name}.csv"
        write_grid_csv(str(path), GridFunction(grid, re + 1j * im))
        initial = {"kind": "csv", "path": str(path)}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"p": 2, "alpha": 2.0, "N": 1, "M": 2,
                                   "m": 2.0, "tau": 0.05, "t_end": 0.1,
                                   "initial": initial}))
        runs = {
            "evolve": ["evolve", "--config", str(cfg)],
            "evolve-heat": ["evolve-heat", "--p", "2", "--alpha", "2.0",
                            "--N", "1", "--M", "2", "--t-end", "0.1",
                            "--snapshots", "2", "--initial",
                            json.dumps(initial)],
        }
        for command, argv in runs.items():
            outdir = tmp_path / f"{name}_{command}"
            capsys.readouterr()
            rc = main(argv + ["--out", str(outdir)])
            err = capsys.readouterr().err
            if name == "complex":
                assert rc == 2, command
                assert err.count("error:") == 1 and "imaginary" in err
                assert not outdir.exists()
            else:
                assert rc == 0, command
                with open(outdir / "snapshot_0000.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                assert [float(r["re"]) for r in rows] == re.tolist()
                assert all(float(r["im"]) == 0.0 for r in rows)


def test_non_finite_csv_initial_data_is_refused(tmp_path, capsys):
    """A grid CSV with a nan or inf cell stops evolve and evolve-heat with
    exit 2 and one error line naming the file, before any snapshot."""
    grid = GridSpec(2, 1, 2)
    for bad in (np.nan, np.inf):
        re = np.linspace(0.1, 0.8, grid.dim)
        re[5] = bad
        path = tmp_path / f"{bad}.csv"
        write_grid_csv(str(path), GridFunction(grid, re))
        initial = {"kind": "csv", "path": str(path)}
        cfg = tmp_path / f"{bad}.json"
        cfg.write_text(json.dumps({"p": 2, "alpha": 2.0, "N": 1, "M": 2,
                                   "m": 2.0, "tau": 0.05, "t_end": 0.1,
                                   "initial": initial}))
        with pytest.raises(DomainError, match="finite"):
            build_initial(grid, initial)
        for argv in (["evolve", "--config", str(cfg)],
                     ["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
                      "--M", "2", "--t-end", "0.1", "--initial",
                      json.dumps(initial)]):
            outdir = tmp_path / f"{bad}_{argv[0]}"
            capsys.readouterr()
            assert main(argv + ["--out", str(outdir)]) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "finite" in err
            assert str(path) in err
            assert not outdir.exists()


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
    assert side["amplitude_defect"] <= 1e-12
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


def test_explicit_sidecar_at_a_tiny_t0_is_strict_json(tmp_path):
    """At t0 = 1e-300 the time factor (t0 - t)^{-nu} is 1e300, and the PDE
    residual's (t0 - t)^{-nu-1} would be 1e600: the run succeeds, and the
    sidecar, JSON proper, reports the amplitude defect, which no time
    factor scales."""
    rc = main(["explicit", "--p", "2", "--alpha", "2", "--m", "2",
               "--t0", "1e-300", "--t", "0",
               "--out", str(tmp_path / "e.csv")])
    assert rc == 0
    side = _read_strict_json(tmp_path / "e.json")
    assert side["amplitude_defect"] <= 1e-12
    assert "residual_sup" not in side
    assert side["time_factor"] == pytest.approx(1e300)


def test_explicit_amplitude_beyond_the_double_range(tmp_path, capsys):
    """m near 1 sends alpha / (m - 1) past the double range of p^z in
    gamma_p, or rho's power 1 / (m - 1) past it, and a tiny t0 sends the
    time factor (t0 - t)^{-nu} past it: exit 1 with a message that names
    the quantity, and no files."""
    for m, t0, message in (("1.0001", "1", "gamma_p(p=2, z=20001.0"),
                           ("1.003", "1", "rho = -83.3"),
                           ("1.5", "1e-200", "time factor 1e-200^-2.0")):
        rc = main(["explicit", "--p", "2", "--alpha", "2", "--m", m,
                   "--t0", t0, "--t", "0", "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err
        assert err.rstrip().endswith("leaves the double range"), err
    assert os.listdir(tmp_path) == []


def test_explicit_refuses_a_shell_beyond_the_double_range(tmp_path, capsys):
    """p^{k alpha nu} leaves the double range from shell 512 on at
    p = alpha = 2, m = 2: exit 1 naming that shell, and no files."""
    rc = main(["explicit", "--p", "2", "--alpha", "2", "--m", "2",
               "--t0", "1", "--t", "0", "--k-max", "600",
               "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: explicit profile at t=0.0 leaves the double range on "
        "shell 512\n")
    assert os.listdir(tmp_path) == []


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


_GOOD_CONFIG = {"p": 2, "alpha": 2.0, "N": 1, "M": 2, "m": 2.0, "tau": 0.05,
                "t_end": 0.1, "initial": {"kind": "indicator", "coeff": 1.0,
                                          "center": "1/2", "radius_exp": -1}}


@pytest.mark.parametrize("key, value", [
    ("alpha", "2.0"), ("N", 1.5), ("center", "abc"), ("radius_exp", "x"),
    ("tau", True), ("coeff", "1.0"), ("center", "1/3"), ("center", "-1/2"),
    ("center", "0:3"), ("initial", [1])])
def test_evolve_malformed_config_exits_2(tmp_path, capsys, key, value):
    """A malformed config stops evolve with exit 2 and one error line,
    before any output: exit 1 is reserved for solver refusals."""
    cfg = json.loads(json.dumps(_GOOD_CONFIG))
    if key in cfg["initial"]:
        cfg["initial"][key] = value
    else:
        cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / "out"
    capsys.readouterr()
    assert main(["evolve", "--config", str(path), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not outdir.exists()


def test_evolve_ignores_retired_newton_keys(tmp_path):
    """The Newton tolerance and iteration cap are no longer options: a
    config that still carries them writes the snapshots of one without."""
    snaps = []
    for name, extra in (("plain", {}),
                        ("legacy", {"newton_tol": 1e-3, "max_iters": 1})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(_GOOD_CONFIG, **extra)))
        outdir = tmp_path / name
        assert main(["evolve", "--config", str(path),
                     "--out", str(outdir)]) == 0
        snaps.append([(outdir / f"snapshot_{j:04d}.csv").read_bytes()
                      for j in range(3)])
        diag = _read_json(outdir / "diagnostics.json")
        assert set(diag["config"]) == {"p", "alpha", "N", "M", "m", "tau",
                                       "t_end"}
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("argv", [
    ["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1", "--M", "1",
     "--t-end", "inf"],
    ["evolve-heat", "--p", "2", "--alpha", "inf", "--N", "1", "--M", "1",
     "--t-end", "1.0"],
    ["kernel", "--p", "2", "--alpha", "2", "--t", "inf"],
    ["kernel", "--p", "2", "--alpha", "inf", "--t", "1.0"],
    ["kernel", "--p", "2", "--alpha", "2", "--t", "inf", "--ball", "1"],
    ["kernel", "--p", "5", "--alpha", "3", "--mu", "inf"],
    ["kernel", "--p", "5", "--alpha", "3", "--mu", "0"],
    ["kernel", "--p", "2", "--alpha", "2", "--t", "1.0", "--shells", "-1"],
    ["operator", "--p", "2", "--alpha", "inf", "--N", "1", "--M", "1"],
    ["explicit", "--p", "2", "--alpha", "2.0", "--m", "inf", "--t0", "1.0",
     "--t", "0.5"],
    ["explicit", "--p", "2", "--alpha", "2.0", "--m", "2.0", "--t0", "1.0",
     "--t", "inf", "--companion"]])
def test_non_finite_parameters_exit_2(tmp_path, capsys, argv):
    """A non-finite real parameter (or a negative shell count) is a usage
    error: exit 2, one error line and nothing written."""
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "run.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("initial", [
    {"kind": "indicator", "center": "abc"},
    {"kind": "indicator", "radius_exp": "x"},
    {"kind": "indicator", "radius_exp": 0.5},
    {"kind": "radial_power", "exponent": "1"},
    {"kind": "radial_power", "coeff": float("inf")},
    {"kind": "csv", "path": 3},
    {"kind": "csv", "path": "missing.csv"},
    [1], "indicator"])
def test_evolve_heat_malformed_initial_exits_2(tmp_path, capsys, initial):
    outdir = tmp_path / "out"
    capsys.readouterr()
    rc = main(["evolve-heat", "--p", "2", "--alpha", "2.0", "--N", "1",
               "--M", "1", "--t-end", "1.0", "--initial",
               json.dumps(initial), "--out", str(outdir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not outdir.exists()


def test_digit_and_rational_centers_agree(tmp_path):
    """The digit text -1:1,0:1 and the rational 3/2 name one point; JSON
    ints stay valid for the real fields."""
    snaps = []
    for name, center in (("digits", "-1:1,0:1"), ("rational", "3/2")):
        cfg = dict(_GOOD_CONFIG, alpha=2, m=2,
                   initial={"kind": "indicator", "center": center,
                            "radius_exp": -1})
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / name
        assert main(["evolve", "--config", str(path),
                     "--out", str(outdir)]) == 0
        snaps.append([(outdir / f"snapshot_{j:04d}.csv").read_bytes()
                      for j in range(3)])
    assert snaps[0] == snaps[1]
    with open(tmp_path / "digits" / "snapshot_0000.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # B(3/2, 2^-1) holds the cells 3/2 and 7/2 of the grid 2^-1 Z / 4 Z
    assert [r["center"] for r in rows if float(r["re"]) == 1.0] == [
        "-1:1,0:1", "-1:1,0:1,1:1"]


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="unknown suite 'bogus'"):
        verification.run_suite("bogus")


def test_verify_reports_a_failed_check_and_exits_1(monkeypatch, capsys):
    """A suite with a failing check prints its FAIL line, then the count
    and names of the failures, and exits 1, which CI's certified-checks
    step relies on."""
    passing = lambda: verification.CheckResult("holds", True, "ok")
    failing = lambda: verification.CheckResult("breaks", False, "off by 1")
    monkeypatch.setitem(verification.SUITES, "explicit", (passing, failing))
    assert main(["verify", "explicit"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS explicit.holds: ok",
        "FAIL explicit.breaks: off by 1",
        "1 check(s) failed: explicit.breaks",
    ]


def test_the_runtime_needs_numpy_alone(tmp_path):
    """The runtime needs numpy only: with scipy and mpmath made
    unimportable, verify all, explicit and a small evolve succeed and
    load no scipy or mpmath module."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "p": 2, "alpha": 2.0, "N": 1, "M": 1, "m": 2.0, "tau": 0.05,
        "t_end": 0.1, "initial": {"kind": "radial_power", "exponent": 1.0}}))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "from padicpme.cli import main\n"
        "assert main(['verify', 'all']) == 0\n"
        "assert main(['explicit', '--p', '2', '--alpha', '2', '--m', '2',\n"
        "             '--t0', '2', '--t', '1', '--out', 'e.csv']) == 0\n"
        "assert main(['evolve', '--config', 'config.json',\n"
        "             '--out', 'run']) == 0\n"
        "loaded = [m for m, mod in sys.modules.items() if mod is not None\n"
        "          and m.split('.')[0] in ('scipy', 'mpmath')]\n"
        "assert not loaded, loaded\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "all checks passed" in run.stdout
