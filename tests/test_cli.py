import json

import numpy as np
import pytest

from minkflow.cli import main
from minkflow.flow import FlowGrid, FlowKind, stability_dt


def run(argv):
    return main(argv)


class TestSelfsimCommand:
    def test_expansion_branch(self, tmp_path):
        out = tmp_path / "run"
        code = run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-0.5",
                    "--s-max", "8", "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "curve.csv", "classification.json",
                     "events.json"):
            assert (out / name).exists()
        rep = json.loads((out / "classification.json").read_text())
        assert rep["crosses_xi"] and rep["crosses_eta"]
        assert rep["ends"]["forward"]["curvature_limit"] == "zero"
        assert rep["ends"]["backward"]["curvature_limit"] == "zero"
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "s,tau,nu,theta,k,l"
        events = json.loads((out / "events.json").read_text())
        assert set(events) == {"blowups", "crossings", "inflections"}

    def test_determinism(self, tmp_path):
        args = ["selfsim", "--a", "0", "--b", "-1", "--init", "0,1",
                "--s-max", "10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("trajectory.csv", "curve.csv", "classification.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEvolveCommand:
    def test_catalog_initial(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.7", "--dx", "0.02", "--window", "-2", "2",
                    "--snapshots", "3", "--out", str(out)])
        assert code == 0
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) == 3
        first = snaps[0].read_text().splitlines()
        assert first[0].startswith("# t=")
        assert first[1] == "node,value"
        svg = (out / "evolve.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "config-hash=" in svg

    def test_expression_initial(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["evolve", "expr:0.3*x", "--t1", "0.01", "--dx", "0.05",
                    "--window", "-1", "1", "--snapshots", "2",
                    "--out", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "snapshot_001.csv", delimiter=",",
                             skip_header=2)
        assert np.max(np.abs(data[:, 1] - 0.3 * data[:, 0])) < 1e-10

    def test_expression_outside_basis(self, tmp_path):
        code = run(["evolve", "expr:zeta(x)", "--t1", "0.1",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_stability_violation_exit(self, tmp_path):
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.6", "--dx", "0.02", "--dt", "0.01",
                    "--out", str(tmp_path)])
        assert code == 3

    def test_time_outside_domain(self, tmp_path, capsys):
        for times in (["--t0", "-1", "--t1", "1"],
                      ["--t0", "0.5", "--t1", "inf"]):
            code = run(["evolve", "hyperbola-expander", *times,
                        "--out", str(tmp_path)])
            assert code == 2
            assert "outside the time domain (0, inf)" in capsys.readouterr().err

    def test_non_finite_initial_values(self, tmp_path, capsys):
        code = run(["evolve", "expr:sqrt(x)", "--window", "-1", "1",
                    "--t1", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "values must be finite" in capsys.readouterr().err

    def test_non_finite_state_exit(self, tmp_path, capsys):
        code = run(["evolve", "expr:0.3*x+0.001*sqrt(0.05-t)", "--window",
                    "-1", "1", "--dx", "0.05", "--t1", "0.1",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "DegenerateSlope" in capsys.readouterr().err

    def test_euclidean_entry_refused(self, tmp_path, capsys):
        code = run(["evolve", "euclid-reaper", "--t0", "0", "--t1", "0.5",
                    "--window", "-0.5", "0.5", "--dx", "0.02",
                    "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "euclid-reaper is a euclidean entry" in err
        assert not list(tmp_path.iterdir())

    def test_non_positive_dx(self, tmp_path, capsys):
        for dx in ("-0.01", "0", "nan"):
            code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                        "--t1", "0.6", "--dx", dx, "--out", str(tmp_path)])
            assert code == 2
            assert "--dx must be positive" in capsys.readouterr().err

    def test_non_positive_dt(self, tmp_path, capsys):
        code = run(["evolve", "hyperbola-expander", "--t0", "0.5",
                    "--t1", "0.6", "--dt", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "max_dt must be positive" in capsys.readouterr().err

    def test_explicit_dt_path(self, tmp_path):
        args = ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1",
                "0.55", "--dx", "0.02", "--window", "-2", "2",
                "--snapshots", "3"]
        nodes = np.linspace(-2.0, 2.0, 201)
        dt = 0.5 * stability_dt(FlowGrid(FlowKind.GRAPH_Y, nodes,
                                         np.sqrt(nodes ** 2 + 1.0), 0.5))
        bdf, euler = tmp_path / "bdf", tmp_path / "euler"
        assert run(args + ["--out", str(bdf)]) == 0
        assert run(args + ["--dt", repr(dt), "--out", str(euler)]) == 0

        def times(out):
            return [p.read_text().splitlines()[0]
                    for p in sorted(out.glob("snapshot_*.csv"))]

        assert times(euler) == times(bdf)
        data = np.genfromtxt(euler / "snapshot_002.csv", delimiter=",",
                             skip_header=2)
        err = np.max(np.abs(data[:, 1] - np.sqrt(data[:, 0] ** 2 + 1.1)))
        assert err <= 5 * (0.02 ** 2 + dt)

    def test_svg_determinism(self, tmp_path):
        args = ["evolve", "translator-y", "--t1", "0.05", "--dx", "0.05",
                "--window", "-1", "1", "--snapshots", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "evolve.svg").read_bytes() == (b / "evolve.svg").read_bytes()


class TestCatalogCommand:
    def test_list(self, capsys):
        assert run(["catalog", "list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16

    def test_show(self, capsys):
        assert run(["catalog", "show", "translator-y"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "graph_y"
        assert info["curvature_profile"] == "cosh(theta)"

    def test_unknown_name_exit_code(self, capsys):
        assert run(["catalog", "show", "nope"]) == 4

    def test_lengths(self, tmp_path, capsys):
        out = tmp_path / "len"
        code = run(["catalog", "lengths", "translator-y", "--points", "5",
                    "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = (out / "lengths.csv").read_text().splitlines()
        assert rows[0] == "series,name,t,length"
        assert len(rows) == 6
        lengths = [float(r.split(",")[-1]) for r in rows[1:]]
        assert np.max(np.abs(np.array(lengths) - np.pi)) < 1e-6


class TestVerifyCommand:
    def test_subset(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run(["verify", "--names",
                    "translator-y,euclid-reaper,interp-tan",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert [p["name"] for p in payload] == [
            "translator-y", "euclid-reaper", "interp-tan"]
        assert all(p["passed"] for p in payload)


class TestInvariantCommand:
    def test_make_and_check(self, tmp_path, capsys):
        out = tmp_path / "inv"
        assert run(["invariant", "make", "--kind", "hyperbola",
                    "--params", '{"radius": 1.0}', "--span", "-4", "4",
                    "--out", str(out)]) == 0
        assert (out / "invariant-hyperbola.csv").exists()
        capsys.readouterr()
        assert run(["invariant", "check", "--kind", "hyperbola",
                    "--params", '{"radius": 1.0}', "--span", "-4", "4",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "invariance.json").read_text())
        assert payload["passed"] and payload["deviation"] < 1e-8


def test_plot_command(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["selfsim", "--a", "0", "--b", "1", "--init", "0,-1",
                "--s-max", "2", "--out", str(out)]) == 0
    target = tmp_path / "curve.svg"
    assert run(["plot", str(out / "curve.csv"),
                "--out-file", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert text.count("<polyline") == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.0, "b": 1.0, "init": "0,-1",
                               "s_max": 2.0, "out": str(tmp_path / "o")}))
    assert run(["--config", str(cfg), "classify",
                "--a", "9", "--b", "9"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ends"]["forward"]["curvature_limit"] == "finite"


def test_verify_all_cli(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--all", "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert len(payload) == 16 and all(p["passed"] for p in payload)


def test_evolve_wave_over_period(tmp_path):
    out = tmp_path / "wave"
    code = main(["evolve", "wave-sinsin", "--t0", "0.3", "--t1", "0.5",
                 "--dx", "0.02", "--window", "-3.14159", "3.14159",
                 "--snapshots", "3", "--out", str(out)])
    assert code == 0
    svg = (out / "evolve.svg").read_text()
    assert svg.count("<polyline") == 3


def test_lengths_all_series(tmp_path, capsys):
    out = tmp_path / "lens"
    assert main(["catalog", "lengths", "--all", "--points", "4",
                 "--out", str(out)]) == 0
    rows = (out / "lengths.csv").read_text().splitlines()
    series = {r.split(",")[0] for r in rows[1:]}
    assert series == set("ABCDEF")


class TestConfigFile:
    def run_config(self, tmp_path, values, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return run(["--config", str(cfg), *argv])

    def test_unknown_key(self, tmp_path, capsys):
        for key in ("func", "command", "points"):
            code = self.run_config(tmp_path, {key: 1},
                                   ["classify", "--a", "0", "--b", "1"])
            assert code == 2
            assert f"--config key {key!r} is not an option of classify" \
                in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        argv = ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "0.6",
                "--out", str(tmp_path / "o")]
        for key, val in (("dx", "abc"), ("dx", None), ("window", 1.0),
                         ("window", [-1, "x"]), ("kind", "nope"),
                         ("snapshots", 2.5), ("boundary", True)):
            assert self.run_config(tmp_path, {key: val}, argv) == 2
            assert f"--config key {key!r} has a bad value" \
                in capsys.readouterr().err
        assert self.run_config(tmp_path, {"all": "yes"}, ["verify"]) == 2
        assert not (tmp_path / "o").exists()

    def test_values_coerced(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = self.run_config(
            tmp_path, {"window": [-1, 1], "dx": 0.05, "snapshots": "2",
                       "t1": 0.52, "out": str(out)},
            ["evolve", "hyperbola-expander", "--t0", "0.5", "--t1", "9"])
        assert code == 0
        capsys.readouterr()
        rows = (out / "snapshot_001.csv").read_text().splitlines()
        assert rows[0] == "# t=0.52000000000000002"
        assert len(rows) == 2 + 41
