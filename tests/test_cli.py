import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spt.cli
import spt.dynamics
from spt.cli import ConfigError, main, parse_grid

ROOT = Path(__file__).resolve().parents[1]


class TestGridParsing:
    def test_linear(self):
        assert np.allclose(parse_grid("0:4:5"), [0, 1, 2, 3, 4])

    def test_log(self):
        g = parse_grid("log:0.01:1:3")
        assert np.allclose(g, [0.01, 0.1, 1.0])

    def test_bad_grids(self):
        for bad in ("1:2", "a:b:c", "log:-1:2:5", "1:2:0", "log"):
            with pytest.raises(ConfigError):
                parse_grid(bad)


class TestExperiments:
    def test_setting_rate_csv(self, tmp_path):
        out = tmp_path / "sr.csv"
        rc = main(["setting-rate", "--kappa2-grid", "1:3:3", "--n2", "6",
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",") == ["kappa2", "gamma_set_numeric", "gamma_set_analytic_1",
                                     "gamma_set_analytic_2", "gamma_set_analytic_3"]
        row = [ln for ln in lines if not ln.startswith("#")][2].split(",")
        assert float(row[0]) == 2.0
        assert float(row[1]) == pytest.approx(0.00324800896068134, rel=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["setting-rate", "--kappa2-grid", "1:2:4", "--n2", "5", "--seed", "3"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_detection_json_point(self, tmp_path, capsys):
        rc = main(["detection", "--gain-photons", "200", "--modes", "90",
                   "--zeta", "2", "-o", "-"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["efficiency"] == pytest.approx(0.954, abs=1e-3)
        assert payload["dark_probability"] == pytest.approx(0.0228, abs=1e-4)

    def test_detection_roc_contains_reference_row(self, tmp_path):
        out = tmp_path / "roc.csv"
        rc = main(["detection", "--gain-photons", "200", "--modes", "90",
                   "--zeta-grid", "0:4:41", "-o", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        by_zeta = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        eff, dark = by_zeta[2.0]
        assert eff == pytest.approx(0.954, abs=1e-3)
        assert dark == pytest.approx(0.0228, abs=1e-4)

    def test_trajectories_json(self, tmp_path):
        out = tmp_path / "stats.json"
        log = tmp_path / "jumps.csv"
        rc = main(["trajectories", "--g1", "0.25", "--n-traj", "20",
                   "--duration", "400", "--n1", "1", "--n2", "10",
                   "--seed", "5", "-o", str(out), "--jump-log", str(log)])
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("n_traj", "mean", "variance", "g2_zero_mandel",
                    "g2_zero_paper_sign", "histogram"):
            assert key in payload
        assert payload["n_traj"] == 20
        assert log.read_text().splitlines()[0].startswith("#")

    def test_mhz_units(self, tmp_path):
        # real-structure inputs: g1 = 6 MHz at g2 = 120 MHz -> g1/g2 = 0.05
        out = tmp_path / "sr.csv"
        rc = main(["setting-rate", "--units", "mhz", "--g2-mhz", "120",
                   "--g1", "6", "--omega", "240", "--kappa2-grid", "120:120:1",
                   "--n2", "6", "-o", str(out)])
        assert rc == 0
        row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        k2, gs = float(row.split(",")[0]), float(row.split(",")[1])
        assert k2 == pytest.approx(1.0)
        assert gs == pytest.approx(0.004941, abs=2e-5)

    def test_config_file_compose_and_flags_win(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"kappa2-grid": "1:1:1", "n2": 4, "g1": 0.08}))
        out = tmp_path / "sr.csv"
        rc = main(["--config", str(conf), "setting-rate", "--g1", "0.05",
                   "-o", str(out)])
        assert rc == 0
        meta = {ln.split("=")[0][2:]: ln.split("=", 1)[1]
                for ln in out.read_text().splitlines() if ln.startswith("#")}
        assert meta["g1"] == "0.05"     # flag beats config
        assert meta["n2"] == "4"        # config fills the rest

    def test_unknown_config_key_is_config_error(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(conf), "setting-rate"]) == 2

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # json.load raises RecursionError here, a RuntimeError, not a JSONDecodeError
        conf = tmp_path / "conf.json"
        conf.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["--config", str(conf), "gain"]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_bad_grid_exit_code(self):
        assert main(["setting-rate", "--kappa2-grid", "nope"]) == 2

    def test_mhz_without_reference_is_config_error(self):
        assert main(["setting-rate", "--units", "mhz"]) == 2

    def test_numerical_failure_exit_code(self, capsys):
        # at kappa2 = 1e-300 the trace-fixed resolvent overflows
        assert main(["gain", "--kappa2", "1e-300", "--n2", "3"]) == 3
        assert "numerical failure: resolvent residual inf" in capsys.readouterr().err

    def test_overflow_is_numerical_failure(self, capsys):
        # omega**4 of the order-1 closed form overflows a float's ** at omega = 1e200
        assert main(["setting-rate", "--omega", "1e200", "--kappa2-grid", "1:1:1",
                     "--n2", "2"]) == 3
        err = capsys.readouterr().err
        assert "setting-rate: numerical failure: overflow" in err

    def test_reflection_small_sweep(self, tmp_path):
        out = tmp_path / "refl.csv"
        rc = main(["reflection", "--g1", "0.05", "--kappa2", "2",
                   "--kappa1-grid", "log:0.001:0.01:3", "--n2", "6",
                   "--n2-reflection", "5", "-o", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 3
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0
            # numeric tracks the closed form away from the dip
            assert float(r[1]) == pytest.approx(float(r[2]), abs=0.05)

    _SMALL_REFLECTION = ["reflection", "--g1", "0.05", "--kappa2", "2",
                         "--kappa1-grid", "log:0.001:0.01:3", "--n2", "6", "--n2-reflection", "3"]

    def test_reflection_threads_are_byte_identical(self, tmp_path):
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(self._SMALL_REFLECTION + ["--threads", "1", "-o", str(one)]) == 0
        assert main(self._SMALL_REFLECTION + ["--threads", "2", "-o", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reflection_failure_in_a_worker_exit_code(self, threads, monkeypatch, capsys):
        original = spt.dynamics.steady_state_reflection

        def fail_last(params, **kwargs):
            if params.kappa1 > 0.005:
                raise spt.dynamics.SteadyStateError(f"no steady state in pid {os.getpid()}")
            return original(params, **kwargs)

        monkeypatch.setattr(spt.dynamics, "steady_state_reflection", fail_last)
        assert main(self._SMALL_REFLECTION + ["--threads", threads]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: no steady state" in err
        assert (f"pid {os.getpid()}" in err) == (threads == "1")

    def test_threads_in_config_is_checked(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"threads": 0}))
        assert main(["--config", str(conf)] + self._SMALL_REFLECTION) == 2
        assert "--threads must be at least 1, got 0" in capsys.readouterr().err

    def test_reflection_bare_log_grid(self, tmp_path):
        # the default --kappa1-grid: 41 points, two decades around Gamma_set
        out = tmp_path / "refl.csv"
        assert main(["reflection", "--kappa1-grid", "log", "--n2", "2",
                     "--n2-reflection", "1", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        gamma_set = float(next(ln for ln in lines if ln.startswith("# gamma_set="))
                          .partition("=")[2])
        rows = [ln for ln in lines if ln and not ln.startswith("#")][1:]
        kappa1 = [float(row.split(",")[0]) for row in rows]
        assert kappa1 == pytest.approx(np.geomspace(gamma_set / 10, 10 * gamma_set, 41),
                                       rel=1e-11)

    def test_gain_sweep(self, tmp_path):
        out = tmp_path / "gain.csv"
        rc = main(["gain", "--sweep", "g1", "0.15:0.3:2", "--kappa2", "1",
                   "--n2", "6", "-o", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 2
        # bandwidth grows with g1, gain falls
        assert float(rows[1][2]) > float(rows[0][2])
        assert float(rows[1][1]) < float(rows[0][1])

    def test_pulse_response_waveform(self, tmp_path):
        out = tmp_path / "wave.csv"
        rc = main(["pulse-response", "--g1", "0.25", "--tau-kappa1", "5",
                   "--points", "160", "--n2", "6", "--tol", "1e-6",
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("#"))
        names, *rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        col = dict(zip(names, np.array(rows, dtype=float).T))
        assert float(meta["absorbed_fraction"]) > 0.9
        # input Gaussian followed by a slow output tail
        t_in_peak = col["time"][np.argmax(col["I_in1"])]
        t_out_peak = col["time"][np.argmax(col["I_out2"])]
        assert t_out_peak > t_in_peak

    def test_pulse_response_stdout_equals_file(self, tmp_path, capsys):
        args = ["pulse-response", "--g1", "0.25", "--points", "5", "--n2", "3"]
        out = tmp_path / "wave.csv"
        with pytest.warns(UserWarning, match="top Fock layer"):   # N2 = 3 fills the top layer
            assert main(args + ["-o", str(out)]) == 0
        capsys.readouterr()
        with pytest.warns(UserWarning, match="top Fock layer"):
            assert main(args + ["-o", "-"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_dark_counts_sweep(self, tmp_path):
        out = tmp_path / "dark.csv"
        rc = main(["dark-counts", "--g1", "0.2", "--kappa2", "0.1",
                   "--anharmonicity", "50", "--a-grid", "40:50:2",
                   "--trajectories", "10", "--duration", "500",
                   "-o", str(out)])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[:3] == ["anharmonicity", "single_inversion", "enhanced_inversion"]
        assert "single_trajectory" in header
        assert len(lines) == 3

    def test_dark_counts_threads_are_byte_identical(self, tmp_path):
        base = ["dark-counts", "--g1", "0.2", "--omega", "2", "--kappa2", "0.1",
                "--anharmonicity", "40", "--trajectories", "16", "--duration", "2000",
                "--seed", "4"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(base + ["--threads", "1", "-o", str(one)]) == 0
        assert main(base + ["--threads", "2", "-o", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        header, row = [ln.split(",") for ln in one.read_text().splitlines()
                       if not ln.startswith("#")]
        assert float(row[header.index("n_events_single")]) > 0

    def test_dark_counts_requires_finite_A(self):
        assert main(["dark-counts", "--g1", "0.2"]) == 2

    @pytest.mark.parametrize("experiment", ["setting-rate", "reflection", "gain",
                                            "pulse-response", "trajectories", "detection"])
    def test_finite_anharmonicity_outside_dark_counts_is_config_error(self, experiment, capsys):
        assert main([experiment, "--anharmonicity", "40"]) == 2
        assert "dark-counts" in capsys.readouterr().err

    def test_infinite_anharmonicity_header_unchanged(self, tmp_path):
        plain, explicit = tmp_path / "plain.csv", tmp_path / "inf.csv"
        args = ["setting-rate", "--kappa2-grid", "1:1:1", "--n2", "4"]
        assert main(args + ["-o", str(plain)]) == 0
        assert main(args + ["--anharmonicity", "inf", "-o", str(explicit)]) == 0
        assert "# anharmonicity=inf" in plain.read_text().splitlines()
        assert explicit.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["setting-rate", "--kappa1", "0.5"], ["reflection", "--kappa1", "0.5"],
        ["gain", "--kappa1", "0.5"], ["pulse-response", "--kappa1", "0"],
        ["trajectories", "--kappa1", "0.5"], ["detection", "--g1", "0.3"],
        ["detection", "--kappa2", "1"], ["detection", "--units", "g2"],
        ["detection", "--anharmonicity", "inf"], ["dark-counts", "--gamma", "0.01"],
        ["dark-counts", "--gamma-phi", "0.01"]])
    def test_unread_system_flag_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        assert f"{argv[0]} does not read {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, unread", [
        (["detection", "--zeta-grid", "0:3:4", "--sample", "100"], "--sample with --zeta-grid"),
        (["detection", "--zeta-grid", "0:3:4", "--zeta", "5"], "--zeta with --zeta-grid"),
        (["dark-counts", "--anharmonicity", "40", "--duration", "5"],
         "--duration without --trajectories"),
        (["dark-counts", "--anharmonicity", "40", "--threads", "2"],
         "--threads without --trajectories"),
        (["dark-counts", "--anharmonicity", "40", "--trajectories", "0", "--duration", "5"],
         "--duration without --trajectories")])
    def test_flag_unread_beside_another_is_config_error(self, argv, unread, capsys):
        assert main(argv) == 2
        assert f"config error: {argv[0]} does not read {unread}" in capsys.readouterr().err

    def test_flag_unread_beside_another_in_config_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"zeta": 2}))
        assert main(["--config", str(conf), "detection", "--zeta-grid", "0:3:4"]) == 2
        assert "detection does not read --zeta with --zeta-grid" in capsys.readouterr().err

    def test_reflection_at_zero_gamma_set_on_an_explicit_grid(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["reflection", "--g1", "0", "--n2", "3", "--n2-reflection", "2",
                     "--kappa1-grid", "0.1:0.2:2", "-o", str(out)]) == 0
        assert "# gamma_set=0.0" in out.read_text().splitlines()

    def test_unread_flag_in_config_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"kappa1": 0.0}))
        assert main(["--config", str(conf), "gain"]) == 2
        assert "gain does not read --kappa1" in capsys.readouterr().err

    def test_unread_kappa1_header_unchanged(self, tmp_path):
        out = tmp_path / "sr.csv"
        assert main(["setting-rate", "--kappa2-grid", "1:1:1", "--n2", "4", "-o", str(out)]) == 0
        assert "# kappa1=0.0" in out.read_text().splitlines()

    def test_unread_decoherence_header_unchanged(self, tmp_path):
        out = tmp_path / "dark.csv"
        assert main(["dark-counts", "--anharmonicity", "40", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# gamma=0.0" in lines and "# gamma_phi=0.0" in lines

    def test_nonpositive_kappa1_grid_refused_before_the_sweep(self, monkeypatch, capsys):
        def sweep(*_args, **_kw):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(spt.cli, "reflection_sweep", sweep)
        assert main(["reflection", "--kappa1-grid", "0:0:1", "--n2", "3",
                     "--n2-reflection", "2", "--threads", "2"]) == 2
        assert ("config error: reflection needs kappa1 > 0, and --kappa1-grid 0:0:1 holds 0"
                in capsys.readouterr().err)

    def test_threads_only_where_honoured(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gain", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"threads": 2}))
        assert main(["--config", str(conf), "gain"]) == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["trajectories", "--n-traj", "0"], "--n-traj"),
        (["trajectories", "--duration", "-5"], "--duration"),
        (["dark-counts", "--anharmonicity", "40", "--duration", "-5"], "--duration"),
        (["pulse-response", "--points", "1"], "--points"),
        (["pulse-response", "--tau-kappa1", "0"], "--tau-kappa1"),
        (["pulse-response", "--tol", "0"], "--tol"),
        (["setting-rate", "--n2", "0"], "--n2"),
        (["gain", "--n2", "-1"], "--n2"),
        (["trajectories", "--n1", "-1"], "--n1"),
        (["reflection", "--n2-reflection", "0"], "--n2-reflection"),
        (["dark-counts", "--anharmonicity", "40", "--trajectories", "-1"], "--trajectories"),
        (["pulse-response", "--tau-kappa1", "inf"], "--tau-kappa1"),
        (["trajectories", "--threads", "0"], "--threads"),
        (["trajectories", "--threads", "-3"], "--threads"),
        (["dark-counts", "--anharmonicity", "40", "--threads", "0"], "--threads"),
        (["reflection", "--threads", "0"], "--threads"),
        (["trajectories", "--seed", str(2**64)], "--seed"),
        (["trajectories", "--seed", str(2**63)], "--seed"),
        (["dark-counts", "--anharmonicity", "40", "--seed", str(-2**63 - 1)], "--seed"),
        (["detection", "--sample", "10", "--seed", str(2**64 - 1)], "--seed"),
        (["detection", "--sample", "-1"], "--sample"),
    ])
    def test_out_of_range_option_is_config_error(self, argv, flag, capsys):
        assert main(argv) == 2
        assert f"config error: {flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-15", "2e-14", "0.5e-100"])
    def test_tol_below_100_eps_is_config_error(self, tol, tmp_path, capsys, monkeypatch):
        # DOP853 would run at 100 eps instead; refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("single_photon_response called")

        monkeypatch.setattr(spt.cli, "single_photon_response", no_solve)
        assert main(["pulse-response", "--tol", tol]) == 2
        assert "config error: --tol must be in [100 eps, 1)" in capsys.readouterr().err
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"tol": float(tol)}))
        assert main(["--config", str(conf), "pulse-response"]) == 2
        assert "--tol must be in [100 eps, 1)" in capsys.readouterr().err

    def test_out_of_range_seed_in_config_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 2**64}))
        assert main(["--config", str(conf), "trajectories"]) == 2
        assert "--seed must be in [-2**63, 2**63)" in capsys.readouterr().err

    def test_mistyped_option_in_config_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n_traj": "many"}))
        assert main(["--config", str(conf), "trajectories"]) == 2
        assert "--n-traj must be at least 1, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("conf, message", [
        ({"experiment": "dark-counts", "kappa1": 5}, "unknown config key 'experiment'"),
        ({"func": "x"}, "unknown config key 'func'"),
        ({"help": True}, "unknown config key 'help'"),
        ({"n2": 3.5}, "--n2 must be at least 1, got 3.5 (invalid int value"),
        ({"seed": 1.5}, "--seed must be in"),
        ({"units": "hz"}, "--units must be valid, got 'hz' (invalid choice"),
        ({"sweep": "g1"}, "--sweep must be valid, got 'g1' (expected 2 arguments)"),
        ({"g1": [0.1, 0.2]}, "--g1 must be valid, got [0.1, 0.2] (too many values)"),
        ({"output": None}, "--output must be valid, got None (not a string"),
        ({"g1": True}, "--g1 must be valid, got True (not a string"),
    ])
    def test_config_entry_parsed_as_its_flag(self, tmp_path, capsys, conf, message):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        assert main(["--config", str(path), "gain", "--n2", "3"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-o", "--out", "--output", "--output="])
    def test_output_flag_beats_config_in_any_form(self, tmp_path, flag):
        conf, a, b = tmp_path / "conf.json", tmp_path / "a.csv", tmp_path / "b.csv"
        conf.write_text(json.dumps({"output": str(a)}))
        out = [flag + str(b)] if flag.endswith("=") else [flag, str(b)]
        assert main(["--config", str(conf), "setting-rate", "--kappa2-grid", "1:1:1",
                     "--n2", "3"] + out) == 0
        assert b.exists() and not a.exists()

    def test_config_value_writes_as_its_flag(self, tmp_path):
        conf, a, b = tmp_path / "conf.json", tmp_path / "a.csv", tmp_path / "b.csv"
        conf.write_text(json.dumps({"kappa2": 1, "n2": 3, "seed": 7}))
        assert main(["--config", str(conf), "gain", "-o", str(a)]) == 0
        assert main(["gain", "--kappa2", "1", "--n2", "3", "--seed", "7", "-o", str(b)]) == 0
        assert "# kappa2=1.0" in a.read_text().splitlines()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["setting-rate", "--kappa2-grid=-1:2:3", "--n2", "3"], "kappa2 must be >= 0"),
        (["gain", "--n2", "3", "--sweep", "kappa2", " -1:1:2"], "kappa2 must be >= 0"),
        (["dark-counts", "--anharmonicity", "40", "--a-grid=-1:1:2"],
         "finite anharmonicity must be > 0"),
        (["detection", "--gain-photons", "-1", "--zeta", "2"], "gain must be >= 0"),
        (["detection", "--modes", "0", "--zeta", "2"], "modes must be >= 1"),
        (["detection", "--modes", "0", "--zeta-grid", "0:1:3"], "modes must be >= 1"),
        (["detection", "--zeta-grid=-1:1:3"], "zeta must be >= 0"),
        (["pulse-response", "--g1", "0", "--n2", "3"],
         "pulse-response scales with Gamma_set, and Gamma_set = 0"),
        (["reflection", "--g1", "0", "--n2", "3", "--n2-reflection", "2"],
         "reflection scales with Gamma_set, and Gamma_set = 0"),
        *[(argv, "Gamma_set is undefined at omega = 0") for argv in (
            ["setting-rate", "--omega", "0", "--kappa2-grid", "1:1:1", "--n2", "3"],
            ["reflection", "--omega", "0", "--n2", "3", "--n2-reflection", "2",
             "--kappa1-grid", "0.1:0.2:2"],
            ["reflection", "--omega", "0", "--n2", "3", "--n2-reflection", "2"],
            ["gain", "--omega", "0", "--n2", "3"],
            ["pulse-response", "--omega", "0", "--n2", "2", "--points", "20"],
            ["trajectories", "--omega", "0", "--n-traj", "2", "--n1", "1", "--n2", "3",
             "--duration", "10"],
            ["dark-counts", "--omega", "0", "--anharmonicity", "40"])],
        (["gain", "--g1", "0", "--n2", "3"],
         "the gain is taken at kappa1 = Gamma_set, and Gamma_set = 0"),
        (["gain", "--gamma", "-1", "--n2", "3"], "gamma must be >= 0"),
        (["setting-rate", "--kappa2-grid", "0:0:1", "--n2", "3"],
         "the order-3 closed form of Gamma_set divides by kappa2, and kappa2 = 0"),
        (["dark-counts", "--kappa2", "0", "--anharmonicity", "40"],
         "the asymptotic single dark-count rate divides by kappa2, and kappa2 = 0"),
        # non-finite values: nan passes a ">= 0" check, so each is refused by name
        (["reflection", "--gamma", "nan", "--n2", "3", "--n2-reflection", "2",
          "--kappa1-grid", "0.01:0.01:1", "--threads", "1"], "gamma must be finite, got nan"),
        (["gain", "--gamma-phi", "nan", "--n2", "3"], "gamma_phi must be finite, got nan"),
        (["setting-rate", "--g1", "nan", "--kappa2-grid", "1:1:1", "--n2", "3"],
         "g1 must be finite, got nan"),
        (["gain", "--g1", "nan", "--n2", "3"], "g1 must be finite, got nan"),
        (["gain", "--kappa2", "inf", "--n2", "3"], "kappa2 must be finite, got inf"),
        (["detection", "--gain-photons", "nan"], "gain must be finite, got nan"),
        (["detection", "--gain-photons", "inf"], "gain must be finite, got inf"),
        (["detection", "--zeta", "nan"], "zeta must be finite, got nan"),
        (["gain", "--units", "mhz", "--g2-mhz", "nan", "--n2", "3"],
         "--units mhz requires --g2-mhz, finite and > 0, got nan"),
        (["gain", "--anharmonicity", "nan", "--n2", "3"], "anharmonicity must not be nan"),
        # the closed forms' powers of A underflow to 0 below about 1e-81 (A^4)
        *[(argv, "the asymptotic enhanced dark-count rate divides by A^4, which underflows "
                 "to 0 at A = 1e-100") for argv in (
            ["dark-counts", "--anharmonicity", "1e-100"],
            ["dark-counts", "--anharmonicity", "40", "--a-grid", "1e-100:40:2"])],
        (["dark-counts", "--anharmonicity", "1e-200"],
         "the asymptotic single dark-count rate divides by A^2, which underflows to 0 "
         "at A = 1e-200"),
        # above that, 32 A^4 kappa2 is subnormal and the enhanced rate overflows
        (["dark-counts", "--anharmonicity", "1e-79"],
         "rate must be finite, got inf"),
        # pulse widths whose sigma^2 overflows, or falls below the normal floats
        *[(["pulse-response", "--tau-kappa1", tau, "--n2", "1", "--points", "3"],
           "sigma^2 must be finite and a normal float") for tau in ("1e-160", "1e155", "1e300")],
    ])
    def test_bad_parameter_value_is_config_error(self, argv, message, capsys):
        # values that pass the flag checks and fail those of the parameter
        # classes, or at which a rate the experiment needs is undefined
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused before any warning
            assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["setting-rate", "--g1", "0", "--kappa2-grid", "1:2:3", "--n2", "4"],
        ["trajectories", "--g1", "0", "--n-traj", "2", "--n1", "1", "--n2", "3",
         "--duration", "10", "--threads", "1"],
        ["dark-counts", "--g1", "0", "--anharmonicity", "40"],
        ["dark-counts", "--omega", "0", "--kappa1", "0.1", "--anharmonicity", "40"],
    ])
    def test_runs_where_gamma_set_is_zero_or_not_needed(self, tmp_path, argv):
        # Gamma_set = 0 at g1 = 0 is a value these report or run at; dark-counts
        # with its own kappa1 does not compute Gamma_set, so omega = 0 is fine
        out = tmp_path / "out"
        assert main(argv + ["-o", str(out)]) == 0
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("argv, undefined", [
        (["trajectories", "--n-traj", "2", "--n1", "1", "--n2", "3", "--duration", "1e-3",
          "--threads", "1"], {"g2_zero_mandel", "g2_zero_paper_sign"}),
        (["trajectories", "--n-traj", "1", "--n1", "1", "--n2", "3", "--duration", "50"],
         {"variance", "statistical_error", "g2_zero_mandel", "g2_zero_paper_sign"}),
        (["detection", "--sample", "1"], {"vacuum_sample_variance"}),
    ])
    def test_json_artifact_is_strict_json(self, tmp_path, argv, undefined):
        # RFC 8259 has no NaN: an undefined value is written as null
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert {key for key, val in payload.items() if val is None} == undefined

    def test_one_sample_variance_is_null_without_warnings(self, tmp_path):
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["detection", "--sample", "1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["vacuum_sample_variance"] is None

    @pytest.mark.parametrize("flag", ["-o", "--jump-log"])
    def test_unwritable_path_is_config_error(self, tmp_path, capsys, monkeypatch, flag):
        # both paths are checked before the ensemble runs, and neither is left
        # behind; a file already there keeps its bytes
        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the paths were checked")

        monkeypatch.setattr(spt.cli, "gain_statistics", no_ensemble)
        paths = {"-o": tmp_path / "stats.json", "--jump-log": tmp_path / "jumps.csv"}
        paths[flag] = tmp_path / "missing" / "x.csv"
        argv = ["trajectories", "--g1", "0.25", "--n-traj", "2", "--duration", "50",
                "--n1", "1", "--n2", "4", *[str(t) for kv in paths.items() for t in kv]]
        assert main(argv) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        kept = paths["--jump-log" if flag == "-o" else "-o"]
        kept.write_bytes(b"earlier run\n")
        assert main(argv) == 2
        assert [p.name for p in tmp_path.iterdir()] == [kept.name]
        assert kept.read_bytes() == b"earlier run\n"


# each stationary experiment at a tiny size, then the routes that step an ODE
# or find a root: pulse-response, a single-photon-input ensemble and an
# ill-conditioned segment's PulsePath; serial, so that every solve runs in
# this process
_IMPORT_BUDGET = """
import json
import os
import sys

import numpy as np

import spt.cli
from spt.dynamics import PulseSpec
from spt.hilbert import HilbertSpec, build_space
from spt.model import SystemParams, collapse_set, hamiltonian_ideal, nonhermitian
from spt.montecarlo import PulsePath, gain_statistics

lazy = ("scipy.integrate", "scipy.optimize", "scipy.special")
for argv in (["setting-rate", "--kappa2-grid", "1:2:2", "--n2", "3"],
             ["reflection", "--n2", "3", "--n2-reflection", "2",
              "--kappa1-grid", "0.01:0.02:2", "--threads", "1"],
             ["gain", "--n2", "3"],
             ["dark-counts", "--anharmonicity", "40", "--trajectories", "2",
              "--duration", "50", "--threads", "1"],
             ["detection", "--zeta", "2"],
             ["trajectories", "--n-traj", "2", "--n1", "1", "--n2", "3",
              "--duration", "20", "--threads", "1"]):
    assert spt.cli.main(argv + ["-o", os.devnull]) == 0
print(json.dumps([name for name in lazy if name in sys.modules]))
assert spt.cli.main(["pulse-response", "--n2", "2", "--points", "20", "--tol", "1e-5",
                     "-o", os.devnull]) == 0
p = SystemParams(g1=0.25, g2=1, omega=2, kappa2=1)
gain_statistics(p, 2, 200.0, 3, spec=HilbertSpec(1, 3), init="single-photon-input",
                pulse=PulseSpec.from_tau(tau=20.0, center_time=60.0), threads=1)
space = build_space(HilbertSpec(1, 3))
p = p.replace(kappa1=0.2)
cols = collapse_set(p, None, space)
path = PulsePath(nonhermitian(hamiltonian_ideal(p, space), cols), cols, space, None, 0.0, 50.0,
                 psi0=space.basis_state("e", 0, 0).astype(complex))
assert path.crossing(0.5)[2]
print(json.dumps([name for name in lazy if name in sys.modules]))
"""


def test_stationary_experiments_leave_ode_and_root_finding_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    stationary, stepped = (json.loads(line) for line in run.stdout.splitlines())
    assert stationary == []
    assert stepped == []
