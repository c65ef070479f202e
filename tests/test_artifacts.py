"""spt.artifacts.write_csv against the writers it replaced (tests/frozen_writers.py).

Each test runs an experiment or writes a table through the library and
writes the same data through the frozen writer; the bytes must be equal.
"""

import numpy as np
import pytest

import frozen_writers
import spt.artifacts
import spt.cli
from spt.cli import main
from spt.montecarlo import trajectories_to_csv


@pytest.fixture
def calls(monkeypatch):
    """Arguments of spt.cli's CSV writes and values of the wrapped engines."""
    seen = {}

    def spy_write(path, pairs, header, rows):
        pairs, rows = list(pairs), list(rows)
        seen["csv"] = (dict(pairs), header, rows)
        spt.artifacts.write_csv(path, pairs, header, rows)

    def spy(name):
        original = getattr(spt.cli, name)

        def wrapped(*args, **kwargs):
            seen[name] = original(*args, **kwargs)
            return seen[name]

        monkeypatch.setattr(spt.cli, name, wrapped)

    monkeypatch.setattr(spt.cli, "write_csv", spy_write)
    spy("single_photon_response")
    spy("gain_statistics")
    return seen


_PULSE = ["pulse-response", "--g1", "0.25", "--tau-kappa1", "5", "--points", "40",
          "--n2", "3", "--tol", "1e-6", "--seed", "4"]   # N2 = 3 fills the top layer


def _pulse_main(args):
    with pytest.warns(UserWarning, match="top Fock layer"):
        return main(_PULSE + args)


def test_pulse_response_file_and_stdout(tmp_path, capsys, calls):
    out, oracle = tmp_path / "wave.csv", tmp_path / "oracle.csv"
    assert _pulse_main(["-o", str(out)]) == 0
    series = calls["single_photon_response"].series
    metadata = calls["csv"][0]
    assert list(metadata)[:2] == ["version", "seed"]   # parameter order, not sorted
    frozen_writers.timeseries_to_csv(series.times, series.channels, metadata, oracle)
    assert out.read_bytes() == oracle.read_bytes()

    capsys.readouterr()
    assert _pulse_main(["-o", "-"]) == 0
    assert capsys.readouterr().out.encode() == oracle.read_bytes()


def test_jump_log(tmp_path, calls):
    log, oracle = tmp_path / "jumps.csv", tmp_path / "oracle.csv"
    assert main(["trajectories", "--g1", "0.25", "--n-traj", "12", "--duration", "300",
                 "--n1", "1", "--n2", "6", "--seed", "5", "--threads", "1",
                 "-o", str(tmp_path / "stats.json"), "--jump-log", str(log)]) == 0
    _, trajs = calls["gain_statistics"]
    assert sum(len(tr.jumps) for tr in trajs) > 12
    frozen_writers.trajectories_to_csv(trajs, oracle, metadata={"seed": 5, "n_traj": 12})
    assert log.read_bytes() == oracle.read_bytes()

    # the library call with no header, as the frozen writer wrote it
    trajectories_to_csv(trajs, log)
    frozen_writers.trajectories_to_csv(trajs, oracle)
    assert log.read_bytes() == oracle.read_bytes()


def test_sorted_header_experiment(tmp_path, calls):
    out, oracle = tmp_path / "sr.csv", tmp_path / "oracle.csv"
    assert main(["setting-rate", "--kappa2-grid", "1:3:3", "--n2", "4", "--seed", "2",
                 "-o", str(out)]) == 0
    metadata, header, rows = calls["csv"]
    frozen_writers.write_csv(oracle, metadata, header, rows)
    assert out.read_bytes() == oracle.read_bytes()


_MIXED = ([("zeta", 2.0), ("channel", "kappa2"), ("a", 1), ("seed", np.int64(-3))],
          ["label", "count", "value", "tiny", "numpy"],
          [("kappa2_E", 3, 0.1, 1e-17, np.float64(2.0 / 3.0)),
           ("kappa1", np.int32(-7), 1.0, 123456789012345.6, np.float64(np.nan)),
           ("x", True, -0.0, 1e300, np.float64(np.inf))])


def test_sorted_header_cells_by_type(tmp_path, capsys):
    pairs, header, rows = _MIXED
    out, oracle = tmp_path / "t.csv", tmp_path / "oracle.csv"
    spt.artifacts.write_csv(out, sorted(pairs), header, rows)
    frozen_writers.write_csv(oracle, dict(pairs), header, rows)
    assert out.read_bytes() == oracle.read_bytes()
    spt.artifacts.write_csv("-", sorted(pairs), header, rows)
    assert capsys.readouterr().out.encode() == oracle.read_bytes()


def test_unwritable_path_raises(tmp_path):
    with pytest.raises(ValueError, match="cannot write"):
        spt.artifacts.write_json(tmp_path / "missing" / "x.json", {})
