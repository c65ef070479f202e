"""Command-line front end: named experiments emitting CSV/JSON artifacts.

Each experiment writes a deterministic artifact for a given config and seed:
`#`-prefixed metadata header lines (parameters, truncations, tolerances,
code version, seed), then a column header row and comma-separated values.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .detection import DetectionParams, detection_performance, roc_sweep, sample_observable
from .dynamics import PulseSpec, gain_and_bandwidth, single_photon_response, steady_state_reflection
from .effective import (SingularEliminationError, dark_rates_steady,
                        reflection_analytic, setting_rate, setting_rate_analytic)
from .hilbert import HilbertSpec
from .model import DecoherenceParams, SystemParams
from .montecarlo import (dark_count_trajectories, gain_statistics, no_jump_rates,
                         trajectories_to_csv)
from .units import to_g2_units


class ConfigError(ValueError):
    pass


def parse_grid(text: str) -> np.ndarray:
    """Grid syntax start:stop:count or log:start:stop:count."""
    parts = text.split(":")
    log = False
    if parts and parts[0] == "log":
        log = True
        parts = parts[1:]
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if count < 1 or not np.isfinite(start) or not np.isfinite(stop):
        raise ConfigError(f"bad grid {text!r}")
    if log:
        if start <= 0 or stop <= 0:
            raise ConfigError("log grid needs positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def write_csv(path, metadata: dict, header: list, rows) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8", newline="\n")
    try:
        for key in sorted(metadata):
            out.write(f"# {key}={metadata[key]}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


def _conv(args) -> float:
    if args.units != "mhz":
        return 1.0
    if args.g2_mhz is None or args.g2_mhz <= 0:
        raise ConfigError("--units mhz requires --g2-mhz")
    return args.g2_mhz


def _grid_in_g2(args, text: str) -> np.ndarray:
    """Parse a rate grid, converting 2*pi*MHz endpoints in mhz mode."""
    return parse_grid(text) / _conv(args)


def _anharmonicity(args) -> float:
    """--anharmonicity as given, inf when absent; only dark-counts takes a finite value.

    Every other experiment models the infinite-anharmonicity transistor (or, for
    detection, no qutrit at all), so a finite value there is refused.
    """
    if args.anharmonicity in (None, "inf"):
        return math.inf
    try:
        anh = float(args.anharmonicity)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad --anharmonicity {args.anharmonicity!r}") from exc
    if math.isnan(anh):
        raise ConfigError("--anharmonicity must not be nan")
    if math.isfinite(anh) and args.experiment != "dark-counts":
        raise ConfigError(f"{args.experiment} does not take a finite --anharmonicity "
                          "(only dark-counts does)")
    return anh


def _sys_params(args) -> SystemParams:
    conv = _conv(args)
    anh = to_g2_units(_anharmonicity(args), conv)
    try:
        return SystemParams(
            g1=to_g2_units(args.g1, conv),
            g2=1.0,
            omega=to_g2_units(args.omega, conv),
            kappa1=to_g2_units(args.kappa1, conv),
            kappa2=to_g2_units(args.kappa2, conv),
            anharmonicity=anh,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _decoherence(args) -> DecoherenceParams | None:
    conv = _conv(args)
    gamma = to_g2_units(args.gamma, conv)
    gamma_p = to_g2_units(args.gamma_phi, conv)
    if gamma == 0 and gamma_p == 0:
        return None
    dec = DecoherenceParams(gamma_eg=gamma, gamma_fe=2 * gamma,
                            gamma_p_ee=gamma_p, gamma_p_ff=2 * gamma_p)
    return dec


def _metadata(args, **extra) -> dict:
    md = {
        "version": __version__,
        "seed": args.seed,
        "units": args.units,
        "g1": args.g1, "omega": args.omega,
        "kappa1": args.kappa1, "kappa2": args.kappa2,
        "gamma": args.gamma, "gamma_phi": args.gamma_phi,
        "anharmonicity": args.anharmonicity or "inf",
    }
    if args.units == "mhz":
        md["g2_mhz"] = args.g2_mhz
    md.update(extra)
    return md


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_setting_rate(args) -> int:
    params = _sys_params(args)
    grid = _grid_in_g2(args, args.kappa2_grid) if args.kappa2_grid else np.array([params.kappa2])
    rows = []
    for k2 in grid:
        p = params.replace(kappa2=float(k2))
        num = setting_rate(p, n2_trunc=args.n2).value
        ana = [setting_rate_analytic(p, order).value for order in (1, 2, 3)]
        rows.append((k2, num, *ana))
    write_csv(args.output, _metadata(args, n2=args.n2, experiment="setting-rate"),
              ["kappa2", "gamma_set_numeric", "gamma_set_analytic_1",
               "gamma_set_analytic_2", "gamma_set_analytic_3"], rows)
    return 0


def run_reflection(args) -> int:
    params = _sys_params(args)
    gamma_set = setting_rate(params, n2_trunc=args.n2).value
    grid = (np.geomspace(gamma_set / 10.0, gamma_set * 10.0, 41)
            if args.kappa1_grid == "log" else _grid_in_g2(args, args.kappa1_grid))
    rows = []
    for k1 in grid:
        p = params.replace(kappa1=float(k1))
        r_num = steady_state_reflection(p, spec=HilbertSpec(2, args.n2_reflection),
                                        decoherence=_decoherence(args))
        rows.append((k1, r_num, reflection_analytic(gamma_set, float(k1))))
    write_csv(args.output,
              _metadata(args, n2=args.n2, gamma_set=gamma_set, experiment="reflection"),
              ["kappa1", "r2_numeric", "r2_analytic"], rows)
    return 0


def run_gain(args) -> int:
    params = _sys_params(args)
    dec = _decoherence(args)
    if args.sweep:
        name, grid_text = args.sweep
        if name not in ("g1", "omega", "kappa2"):
            raise ConfigError(f"cannot sweep {name!r}")
        grid = _grid_in_g2(args, grid_text)
    else:
        name, grid = "g1", np.array([params.g1])
    rows = []
    for val in grid:
        p = params.replace(**{name: float(val)})
        res = gain_and_bandwidth(p, decoherence=dec, n2_trunc=args.n2)
        rows.append((val, res.gain, res.bandwidth))
    write_csv(args.output, _metadata(args, n2=args.n2, sweep=name, experiment="gain"),
              [name, "gain", "bandwidth"], rows)
    return 0


def run_pulse_response(args) -> int:
    params = _sys_params(args)
    gamma_set = setting_rate(params, n2_trunc=args.n2).value
    p = params.replace(kappa1=gamma_set)
    tau = args.tau_kappa1 / gamma_set
    pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
    grid = np.linspace(0.0, 9.0 * tau, args.points)
    res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, args.n2),
                                 decoherence=_decoherence(args), tol=args.tol)
    res.series.metadata = _metadata(args, n2=args.n2, gamma_set=gamma_set, tau=tau,
                                    absorbed_fraction=res.absorbed_fraction, gain=res.gain,
                                    experiment="pulse-response")
    res.series.to_csv(args.output)
    return 0


def run_trajectories(args) -> int:
    params = _sys_params(args)
    stats, trajs = gain_statistics(
        params, n_traj=args.n_traj, duration=args.duration, base_seed=args.seed,
        spec=HilbertSpec(args.n1, args.n2), decoherence=_decoherence(args),
        threads=args.threads, return_trajectories=True,
    )
    payload = stats.to_json_dict()
    payload["experiment"] = "trajectories"
    payload["metadata"] = _metadata(args, n1=args.n1, n2=args.n2,
                                    n_traj=args.n_traj, duration=args.duration)
    write_json(args.output, payload)
    if args.jump_log:
        trajectories_to_csv(trajs, args.jump_log,
                            metadata={"seed": args.seed, "n_traj": args.n_traj})
    return 0


def run_dark_counts(args) -> int:
    params = _sys_params(args)
    if not math.isfinite(params.anharmonicity):
        raise ConfigError("dark-counts requires a finite --anharmonicity")
    grid = _grid_in_g2(args, args.a_grid) if args.a_grid else np.array([params.anharmonicity])
    rows = []
    for a in grid:
        p = params.replace(anharmonicity=float(a))
        steady = dark_rates_steady(p)
        nj = no_jump_rates(p, t_end=args.t_end)
        row = [a, steady.single.value, steady.enhanced.value,
               steady.single_asymptotic.value, steady.enhanced_asymptotic.value,
               nj.steady_single, nj.steady, nj.dynamical]
        if args.trajectories:
            est = dark_count_trajectories(p, n_traj=args.trajectories,
                                          duration=args.duration, base_seed=args.seed,
                                          threads=args.threads)
            row += [est.single_rate, est.enhanced_rate,
                    est.n_events_single, est.n_events_enhanced]
        rows.append(tuple(row))
    header = ["anharmonicity", "single_inversion", "enhanced_inversion",
              "single_asymptotic", "enhanced_asymptotic",
              "nojump_single", "nojump_enhanced", "nojump_dynamical"]
    if args.trajectories:
        header += ["single_trajectory", "enhanced_trajectory",
                   "n_events_single", "n_events_enhanced"]
    write_csv(args.output,
              _metadata(args, experiment="dark-counts", n_traj=args.trajectories or 0),
              header, rows)
    return 0


def run_detection(args) -> int:
    if args.zeta_grid:
        zetas = parse_grid(args.zeta_grid)
        rows = roc_sweep(args.gain_photons, args.modes, zetas)
        write_csv(args.output,
                  {"version": __version__, "experiment": "detection",
                   "gain": args.gain_photons, "modes": args.modes, "seed": args.seed},
                  ["zeta", "efficiency", "dark_probability"], rows)
    else:
        perf = detection_performance(DetectionParams(
            gain=args.gain_photons, modes=args.modes, zeta=args.zeta))
        payload = {"experiment": "detection", "gain": args.gain_photons,
                   "modes": args.modes, "zeta": args.zeta,
                   "efficiency": perf.efficiency, "dark_probability": perf.dark_probability}
        if args.sample:
            obs = sample_observable(args.modes, 0.0, n_samples=args.sample, seed=args.seed)
            payload["vacuum_sample_mean"] = float(obs.mean())
            payload["vacuum_sample_variance"] = float(obs.var(ddof=1))
        write_json(args.output, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# system flags and their defaults.  An experiment that does not read a flag
# (all but dark-counts set kappa1 themselves: Gamma_set, or the swept grid;
# detection has no qutrit) registers it with default None, so that giving it,
# as a flag or a config entry, is refused
_SYSTEM_FLAGS = {"g1": 0.05, "omega": 2.0, "kappa1": 0.0, "kappa2": 1.0, "gamma": 0.0,
                 "gamma_phi": 0.0, "anharmonicity": None, "units": "g2", "g2_mhz": None}
_UNREAD_FLAGS = {**dict.fromkeys(("setting-rate", "reflection", "gain", "pulse-response",
                                  "trajectories"), ("kappa1",)),
                 "detection": tuple(_SYSTEM_FLAGS)}

# experiment options and what their values must satisfy, checked where taken
_BOUNDS = {
    "n1": (lambda v: v >= 0, "at least 0"),
    "n2": (lambda v: v >= 1, "at least 1"),
    "n2_reflection": (lambda v: v >= 1, "at least 1"),
    "n_traj": (lambda v: v >= 1, "at least 1"),
    "trajectories": (lambda v: v >= 0, "at least 0"),
    "duration": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "t_end": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "points": (lambda v: v >= 2, "at least 2"),
    "tau_kappa1": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "tol": (lambda v: 0 < v < 1, "in (0, 1)"),
}


def _check_bounds(args) -> None:
    for dest, (ok, need) in _BOUNDS.items():
        if not hasattr(args, dest):
            continue
        val = getattr(args, dest)
        try:
            good = ok(val)
        except TypeError:
            good = False
        if not good:
            raise ConfigError(f"--{dest.replace('_', '-')} must be {need}, got {val!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spt",
        description="Continuous-wave single-photon transistor experiments",
    )
    ap.add_argument("--config", help="JSON config file; flags override its entries")
    sub = ap.add_subparsers(dest="experiment", required=True)

    def experiment(name, help_, func, threads=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        unread = _UNREAD_FLAGS.get(name, ())

        def flag(dest, **kw):
            p.add_argument("--" + dest.replace("_", "-"),
                           default=None if dest in unread else _SYSTEM_FLAGS[dest], **kw)

        for dest in ("g1", "omega", "kappa1", "kappa2"):
            flag(dest, type=float)
        flag("gamma", type=float, help="radiative gamma_eg (gamma_fe = 2 gamma)")
        flag("gamma_phi", type=float, help="pure dephasing gamma_p_ee (gamma_p_ff = 2 gamma_p)")
        flag("anharmonicity")
        flag("units", choices=("g2", "mhz"))
        flag("g2_mhz", type=float, help="g2 reference in MHz for --units mhz")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default=None, help="file path or - for stdout")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes for the trajectory ensemble")
        return p

    p = experiment("setting-rate", "setting rate vs kappa2 (numeric + closed forms)",
                   run_setting_rate)
    p.add_argument("--kappa2-grid", default="0.5:4:50")
    p.add_argument("--n2", type=int, default=10)

    p = experiment("reflection", "steady-state reflection vs kappa1", run_reflection)
    p.add_argument("--kappa1-grid", default="log",
                   help="a grid, or log: 41 points from Gamma_set/10 to 10 Gamma_set")
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--n2-reflection", type=int, default=8)

    p = experiment("gain", "gain and bandwidth, optionally swept", run_gain)
    p.add_argument("--sweep", nargs=2, metavar=("PARAM", "GRID"), default=None)
    p.add_argument("--n2", type=int, default=10)

    p = experiment("pulse-response", "single-photon pulse waveforms", run_pulse_response)
    p.add_argument("--tau-kappa1", type=float, default=6.0,
                   help="pulse width in units of 1/kappa1")
    p.add_argument("--points", type=int, default=600)
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-7)

    p = experiment("trajectories", "Monte-Carlo counting statistics", run_trajectories,
                   threads=True)
    p.add_argument("--n-traj", type=int, default=300)
    p.add_argument("--duration", type=float, default=700.0)
    p.add_argument("--n1", type=int, default=2)
    p.add_argument("--n2", type=int, default=16)
    p.add_argument("--jump-log", default=None, help="CSV path for per-jump records")

    p = experiment("dark-counts", "dark-count rates vs anharmonicity", run_dark_counts,
                   threads=True)
    p.add_argument("--a-grid", default=None)
    p.add_argument("--t-end", type=float, default=2000.0)
    p.add_argument("--trajectories", type=int, default=0,
                   help="trajectory count for the stochastic estimate (0 = skip)")
    p.add_argument("--duration", type=float, default=10000.0)

    p = experiment("detection", "heterodyne threshold performance", run_detection)
    p.add_argument("--gain-photons", type=float, default=200.0)
    p.add_argument("--modes", type=int, default=90)
    p.add_argument("--zeta", type=float, default=2.0)
    p.add_argument("--zeta-grid", default=None)
    p.add_argument("--sample", type=int, default=0,
                   help="also Monte-Carlo sample the vacuum observable")

    return ap


def _merge_config(ap: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(conf, dict):
            raise ConfigError("config file must hold a JSON object")
        # flags win: skip config entries whose option appears on the command line
        for key, val in conf.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise ConfigError(f"unknown config key {key!r}")
            option = "--" + key.replace("_", "-")
            explicit = any(tok == option or tok.startswith(option + "=") for tok in argv)
            if not explicit:
                setattr(args, attr, val)
    return args


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _merge_config(ap, argv)
        _anharmonicity(args)   # refuses a finite value outside dark-counts
        _check_bounds(args)
        for dest in _UNREAD_FLAGS.get(args.experiment, ()):
            if getattr(args, dest) is not None:
                raise ConfigError(f"{args.experiment} does not read --{dest.replace('_', '-')}")
            setattr(args, dest, _SYSTEM_FLAGS[dest])
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularEliminationError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
