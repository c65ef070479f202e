"""Command-line front end: named experiments emitting CSV/JSON artifacts.

Each experiment writes a deterministic artifact for a given config and seed,
in the formats of ``spt.artifacts``; its `#` header lines hold the parameters,
truncations, tolerances, code version and seed.
Exit codes: 0 success, 2 config error, 3 numerical failure (an overflow included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .artifacts import UnwritablePathError, check_writable, write_csv, write_json
from .detection import DetectionParams, detection_performance, roc_sweep, sample_observable
from .dynamics import PulseSpec, gain_and_bandwidth, reflection_sweep, single_photon_response
from .effective import (SingularEliminationError, UndefinedRateError, dark_rates_steady,
                        reflection_analytic, setting_rate, setting_rate_analytic)
from .hilbert import HilbertSpec
from .model import DecoherenceParams, SystemParams
from .montecarlo import (dark_count_trajectories, gain_statistics, no_jump_rates,
                         trajectories_to_csv)
from .ode import MIN_RTOL


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


def _conv(args) -> float:
    if args.units != "mhz":
        return 1.0
    if args.g2_mhz is None or not 0 < args.g2_mhz < math.inf:
        raise ConfigError(f"--units mhz requires --g2-mhz, finite and > 0, got {args.g2_mhz}")
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
    except ValueError as exc:
        raise ConfigError(f"bad --anharmonicity {args.anharmonicity!r}") from exc
    if math.isfinite(anh) and args.experiment != "dark-counts":
        raise ConfigError(f"{args.experiment} does not take a finite --anharmonicity "
                          "(only dark-counts does)")
    return anh


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)`` for a constructor of parameters, the
    ValueError of its checks raised as the ConfigError of a bad value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sys_params(args) -> SystemParams:
    conv = _conv(args)
    return _checked(
        SystemParams,
        g1=args.g1 / conv,
        g2=1.0,
        omega=args.omega / conv,
        kappa1=args.kappa1 / conv,
        kappa2=args.kappa2 / conv,
        anharmonicity=_anharmonicity(args) / conv,
    )


def _decoherence(args) -> DecoherenceParams:
    conv = _conv(args)
    return _checked(DecoherenceParams, gamma=args.gamma / conv, gamma_phi=args.gamma_phi / conv)


def _gamma_set(args, params: SystemParams) -> float:
    """Gamma_set of ``params``, for an experiment that scales with it, so
    refused at 0."""
    gamma_set = setting_rate(params, n2_trunc=args.n2).value
    if gamma_set == 0:
        raise ConfigError(f"{args.experiment} scales with Gamma_set, and Gamma_set = 0 here")
    return gamma_set


def _refuse_unread(args, dests, why: str = "") -> None:
    """Refuse each of ``dests`` that was given (it is None when not), as the
    experiment does not read it (``why``: with or without which other flag)."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ConfigError(f"{args.experiment} does not read "
                              f"--{dest.replace('_', '-')} {why}".rstrip())


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
        p = _checked(params.replace, kappa2=float(k2))
        num = setting_rate(p, n2_trunc=args.n2).value
        ana = [setting_rate_analytic(p, order).value for order in (1, 2, 3)]
        rows.append((k2, num, *ana))
    write_csv(args.output, sorted(_metadata(args, n2=args.n2, experiment="setting-rate").items()),
              ["kappa2", "gamma_set_numeric", "gamma_set_analytic_1",
               "gamma_set_analytic_2", "gamma_set_analytic_3"], rows)
    return 0


def run_reflection(args) -> int:
    params = _sys_params(args)
    if args.kappa1_grid == "log":
        gamma_set = _gamma_set(args, params)
        grid = np.geomspace(gamma_set / 10.0, gamma_set * 10.0, 41)
    else:
        grid = _grid_in_g2(args, args.kappa1_grid)
        if np.any(grid <= 0):   # refused before the sweep forks its workers
            raise ConfigError(f"reflection needs kappa1 > 0, and --kappa1-grid "
                              f"{args.kappa1_grid} holds {grid.min() * _conv(args):g}")
        gamma_set = setting_rate(params, n2_trunc=args.n2).value
    r_num = reflection_sweep(params, grid, spec=HilbertSpec(2, args.n2_reflection),
                             decoherence=_decoherence(args), threads=args.threads)
    rows = [(k1, r, reflection_analytic(gamma_set, float(k1))) for k1, r in zip(grid, r_num)]
    write_csv(args.output,
              sorted(_metadata(args, n2=args.n2, gamma_set=gamma_set,
                               experiment="reflection").items()),
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
        p = _checked(params.replace, **{name: float(val)})
        res = gain_and_bandwidth(p, decoherence=dec, n2_trunc=args.n2)
        rows.append((val, res.gain, res.bandwidth))
    write_csv(args.output,
              sorted(_metadata(args, n2=args.n2, sweep=name, experiment="gain").items()),
              [name, "gain", "bandwidth"], rows)
    return 0


def run_pulse_response(args) -> int:
    params = _sys_params(args)
    gamma_set = _gamma_set(args, params)
    p = params.replace(kappa1=gamma_set)
    tau = args.tau_kappa1 / gamma_set
    pulse = _checked(PulseSpec.from_tau, tau=tau, center_time=4.5 * tau)
    grid = np.linspace(0.0, 9.0 * tau, args.points)
    res = single_photon_response(p, pulse, grid, spec=HilbertSpec(1, args.n2),
                                 decoherence=_decoherence(args), tol=args.tol)
    md = _metadata(args, n2=args.n2, gamma_set=gamma_set, tau=tau,
                   absorbed_fraction=res.absorbed_fraction, gain=res.gain,
                   experiment="pulse-response")
    channels = res.series.channels
    write_csv(args.output, md.items(), ["time", *channels],
              zip(res.series.times, *channels.values()))
    return 0


def run_trajectories(args) -> int:
    params = _sys_params(args)
    for path in (args.output, args.jump_log):   # before the ensemble, not after it
        check_writable(path)
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
    if not args.trajectories:
        _refuse_unread(args, ("duration", "threads"), "without --trajectories")
    duration = 10000.0 if args.duration is None else args.duration
    grid = _grid_in_g2(args, args.a_grid) if args.a_grid else np.array([params.anharmonicity])
    rows = []
    for a in grid:
        p = _checked(params.replace, anharmonicity=float(a))
        steady = dark_rates_steady(p)
        nj = no_jump_rates(p)
        row = [a, steady.single.value, steady.enhanced.value,
               steady.single_asymptotic.value, steady.enhanced_asymptotic.value,
               nj.steady_single, nj.steady, nj.dynamical]
        if args.trajectories:
            est = dark_count_trajectories(p, n_traj=args.trajectories,
                                          duration=duration, base_seed=args.seed,
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
              sorted(_metadata(args, experiment="dark-counts",
                               n_traj=args.trajectories or 0).items()),
              header, rows)
    return 0


def run_detection(args) -> int:
    if args.zeta_grid:
        _refuse_unread(args, ("zeta", "sample"), "with --zeta-grid")
        zetas = parse_grid(args.zeta_grid)
        for z in zetas:   # roc_sweep builds these; a bad value is refused first
            _checked(DetectionParams, gain=args.gain_photons, modes=args.modes, zeta=float(z))
        rows = roc_sweep(args.gain_photons, args.modes, zetas)
        write_csv(args.output,
                  sorted({"version": __version__, "experiment": "detection",
                          "gain": args.gain_photons, "modes": args.modes,
                          "seed": args.seed}.items()),
                  ["zeta", "efficiency", "dark_probability"], rows)
    else:
        zeta = 2.0 if args.zeta is None else args.zeta
        perf = detection_performance(_checked(
            DetectionParams, gain=args.gain_photons, modes=args.modes, zeta=zeta))
        payload = {"experiment": "detection", "gain": args.gain_photons,
                   "modes": args.modes, "zeta": zeta,
                   "efficiency": perf.efficiency, "dark_probability": perf.dark_probability}
        if args.sample:
            obs = sample_observable(args.modes, 0.0, n_samples=args.sample, seed=args.seed)
            payload["vacuum_sample_mean"] = float(obs.mean())
            # undefined for one sample, as counts_to_statistics has it
            payload["vacuum_sample_variance"] = (float(obs.var(ddof=1)) if args.sample > 1
                                                 else None)
        write_json(args.output, payload)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# system flags and their defaults.  An experiment that does not read a flag
# (all but dark-counts set kappa1 themselves: Gamma_set, or the swept grid;
# dark-counts has no qutrit decoherence, detection no qutrit) registers it
# with default None, so that giving it, as a flag or a config entry, is refused
_SYSTEM_FLAGS = {"g1": 0.05, "omega": 2.0, "kappa1": 0.0, "kappa2": 1.0, "gamma": 0.0,
                 "gamma_phi": 0.0, "anharmonicity": None, "units": "g2", "g2_mhz": None}
_UNREAD_FLAGS = {**dict.fromkeys(("setting-rate", "reflection", "gain", "pulse-response",
                                  "trajectories"), ("kappa1",)),
                 "dark-counts": ("gamma", "gamma_phi"),
                 "detection": tuple(_SYSTEM_FLAGS)}

# experiment options and what their values must satisfy, checked where taken
_BOUNDS = {
    "n1": (lambda v: v >= 0, "at least 0"),
    "n2": (lambda v: v >= 1, "at least 1"),
    "n2_reflection": (lambda v: v >= 1, "at least 1"),
    "n_traj": (lambda v: v >= 1, "at least 1"),
    "trajectories": (lambda v: v >= 0, "at least 0"),
    "duration": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "points": (lambda v: v >= 2, "at least 2"),
    "tau_kappa1": (lambda v: 0 < v < math.inf, "finite and > 0"),
    # DOP853 cannot honour an rtol below 100 eps (ode.MIN_RTOL)
    "tol": (lambda v: MIN_RTOL <= v < 1, f"in [100 eps, 1) = [{MIN_RTOL:.4g}, 1)"),
    "threads": (lambda v: v >= 1, "at least 1"),
    "sample": (lambda v: v >= 0, "at least 0"),
    # Philox takes the seed as a 64-bit key word (montecarlo.trajectory_rng)
    "seed": (lambda v: -2**63 <= v < 2**63, "in [-2**63, 2**63)"),
}


def _check_bounds(args) -> None:
    for dest, (ok, need) in _BOUNDS.items():   # None: not given, where that is the default
        if getattr(args, dest, None) is not None and not ok(getattr(args, dest)):
            raise ConfigError(f"--{dest.replace('_', '-')} must be {need}, "
                              f"got {getattr(args, dest)!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spt",
        description="Continuous-wave single-photon transistor experiments",
    )
    ap.add_argument("--config", help="JSON config file; flags override its entries")
    sub = ap.add_subparsers(dest="experiment", required=True)
    ap.experiments = sub.choices   # name -> the experiment's parser

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
                           help="worker processes (default: the usable CPUs, at most 8)")
        return p

    p = experiment("setting-rate", "setting rate vs kappa2 (numeric + closed forms)",
                   run_setting_rate)
    p.add_argument("--kappa2-grid", default="0.5:4:50")
    p.add_argument("--n2", type=int, default=10)

    p = experiment("reflection", "steady-state reflection vs kappa1", run_reflection,
                   threads=True)
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
    p.add_argument("--trajectories", type=int, default=0,
                   help="trajectory count for the stochastic estimate (0 = skip)")
    p.add_argument("--duration", type=float, default=None,
                   help="trajectory duration (default 10000; needs --trajectories)")

    p = experiment("detection", "heterodyne threshold performance", run_detection)
    p.add_argument("--gain-photons", type=float, default=200.0)
    p.add_argument("--modes", type=int, default=90)
    p.add_argument("--zeta", type=float, default=None,
                   help="threshold (default 2; not with --zeta-grid)")
    p.add_argument("--zeta-grid", default=None)
    p.add_argument("--sample", type=int, default=None,
                   help="also Monte-Carlo sample the vacuum observable "
                        "(not with --zeta-grid)")

    return ap


def _config_value(sub: argparse.ArgumentParser, action: argparse.Action, val):
    """A config entry's ``val`` parsed by ``action`` as if given as its flag."""
    option = action.option_strings[0]
    items = val if isinstance(val, list) else [val]
    reason = "not a string, a number or a list of them"
    if all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        try:
            parsed, extra = sub.parse_known_args(
                [option, *map(str, val)] if isinstance(val, list) else [f"{option}={val}"])
        except argparse.ArgumentError as exc:
            reason = exc.message
        else:
            if not extra:
                return getattr(parsed, action.dest)
            reason = "too many values"
    need = _BOUNDS[action.dest][1] if action.dest in _BOUNDS else "valid"
    raise ConfigError(f"{option} must be {need}, got {val!r} ({reason})")


def _merge_config(ap: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse ``argv`` over the config file's entries.

    Each entry must name an option of the experiment.  Its value is parsed by
    that option, as the command line would give it (type, choices, count), and
    becomes the option's default, so a flag on the command line wins.
    """
    args = ap.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:   # too deeply nested
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(conf, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = ap.experiments[args.experiment]
    sub.exit_on_error = False   # a bad value raises ArgumentError instead of exiting
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, val in conf.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        defaults[action.dest] = _config_value(sub, action, val)
    sub.set_defaults(**defaults)
    return ap.parse_args(argv)


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _merge_config(ap, argv)
        _anharmonicity(args)   # refuses a finite value outside dark-counts
        _check_bounds(args)
        unread = _UNREAD_FLAGS.get(args.experiment, ())
        _refuse_unread(args, unread)
        for dest in unread:
            setattr(args, dest, _SYSTEM_FLAGS[dest])
        return args.func(args)
    except (ConfigError, UnwritablePathError, UndefinedRateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularEliminationError, np.linalg.LinAlgError, RuntimeError,
            OverflowError) as exc:
        what = "overflow" if isinstance(exc, OverflowError) else exc
        print(f"{args.experiment}: numerical failure: {what}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
