"""spt-sim benchmark: one workload, timed end to end, its outputs checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {stationary,pulse,trajectories} \
        --seed N --seconds S --trace {0,1}

The workload runs in a child process (perfbench/worker.py) with BLAS pinned
to one thread and spt imported from the checkout's src/.  Set-up time is the
median over SETUP_SAMPLES process starts of the time to "ready" (import of
spt.cli plus input building).  After the child ends, this process computes
the references of perfbench/reference.py, checks the child's artifacts
against them, prints one line per metric and per check, and ends with one
JSON line: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  Exit code 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

import reference as ref  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from worker import N_TRAJ_DARK, N_TRAJ_E00, N_TRAJ_PULSE, WORKLOADS, artifact_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _worker(args, out: Path | None, deadline: float, setup_only: bool) -> float:
    """Start a worker, return its set-up time; wait for it to end."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--setup-only"] if setup_only else ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError("worker did not reach ready")
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 0))
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")
        return setup
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[dict, dict]:
    """('#' key=value header, column name -> float array) of a CLI CSV artifact."""
    meta, names, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val
        elif names is None:
            names = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    data = np.array(rows, dtype=float)
    return meta, {n: data[:, i] for i, n in enumerate(names)}


def rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b) / np.abs(b)))


def previous_run(out: Path) -> dict | None:
    """Operations and round-0 digests of the last finished run that wrote to ``out``."""
    try:
        res = json.loads((out / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return {"ops": res["ops"], "digest": res["rounds"][0]["digest"]}


def differ(a: dict, b: dict) -> list:
    """Names of the files whose digests differ between two digest maps."""
    return sorted(f for f in set(a) | set(b) if a.get(f) != b.get(f))


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.items.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_stationary(art: dict, ck: Checks) -> None:
    sweeps = (
        ("setting_rate_n2_1", 1e-9, "closed form",
         lambda k2: ref.setting_rate_closed_form(1, 0.05, 1, k2, 2)),
        ("setting_rate_n2_2", 1e-9, "closed form",
         lambda k2: ref.setting_rate_closed_form(2, 0.05, 1, k2, 2)),
        ("setting_rate_n2_10", 1e-10, "2(N2+1)-state elimination",
         lambda k2: ref.setting_rate_elimination(0.05, 1, k2, 2, 10)),
    )
    for name, tol, what, refn in sweeps:
        if name not in art:
            continue
        _, col = read_csv(art[name])
        want = np.array([refn(k2) for k2 in col["kappa2"]])
        dev = rel(col["gamma_set_numeric"], want)
        ck.add(name, dev <= tol,
               f"{len(want)} points, max rel dev {dev:.2e} <= {tol:g} from {what}")

    if "reflection" in art:
        meta, col = read_csv(art["reflection"])
        gamma = ref.setting_rate_elimination(0.05, 1, 2, 2, 10)
        dev = rel(float(meta["gamma_set"]), gamma)
        ck.add("reflection_gamma_set", dev <= 1e-10, f"Gamma_set rel dev {dev:.2e} <= 1e-10")
        k1, r2 = col["kappa1"], col["r2_numeric"]
        i_dip = int(np.argmin(np.abs(np.log(k1 / gamma))))
        ck.add("reflection_dip", r2[i_dip] < 1e-3 and int(np.argmin(r2)) == i_dip,
               f"|r|^2 = {r2[i_dip]:.2e} < 1e-3 at kappa1/Gamma_set = {k1[i_dip] / gamma:.6f}, "
               "the sweep minimum")
        off = np.abs(np.log(k1 / gamma)) > math.log(2.0)
        dev = rel(r2[off], np.array([ref.reflection_closed_form(gamma, k) for k in k1[off]]))
        ck.add("reflection_off_dip", off.sum() >= 4 and dev <= 0.05,
               f"{off.sum()} off-dip points, max rel dev {dev:.4f} <= 0.05 from closed form")

    if "gain" in art:
        _, col = read_csv(art["gain"])
        devs, bw_devs = [], []
        for g1, gain, bw in zip(col["g1"], col["gain"], col["bandwidth"]):
            devs.append(rel(gain, ref.Transistor(g1, 1, 2, 1, 1, 10).count_moments()[0]))
            bw_devs.append(rel(bw, ref.setting_rate_elimination(g1, 1, 1, 2, 10)))
        ck.add("gain_resolvent", max(devs) <= 1e-6,
               f"g1 = {col['g1'].tolist()}: max rel dev {max(devs):.2e} <= 1e-6 "
               "from the Kronecker resolvent")
        ck.add("bandwidth_setting_rate", max(bw_devs) <= 1e-10,
               f"max rel dev {max(bw_devs):.2e} <= 1e-10 from elimination")
        g005 = float(col["gain"][np.argmin(np.abs(col["g1"] - 0.05))])
        dev = rel(g005, ref.PAPER_GAIN_G1_005)
        ck.add("gain_paper_172", dev <= 0.15,
               f"gain {g005:.3f} at g1 = 0.05, rel dev {dev:.3f} <= 0.15 from 172")


def check_pulse(art: dict, ck: Checks) -> None:
    if "pulse_response" not in art:
        return
    meta, col = read_csv(art["pulse_response"])
    absorbed = float(meta["absorbed_fraction"])
    ck.add("pulse_absorbed", absorbed >= 0.98, f"absorbed fraction {absorbed:.5f} >= 0.98")
    t = col["time"]
    out1 = float(np.sum(0.5 * (col["I_out1"][1:] + col["I_out1"][:-1]) * np.diff(t)))
    balance = out1 + (1.0 - col["pop_g"][-1])
    ck.add("pulse_port1_conservation", abs(balance - 1.0) <= 1e-3,
           f"int I_out1 dt + (1 - pop_g(T)) = {balance:.6f}, |. - 1| <= 1e-3")
    gain_e00 = ref.Transistor(0.15, 1, 2, 1, 1, 10).count_moments()[0]
    ratio = float(meta["gain"]) / gain_e00
    ck.add("pulse_gain_vs_e00", 0.9 <= ratio <= 1.0,
           f"pulse gain {float(meta['gain']):.4f} / |e,0,0> resolvent gain {gain_e00:.4f} "
           f"= {ratio:.4f} in [0.9, 1]")


def _within(name: str, ck: Checks, value: float, want: float, se: float, what: str) -> None:
    z = (value - want) / se
    ck.add(name, abs(z) <= 4.0,
           f"{what} {value:.5g} vs {want:.5g}: {z:+.2f} standard errors (|z| <= 4)")


def check_trajectories(art: dict, ck: Checks) -> None:
    if "traj_e00" in art:
        stats = json.loads(art["traj_e00"].read_text(encoding="utf-8"))
        counts = np.repeat([int(k) for k in stats["histogram"]], list(stats["histogram"].values()))
        per_traj = np.zeros(N_TRAJ_E00, dtype=int)
        for line in art["traj_e00.jumps"].read_text(encoding="utf-8").splitlines():
            if not line.startswith(("#", "trajectory_id")):
                i, _t, lab = line.split(",")
                per_traj[int(i)] += lab.startswith("kappa2")
        ck.add("e00_jump_log_matches_histogram",
               np.array_equal(np.sort(per_traj), np.sort(counts)) and len(counts) == N_TRAJ_E00,
               f"{N_TRAJ_E00} trajectories: kappa2 counts from the jump log equal the histogram")
        # standard errors from the exact moments: the count is heavy-tailed
        # (kurtosis 8.7), so a sample's own fourth moment understates them
        model = ref.Transistor(0.25, 1, 2, 1, 2, 16)
        _, mean, var = model.count_moments()
        mu4 = model.count_central_moment_4()
        n = len(counts)
        se_var = math.sqrt((mu4 - var**2 * (n - 3) / (n - 1)) / n)
        _within("e00_count_mean", ck, counts.mean(), mean, math.sqrt(var / n), "mean count")
        _within("e00_count_variance", ck, counts.var(ddof=1), var, se_var, "count variance")
    if "traj_dark" in art:
        _, col = read_csv(art["traj_dark"])
        rate, n_ev = float(col["single_trajectory"][0]), float(col["n_events_single"][0])
        want = ref.single_dark_rate(1.0, 2.0, 0.1, 40.0)
        _within("dark_single_rate", ck, rate, want, rate / math.sqrt(n_ev),
                f"single dark rate ({int(n_ev)} events)")
    if "traj_pulse_input" in art:
        rec = json.loads(art["traj_pulse_input"].read_text(encoding="utf-8"))
        c = np.array(rec["counts"], dtype=float)
        _within("pulse_input_mean", ck, c.mean(), ref.PULSE_INPUT_HIERARCHY_GAIN,
                c.std(ddof=1) / math.sqrt(len(c)), f"mean count ({len(c)} trajectories)")


CHECKS = {"stationary": check_stationary, "pulse": check_pulse,
          "trajectories": check_trajectories}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # a terminated benchmark still stops its worker (the finally in _worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "spt" / "cli.py").is_file():
        print(f"no spt sources under {ROOT / 'src'}: run from the root of an spt-sim checkout",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    previous = previous_run(out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setups = [] if args.trace else [_worker(args, None, deadline, True)
                                         for _ in range(SETUP_SAMPLES - 1)]
        setups.append(_worker(args, out, deadline, False))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res = json.loads((out / "result.json").read_text(encoding="utf-8"))
    rounds = res["rounds"]
    failed_first = {f.split(".", 1)[1] for f in res["failed_ops"] if f.startswith("0.")}

    art = {}
    for op in res["ops"]:
        if op["name"] in failed_first:
            continue
        art[op["name"]] = out / "round0" / artifact_name(op)
        if op["kind"] == "cli" and op["jump_log"]:
            art[op["name"] + ".jumps"] = out / "round0" / f"{op['name']}.jumps.csv"
    ck = Checks()
    CHECKS[args.workload](art, ck)
    first = rounds[0]["digest"]
    diff = sorted({f for r in rounds[1:] for f in differ(first, r["digest"])})
    ck.add("determinism", len(rounds) > 1 and not diff,
           f"{len(rounds)} rounds from one seed, {len(first)} artifact and jump-record files: "
           + (f"differ in {', '.join(diff)}" if diff else "byte-identical"))
    if previous is not None and previous["ops"] == res["ops"]:
        diff = differ(previous["digest"], first)
        ck.add("determinism_across_runs", not diff,
               "round 0 against the previous run with this seed, in another process: "
               + (f"differ in {', '.join(diff)}" if diff else "byte-identical"))

    def med(op):
        return statistics.median(r["times"][op] for r in rounds)

    wall = statistics.median(sum(r["times"].values()) for r in rounds)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    if args.workload == "stationary":
        detail = {"setting_rate_sweep_s": (sum(med(f"setting_rate_n2_{n}") for n in (1, 2, 10)),
                                           "s"),
                  "reflection_sweep_s": (med("reflection"), "s"),
                  "gain_sweep_s": (med("gain"), "s")}
    elif args.workload == "pulse":
        detail = {"pulse_s": (med("pulse_response"), "s")}
    else:
        detail = {"traj_per_s": (N_TRAJ_E00 / med("traj_e00"), "1/s"),
                  "dark_traj_per_s": (N_TRAJ_DARK / med("traj_dark"), "1/s"),
                  "pulse_traj_per_s": (N_TRAJ_PULSE / med("traj_pulse_input"), "1/s")}

    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"setup samples {len(setups)} trace {args.trace}")
    for name, (val, unit) in {**end_to_end, **detail}.items():
        print(f"metric {name} {val:.6g} {unit}" + (" (traced)" if args.trace else ""))
    for name, ok, text in ck.items:
        print(f"check {name} {'PASS' if ok else 'FAIL'}: {text}")
    for f in res["failed_ops"]:
        print(f"failed operation {f}")

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": val, "unit": unit} for name, (val, unit) in end_to_end.items()}
    print(json.dumps({"correct": all(ok for _, ok, _ in ck.items),
                      "attempted": res["attempted"], "failed": len(res["failed_ops"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
