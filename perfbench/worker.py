"""One perfbench workload against spt, in a process of its own.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ (the
directory next to perfbench/) and BLAS pinned to one thread.  The worker
imports spt.cli, builds the workload's inputs from the seed and prints
"ready" (the parent times set-up up to that line).  Unless --setup-only is
given it then runs whole rounds of the workload's operations until --seconds
have passed and at least MIN_ROUNDS are done, each round writing its
artifacts to a directory of its own, and writes result.json: per-round
operation times, artifact digests, failed operations, its own peak RSS and,
with --trace 1, the per-layer metrics.

Usage: python3 perfbench/worker.py --workload pulse --seed 1 \
    --seconds 10 --trace 0 --out .perfbench_out/pulse-1-0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("stationary", "pulse", "trajectories")
# every run makes at least two rounds, so that it compares the artifacts and
# jump records of rounds made from the same seed and reports wall_s as a
# median of round times; rounds take 12 to 24 s, and a third round would make
# a comparison of two commits (70 runs) last more than its hour
MIN_ROUNDS = 2

N_TRAJ_E00 = 300
N_TRAJ_DARK = 100
N_TRAJ_PULSE = 40


def _cli(name: str, argv: list, jump_log: bool = False) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "jump_log": jump_log}


def build_inputs(workload: str, seed: int) -> list:
    """The workload's operations; every random choice comes from ``seed``."""
    rng = np.random.default_rng(seed)
    s = str(seed)
    if workload == "stationary":
        k2_lo = 0.5 + 0.2 * rng.random()
        k2_hi = 3.5 + 0.5 * rng.random()
        decades = 0.8 + 0.2 * rng.random()
        gamma = reference.setting_rate_elimination(0.05, 1.0, 2.0, 2.0, 10)
        lo, hi = gamma * 10.0**-decades, gamma * 10.0**decades
        ops = [_cli(f"setting_rate_n2_{n2}",
                    ["setting-rate", "--g1", "0.05", "--omega", "2",
                     "--kappa2-grid", f"{k2_lo!r}:{k2_hi!r}:50", "--n2", str(n2), "--seed", s])
               for n2 in (1, 2, 10)]
        ops.append(_cli("reflection",
                        ["reflection", "--g1", "0.05", "--omega", "2", "--kappa2", "2",
                         "--n2", "10", "--n2-reflection", "8",
                         "--kappa1-grid", f"log:{lo!r}:{hi!r}:5", "--seed", s]))
        ops.append(_cli("gain", ["gain", "--omega", "2", "--kappa2", "1", "--n2", "10",
                                 "--sweep", "g1", "0.05:0.3:2", "--seed", s]))
        return ops
    if workload == "pulse":
        return [_cli("pulse_response",
                     ["pulse-response", "--g1", "0.15", "--omega", "2", "--kappa2", "1",
                      "--tau-kappa1", "6", "--n2", "10", "--points", "600", "--tol", "1e-7",
                      "--seed", s])]
    if workload == "trajectories":
        s_e00, s_dark, s_pulse = (int(x) for x in rng.integers(0, 2**31, size=3))
        gamma = reference.setting_rate_elimination(0.25, 1.0, 1.0, 2.0, 10)
        tau = 6.0 / gamma
        return [
            _cli("traj_e00",
                 ["trajectories", "--g1", "0.25", "--omega", "2", "--kappa2", "1",
                  "--n1", "2", "--n2", "16", "--n-traj", str(N_TRAJ_E00), "--duration", "700",
                  "--seed", str(s_e00), "--threads", "1"], jump_log=True),
            _cli("traj_dark",
                 ["dark-counts", "--g1", "0.2", "--omega", "2", "--kappa2", "0.1",
                  "--anharmonicity", "40", "--trajectories", str(N_TRAJ_DARK),
                  "--duration", "10000", "--seed", str(s_dark), "--threads", "1"]),
            {"name": "traj_pulse_input", "kind": "pulse_input_trajectories",
             "g1": 0.25, "omega": 2.0, "kappa2": 1.0, "n1": 1, "n2": 10, "tau": tau,
             "n_traj": N_TRAJ_PULSE, "duration": 9.0 * tau + 400.0, "seed": s_pulse},
        ]
    raise ValueError(f"unknown workload {workload!r}")


def artifact_name(op: dict) -> str:
    suffix = "json" if op["kind"] != "cli" or op["argv"][0] == "trajectories" else "csv"
    return f"{op['name']}.{suffix}"


def run_op(op: dict, rdir: Path) -> bool:
    """Run one operation the way a user would; False if it failed."""
    import spt.cli
    import spt.montecarlo

    out = rdir / artifact_name(op)
    if op["kind"] == "cli":
        argv = op["argv"] + ["-o", str(out)]
        if op["jump_log"]:
            argv += ["--jump-log", str(rdir / f"{op['name']}.jumps.csv")]
        return spt.cli.main(argv) == 0
    from spt import HilbertSpec, PulseSpec, SystemParams

    tau = op["tau"]
    _, trajs = spt.montecarlo.gain_statistics(
        SystemParams(g1=op["g1"], g2=1.0, omega=op["omega"], kappa2=op["kappa2"]),
        op["n_traj"], op["duration"], op["seed"], spec=HilbertSpec(op["n1"], op["n2"]),
        init="single-photon-input", pulse=PulseSpec.from_tau(tau=tau, center_time=4.5 * tau),
        threads=1, return_trajectories=True)
    record = {"counts": [tr.count("kappa2") for tr in trajs],
              "jumps": [tr.jumps for tr in trajs]}
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return True


def digest(rdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(rdir.iterdir())}


def cli_bytes(rdir: Path, ops: list) -> int:
    names = {artifact_name(op) for op in ops if op["kind"] == "cli"}
    names |= {f"{op['name']}.jumps.csv" for op in ops if op["kind"] == "cli" and op["jump_log"]}
    return sum(p.stat().st_size for p in rdir.iterdir() if p.name in names)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    import spt.cli

    if not Path(spt.cli.__file__).resolve().is_relative_to(src):
        print(f"spt was imported from {spt.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = build_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # the parent stops reading stdout after "ready"; keep later output off the pipe
    sys.stdout = sys.stderr

    out = Path(args.out)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rounds, failed_ops, artifact_bytes = [], [], 0
    t_phase = time.perf_counter()
    while True:
        k = len(rounds)
        rdir = out / f"round{k}"
        rdir.mkdir(parents=True)
        times = {}
        for op in ops:
            if tracer is not None:
                tracer.request = f"{k}.{op['name']}"
            t0 = time.perf_counter()
            try:
                ok = run_op(op, rdir)
            except Exception:  # an operation that raises counts as failed; the run goes on
                traceback.print_exc()
                ok = False
            times[op["name"]] = time.perf_counter() - t0
            if not ok:
                failed_ops.append(f"{k}.{op['name']}")
        rounds.append({"times": times, "digest": digest(rdir)})
        artifact_bytes += cli_bytes(rdir, ops)
        if k > 0:
            shutil.rmtree(rdir)
        done = time.perf_counter() - t_phase >= args.seconds
        if done and len(rounds) >= MIN_ROUNDS:
            break

    result = {
        "ops": ops,
        "rounds": rounds,
        "attempted": len(ops) * len(rounds),
        "failed_ops": failed_ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics(len(rounds), artifact_bytes) if tracer else None,
    }
    if tracer is not None:
        tracer.write(out / "trace.jsonl")
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
