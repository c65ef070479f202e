"""Spans and counters around spt's public functions, installed from outside.

Nothing in src/spt is edited: after spt.cli has been imported, each traced
function is replaced, in every spt module that holds a reference to it, by a
wrapper that opens a span.  Sparse direct solvers are wrapped on
scipy.sparse.linalg itself, so a later switch between spsolve, splu and
factorized stays counted.  Hot inner helpers (HilbertSpace.index and .labels,
the pulse envelope) are not wrapped; EigenPropagator.norm_sq only bumps a
counter.

A span's self time is its duration minus the time covered by its child spans;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions wrapped as spans of that layer
_FUNCTIONS = {
    "hilbert": ("build_space", "is_hermitian"),
    "model": ("hamiltonian_ideal", "hamiltonian_finite_A", "collapse_set", "nonhermitian",
              "residual_drive_element"),
    "effective": ("effective_jump", "setting_rate", "setting_rate_analytic",
                  "reflection_analytic", "dark_rates_steady", "dynamical_dark_correction"),
    "dynamics": ("liouvillian", "steady_state", "integrated_observable", "lindblad_propagate",
                 "steady_state_reflection", "single_photon_response", "gain_and_bandwidth",
                 "gain_resolvent"),
    "montecarlo": ("run_trajectory", "run_ensemble", "gain_statistics",
                   "dark_count_trajectories", "no_jump_rates", "trajectories_to_csv"),
    "cli": ("main",),
}
_HILBERT_METHODS = ("annihilation", "number", "qutrit_op", "qutrit_projector", "basis_state",
                    "label_names")
_LU_FUNCTIONS = ("spsolve", "splu", "factorized")

_COUNTS = (
    "hilbert.calls", "model.calls", "effective.setting_rate.calls",
    "dynamics.ode.solves", "dynamics.ode.rhs_evals", "dynamics.ode.jac_lu",
    "dynamics.ode.state_dim", "dynamics.lu.count", "dynamics.liouvillian.calls",
    "dynamics.liouvillian.nnz", "montecarlo.trajectories", "montecarlo.jumps",
    "montecarlo.norm_evals", "montecarlo.eig_builds", "montecarlo.ode.rhs_evals",
)
_TIMES = (
    "hilbert.s", "model.s", "effective.s", "dynamics.ode.s", "dynamics.lu.s",
    "dynamics.liouvillian.s", "dynamics.s", "montecarlo.run_trajectory.s", "montecarlo.eig_s",
    "montecarlo.dark_count_trajectories.self_s", "montecarlo.s", "cli.s",
)
# per-layer metric -> unit
PER_LAYER = {**{n: "count" for n in _COUNTS}, **{n: "s" for n in _TIMES},
             "montecarlo.norm_evals_per_jump": "evals/jump", "cli.artifact_bytes": "bytes"}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [name, layer, request, start, end, parent, child_time]
        self._stack = []
        self.request = ""
        self.counts = Counter()
        self.state_dim = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.request, time.perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        self._stack.pop()
        if span[5] >= 0:
            self.spans[span[5]][6] += span[4] - span[3]

    def wrap(self, fn, name: str, layer: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap spt's public functions, solve_ivp and the sparse direct solvers."""
        import scipy.sparse.linalg as spla

        import spt.hilbert
        import spt.montecarlo

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spt" or name.startswith("spt."))]

        def replace_everywhere(orig, wrapped):
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

        for layer, names in _FUNCTIONS.items():
            mod = sys.modules[f"spt.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                replace_everywhere(orig, self.wrap(orig, f"{layer}.{name}", layer,
                                                   self._on_result(f"{layer}.{name}")))
        space_cls = spt.hilbert.HilbertSpace
        for name in _HILBERT_METHODS:
            setattr(space_cls, name, self.wrap(getattr(space_cls, name),
                                               f"hilbert.{name}", "hilbert"))

        prop_cls = spt.montecarlo.EigenPropagator
        prop_cls.__init__ = self.wrap(prop_cls.__init__, "montecarlo.eig", "montecarlo")
        norm_sq = prop_cls.norm_sq
        counts = self.counts

        def counted_norm_sq(self_, z0, dt):
            counts["montecarlo.norm_evals"] += 1
            return norm_sq(self_, z0, dt)

        prop_cls.norm_sq = counted_norm_sq

        for layer in ("dynamics", "montecarlo"):
            mod = sys.modules[f"spt.{layer}"]
            mod.solve_ivp = self.wrap(mod.solve_ivp, f"{layer}.ode", layer,
                                      self._on_result(f"{layer}.ode"))
        for name in _LU_FUNCTIONS:
            setattr(spla, name, self.wrap(getattr(spla, name), "dynamics.lu", "dynamics"))

    def _on_result(self, name: str):
        counts = self.counts
        if name == "dynamics.liouvillian":
            return lambda res, _args: counts.update({"dynamics.liouvillian.nnz": res.nnz})
        if name == "montecarlo.run_trajectory":
            return lambda res, _args: counts.update({"montecarlo.jumps": len(res.jumps)})
        if name.endswith(".ode"):
            def ode(res, args):
                counts[f"{name}.rhs_evals"] += res.nfev
                counts[f"{name}.jac_lu"] += res.nlu
                if name == "dynamics.ode":
                    self.state_dim = max(self.state_dim, len(args[2]))
            return ode
        return None

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int, artifact_bytes: int) -> dict:
        """Every PER_LAYER metric, counts and times as means per round."""
        calls = Counter()
        incl = defaultdict(float)
        self_by_name = defaultdict(float)
        self_by_layer = defaultdict(float)
        for name, layer, _req, start, end, _parent, child in self.spans:
            calls[name] += 1
            calls[layer] += 1
            incl[name] += end - start
            self_by_name[name] += end - start - child
            self_by_layer[layer] += end - start - child
        c = self.counts
        total = {
            "hilbert.calls": calls["hilbert"],
            "hilbert.s": self_by_layer["hilbert"],
            "model.calls": calls["model"],
            "model.s": self_by_layer["model"],
            "effective.setting_rate.calls": calls["effective.setting_rate"],
            "effective.s": self_by_layer["effective"],
            "dynamics.ode.solves": calls["dynamics.ode"],
            "dynamics.ode.rhs_evals": c["dynamics.ode.rhs_evals"],
            "dynamics.ode.jac_lu": c["dynamics.ode.jac_lu"],
            "dynamics.ode.s": incl["dynamics.ode"],
            "dynamics.lu.count": calls["dynamics.lu"],
            "dynamics.lu.s": incl["dynamics.lu"],
            "dynamics.liouvillian.calls": calls["dynamics.liouvillian"],
            "dynamics.liouvillian.nnz": c["dynamics.liouvillian.nnz"],
            "dynamics.liouvillian.s": incl["dynamics.liouvillian"],
            "dynamics.s": self_by_layer["dynamics"],
            "montecarlo.trajectories": calls["montecarlo.run_trajectory"],
            "montecarlo.jumps": c["montecarlo.jumps"],
            "montecarlo.norm_evals": c["montecarlo.norm_evals"],
            "montecarlo.run_trajectory.s": incl["montecarlo.run_trajectory"],
            "montecarlo.eig_builds": calls["montecarlo.eig"],
            "montecarlo.eig_s": incl["montecarlo.eig"],
            "montecarlo.dark_count_trajectories.self_s":
                self_by_name["montecarlo.dark_count_trajectories"],
            "montecarlo.ode.rhs_evals": c["montecarlo.ode.rhs_evals"],
            "montecarlo.s": self_by_layer["montecarlo"],
            "cli.s": self_by_layer["cli"],
            "cli.artifact_bytes": artifact_bytes,
        }
        out = {name: val / rounds for name, val in total.items()}
        out["dynamics.ode.state_dim"] = self.state_dim
        jumps = c["montecarlo.jumps"]
        out["montecarlo.norm_evals_per_jump"] = c["montecarlo.norm_evals"] / jumps if jumps else 0.0
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, layer, request, start, end, parent, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, req, start, end, parent, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "request": req,
                                     "start": start, "end": end, "parent": parent,
                                     "self_s": end - start - child}) + "\n")
