"""The trajectory jump loop before its per-jump trims, frozen as a bitwise oracle.

``run_trajectory`` here is spt.montecarlo's with the propagator arithmetic
written out (-1j * evals * dt, M @ x), Newton on every eigencomponent with the
whole Gram matrix, the search's counters bumped as they happen, and the jump
channel drawn by Generator.choice.  The library loop must give its jump records
and final norms bit for bit.  It shares with the library only what those trims
left alone: ``PulsePath``, ``EigenPropagator``'s matrices and ``margin``, and
the input parsing.
"""

import math
import warnings
from collections import Counter

import numpy as np

import spt.montecarlo as mc
from spt.dynamics import gaussian_pulse


def _state(prop, z0, dt):
    return prop.evecs @ (np.exp(-1j * prop.evals * dt) * z0)


def _norm_sq(prop, z0, dt):
    v = _state(prop, z0, dt)
    return float(np.real(np.vdot(v, v)))


def _norm_and_slope(prop, z0, dt):
    w = np.exp(-1j * prop.evals * dt) * z0
    gw = prop.gram @ w
    return float(np.vdot(w, gw).real), 2.0 * float(np.vdot(gw, -1j * prop.evals * w).real)


def _jump_time(prop, z0, span, u, stats):
    def norm_sq(s):
        stats["norm_evals"] += 1
        return _norm_sq(prop, z0, s)

    lo, hi, s, n0, root = 0.0, span, 0.0, None, None
    s_prev = dn_prev = math.nan
    for _ in range(mc._NEWTON_STEPS):
        stats["newton_steps"] += 1
        n, dn = _norm_and_slope(prop, z0, s)
        n0 = n if n0 is None else n0
        lo, hi = (s, hi) if n >= u else (lo, s)
        log_ratio = math.log(n / u) if n > 0 else -math.inf
        nxt = s - log_ratio * n / dn if dn < 0 else math.nan
        if (abs(log_ratio) <= mc._NEWTON_TOL and lo <= nxt <= hi
                and abs(dn - dn_prev) * (nxt - s)**2 <= n0 * prop.margin(s) / 4 * abs(s - s_prev)):
            root = nxt
            break
        s_prev, dn_prev = s, dn
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    a, b = -math.inf, math.inf
    for widening in range(mc._WIDENINGS if root is not None else 0):
        scale = 2.0 * 4.0**widening * n0 / -dn
        far = scale * prop.margin(span)
        m = n0 * prop.margin(root + far)
        delta = scale * m / n0
        if ((root - delta <= 0 or norm_sq(root - delta) >= u + m)
                and (root + delta >= span or norm_sq(root + delta) < u - m)
                and (root + far >= span or norm_sq(root + far) < u - n0 * prop.margin(span))):
            a, b = root - delta, root + delta
            break
    else:
        stats["search_fallbacks"] += 1
    lo, hi = 0.0, span
    while hi - lo > mc._TIME_REFINE * max(hi, 1e-6):
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and norm_sq(mid) >= u):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_trajectory(h_nh, collapses, init, duration, seed, pulse=None, space=None,
                   propagator=None, pulse_path=None):
    """One trajectory from the Philox stream ``seed`` = (base_seed, index)."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed[0]), int(seed[1])]))
    labels, mats = list(collapses), list(collapses.values())

    t, t_end = 0.0, float(duration)
    pulse_mode = isinstance(init, str) and init == "single-photon-input"
    if pulse_mode:
        _, _, g00 = mc._photon_port(collapses, space, pulse)
        if pulse_path is None:
            pulse_path = mc.PulsePath(h_nh, collapses, space, pulse, t, t_end)
        psi = np.zeros(space.dim, dtype=complex)
        k1_idx = labels.index("kappa1")
        q = 1.0
    else:
        psi = (mc._parse_init(init, space) if space is not None
               else np.asarray(init, dtype=complex))
        q = 0.0

    prop = propagator if propagator is not None else mc.EigenPropagator(h_nh)
    if not prop.ok:
        warnings.warn("ill-conditioned eigendecomposition: using ODE stepping", stacklevel=2)

    jumps = []
    stats = Counter()

    def total_norm_sq(vec, q_, time_):
        n = float(np.real(np.vdot(vec, vec)))
        if q_ > 0:
            n += q_ * q_ * pulse.remaining_norm(time_)
        return n

    def do_jump(vec, q_, time_):
        jumped = [c @ vec for c in mats]
        if q_ > 0:
            jumped[k1_idx] = jumped[k1_idx] + q_ * float(gaussian_pulse(pulse, time_)) * g00
        rates = np.array([float(np.real(np.vdot(cv, cv))) for cv in jumped])
        tot = rates.sum()
        if tot <= 0:
            return None
        k = int(rng.choice(len(rates), p=rates / tot))
        cv = jumped[k] / np.linalg.norm(jumped[k])
        jumps.append((time_, labels[k]))
        return cv

    while t < t_end:
        start_norm = total_norm_sq(psi, q, t)
        if start_norm <= 0:
            break
        u = rng.random() * start_norm

        in_pulse = q > 0 and pulse.remaining_norm(t) > mc._PULSE_TAIL_CUTOFF
        if in_pulse or not prop.ok:
            path = pulse_path if in_pulse else mc.PulsePath(h_nh, collapses, space, None, t,
                                                            t_end, psi0=psi)
            t_jump, psi_pre, crossed = path.crossing(u)
            if not crossed:
                psi, t = psi_pre, t_end
                break
        else:
            z0 = prop.inv @ psi
            remaining = t_end - t
            stats["norm_evals"] += 1
            if _norm_sq(prop, z0, remaining) >= u:
                psi = _state(prop, z0, remaining)
                t = t_end
                break
            elapsed = _jump_time(prop, z0, remaining, u, stats)
            t_jump = t + elapsed
            psi_pre = _state(prop, z0, elapsed)

        new = do_jump(psi_pre, q, t_jump)
        if new is None:
            t = t_end
            break
        psi, q, t = new, 0.0, t_jump

    return mc.Trajectory(jumps=jumps, duration=duration,
                         final_norm_accounting=total_norm_sq(psi, q, t), **stats)
