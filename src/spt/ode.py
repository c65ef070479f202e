"""Explicit ODE stepping and bracketed root finding, in numpy alone.

``DOP853`` is the Dormand-Prince 8(5,3) pair with its 7th-order dense output
(Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.10), and ``brentq`` is
Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
1973, ch. 4).  Each repeats the arithmetic of scipy 1.17.1's
``scipy.integrate.DOP853`` and ``scipy.optimize.brentq`` operation for
operation, so its steps, right-hand-side calls, dense output and roots are
scipy's bit for bit (tests/test_ode.py holds them to it).  spt imports
neither scipy module: with the modules they load (scipy.special,
scipy.spatial, scipy.fft, ...) they cost a process about 18 MB and 0.2 s.

``DOP853`` replays scipy only for what spt integrates, a complex state
stepped forward over a span of nonzero length.  scipy's real-state, backward
and zero-length branches are left out: a real ``y0`` is stepped as complex,
and a span that is empty or runs backward is refused (ValueError).

The other departure is the tolerance: scipy warns about an rtol below 100 eps
and runs at 100 eps instead; ``DOP853`` refuses it (ValueError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
MIN_RTOL = 100 * EPS    # the smallest relative tolerance DOP853 can honour

# The DOP853 tableau below is copied from scipy/integrate/_ivp/dop853_coefficients.py:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
              0.1, 0.2, 0.777777777777777777777777777778])
# row s of A up to its last nonzero entry; the rest are zeros
A = np.array([row + [0] * (N_STAGES_EXTENDED - len(row)) for row in [
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
        -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
        1.89151789931450038304281599044, -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0, 2.53500210216624811088794765333e-1,
        -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
        1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
        7.56789766054569976138603589584e-3, -8.298e-3],
    [3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
        5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
        -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
        7.68342119606259904184240953878, 4.06898981839711007970213554331,
        3.56727187455281109270669543021e-1, 0, 0, 0, -1.39902416515901462129418009734e-3,
        2.9475147891527723389556272149, -9.15095847217987001081870187138],
]])
B = A[N_STAGES, :N_STAGES]
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0,
               -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
               0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
               0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
               -0.2235530786388629525884427845e-1, 0])
# the first 3 coefficients of the interpolant are computed separately
D = np.array([
    [-0.84289382761090128651353491142e+1, 0, 0, 0, 0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0, 0, 0, 0, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0, 0, 0, 0, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0, 0, 0, 0, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
])

_A_ROWS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]   # the coefficients of stage s

# step-size control
SAFETY = 0.9         # factor on the step the error asymptotics suggest
MIN_FACTOR = 0.2     # least factor on a rejected step
MAX_FACTOR = 10      # largest factor on an accepted one
ERROR_EXPONENT = -1 / 8   # -1 / (error estimator order 7 + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True)
class _CompactLayout:
    """Where the entries of a compact ODE state sit in a full state of length n
    whose other entries stay exactly zero.

    ``slots[q]`` is the full index of compact entry q, or n for padding.  The
    evolved entries below the full state's last (n mod 16) come first, in
    full-index order, zero-padded to a multiple of 16; those last (n mod 16)
    full entries follow, evolved or not.  OpenBLAS's zgemv, which forms
    DOP853's stage sums, computes the last (rows mod 4) rows by a different
    path than the others, so this layout gives every entry the path, and so
    the bits, that it has in the full state.
    """

    slots: np.ndarray
    n: int

    @classmethod
    def of(cls, keep: np.ndarray, n: int) -> "_CompactLayout":
        """The layout for the sorted full indices ``keep`` of a length-n state."""
        tail = n - n % 16
        main = keep[keep < tail]
        return cls(np.concatenate([main, np.full(-len(main) % 16, n), np.arange(tail, n)]), n)

    def positions(self, keep: np.ndarray) -> np.ndarray:
        """The compact position of each full index in ``keep``."""
        at = np.empty(self.n + 1, dtype=np.intp)
        at[self.slots] = np.arange(len(self.slots))
        return at[keep]

    def full(self, v: np.ndarray) -> np.ndarray:
        """The full-length vector of the compact ``v``."""
        out = np.zeros(self.n + 1, dtype=v.dtype)
        out[self.slots] = v
        return out[:-1]

    def compact(self, y: np.ndarray) -> np.ndarray:
        """The compact vector of the full-length ``y``."""
        return np.append(y, 0)[self.slots]


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step size: Hairer, Norsett & Wanner, sec. II.4, as scipy's
    ``select_initial_step`` takes it (error estimator order 7, no max step)."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


class DOP853:
    """DOP853 forward from ``t0`` to ``t_bound``, one adaptive step a
    ``step()`` call, with scipy's interface to it: ``t``, ``t_old``, ``y``,
    ``status`` ('running', 'finished' or 'failed'), ``nfev`` and
    ``dense_output()``, and the accepted and rejected tries of all steps so
    far (``accepted``, ``rejected``).  The state is complex (``y0`` is taken
    as complex); ``atol`` is a scalar.  ValueError for ``t_bound <= t0``, an
    ``rtol`` below 100 eps, a negative ``atol`` or a ``y0`` that is not 1-D
    and finite.

    With a ``layout`` (``_CompactLayout``), ``fun`` and ``y0`` live on its
    compact state, and the steps are, bit for bit, those of the full state
    whose other entries stay zero.  Every vector operation acts entry by
    entry, or (the stage sums) through zgemv, whose bits the layout keeps.
    Only the initial step and the error norm sum over the whole state; both
    are taken over the full length, from the compact vectors scattered into
    zeros, because numpy's norm sums with a strided dot product whose
    rounding depends on each entry's place.
    """

    def __init__(self, fun, t0: float, y0, t_bound: float, rtol: float = 1e-3,
                 atol: float = 1e-6, layout: _CompactLayout | None = None):
        y0 = np.asarray(y0, dtype=complex)
        if not t_bound > t0:
            raise ValueError(f"t_bound must be after t0, got t0={t0!r}, t_bound={t_bound!r}")
        if y0.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if rtol < MIN_RTOL:
            raise ValueError(f"rtol must be at least 100 eps = {MIN_RTOL!r}, got {rtol!r}")
        if atol < 0:
            raise ValueError(f"atol must be >= 0, got {atol!r}")
        self._fun, self.layout = fun, layout
        self.t, self.y, self.t_bound, self.t_old = t0, y0, t_bound, None
        self.rtol, self.atol = rtol, atol
        self.n = y0.size
        self.status = "running"
        self.nfev = self.accepted = self.rejected = 0
        self.f = self.fun(t0, y0)
        if layout is None:
            self.h_abs = _initial_step(self.fun, t0, y0, t_bound, self.f, rtol, atol)
        else:
            self.h_abs = _initial_step(
                lambda t, y: layout.full(self.fun(t, layout.compact(y))), t0,
                layout.full(y0), t_bound, layout.full(self.f), rtol, atol)
            # full-length scatter targets of the error estimate; slot n takes the padding
            self._err5 = np.zeros(layout.n + 1, dtype=complex)
            self._err3 = np.zeros(layout.n + 1, dtype=complex)
        self.K_extended = np.empty((N_STAGES_EXTENDED, self.n), dtype=complex)
        self.K = self.K_extended[:N_STAGES + 1]
        self.y_old = self.h_previous = None

    def fun(self, t, y) -> np.ndarray:
        """The right-hand side at (t, y), counted in ``nfev``."""
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=complex)

    def _error_norm(self, h, scale):
        """The error estimate's norm, blending the 5th- and 3rd-order estimators."""
        err5 = np.dot(self.K.T, E5) / scale
        err3 = np.dot(self.K.T, E3) / scale
        n = len(scale)
        if self.layout is not None:
            slots, n = self.layout.slots, self.layout.n
            self._err5[slots] = err5
            self._err3[slots] = err3
            err5, err3 = self._err5[:-1], self._err3[:-1]
        err5_norm_2 = np.linalg.norm(err5) ** 2
        err3_norm_2 = np.linalg.norm(err3) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return h * err5_norm_2 / np.sqrt(denom * n)

    def step(self) -> str | None:
        """Take one step, trying smaller ones until the error estimate passes;
        return the failure message (status 'failed'), or None."""
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished solver.")
        t, y, K = self.t, self.y, self.K
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new > self.t_bound:
                t_new = self.t_bound
            h = h_abs = t_new - t

            K[0] = self.f
            for s in range(1, N_STAGES):
                dy = np.dot(K[:s].T, _A_ROWS[s]) * h
                K[s] = self.fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = self.fun(t + h, y_new)
            K[-1] = f_new

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
            self.rejected += 1

        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        if step_rejected:
            factor = min(1, factor)
        self.accepted += 1
        self.h_previous, self.y_old, self.t_old = h, y, t
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs * factor, f_new
        if t_new >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self):
        """The interpolant over the last step, a callable of a scalar or 1-D t."""
        if self.t_old is None:
            raise RuntimeError("Dense output is available after a successful step was made.")
        K, h = self.K_extended, self.h_previous
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            dy = np.dot(K[:s].T, _A_ROWS[s]) * h
            K[s] = self.fun(self.t_old + C[s] * h, self.y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, self.n), dtype=complex)
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)
        return _DenseOutput(self.t_old, self.t, self.y_old, F)


class _DenseOutput:
    """DOP853's 7th-order interpolant over one step, in Horner form."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.h, self.y_old, self.F = t_old, t - t_old, y_old, F

    def __call__(self, t):
        """y(t) for a scalar t; the columns y(t[m]) for a 1-D t."""
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)), dtype=complex)
        for i, f in enumerate(reversed(self.F)):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old
        return y.T


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * EPS,
           maxiter: int = 100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, to
    within xtol + rtol |x|: scipy's brentq (its C routine), step for step.

    ValueError for xtol <= 0, rtol < 4 eps, f(a) and f(b) of one sign, or a
    NaN value of f; RuntimeError when ``maxiter`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol, xpre, xcur = float(xtol), float(rtol), float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
