"""Recompute reference.PULSE_INPUT_HIERARCHY_GAIN with spt's pulse hierarchy.

Usage (from the root of a checkout, about 10 s):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/recompute_pulse_gain.py

Prints the gain of spt.single_photon_response at the settings of the
pulse-input trajectories in worker.py.  That gain is the reference of the
trajectory check, so it is computed with the hierarchy, not the sampler.
"""

import numpy as np

import reference
from spt import HilbertSpec, PulseSpec, SystemParams, single_photon_response

p = SystemParams(g1=0.25, g2=1.0, omega=2.0, kappa2=1.0)
gamma = reference.setting_rate_elimination(0.25, 1.0, 1.0, 2.0, 10)
tau = 6.0 / gamma
res = single_photon_response(p.replace(kappa1=gamma), PulseSpec.from_tau(tau, 4.5 * tau),
                             np.linspace(0.0, 9.0 * tau, 600), spec=HilbertSpec(1, 10), tol=1e-7)
print(repr(res.gain))
