"""Continuous-wave single-photon transistor simulator.

A driven three-level artificial atom couples two leaky microwave cavities;
an impedance-matched input photon triggers an avalanche of output photons.
Subpackages cover the truncated Hilbert space, rotating-frame models, dressed
states, effective-operator rates, master-equation dynamics, quantum-jump
Monte-Carlo statistics, and heterodyne detection estimates.
"""

__version__ = "0.1.0"

from .dressed import DressedBasis, dressed_basis, jump_in_dressed_basis
from .dynamics import (PulseSpec, TimeSeries, gain_and_bandwidth, gaussian_pulse,
                       lindblad_propagate, single_photon_response, steady_state_reflection)
from .effective import (RateResult, dark_rates_steady, effective_jump, reflection_analytic,
                        setting_rate, setting_rate_analytic)
from .hilbert import HilbertSpec, HilbertSpace, build_space
from .model import (CollapseSet, DecoherenceParams, SystemParams, collapse_set,
                    hamiltonian_finite_A, hamiltonian_ideal, nonhermitian)
from .montecarlo import (CountStatistics, DarkRateEstimate, Trajectory,
                         dark_count_trajectories, gain_statistics, no_jump_rates,
                         run_trajectory)
