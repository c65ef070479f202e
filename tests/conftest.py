import warnings

import hypothesis
import numpy as np
import pytest

from spt.dynamics import PulseSpec, single_photon_response
from spt.effective import setting_rate
from spt.hilbert import HilbertSpec
from spt.model import SystemParams

hypothesis.settings.register_profile("deterministic", derandomize=True)
hypothesis.settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _quiet_expected_warnings():
    # perturbativity and truncation advisories fire by design in several
    # stress-parameter tests; keep the signal-to-noise of the output high
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="g1 is not perturbative")
        yield


@pytest.fixture(scope="session")
def criterion_4_response():
    """(params, result) of acceptance criterion 4's pulse, tau kappa1 = 6 at
    g1 = 0.05 on (1,10), run once for the criterion and for the pulse tail's
    kept-entry test."""
    p0 = SystemParams(g1=0.05, g2=1, omega=2, kappa2=1)
    p = p0.replace(kappa1=setting_rate(p0, 10).value)
    tau = 6.0 / p.kappa1
    pulse = PulseSpec.from_tau(tau=tau, center_time=4.5 * tau)
    grid = np.linspace(0.0, 9.0 * tau, 1400)
    return p, single_photon_response(p, pulse, grid, spec=HilbertSpec(1, 10), tol=1e-7)
