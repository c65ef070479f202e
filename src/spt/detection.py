"""Heterodyne detection statistics of the multimode gain output.

The squared-and-summed difference-photocurrent observable over M frequency
modes has vacuum mean M and variance M (Gaussian by the central limit), and
mean 2N + M for a non-squeezed output carrying N photons.  A detection is
declared when the observable exceeds the vacuum mean by zeta * sqrt(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import trajectory_rng


@dataclass
class DetectionParams:
    gain: float                    # mean output photon number N
    modes: int                     # number of frequency modes M
    zeta: float                    # threshold parameter: detect if O - M > zeta sqrt(M)
    signal_model: str = "exponential"   # or "empirical_histogram"
    histogram: dict | None = None       # count -> frequency, for the empirical model

    def __post_init__(self):
        for name in ("gain", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gain < 0:
            raise ValueError("gain must be >= 0")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.zeta < 0:
            raise ValueError("zeta must be >= 0")
        if self.signal_model not in ("exponential", "empirical_histogram"):
            raise ValueError(f"unknown signal model {self.signal_model!r}")
        if self.signal_model == "empirical_histogram":
            if not self.histogram:
                raise ValueError("empirical model requires a histogram")
            freqs = list(self.histogram.values())
            if not (all(math.isfinite(f) and f >= 0 for f in freqs) and sum(freqs) > 0):
                raise ValueError("histogram frequencies must be finite and >= 0 with a "
                                 f"positive total, got {self.histogram}")


@dataclass
class DetectionPerformance:
    efficiency: float
    dark_probability: float

    def __post_init__(self):
        if not (0 <= self.efficiency <= 1 and 0 <= self.dark_probability <= 1):
            raise ValueError("efficiency and dark probability must lie in [0, 1]")


def detection_performance(params: DetectionParams) -> DetectionPerformance:
    """Threshold efficiency and vacuum dark-count probability.

    dark = P(Gaussian(M, M) - M > zeta sqrt(M)) = Q(zeta); efficiency for the
    worst-case exponential count model with mean 2 * gain is
    exp(-zeta sqrt(M) / (2 gain)); the empirical model thresholds the count
    histogram mapped through the 2N + M observable mean.
    """
    dark = 0.5 * math.erfc(params.zeta / math.sqrt(2.0))
    threshold = params.zeta * math.sqrt(params.modes)
    if params.signal_model == "exponential":
        if params.gain <= 0:
            eff = 1.0 if params.zeta == 0 else 0.0
        else:
            eff = math.exp(-threshold / (2.0 * params.gain))
    else:
        total = sum(params.histogram.values())
        above = sum(freq for count, freq in params.histogram.items()
                    if 2.0 * count > threshold)
        eff = above / total
    return DetectionPerformance(efficiency=eff, dark_probability=dark)


def sample_observable(
    modes: int,
    gain: float = 0.0,
    n_samples: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Direct Monte-Carlo sampling of the observable.

    Each mode contributes |g_k + s_k|^2 with g_k standard complex Gaussian
    (vacuum) and coherent amplitudes s_k spread evenly so sum |s_k|^2 = 2 N.
    The samples come from the Philox stream (seed, 0), so ValueError for a
    seed outside [-2**63, 2**63).
    """
    rng = trajectory_rng(seed, 0)
    g = (rng.standard_normal((n_samples, modes))
         + 1j * rng.standard_normal((n_samples, modes))) / math.sqrt(2.0)
    s = math.sqrt(2.0 * gain / modes) if gain > 0 else 0.0
    return np.sum(np.abs(g + s) ** 2, axis=1)


def roc_sweep(gain: float, modes: int, zetas) -> list:
    """(zeta, efficiency, dark_probability) rows for a threshold sweep."""
    rows = []
    for z in zetas:
        perf = detection_performance(DetectionParams(gain=gain, modes=modes, zeta=float(z)))
        rows.append((float(z), perf.efficiency, perf.dark_probability))
    return rows
