"""Unit conversion of laboratory 2*pi*MHz inputs to dimensionless (g2 = 1) values.

All internal computation runs in units of the strong cavity coupling g2.  A
frequency quoted as "2*pi x f MHz" maps to the dimensionless value f / g2_mhz.
Only the ratio matters, so the 2*pi is never applied explicitly.
"""

from __future__ import annotations


def to_g2_units(value_mhz: float, g2_mhz: float) -> float:
    """Convert a rate/frequency given as 2*pi x MHz to units of g2."""
    if g2_mhz <= 0:
        raise ValueError("g2 reference frequency must be positive")
    return value_mhz / g2_mhz
