"""Complex space-vector algebra and the per-unit conventions used everywhere else.

A three-phase quantity is represented as a single complex number, either in the
stationary (alpha-beta) frame or in a synchronous (dq) frame.  Amplitude-invariant
scaling is used throughout: |v| = 1 pu means rated peak phase voltage, so
P = Re{v i*} holds without a 3/2 factor.

Electrical quantities are per-unit; time is kept in SI seconds, so a pu
inductance L enters the dynamics as L / omega_base.
"""
from __future__ import annotations

import cmath
import math

# 1 pu frequency for a 50 Hz system, rad/s
OMEGA_BASE_50HZ = 2.0 * math.pi * 50.0

# A space vector is just a complex number; the alias marks intent in signatures.
SpaceVector = complex


def to_dq(v_s: SpaceVector, phi: float) -> SpaceVector:
    """Map a stationary-frame vector into the dq frame at angle phi: v = v_s e^{-j phi}."""
    return v_s * cmath.exp(-1j * phi)


def complex_power(v: SpaceVector, i: SpaceVector) -> tuple[float, float]:
    """Return (P, Q) = (Re, Im) of v conj(i).

    Invariant under joint rotation of v and i, so the result is the same in the
    stationary and synchronous frames as long as both vectors use the same one.
    """
    s = v * i.conjugate()
    return s.real, s.imag


def wrap_angle(phi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(phi, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r
