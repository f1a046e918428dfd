import cmath
import math
import random

import pytest

from owfsim.spacevec import (
    OMEGA_BASE_50HZ,
    complex_power,
    to_dq,
    wrap_angle,
)


def test_omega_base_is_50_hz():
    assert OMEGA_BASE_50HZ == pytest.approx(2.0 * math.pi * 50.0, abs=0.0)


def test_dq_alphabeta_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        phi = rng.uniform(-10, 10)
        assert abs(to_dq(v, phi) * cmath.exp(1j * phi) - v) < 1e-12


def test_to_dq_rotates_backwards():
    # A vector aligned with the frame maps onto the real axis.
    phi = 0.7
    v_s = cmath.exp(1j * phi) * 1.3
    v = to_dq(v_s, phi)
    assert v.real == pytest.approx(1.3, abs=1e-12)
    assert v.imag == pytest.approx(0.0, abs=1e-12)


def test_complex_power_hand_value():
    # v conj(i) = (3+4j)(1+2j) = -5 + 10j
    p, q = complex_power(3 + 4j, 1 - 2j)
    assert p == pytest.approx(-5.0, abs=1e-12)
    assert q == pytest.approx(10.0, abs=1e-12)


def test_complex_power_amplitude_invariant_no_3_2_factor():
    # 1 pu voltage with 1 pu in-phase current is exactly 1 pu power.
    p, q = complex_power(1 + 0j, 1 + 0j)
    assert p == 1.0 and q == 0.0


def test_complex_power_frame_invariant():
    rng = random.Random(2)
    for _ in range(100):
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        i = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        phi = rng.uniform(-7, 7)
        p0, q0 = complex_power(v, i)
        p1, q1 = complex_power(to_dq(v, phi), to_dq(i, phi))
        assert p0 == pytest.approx(p1, abs=1e-12)
        assert q0 == pytest.approx(q1, abs=1e-12)


def test_wrap_angle_range_and_congruence():
    rng = random.Random(3)
    for _ in range(500):
        phi = rng.uniform(-50, 50)
        w = wrap_angle(phi)
        assert -math.pi < w <= math.pi
        assert math.remainder(w - phi, math.tau) == pytest.approx(0.0, abs=1e-9)


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(math.tau)) < 1e-15

