import cmath
import math
import random
import struct

import numpy as np
import pytest

import owfsim.plant as pm
from owfsim.plant import (
    DruModel,
    HvdcLink,
    OnshoreSource,
    PlantModel,
    PlantParams,
    StringElectrical,
    derivatives,
    initial_state,
    onshore_gains,
    stored_energy,
)
from owfsim.sim import _rk4_step


def default_params(n=2):
    return PlantParams(strings=[StringElectrical() for _ in range(n)],
                       n_wt=[36, 38][:n])


def test_state_layout():
    p = default_params()
    assert state_size(p) == 3 * 2 + 1 + pm.N_DC_STATES
    y = initial_state(p)
    assert len(y) == state_size(p)
    assert all(v == 0 for v in y)


def test_s_frac_sums_to_one_and_matches_ratings():
    p = default_params()
    assert sum(p.s_frac) == pytest.approx(1.0, abs=1e-15)
    assert p.s_frac[0] == pytest.approx(36 / 74)


def test_c_bus_aggregates_shunts():
    p = default_params()
    expected = p.comp_cap + sum(s.cable_c * f for s, f in zip(p.strings, p.s_frac))
    assert p.c_bus == pytest.approx(expected)
    p.comp_cap_enabled = False
    assert p.c_bus == pytest.approx(expected - p.comp_cap)


def test_dead_network_is_an_equilibrium():
    # All-zero state with zero converter voltage must have zero derivatives:
    # in particular the onshore regulator must not wind up or inject while the
    # link is dead and it is forbidden from energizing.
    p = default_params()
    dy = derivatives(PlantModel(p), 0.1234, initial_state(p), [0j, 0j])
    assert all(abs(v) == 0.0 for v in dy)


def test_rectifier_threshold():
    dru = DruModel()
    v_thresh = 1.0 / dru.k_dru
    assert rectifier_current(dru, v_thresh - 0.05, 1.0) == 0.0
    above = rectifier_current(dru, v_thresh + 0.05, 1.0)
    assert above == pytest.approx(dru.k_dru * 0.05 / dru.r_comm)


def test_dru_step_power_consistency():
    dru = DruModel()
    v_off = 0.9 * cmath.exp(1j * 0.3)
    i_dc = rectifier_current(dru, abs(v_off), 1.0)
    assert i_dc > 0.0
    v_rect, i_sink = dru_step(dru, v_off, i_dc)
    p_ac = (v_off * i_sink.conjugate()).real
    q_ac = (v_off * i_sink.conjugate()).imag
    assert p_ac == pytest.approx(v_rect * i_dc, rel=1e-12)  # lossless commutation
    assert q_ac == pytest.approx(dru.kappa_q * p_ac, rel=1e-12)


def test_dru_step_blocked_draws_nothing():
    dru = DruModel()
    v_rect, i_sink = dru_step(dru, 0.5 + 0j, 0.0)
    assert i_sink == 0j
    assert v_rect == pytest.approx(dru.k_dru * 0.5)


def test_onshore_source_absorb_only():
    model = PlantModel(default_params())
    # Below the setpoint the raw command is negative: clamped to zero.
    assert model.onshore_source(0.5, 0.0, 0.0)[0] == 0.0
    # Above the setpoint it absorbs.
    assert model.onshore_source(1.1, 0.0, 0.0)[0] > 0.0
    p = default_params()
    p.onshore = OnshoreSource(energize_allowed=True)
    assert PlantModel(p).onshore_source(0.5, 0.0, 0.0)[0] < 0.0


def test_energizing_onshore_source_removes_steady_state_error():
    # A constant drain on the onshore DC node (standing in for link losses)
    # must be supplied by a source allowed to energize.  Its PI regulator
    # then has to integrate down to a negative output; freezing the
    # integrator whenever the output is negative, as if it were clamped,
    # would leave a proportional-only error of i_drain / kp.
    p = default_params()
    p.onshore = OnshoreSource(energize_allowed=True, feedforward=False)
    model = PlantModel(p)
    i_drain, h = 0.2, 1e-5
    v_on, x_on = model.v_ref, 0.0
    for _ in range(int(round(1.0 / h))):  # 1 s: tens of closed-loop time constants
        i_src, d_xon = model.onshore_source(v_on, x_on, 0.0)
        v_on += h * (-i_drain - i_src) / model.c_on
        x_on += h * d_xon
    assert i_src == pytest.approx(-i_drain, abs=1e-6)
    assert v_on == pytest.approx(model.v_ref, abs=1e-6)
    assert i_drain / model.kp > 1e-2  # the error a frozen integrator would keep


def test_dc_cable_current_clamped_nonnegative():
    p = default_params()
    y = initial_state(p)
    y[3 * 2 + 2] = -0.3
    pm.clamp_state(PlantModel(p), y)
    assert y[3 * 2 + 2] == 0.0


def test_string_branch_matches_linear_oracle():
    """RK4 trajectory of one de-coupled string against an exact matrix
    exponential of the same linear system (stiff bus at zero volts)."""
    p = PlantParams(strings=[StringElectrical()], n_wt=[36], stiff_bus_voltage=0.0)
    s = p.strings[0]
    w = p.omega_base
    # states: i_conv, v_pcc, i_cable; input: v_conv (constant phasor at t=0,
    # rotating at w inside the hold, matching plant.derivatives)
    a = np.array([
        [-w * s.r_f / s.l_f, -w / s.l_f, 0.0],
        [w / s.c_pcc, 0.0, -w / s.c_pcc],
        [0.0, w / s.cable_l, -w * s.cable_r / s.cable_l],
    ], dtype=complex)

    v_hold = 0.5 + 0.2j
    t_end, h = 2e-3, 5e-6
    n = int(round(t_end / h))

    # oracle: augment the rotating input as an extra state with derivative j*w
    aug = np.zeros((4, 4), dtype=complex)
    aug[:3, :3] = a
    aug[0, 3] = w / s.l_f
    aug[3, 3] = 1j * w
    evals, vecs = np.linalg.eig(aug)
    x0 = np.array([0, 0, 0, v_hold], dtype=complex)
    coef = np.linalg.solve(vecs, x0)
    x_exact = vecs @ (coef * np.exp(evals * t_end))

    model = PlantModel(p)
    y = initial_state(p)
    for k in range(n):
        y = _rk4_step(model, k * h, y, [v_hold], h)

    for idx in range(3):
        assert abs(y[idx] - x_exact[idx]) < 5e-8


def test_stored_energy_zero_at_rest_and_positive_otherwise():
    p = default_params()
    model = PlantModel(p)
    assert stored_energy(model, initial_state(p)) == 0.0
    y = initial_state(p)
    y[0] = 0.5 + 0.1j
    y[3 * 2 + 1] = 0.9
    assert stored_energy(model, y) > 0.0


def test_energy_audit_closes_on_a_real_run():
    import owfsim as o
    scenario = o.get_preset("blackstart-virtual")
    cfg = o.SimConfig(t_end=0.25, energy_audit=True)
    record = o.run(scenario, cfg)
    audit = record.header["energy_audit"]
    # Trapezoid bookkeeping against RK4 trajectories: the accumulated residual
    # must stay far below the energy actually moved during energization
    # (order 1e-1 pu-s over this window).
    assert abs(audit["max_abs_residual"]) < 1e-5


def test_validation_rejects_mismatched_strings():
    with pytest.raises(ValueError):
        PlantParams(strings=[StringElectrical()], n_wt=[36, 38]).validate()
    with pytest.raises(ValueError):
        PlantParams(strings=[StringElectrical(l_f=0.0)], n_wt=[36]).validate()


# --- the right-hand side against the original per-call implementation -------------

# The state size and the rectifier as separate functions, the forms that
# derivatives inlines; the rectifier tests above and the oracle below use them.

def state_size(params: PlantParams) -> int:
    return 3 * params.n_strings + 1 + pm.N_DC_STATES


def rectifier_current(dru: DruModel, v_off_mag: float, v_dc_off: float) -> float:
    """Algebraic rectifier DC current; the diodes block any reverse flow."""
    return max(0.0, (dru.k_dru * v_off_mag - v_dc_off) / dru.r_comm)


def dru_step(dru: DruModel, v_off: complex, i_dc: float) -> tuple[float, complex]:
    """Averaged rectifier coupling for a given DC current.

    Returns (v_rect, i_ac_sink): the DC-terminal voltage and the AC current
    drawn at the offshore bus.  The commutation drop is lossless, so the AC
    power equals v_rect * i_dc; the sink additionally draws kappa_q of that
    as reactive power (lagging).
    """
    v_mag = abs(v_off)
    if i_dc <= 0.0:
        return dru.k_dru * v_mag, 0j
    v_rect = dru.k_dru * v_mag - dru.r_comm * i_dc
    p_ac = v_rect * i_dc
    q_ac = dru.kappa_q * p_ac
    v_div = max(v_mag, dru.v_floor)
    # i such that Re{v i*} = p_ac and Im{v i*} = q_ac
    i_sink = complex(p_ac, q_ac).conjugate() * (v_off / (v_div * v_div))
    return v_rect, i_sink


def _reference_derivatives(params: PlantParams, t: float, y: list, v_conv: list) -> list:
    """The right-hand side as it was before PlantModel, recomputing every
    constant from PlantParams on each call; the oracle for bit-identity."""
    w = params.omega_base
    n = params.n_strings
    frac = params.s_frac
    dy: list = [0.0] * len(y)
    rot_t = complex(math.cos(w * t), math.sin(w * t))

    if params.stiff_bus_voltage is not None:
        v_off = params.stiff_bus_voltage * complex(math.cos(w * t), math.sin(w * t))
    else:
        v_off = y[3 * n]

    # DC side first: the rectifier sink current feeds the bus equation.
    i_dc_states = y[3 * n + 1:]
    v_dc_off, i_dc, v_on, x_on, i_ff = i_dc_states
    if params.stiff_bus_voltage is None:
        dru = params.dru
        i_rect = rectifier_current(dru, abs(v_off), v_dc_off)
        _, i_dru = dru_step(dru, v_off, i_rect)

        link = params.link
        src = params.onshore
        kp, ki = onshore_gains(params)
        err = v_on - src.v_ref
        i_src_raw = kp * err + x_on + (i_ff if src.feedforward else 0.0)
        i_src = max(0.0, i_src_raw) if not src.energize_allowed else i_src_raw

        dy[3 * n + 1] = (i_rect - i_dc) / link.c_off
        d_idc = w * (v_dc_off - link.r_dc * i_dc - v_on) / link.l_dc
        if i_dc <= 0.0 and d_idc < 0.0:
            d_idc = 0.0  # diode-enforced unidirectional cable current
        dy[3 * n + 2] = d_idc
        dy[3 * n + 3] = (i_dc - i_src) / link.c_on
        # conditional integration: do not wind while clamped at zero output
        dy[3 * n + 4] = 0.0 if (i_src_raw < 0.0 and err < 0.0) else ki * err
        dy[3 * n + 5] = src.omega_bw * (i_dc - i_ff)
    else:
        i_dru = 0j

    i_bus = -i_dru  # farm base
    for k in range(n):
        s = params.strings[k]
        i_c = y[3 * k]
        v_p = y[3 * k + 1]
        i_cb = y[3 * k + 2]
        dy[3 * k] = w * (v_conv[k] * rot_t - s.r_f * i_c - v_p) / s.l_f
        dy[3 * k + 1] = w * (i_c - i_cb) / s.c_pcc
        dy[3 * k + 2] = w * (v_p - s.cable_r * i_cb - v_off) / s.cable_l
        i_bus += i_cb * frac[k]

    if params.stiff_bus_voltage is None:
        dy[3 * n] = w * i_bus / params.c_bus
    else:
        dy[3 * n] = 0j
    return dy


def _bits(values: list) -> list:
    """Type and IEEE bytes of each entry, so -0.0 and 0.0 differ."""
    return [(type(v), struct.pack("<dd", v.real, v.imag)) for v in values]


def _random_plant(rng: random.Random, n: int, **kw) -> PlantParams:
    strings = [StringElectrical(l_f=rng.uniform(0.1, 0.3), r_f=rng.uniform(0.005, 0.02),
                                c_pcc=rng.uniform(0.03, 0.08), cable_r=rng.uniform(0.01, 0.05),
                                cable_l=rng.uniform(0.02, 0.06), cable_c=rng.uniform(0.01, 0.03))
               for _ in range(n)]
    return PlantParams(strings=strings, n_wt=[rng.randint(20, 50) for _ in range(n)], **kw)


def _random_state(rng: random.Random, n: int) -> tuple[list, list]:
    def phasor(mag):
        return cmath.rect(rng.uniform(0.0, mag), rng.uniform(-math.pi, math.pi))

    y = [phasor(1.2) for _ in range(3 * n + 1)]
    if rng.random() < 0.1:
        y[3 * n] = phasor(0.04)  # below the rectifier's voltage floor
    y += [rng.uniform(-0.1, 1.5),                            # v_dc_off
          rng.choice([0.0, -0.0, -0.05, rng.uniform(0.0, 1.0)]),  # i_dc
          rng.uniform(0.0, 1.5),                             # v_on
          rng.uniform(-0.5, 0.5),                            # x_on
          rng.uniform(-0.5, 1.0)]                            # i_ff
    return y, [phasor(1.0) for _ in range(n)]


ORACLE_CASES = {
    "two strings": (2, {}),
    "one string": (1, {}),
    "three strings": (3, {}),
    "feedforward off": (2, {"onshore": OnshoreSource(feedforward=False)}),
    "compensation off": (2, {"comp_cap_enabled": False}),
    "stiff bus": (2, {"stiff_bus_voltage": 1.0}),
    "stiff bus, one string": (1, {"stiff_bus_voltage": 0.8}),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_derivatives_bit_identical_to_reference(case):
    n, kw = ORACLE_CASES[case]
    rng = random.Random(case)
    seen = set()
    for _ in range(400):
        params = _random_plant(rng, n, **kw)
        model = PlantModel(params)
        y, v_conv = _random_state(rng, n)
        t = rng.uniform(0.0, 8.0)
        assert _bits(derivatives(model, t, y, v_conv)) == _bits(
            _reference_derivatives(params, t, y, v_conv))
        if params.stiff_bus_voltage is None:
            v_dc_off, i_dc, v_on = y[3 * n + 1:3 * n + 4]
            i_rect = rectifier_current(params.dru, abs(y[3 * n]), v_dc_off)
            seen.add("conducting" if i_rect > 0.0 else "blocked")
            if i_dc <= 0.0 and v_dc_off - params.link.r_dc * i_dc - v_on < 0.0:
                seen.add("cable current held at zero")
            if model.onshore_source(v_on, y[3 * n + 4], y[3 * n + 5])[1] == 0.0:
                seen.add("onshore integrator frozen")
    if "stiff_bus_voltage" not in kw:
        assert seen == {"conducting", "blocked", "cable current held at zero",
                        "onshore integrator frozen"}
