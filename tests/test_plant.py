import builtins
import cmath
import copy
import inspect
import linecache
import math
import random
import struct
import traceback
import types

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
from owfsim import check, sim
from owfsim.record import DC_COLUMNS, column_names


def default_params(n=2):
    return PlantParams(strings=[StringElectrical() for _ in range(n)],
                       n_wt=[36, 38, 40][:n])


def _rk4_step(model, t, y, v_conv, h):
    """One RK4 step by the interval kernel: the oracles pin the kernel itself,
    and the interval map is held to it (test_the_map_steps_a_blocked_interval...)."""
    return pm.interval_kernel(model, h)(t, y, v_conv)


def test_state_layout():
    p = default_params()
    assert state_size(p) == 3 * 2 + 1 + len(pm.DC_STATES)
    y = initial_state(p)
    assert len(y) == state_size(p)
    assert all(v == 0 for v in y)
    for n in (1, 2, 3):
        p = default_params(n)
        names = pm.state_names(n)
        assert len(names) == len(initial_state(p)) == len(set(names))
        index = PlantModel(p).index
        assert list(index) == names
        # The offsets _reference_derivatives reads the states at.
        for k in range(n):
            assert index[f"i_conv_{k + 1}"] == 3 * k
            assert index[f"v_pcc_{k + 1}"] == 3 * k + 1
            assert index[f"i_cable_{k + 1}"] == 3 * k + 2
        assert index["v_off"] == 3 * n
        dc = dict(zip(("v_dc_off", "i_dc", "v_on", "x_on", "i_ff"), range(3 * n + 1, 3 * n + 6)))
        for name in DC_COLUMNS:
            assert index[name] == dc[name]


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
    i_rect, i_sink = dru_step(dru, v_off, 1.0)
    assert i_rect == rectifier_current(dru, abs(v_off), 1.0) > 0.0
    p_ac = (v_off * i_sink.conjugate()).real
    q_ac = (v_off * i_sink.conjugate()).imag
    # Lossless commutation: the AC power is the DC power, and the power of the
    # rectifier's EMF behind the commutation drop.
    assert p_ac == pytest.approx(1.0 * i_rect, rel=1e-12)
    assert p_ac == pytest.approx((dru.k_dru * abs(v_off) - dru.r_comm * i_rect) * i_rect,
                                 rel=1e-12)
    assert q_ac == pytest.approx(dru.kappa_q * p_ac, rel=1e-12)


def test_dru_step_blocked_draws_nothing():
    dru = DruModel()
    i_rect, i_sink = dru_step(dru, 0.5 + 0j, 1.0)
    assert i_rect == 0.0
    assert i_sink == 0j


def test_onshore_source_absorb_only():
    model = PlantModel(default_params())
    # Below the setpoint the raw command is negative: clamped to zero.
    assert model.onshore_source(0.5, 0.0, 0.0)[0] == 0.0
    # Above the setpoint it absorbs.
    assert model.onshore_source(1.1, 0.0, 0.0)[0] > 0.0
    p = default_params()
    p.onshore = OnshoreSource(energize_allowed=True)
    assert PlantModel(p).onshore_source(0.5, 0.0, 0.0)[0] < 0.0


# (v_ref, v_on, x_on, i_ff) per edge of the regulator's clamp, the feedforward
# on: the raw command is i_raw = kp * (v_on - v_ref) + x_on + i_ff.
ONSHORE_EDGES = {
    "i_raw < 0, err < 0": (1.0, 0.5, 0.0, 0.0),
    "i_raw < 0, err > 0": (1.0, 1.1, -1.0, 0.0),
    "i_raw = -0.0": (0.0, -0.0, -0.0, -0.0),
    "i_raw NaN": (1.0, 0.5, math.nan, 0.0),
    "i_raw > 0, err < 0": (1.0, 0.5, 1.0, 0.0),
}


@pytest.mark.parametrize("energize_allowed", [False, True], ids=["absorb-only", "energizing"])
@pytest.mark.parametrize("edge", list(ONSHORE_EDGES))
def test_onshore_source_clamp_edges(edge, energize_allowed):
    # The IEEE bytes of the outputs, so -0.0 and 0.0 differ.
    v_ref, v_on, x_on, i_ff = ONSHORE_EDGES[edge]
    p = default_params()
    p.onshore = OnshoreSource(energize_allowed=energize_allowed, v_ref=v_ref)
    kp, ki = onshore_gains(p)
    err = v_on - v_ref
    i_raw = kp * err + x_on + i_ff
    i_src, d_xon = PlantModel(p).onshore_source(v_on, x_on, i_ff)

    def bits(value):
        return struct.pack("<d", value)
    assert {"i_raw < 0, err < 0": i_raw < 0.0 and err < 0.0,  # each point forms its edge
            "i_raw < 0, err > 0": i_raw < 0.0 < err,
            "i_raw = -0.0": bits(i_raw) == bits(-0.0),
            "i_raw NaN": i_raw != i_raw,
            "i_raw > 0, err < 0": err < 0.0 < i_raw}[edge]
    if energize_allowed:  # never clamped, the integrator never frozen: a NaN stays NaN
        assert i_src != i_src if edge == "i_raw NaN" else bits(i_src) == bits(i_raw)
        assert bits(d_xon) == bits(ki * err)
    else:  # +0.0 for -0.0, NaN and any negative i_raw; frozen where i_raw < 0 and err < 0
        assert bits(i_src) == bits(i_raw if edge == "i_raw > 0, err < 0" else 0.0)
        assert bits(d_xon) == bits(0.0 if edge == "i_raw < 0, err < 0" else ki * err)


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
    v_on, x_on = p.onshore.v_ref, 0.0
    for _ in range(int(round(1.0 / h))):  # 1 s: tens of closed-loop time constants
        i_src, d_xon = model.onshore_source(v_on, x_on, 0.0)
        v_on += h * (-i_drain - i_src) / p.link.c_on
        x_on += h * d_xon
    assert i_src == pytest.approx(-i_drain, abs=1e-6)
    assert v_on == pytest.approx(p.onshore.v_ref, abs=1e-6)
    assert i_drain / onshore_gains(p)[0] > 1e-2  # the error a frozen integrator would keep


def test_dc_cable_current_clamped_nonnegative():
    p = default_params()
    model = PlantModel(p)
    y = initial_state(p)
    y[3 * 2 + 2] = -0.3
    y = _rk4_step(model, 0.0, y, [0j, 0j], 20e-6)
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
        check(PlantParams(strings=[StringElectrical()], n_wt=[36, 38]))
    with pytest.raises(ValueError):
        check(PlantParams(strings=[StringElectrical(l_f=0.0)], n_wt=[36]))


# --- the right-hand side against the original per-call implementation -------------

# The state size and the rectifier as separate functions, the forms that
# derivatives inlines; the rectifier tests above and the oracle below use them.

def state_size(params: PlantParams) -> int:
    return 3 * params.n_strings + 1 + len(pm.DC_STATES)


def rectifier_current(dru: DruModel, v_off_mag: float, v_dc_off: float) -> float:
    """Algebraic rectifier DC current; the diodes block any reverse flow."""
    return max(0.0, (dru.k_dru * v_off_mag - v_dc_off) * (1.0 / dru.r_comm))


def dru_step(dru: DruModel, v_off: complex, v_dc_off: float) -> tuple[float, complex]:
    """Averaged rectifier coupling at a given DC-terminal voltage.

    Returns (i_rect, i_ac_sink): the rectifier's DC current and the AC current
    drawn at the offshore bus.  The commutation drop is lossless, so the AC
    power equals v_dc_off * i_rect; the sink additionally draws kappa_q of that
    as reactive power (lagging).
    """
    v_mag = math.hypot(v_off.real, v_off.imag)
    i_rect = rectifier_current(dru, v_mag, v_dc_off)
    if i_rect <= 0.0:
        return 0.0, 0j
    v_div = max(v_mag, dru.v_floor)
    g = v_dc_off * i_rect / (v_div * v_div)  # the AC power over |v|**2
    # i such that Re{v i*} = g |v|**2 and Im{v i*} = kappa_q g |v|**2
    return i_rect, complex(g, dru.kappa_q * g).conjugate() * v_off


def _reference_coefficients(params: PlantParams) -> list:
    """Each state's coefficient, in state order, or None where the state has none:
    its derivative is the coefficient times its term (_reference_terms).  Each
    AC equation's is omega_base divided by its inductance or capacitance, and
    the DC side's 1 / c_off, 1 / c_on and the onshore bandwidth; the DC cable
    current's and the onshore integrator's are part of their terms."""
    w = params.omega_base
    strings = [c for s in params.strings for c in (w / s.l_f, w / s.c_pcc, w / s.cable_l)]
    if params.stiff_bus_voltage is not None:
        return strings + [None] * (1 + len(pm.DC_STATES))
    link = params.link
    return strings + [w / params.c_bus, 1.0 / link.c_off, None, 1.0 / link.c_on, None,
                      params.onshore.omega_bw]


def _reference_derivatives(params: PlantParams, t: float, y: list, v_conv: list) -> list:
    """The right-hand side as it was before PlantModel, recomputing every
    constant from PlantParams on each call, in complex arithmetic; the oracle
    for bit-identity: each state's coefficient times its term."""
    return [term if c is None else c * term for c, term in
            zip(_reference_coefficients(params), _reference_terms(params, t, y, v_conv))]


def _reference_terms(params: PlantParams, t: float, y: list, v_conv: list) -> list:
    """Each state's derivative over its coefficient (_reference_coefficients),
    in state order: the right-hand side with no coefficient applied."""
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
        i_rect, i_dru = dru_step(dru, v_off, v_dc_off)

        link = params.link
        src = params.onshore
        kp, ki = onshore_gains(params)
        err = v_on - src.v_ref
        i_src_raw = kp * err + x_on + (i_ff if src.feedforward else 0.0)
        i_src = max(0.0, i_src_raw) if not src.energize_allowed else i_src_raw

        dy[3 * n + 1] = i_rect - i_dc
        d_idc = (w / link.l_dc) * (v_dc_off - link.r_dc * i_dc - v_on)
        if i_dc <= 0.0 and d_idc < 0.0:
            d_idc = 0.0  # diode-enforced unidirectional cable current
        dy[3 * n + 2] = d_idc
        dy[3 * n + 3] = i_dc - i_src
        # conditional integration: an absorb-only source does not wind while clamped at zero
        frozen = not src.energize_allowed and i_src_raw < 0.0 and err < 0.0
        dy[3 * n + 4] = 0.0 if frozen else ki * err
        dy[3 * n + 5] = i_dc - i_ff
    else:
        i_dru = 0j

    i_bus = -i_dru  # farm base
    for k in range(n):
        s = params.strings[k]
        i_c = y[3 * k]
        v_p = y[3 * k + 1]
        i_cb = y[3 * k + 2]
        dy[3 * k] = v_conv[k] * rot_t - s.r_f * i_c - v_p
        dy[3 * k + 1] = i_c - i_cb
        dy[3 * k + 2] = v_p - s.cable_r * i_cb - v_off
        i_bus += i_cb * frac[k]

    dy[3 * n] = i_bus if params.stiff_bus_voltage is None else 0j
    return dy


def _reference_clamp(model, y: list) -> None:
    """The diode clamp after an accepted step, as it was before the RK4 kernel
    applied it; y[3 * n + 2] is i_dc."""
    i_dc = 3 * model.params.n_strings + 2
    if y[i_dc] < 0.0:
        y[i_dc] = 0.0


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
    "energize allowed": (2, {"onshore": OnshoreSource(energize_allowed=True)}),
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
        # A source allowed to energize never freezes its integrator.
        frozen = set() if "onshore" in kw and kw["onshore"].energize_allowed else {
            "onshore integrator frozen"}
        assert seen == {"conducting", "blocked", "cable current held at zero", *frozen}


# --- the RK4 step against the original generic loop -------------------------------

def _reference_rk4_step(model, t, y, v_conv, h):
    """The RK4 step as it was before it was generated per state size, with each
    state's coefficient folded into the step's: the stages take the terms
    (_reference_terms), and the stage inputs and the update multiply them by
    hh, h and h6 times the state's coefficient.  The oracle for bit-identity."""
    params = model.params
    hh = 0.5 * h
    h6 = h / 6.0
    coefficients = _reference_coefficients(params)
    hh_c, h_c, h6_c = ([step if c is None else step * c for c in coefficients]
                       for step in (hh, h, h6))
    t_mid = t + hh
    k1 = _reference_terms(params, t, y, v_conv)
    y2 = [yi + a * ki for yi, a, ki in zip(y, hh_c, k1)]
    k2 = _reference_terms(params, t_mid, y2, v_conv)
    y3 = [yi + a * ki for yi, a, ki in zip(y, hh_c, k2)]
    k3 = _reference_terms(params, t_mid, y3, v_conv)
    y4 = [yi + a * ki for yi, a, ki in zip(y, h_c, k3)]
    k4 = _reference_terms(params, t + h, y4, v_conv)
    y_new = [yi + a * (k_1 + 2.0 * (k_2 + k_3) + k_4)
             for yi, a, k_1, k_2, k_3, k_4 in zip(y, h6_c, k1, k2, k3, k4)]
    _reference_clamp(model, y_new)
    return y_new


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_rk4_step_bit_identical_to_reference(case, monkeypatch):
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"rk4 {case}")
    seen = set()
    clamp = _reference_clamp

    def watched_clamp(model, y):
        if y[3 * n + 2] < 0.0:
            seen.add("i_dc clamped")
        clamp(model, y)

    monkeypatch.setitem(globals(), "_reference_clamp", watched_clamp)
    for _ in range(200):
        params = _random_plant(rng, n, **kw)
        model = PlantModel(params)
        y, v_conv = _random_state(rng, n)
        t, h = rng.uniform(0.0, 8.0), rng.choice((20e-6, 100e-6))
        assert _bits(_rk4_step(model, t, y, v_conv, h)) == _bits(
            _reference_rk4_step(model, t, y, v_conv, h))
        if params.stiff_bus_voltage is None:
            i_rect = rectifier_current(params.dru, abs(y[3 * n]), y[3 * n + 1])
            seen.add("conducting" if i_rect > 0.0 else "blocked")
    if "stiff_bus_voltage" not in kw:
        assert seen == {"conducting", "blocked", "i_dc clamped"}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernels_keep_the_sign_of_zero(case):
    # Signed zeros in the states, e.g. a blocked DRU on a dead bus: the RK4
    # step must form -0.0 and 0.0 exactly where the loop did.  A derivative of
    # zero may differ from the complex loop's in its sign alone: complex
    # arithmetic adds the 0.0 * x terms of its coerced float operands, which
    # the kernels' float pairs do not form.
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"zeros {case}")
    for _ in range(200):
        params = _random_plant(rng, n, **kw)
        model = PlantModel(params)
        y, v_conv = _random_state(rng, n)
        for values in (y, v_conv):
            for i, v in enumerate(values):
                if rng.random() < 0.7:
                    zero = complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
                    values[i] = zero if isinstance(v, complex) else zero.real
        t = rng.choice((0.0, -0.0, rng.uniform(0.0, 8.0)))
        dy = derivatives(model, t, y, v_conv)
        expected = _reference_derivatives(params, t, y, v_conv)
        assert [type(v) for v in dy] == [type(v) for v in expected] and dy == expected
        assert _bits(_rk4_step(model, t, y, v_conv, 20e-6)) == _bits(
            _reference_rk4_step(model, t, y, v_conv, 20e-6))


def _finite(values: list) -> list:
    return [cmath.isfinite(v) if isinstance(v, complex) else math.isfinite(v) for v in values]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernels_match_the_loops_on_non_finite_states(case):
    # inf and NaN in the states and sources.  The float pairs do not form the
    # complex loops' 0.0 * inf = nan terms, so a step's non-finite entries may
    # differ from the loop's; whether some entry is, which ends a run diverged
    # at the same sample, may not, and neither may an entry finite in both.
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"non-finite {case}")
    specials = (math.inf, -math.inf, math.nan)
    for _ in range(150):
        params = _random_plant(rng, n, **kw)
        model = PlantModel(params)
        y, v_conv = _random_state(rng, n)
        for values in (y, v_conv):
            for i, v in enumerate(values):
                if rng.random() < 0.2:
                    x = rng.choice(specials)
                    if not isinstance(v, complex):
                        values[i] = x
                    elif rng.random() < 0.5:
                        values[i] = complex(x, v.imag)
                    else:
                        values[i] = complex(v.real, x)
        t = rng.uniform(0.0, 8.0)
        dy = derivatives(model, t, y, v_conv)
        expected = _reference_derivatives(params, t, y, v_conv)
        assert _finite(dy) == _finite(expected)
        step = _rk4_step(model, t, y, v_conv, 20e-6)
        expected_step = _reference_rk4_step(model, t, y, v_conv, 20e-6)
        assert all(_finite(step)) == all(_finite(expected_step))
        for got, want in ((dy, expected), (step, expected_step)):
            assert all(a == b for a, b, fa, fb in zip(got, want, _finite(got), _finite(want))
                       if fa and fb)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rk4_step_evaluates_derivatives_four_times(n, monkeypatch):
    # The benchmark's tracer wraps plant.derivatives and requires exactly four
    # calls per plant step, also within an interval of several steps; the
    # step must look it up on the module.
    calls = []
    deriv = pm.derivatives

    def counted(*args):
        calls.append(args[1])
        return deriv(*args)

    monkeypatch.setattr(pm, "derivatives", counted)
    params = _random_plant(random.Random(n), n)
    model = PlantModel(params)
    y, h = initial_state(params), 20e-6
    for k in range(5):
        y = _rk4_step(model, k * h, y, [0.5j] * n, h)
    assert len(calls) == 4 * 5
    assert calls[:4] == [0.0, 0.5 * h, 0.5 * h, h]
    calls.clear()
    pm.rk4(model, h, 5)(0.0, initial_state(params), [0.5j] * n)
    assert len(calls) == 4 * 5
    assert calls[4:8] == [h, h + 0.5 * h, h + 0.5 * h, h + h]


def test_run_evaluates_derivatives_four_times_per_plant_step(monkeypatch):
    calls = [0]
    deriv = pm.derivatives

    def counted(*args):
        calls[0] += 1
        return deriv(*args)

    monkeypatch.setattr(pm, "derivatives", counted)
    cfg = sim.SimConfig(dt_plant=100e-6, t_end=0.01)
    import owfsim as o
    o.run(o.get_preset("blackstart-virtual"), cfg)
    n_ctrl = round(cfg.t_end / cfg.ts_control)
    assert calls[0] == 4 * n_ctrl * round(cfg.ts_control / cfg.dt_plant)


def test_a_wrapper_installed_after_rk4_binds_sees_no_call(monkeypatch):
    # While plant.derivatives is the module's own, rk4 binds the interval
    # kernel, which calls no derivatives.  A step bound once a wrapper is in
    # place is the staged one: the interval kernel's own text plus one observed
    # derivatives call per stage, at the stage's time and state, whose result
    # is not used.  So a wrapper that returns nothing forms the same bits.
    calls = []
    model = PlantModel(default_params())
    t, h = 0.25, 20e-6
    fused = pm.rk4(model, h)
    monkeypatch.setattr(pm, "derivatives", lambda *args: calls.append(args))
    staged = pm.rk4(model, h)
    y, v_conv = _random_state(random.Random(5), 2)
    y_fused = fused(t, y, v_conv)
    assert calls == []
    assert _bits(staged(t, y, v_conv)) == _bits(y_fused)
    assert [args[1] for args in calls] == [t, t + 0.5 * h, t + 0.5 * h, t + h]
    assert all(args[0] is model and args[3] is v_conv for args in calls)
    assert _bits(calls[0][2]) == _bits(y)  # the first stage observes the step's start state


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_staged_step_bit_identical_to_fused(case, monkeypatch):
    # The fused kernel is the interval kernel; the staged one is its text plus
    # one observed plant.derivatives call per stage, whose result is not used,
    # so replacing derivatives does not change the dynamics: with a wrapper
    # that returns nothing both give the same state, bit for bit.  Each
    # substep's four calls come at t_sub, t_sub + hh (twice) and t_sub + h,
    # the first on the substep's start state: the interval's start state,
    # then each step's end state.
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"staged {case}")

    def advance(model, t, y, v_conv, h, n_sub):
        return _bits(pm.interval_kernel(model, h, n_sub)(t, y, v_conv))

    cases = []
    for _ in range(100):
        model = PlantModel(_random_plant(rng, n, **kw))
        y, v_conv = _random_state(rng, n)
        args = (model, rng.uniform(0.0, 8.0), y, v_conv, rng.choice((20e-6, 100e-6)),
                rng.choice((1, 3)))
        _, t, _, _, h, n_sub = args
        states = [y]  # each substep's start state, by one-step fused calls
        for sub in range(n_sub - 1):
            states.append(_rk4_step(model, t + sub * h, states[-1], v_conv, h))
        cases.append((args, advance(*args), states))
    calls = []
    monkeypatch.setattr(pm, "derivatives", lambda *args: calls.append(args))
    for args, fused, states in cases:
        calls.clear()
        assert advance(*args) == fused  # the end state's bits
        _, t, _, _, h, n_sub = args
        assert len(calls) == 4 * n_sub
        for sub, state in enumerate(states):
            t_sub = t + sub * h
            stage = calls[4 * sub:4 * sub + 4]
            assert [c[1] for c in stage] == [t_sub, t_sub + 0.5 * h, t_sub + 0.5 * h, t_sub + h]
            assert _bits(stage[0][2]) == _bits(state)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_an_interval_is_its_steps(case):
    # One call of n_sub steps gives, bit for bit, the state of n_sub one-step
    # calls at t + sub * h, and leaves its arguments as they were.
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"interval {case}")
    for _ in range(20):
        model = PlantModel(_random_plant(rng, n, **kw))
        y, v_conv = _random_state(rng, n)
        t, h, n_sub = rng.uniform(0.0, 8.0), rng.choice((20e-6, 100e-6)), rng.randint(1, 10)
        y_start, v_start = _bits(y), _bits(v_conv)
        y_end = pm.interval_kernel(model, h, n_sub)(t, y, v_conv)
        assert (_bits(y), _bits(v_conv)) == (y_start, v_start)
        state = y
        for sub in range(n_sub):
            state = _rk4_step(model, t + sub * h, state, v_conv, h)
        assert _bits(y_end) == _bits(state)


# --- the interval map: a control interval with the rectifier blocked ------------

LIVE_CASES = sorted(case for case, (_, kw) in ORACLE_CASES.items() if "stiff_bus_voltage" not in kw)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_ac_network_is_the_right_hand_side_while_the_rectifier_blocks(n):
    # ac_network's matrix and source map against the AC derivatives of
    # model.rhs at random blocking states: within 1e-15 of each entry's scale,
    # |a| |x| + |b| |u| (3.7e-16 measured), the two orders of summing.
    rng = random.Random(f"ac network {n}")
    for _ in range(200):
        params = _random_plant(rng, n, **rng.choice([{}, {"comp_cap_enabled": False}]))
        model = PlantModel(params)
        y, v_conv = _random_state(rng, n)
        y[model.index["v_dc_off"]] = params.dru.k_dru * abs(y[model.index["v_off"]]) + rng.uniform(
            0.0, 0.5)  # the rectifier blocks
        t, w = rng.uniform(0.0, 8.0), params.omega_base
        a, b = pm.ac_network(model)
        ac = [i for x, i in model.index.items() if x not in pm.DC_STATES]
        assert a.shape == (3 * n + 1, 3 * n + 1) and b.shape == (3 * n + 1, n)
        x = np.array([y[i] for i in ac])
        u = np.array(v_conv) * complex(math.cos(w * t), math.sin(w * t))
        dy = derivatives(model, t, y, v_conv)
        scale = np.abs(a) @ np.abs(x) + np.abs(b) @ np.abs(u)
        assert np.all(np.abs(a @ x + b @ u - [dy[i] for i in ac]) <= 1e-15 * scale)


def _rk4_counting_kernel_calls(model, h, n_sub, monkeypatch):
    """pm.rk4(model, h, n_sub), and the list to which each call of the interval
    kernel it binds appends its t: empty while the map steps every interval."""
    calls = []
    bind = pm.interval_kernel

    def counting(*args):
        kernel = bind(*args)

        def counted(t, *rest):
            calls.append(t)
            return kernel(t, *rest)
        return counted

    with monkeypatch.context() as m:
        m.setattr(pm, "interval_kernel", counting)
        return pm.rk4(model, h, n_sub), calls


def _blocked_interval(rng, n, kw):
    """A random model, state, v_conv, t, h and n_sub whose whole interval, of at
    most 200 us, blocks the rectifier: v_dc_off is 5 pu of |v_off| above the
    threshold."""
    model = PlantModel(_random_plant(rng, n, **kw))
    y, v_conv = _random_state(rng, n)
    y[model.index["v_dc_off"]] = model.params.dru.k_dru * (abs(y[model.index["v_off"]]) + 5.0)
    return (model, y, v_conv, rng.uniform(0.0, 8.0),
            *rng.choice(((20e-6, 1), (20e-6, 10), (100e-6, 2))))


@pytest.mark.parametrize("case", LIVE_CASES)
def test_the_map_steps_a_blocked_interval_within_its_bound(case, monkeypatch):
    # An interval in which the rectifier blocks is one product of the interval
    # map and the dc kernel: its DC states are the interval kernel's bit for
    # bit, its AC states within 1e-12 of the kernel's largest (3.8e-14 measured
    # on a black start).
    n, kw = ORACLE_CASES[case]
    rng = random.Random(f"map {case}")
    for _ in range(40):
        model, y, v_conv, t, h, n_sub = _blocked_interval(rng, n, kw)
        advance, calls = _rk4_counting_kernel_calls(model, h, n_sub, monkeypatch)
        y_end = advance(t, y, v_conv)
        assert calls == []  # the map stepped it
        want = pm.interval_kernel(model, h, n_sub)(t, y, v_conv)
        dc = [model.index[x] for x in pm.DC_STATES]
        assert _bits([y_end[i] for i in dc]) == _bits([want[i] for i in dc])
        ac = [i for x, i in model.index.items() if x not in pm.DC_STATES]
        assert [type(y_end[i]) for i in ac] == [complex] * len(ac)
        deviation = max(abs(y_end[i] - want[i]) for i in ac)
        assert deviation <= 1e-12 * max(abs(want[i]) for i in ac)


def _conducting_between_ends(monkeypatch, h=20e-6, n_sub=10):
    """A two-string model, state, v_conv and t whose interval, stepped with the
    rectifier blocked, blocks it at the interval's end and at each step's start
    but not at some stage input within a step: i_dc = 0 under v_on above
    v_dc_off holds the DC side at rest, and v_dc_off lies between k_dru |v_off|
    at those points and at that stage input."""
    rng = random.Random("conducting between its ends")
    while True:
        model = PlantModel(_random_plant(rng, 2))
        y, v_conv = _random_state(rng, 2)
        index, k_dru = model.index, model.params.dru.k_dru
        y[index["i_dc"]], y[index["v_dc_off"]], y[index["v_on"]] = 0.0, 1e3, 1e3 + 1.0
        t, seen = rng.uniform(0.0, 8.0), []
        with monkeypatch.context() as m:  # |v_off| at each stage input, all blocked
            m.setattr(pm, "derivatives", lambda _, t, y, v: seen.append(abs(y[index["v_off"]])))
            y_end = pm.interval_kernel(model, h, n_sub)(t, y, v_conv)
        starts = max(seen[::4] + [abs(y_end[index["v_off"]])])
        within = max(v for i, v in enumerate(seen) if i % 4)
        if within > starts + 1e-4:
            y[index["v_dc_off"]] = k_dru * (starts + within) / 2
            y[index["v_on"]] = y[index["v_dc_off"]] + 1.0
            return model, y, v_conv, t


def test_an_interval_that_conducts_only_between_its_ends_is_the_kernels(monkeypatch):
    # The map tests the rectifier at every stage input, not at the interval's
    # ends or its steps' starts alone: where it may conduct between them, the
    # interval kernel steps the interval, bit for bit.
    h, n_sub = 20e-6, 10
    model, y, v_conv, t = _conducting_between_ends(monkeypatch, h, n_sub)
    advance, calls = _rk4_counting_kernel_calls(model, h, n_sub, monkeypatch)
    y_end = advance(t, y, v_conv)
    assert calls == [t]
    assert _bits(y_end) == _bits(pm.interval_kernel(model, h, n_sub)(t, y, v_conv))


def test_a_mapped_interval_is_observed_as_the_kernels_are(monkeypatch):
    # With plant.derivatives wrapped, a mapped interval calls it 4 times per
    # step, at t_sub, t_mid, t_mid and t_end, on each stage input's state
    # (its DC states the staged kernel's bit for bit, its AC states within the
    # map's bound), and gives the unwrapped bits.  An interval the map
    # drops calls it only through the staged kernel: 4 times per step.
    rng = random.Random("observed map")
    cases = [_blocked_interval(rng, 2, {}) for _ in range(20)]
    h, n_sub = 20e-6, 10
    model, y, v_conv, t = _conducting_between_ends(monkeypatch, h, n_sub)
    dropped = (model, y, v_conv, t, h, n_sub)

    def run(model, y, v_conv, t, h, n_sub):
        return _bits(pm.rk4(model, h, n_sub)(t, y, v_conv))

    plain = [run(*case) for case in cases + [dropped]]
    calls, kernel_calls = [], []
    monkeypatch.setattr(pm, "derivatives", lambda *args: calls.append(args))
    for case, untraced in zip(cases + [dropped], plain):
        model, y, v_conv, t, h, n_sub = case
        calls.clear()
        assert run(*case) == untraced
        assert len(calls) == 4 * n_sub
        for sub in range(n_sub):
            t_sub = t + sub * h
            assert [c[1] for c in calls[4 * sub:4 * sub + 4]] == [
                t_sub, t_sub + 0.5 * h, t_sub + 0.5 * h, t_sub + h]
        assert all(c[0] is model and c[3] is v_conv for c in calls)
        observed, kernel_calls[:] = list(calls), []
        monkeypatch.setattr(pm, "derivatives", lambda *args: kernel_calls.append(args))
        pm.interval_kernel(model, h, n_sub)(t, y, v_conv)
        monkeypatch.setattr(pm, "derivatives", lambda *args: calls.append(args))
        dc = [model.index[x] for x in pm.DC_STATES]
        ac = [i for x, i in model.index.items() if x not in pm.DC_STATES]
        for mapped, staged in zip(observed, kernel_calls):
            assert _bits([mapped[2][i] for i in dc]) == _bits([staged[2][i] for i in dc])
            scale = max(abs(staged[2][i]) for i in ac)
            assert max(abs(mapped[2][i] - staged[2][i]) for i in ac) <= 1e-12 * scale


def test_a_model_reads_its_params_once():
    # The model keeps its own copy: later edits to the caller's params change nothing.
    rng = random.Random(3)
    params = _random_plant(rng, 2)
    untouched = copy.deepcopy(params)
    model = PlantModel(params)
    params.link.c_off *= 2.0
    params.onshore.v_ref = 0.9
    params.strings[0].l_f *= 2.0
    params.omega_base = 100.0
    y, v_conv = _random_state(rng, 2)
    v_on, x_on, i_ff = y[-3:]

    def outputs(m):
        flows = [np.asarray(p).tobytes() for p in pm.power_flows(m, 0.01, y, v_conv)]
        return (_bits(derivatives(m, 0.01, y, v_conv)), _bits([stored_energy(m, y)]), flows,
                _bits(m.onshore_source(v_on, x_on, i_ff)))

    assert outputs(model) == outputs(PlantModel(untouched))
    edited = outputs(PlantModel(params))
    assert all(a != b for a, b in zip(outputs(model), edited))  # each edit shows


# --- the generated kernels -------------------------------------------------------

def test_kernels_compiled_once_per_structure_with_constants_per_model():
    a, b = (PlantModel(_random_plant(random.Random(seed), 2)) for seed in (1, 2))
    assert a.rhs.__code__ is b.rhs.__code__  # no value is part of the source
    stiff = PlantModel(PlantParams(stiff_bus_voltage=1.0))
    assert stiff.rhs.__code__ is not a.rhs.__code__
    assert PlantModel(default_params(1)).rhs.__code__ is not a.rhs.__code__
    y, v_conv = _random_state(random.Random(0), 2)
    assert a.rhs(0.1, y, v_conv) != b.rhs(0.1, y, v_conv)
    # One RK4 code object per state size; the step size is bound per run.
    assert pm.interval_kernel(a, 20e-6).__code__ is pm.interval_kernel(b, 100e-6).__code__


@pytest.mark.parametrize("kind", ["rhs", "rk4", "staged"])
@pytest.mark.parametrize("stiff", [False, True], ids=["live", "stiff"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_kernel_local_shadows_a_closure_cell(n, stiff, kind):
    _assert_no_local_shadows_a_cell(pm._kernel(n, stiff, kind), kind)


@pytest.mark.parametrize("kind", ["dc", "staged_dc"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_dc_kernel_local_shadows_a_closure_cell(n, kind):
    # The interval map's DC kernels exist on a live bus only.
    _assert_no_local_shadows_a_cell(pm._kernel(n, False, kind), kind)


def _assert_no_local_shadows_a_cell(make, name):
    # A local named like one of _make's parameters would hide that cell from
    # the whole function: Python then compiles the name as a local, so it never
    # shows among the free variables, and the function reads the local instead.
    cells = make.__code__.co_varnames[:make.__code__.co_argcount]
    (code,) = [c for c in make.__code__.co_consts if isinstance(c, types.CodeType)]
    assert code.co_name == name
    assert not set(code.co_varnames) & set(code.co_freevars)
    assert not set(code.co_varnames) & set(cells)
    assert set(code.co_freevars) <= set(cells)


def _assert_built_by_its_make(function, filename, head):
    # The recorder and the onshore regulator are built as the kernels are: a
    # function of its _make, whose cells it reads, its source in linecache.
    code = function.__code__
    _assert_no_local_shadows_a_cell(function.__globals__["_make"], code.co_name)
    assert code.co_filename == filename
    assert linecache.getline(filename, code.co_firstlineno).strip() == head
    assert inspect.getsource(function).splitlines()[0].strip() == head


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_recorder_local_shadows_a_closure_cell(n):
    model = PlantModel(default_params(n))
    row = sim.recorder(n, model.params.omega_base, model.index,
                       np.empty((1, len(column_names(n)))))
    _assert_built_by_its_make(row, f"<owfsim recorder n={n}>", "def row(i, t, y, outs):")


def test_no_onshore_source_local_shadows_a_closure_cell():
    onshore_source = PlantModel(default_params()).onshore_source
    assert onshore_source.__globals__["_make"] is pm._make_onshore_source
    _assert_built_by_its_make(onshore_source, "<owfsim onshore_source>",
                              "def onshore_source(v_on, x_on, i_ff):")


@pytest.mark.parametrize("stiff", [False, True], ids=["live", "stiff"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_interval_kernel_calls_no_python_function(n, stiff):
    # Each RK4 stage evaluates the equations with no call but cos, sin and
    # hypot; complex packs the end state and range counts the substeps.  The
    # onshore regulator runs inline, so no cell is callable.
    params = default_params(n)
    params.stiff_bus_voltage = 1.0 if stiff else None
    step = pm.interval_kernel(PlantModel(params), 20e-6)
    code = step.__code__
    named = {name: step.__globals__.get(name, getattr(builtins, name, None))
             for name in code.co_names}
    assert {name for name, value in named.items() if callable(value)} <= {
        "cos", "sin", "hypot", "complex", "range"}
    assert "onshore_source" not in code.co_freevars
    assert not [c for c in step.__closure__ if callable(c.cell_contents)]


def test_kernel_source_is_readable_in_tracebacks():
    model = PlantModel(default_params())
    filename = model.rhs.__code__.co_filename
    assert filename == "<owfsim kernel rhs n=2>"
    stiff = PlantModel(PlantParams(strings=[StringElectrical()], n_wt=[3],
                                   stiff_bus_voltage=1.0))
    assert stiff.rhs.__code__.co_filename == "<owfsim kernel rhs n=1 stiff>"
    line = linecache.getline(filename, model.rhs.__code__.co_firstlineno)
    assert line.strip() == "def rhs(t, y, v_conv):"
    assert "i_bus_r += i_cable_2_r * f_2  # farm base" in inspect.getsource(model.rhs)
    step = pm.interval_kernel(model, 20e-6)
    assert step.__code__.co_filename == "<owfsim kernel rk4 n=2>"
    # The interval kernel shows the right-hand side's equations under the
    # components' own names, the onshore regulator's rule inline, with no
    # derivatives or onshore_source call; stages 2 and 3 share one rotation
    # and the sources rotated with it.  A stage keeps each derivative's term,
    # and the step's coefficients times the derivative's coefficient scale it;
    # the DC cable current's derivative has no coefficient.
    source = inspect.getsource(step)
    assert "for sub in range(n_sub):" in source
    assert "k1_v_off_r = i_bus_r" in source
    assert "v_off_r = y_v_off_r + hh_w_c_bus * k1_v_off_r" in source
    assert "i_dc = y_i_dc + hh * k1_i_dc" in source
    assert "i_src = kp * err + x_on + (i_ff if feedforward else 0.0)" in source
    assert "onshore_source" not in source
    assert "angle = w * t_end" in source
    assert source.count("angle = w * t_mid") == 1
    assert source.count("src_2_r = v_conv_2_r * rot_r - v_conv_2_i * rot_i") == 3
    assert "i_bus_r += i_cable_2_r * f_2  # farm base" in source
    assert "pack(" not in source  # the step appends to no buffer
    stiff_step = pm.rk4(stiff, 20e-6)
    assert stiff_step.__code__.co_filename == "<owfsim kernel rk4 n=1 stiff>"
    stiff_source = inspect.getsource(stiff_step)
    assert "v_off_r = stiff_bus_voltage * rot_r" in stiff_source
    assert "angle = w * t_sub" in stiff_source
    for text in (source, stiff_source):
        assert "deriv" not in text and "(model" not in text
    with pytest.raises(ValueError) as info:
        model.rhs(0.0, initial_state(default_params()), [0j])  # one phasor short
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<owfsim kernel rhs n=2>"' in text
    assert "v_conv_1, v_conv_2, = v_conv" in text
