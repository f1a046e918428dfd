import contextlib
import dataclasses
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import owfsim as o
from owfsim import check, scenario, schema
from owfsim.cli import main
from owfsim.controller import FeedbackConfig
from owfsim.record import RunRecord, STATUS_CONVERGED, column_names
from owfsim.scenario import (
    Metrics,
    PRESETS,
    RampProfile,
    ScenarioSpec,
    _runs,
    build_black_start,
    build_power_ramp,
    compute_metrics,
    detect_los,
    get_preset,
)


# Scenario documents as written before schema 1.
V0_PATH = Path(__file__).resolve().parent / "data" / "scenarios_v0.json"


# --- ramp profiles -----------------------------------------------------------------

def test_ramp_profile_values():
    r = RampProfile(target=0.8, slope=0.6, start=1.0)
    assert r.value(0.5) == 0.0
    assert r.value(1.0) == 0.0
    assert r.value(2.0) == pytest.approx(0.6)
    assert r.value(10.0) == 0.8   # saturated


def test_ramp_profile_inactive_when_unset():
    assert RampProfile().value(5.0) == 0.0


def _ramp_value_with_min_max(r, t):
    """RampProfile.value as first written, with the builtin min and max."""
    if r.target <= 0.0 or r.slope <= 0.0:
        return 0.0
    return min(r.target, max(0.0, r.slope * (t - r.start)))


RAMP_CASES = [  # (target, slope, start, t)
    (0.8, 0.6, 1.0, 0.5),         # before the start
    (0.8, 0.6, 0.0, -0.0),        # v = -0.0
    (0.8, 0.6, 1.0, 1.0),         # v = +0.0
    (0.8, 0.6, 1.0, 2.0),         # on the ramp
    (0.8, 0.6, 1.0, 10.0),        # saturated
    (0.8, 0.6, 0.0, 0.8 / 0.6),   # at the corner
    (0.8, 0.6, 1.0, math.inf), (0.8, math.inf, 0.0, 1.0), (0.8, 0.6, 1.0, -math.inf),
    (0.8, 0.6, 1.0, math.nan), (0.8, math.nan, 1.0, 2.0), (math.nan, 0.6, 1.0, 0.5),
    (math.nan, 0.6, 1.0, 2.0), (0.8, 0.6, math.nan, 2.0), (0.8, 0.6, math.inf, math.inf),
    (0.0, 0.6, 0.0, 1.0), (0.8, 0.0, 0.0, 1.0), (-0.0, 0.6, 0.0, 1.0), (0.8, -0.0, 0.0, 1.0),
]


@pytest.mark.parametrize("target,slope,start,t", RAMP_CASES)
def test_ramp_profile_value_is_min_max_bit_for_bit(target, slope, start, t):
    r = RampProfile(target, slope, start)
    assert repr(r.value(t)) == repr(_ramp_value_with_min_max(r, t))


@given(target=st.floats(), slope=st.floats(), start=st.floats(), t=st.floats())
def test_ramp_profile_value_is_min_max_bit_for_bit_on_any_floats(target, slope, start, t):
    r = RampProfile(target, slope, start)
    assert repr(r.value(t)) == repr(_ramp_value_with_min_max(r, t))


# --- scenario documents ---------------------------------------------------------------

def test_presets_exist_and_validate():
    assert set(PRESETS) == {
        "blackstart-virtual", "blackstart-measured-droop",
        "ramp-nopmin-measured", "ramp-pmin-measured-pv", "ramp-pmin-virtual",
    }
    for name in PRESETS:
        spec = get_preset(name)
        check(spec)
        assert spec.name == name


def test_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")


def test_json_round_trip_is_lossless():
    for name in PRESETS:
        spec = get_preset(name)
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.to_dict() == spec.to_dict()
        assert clone == spec
        assert json.loads(spec.to_json(), parse_constant=pytest.fail)["schema"] == 1


def test_malformed_document_names_problem():
    with pytest.raises(ValueError, match="malformed scenario document"):
        ScenarioSpec.from_dict({"name": "x"})
    # A node of the wrong JSON type: the document itself, an object, a list.
    with pytest.raises(ValueError, match=r"^malformed scenario document: expected an object, "
                                         r"got \[\]$"):
        ScenarioSpec.from_dict([])
    for path, value, message in [(("controller",), [], "controller: expected an object, got []"),
                                 (("plant", "strings", 0), 1.0,
                                  "plant.strings[0]: expected an object, got 1.0"),
                                 (("strings",), {}, "strings: expected a list, got {}")]:
        doc = get_preset("blackstart-virtual").to_dict()
        _parent(doc, path)[path[-1]] = value
        assert _error(doc) == f"malformed scenario document: {message}"


@pytest.mark.parametrize("text, message", [
    ('{"schema": 1,', "not a JSON document: Expecting property name enclosed in double quotes"),
    ("1" * 5001, "not a JSON document: Exceeds the limit (4300 digits) for integer string"),
    ("[" * 100_000 + "]" * 100_000, "not a JSON document: maximum recursion depth exceeded"),
    (json.dumps({**get_preset("blackstart-virtual").to_dict(), "t_end": "3"}),
     "malformed scenario document: t_end: expected float, got '3'"),
    # json.loads alone keeps a repeated key's last value: this document would run 5 s.
    (get_preset("blackstart-virtual").to_json()[:-1] + ', "t_end": 5.0}',
     'not a JSON document: repeated key "t_end"'),
], ids=["syntax", "digits", "nesting", "schema", "repeated"])
def test_from_json_words_its_refusal(text, message):
    with pytest.raises(ValueError) as exc:
        ScenarioSpec.from_json(text)
    assert type(exc.value) is ValueError and str(exc.value).startswith(message)


def test_validation_catches_bad_targets():
    spec = build_black_start()
    spec.v_ext.target = 1.5
    with pytest.raises(ValueError):
        check(spec)


@pytest.mark.parametrize("path, value", [
    (("controller", "i_max"), math.nan),
    (("t_end",), math.inf),
    (("t_end",), math.nan),
    (("plant", "strings", 1, "cable_c"), -math.inf),
    (("strings", 1, "v_ramp_delay"), np.float64("nan")),
    (("t_end",), np.linspace(0.0, 0.02, 3)[1]),  # a finite np.float64, as from a sweep
], ids=lambda v: _dotted(v) if isinstance(v, tuple) else None)
def test_validation_refuses_non_finite_floats_in_a_python_built_spec(path, value):
    spec = build_black_start()
    node = spec
    for key in path[:-1]:
        node = node[key] if isinstance(key, int) else getattr(node, key)
    setattr(node, path[-1], value)
    if math.isfinite(value):
        rec = o.run(spec, o.SimConfig(dt_plant=100e-6))
        assert rec.status == STATUS_CONVERGED and rec.t[-1] == pytest.approx(value)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(_dotted(path))}: "
                                             f"{value} is not a finite number$"):
            check(spec)


def test_validation_rejects_contradictory_turbine_counts():
    # Schema-0 documents carried a copy of plant.n_wt in every string.  The
    # plant's farm-base shares come from plant.n_wt, so the upgrade refuses a
    # copy that says otherwise instead of dropping it.
    doc = json.loads(V0_PATH.read_text())["blackstart-virtual"]
    doc["strings"][1]["n_wt"] = 40
    with pytest.raises(ValueError, match="string 2: strings n_wt = 40 disagrees "
                                         "with plant.n_wt = 38"):
        ScenarioSpec.from_dict(doc)


@pytest.mark.parametrize("field", ["v_ramp_delay", "p_ramp_delay"])
def test_validation_refuses_a_negative_delay(field):
    spec = build_black_start()
    setattr(spec.strings[1], field, -0.0002)
    with pytest.raises(ValueError, match=rf"^strings\[1\]\.{field} must be nonnegative, "
                                         r"got -0\.0002$"):
        check(spec)


@pytest.mark.parametrize("path, value, message", [
    (("t_end",), 0.0, "must be positive"),
    (("v_ext", "slope"), -0.6, "must be nonnegative"),
    (("p_ref", "slope"), -0.1, "must be nonnegative"),
    (("v_ext", "target"), 1.5, "must lie within [0, 1.2] pu"),
    (("p_ref", "target"), -0.2, "must lie within [0, 1.2] pu"),
], ids=lambda v: _dotted(v) if isinstance(v, tuple) else None)
def test_validation_range_errors_name_the_key_path(path, value, message):
    spec = build_black_start()
    node = spec
    for key in path[:-1]:
        node = getattr(node, key)
    setattr(node, path[-1], value)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{_dotted(path)} {message}, got {value}')}$"):
        check(spec)


@pytest.mark.parametrize("edit, message", [
    (lambda s: setattr(s.controller, "alpha_f", 3.0), "controller.alpha_f must not exceed r_a/l_f"),
    (lambda s: s.plant.n_wt.pop(), "plant.strings and n_wt must have equal, nonzero length"),
    (lambda s: s.strings.pop(), "plant.strings must match the scenario string count"),
], ids=["alpha_f", "n_wt", "strings"])
def test_cross_field_rules_name_their_key_path(edit, message):
    spec = build_black_start()
    edit(spec)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(spec)


def _nodes(value) -> int:
    """The nodes of a tree of dicts and lists: itself and each value below it."""
    if isinstance(value, (dict, list)):
        return 1 + sum(map(_nodes, value.values() if isinstance(value, dict) else value))
    return 1


def test_check_and_run_walk_each_node_once(monkeypatch):
    calls = []  # the key path of each call
    walk = schema._walk

    def counted(hint, value, path, document):
        calls.append(path)
        return walk(hint, value, path, document)

    monkeypatch.setattr(schema, "_walk", counted)
    for name in PRESETS:
        spec = get_preset(name)
        calls.clear()
        check(spec)
        assert len(calls) == _nodes(dataclasses.asdict(spec)) == 86
        assert len(set(calls)) == len(calls)  # no key path walked twice
    # A run walks its settings, then each controller's and the plant's parameters, once.
    cfg = o.SimConfig(t_end=0.0002)
    calls.clear()
    o.run(spec, cfg)
    assert len(calls) == (_nodes(dataclasses.asdict(cfg)) + 86 + _nodes(dataclasses.asdict(
        spec.plant)) + len(spec.strings) * _nodes(dataclasses.asdict(spec.controller)))


def test_builders_wire_delays():
    bs = build_black_start(delay_s2=0.3)
    assert bs.strings[0].v_ramp_delay == 0.0
    assert bs.strings[1].v_ramp_delay == 0.3
    pr = build_power_ramp(delay_s2=1.0, p_min=0.0)
    assert pr.strings[1].p_ramp_delay == 1.0
    assert pr.controller.p_min == 0.0
    assert build_power_ramp(p_min=None).controller.p_min is None


# --- the strict schema ------------------------------------------------------------------

def _leaf_paths(node, path=()):
    """Key paths of every scalar in a document; a list index is an int."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _dotted(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


# Other JSON types for each leaf type: a bool is no number, a float no int,
# and null only where the field allows it.
_WRONG_TYPES = {bool: (1, 0.0), int: (36.5, True), float: (True, "0.5"), str: (1.0, None),
                type(None): ("off", False)}
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _mutations(path):
    out = [*_NON_FINITE, "wrong type 0", "wrong type 1"]
    if isinstance(path[-1], str):
        out.append("added sibling")
        if path != ("schema",):  # without it a document is read as schema 0
            out.append("deleted")
    return out


CORRUPTIONS = [(name, path, m) for name in sorted(PRESETS)
               for path in _leaf_paths(get_preset(name).to_dict()) for m in _mutations(path)]


def _parent(doc: dict, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _corrupt(name: str, path, mutation: str) -> tuple[dict, str]:
    """The preset's document with one corruption, and the key path it sits at."""
    doc = get_preset(name).to_dict()
    parent, key = _parent(doc, path), path[-1]
    if mutation == "deleted":
        del parent[key]
    elif mutation == "added sibling":
        parent[f"{key}_x"] = parent[key]
        return doc, _dotted(path[:-1] + (f"{key}_x",))
    elif mutation.startswith("wrong type"):
        parent[key] = _WRONG_TYPES[type(parent[key])][int(mutation[-1])]
    else:
        parent[key] = _NON_FINITE[mutation]
    return doc, _dotted(path)


def _error(doc) -> str | None:
    try:
        ScenarioSpec.from_dict(doc)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_corrupted_leaf_is_rejected_naming_its_path(name):
    cases = [c for c in CORRUPTIONS if c[0] == name]
    assert len(cases) > 300
    missed = []
    for _, path, mutation in cases:
        doc, where = _corrupt(name, path, mutation)
        message = _error(doc)
        if message is None or f"document: {where}: " not in message:
            missed.append((where, mutation, message))
    assert not missed


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CORRUPTIONS))
def test_cli_refuses_a_corrupted_document_with_exit_1(case, tmp_path_factory):
    doc, where = _corrupt(*case)
    path = tmp_path_factory.mktemp("corrupt") / "doc.json"
    path.write_text(json.dumps(doc))
    out = path.parent
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(["run", str(path), "--out", str(out), "--t-end", "0.002"])
    assert rc == 1
    assert f"document: {where}: " in err.getvalue()
    assert not list(out.glob("*.csv"))


FLOAT_LEAVES = [(name, path) for name, path, m in CORRUPTIONS if m == "nan"
                and type(_parent(get_preset(name).to_dict(), path)[path[-1]]) is float]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(FLOAT_LEAVES), value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_values_round_trip_exactly(case, value):
    name, path = case
    doc = get_preset(name).to_dict()
    _parent(doc, path)[path[-1]] = value
    assert ScenarioSpec.from_json(json.dumps(doc)).to_dict() == doc


def _set_leaf(spec, path, value):
    """Set the value at a key path of a spec; a frozen parent is rebuilt in its own."""
    node = spec
    for key in path[:-1]:
        node = node[key] if isinstance(key, int) else getattr(node, key)
    if isinstance(path[-1], int):
        node[path[-1]] = value
        return
    try:
        setattr(node, path[-1], value)
    except dataclasses.FrozenInstanceError:  # FeedbackConfig
        _set_leaf(spec, path[:-1], dataclasses.replace(node, **{path[-1]: value}))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_python_built_spec_meets_the_document_type_rule(name):
    # Each leaf mutation that the document reader refuses for its type or
    # finiteness, applied to the preset object: validate() gives its message.
    cases = [(path, m) for n, path, m in CORRUPTIONS if n == name and path != ("schema",)
             and m in (*_NON_FINITE, "wrong type 0", "wrong type 1")]
    assert len(cases) > 200
    missed = []
    for path, mutation in cases:
        doc, where = _corrupt(name, path, mutation)
        spec = get_preset(name)
        _set_leaf(spec, path, _parent(doc, path)[path[-1]])
        try:
            check(spec)
            message = None
        except ValueError as exc:
            message = str(exc)
        if message != _error(doc).removeprefix("malformed scenario document: "):
            missed.append((where, mutation, message))
    assert not missed
    spec = get_preset(name)
    spec.t_end = "3"
    with pytest.raises(ValueError, match="^t_end: expected float, got '3'$"):
        check(spec)
    spec.t_end, spec.controller.km = 3, np.float64(20.0)  # an int and a numpy float are floats
    check(spec)
    spec.controller = {}  # a node of the wrong type
    with pytest.raises(ValueError, match="^controller: expected ControllerParams, got {}$"):
        check(spec)


def test_integer_for_a_float_field_is_read_as_float():
    doc = get_preset("blackstart-virtual").to_dict()
    doc["t_end"], doc["controller"]["km"] = 3, 20
    spec = ScenarioSpec.from_dict(doc)
    assert type(spec.t_end) is float and type(spec.controller.km) is float
    assert spec == get_preset("blackstart-virtual")


def test_record_header_is_standard_json():
    rec = o.run(get_preset("ramp-nopmin-measured"), o.SimConfig(dt_plant=100e-6, t_end=0.01))
    header = json.loads(json.dumps(rec.header), parse_constant=pytest.fail)
    assert header["scenario"]["controller"]["p_min"] is None


def test_unknown_schema_version_is_refused():
    doc = get_preset("blackstart-virtual").to_dict()
    for version in (2, 0, True, "1"):
        doc["schema"] = version
        assert "document: schema: unsupported version" in _error(doc)


# --- loss-of-synchronism detection -----------------------------------------------------

def _synthetic_record(omega_dev=0.0, dev_duration=0.0, drift=0.0, n=2,
                      t_end=1.0, ts=1e-3):
    """Build a well-formed record with injected frequency/angle anomalies."""
    t = np.arange(0.0, t_end + ts / 2, ts)
    cols = {name: np.zeros_like(t) for name in column_names(n)}
    cols["t"] = t
    for k in range(1, n + 1):
        cols[f"omega_{k}"] += 1.0
        cols[f"vpcc_mag_{k}"] += 0.8
    mask = (t >= 0.4) & (t < 0.4 + dev_duration)
    cols["omega_1"][mask] += omega_dev
    cols["phi_rel_1"] += np.linspace(0.0, drift, len(t))
    header = {"scenario": {"strings": [{}] * n,
                           "v_ext": {"target": 0.8},
                           "p_ref": {"target": 0.0}},
              "sim": {"ts_control": ts, "t_end": t_end, "record_decimation": 1}}
    return RunRecord(header, np.column_stack(list(cols.values())))


def test_detect_los_quiet_record_is_clean():
    los, t_los = detect_los(_synthetic_record())
    assert not los and t_los is None


def test_detect_los_sustained_frequency_deviation():
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.2)
    los, t_los = detect_los(rec)
    assert los
    assert 0.4 < t_los < 0.7


def test_detect_los_ignores_short_excursion():
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.02)
    assert not detect_los(rec)[0]


def test_detect_los_angle_drift():
    rec = _synthetic_record(drift=2 * math.pi)
    assert detect_los(rec)[0]


def test_detect_los_monotone_in_threshold():
    # A 0.2 pu deviation is LOS below that threshold and not above it, so
    # raising the threshold never creates a detection and does remove one.
    rec = _synthetic_record(omega_dev=0.2, dev_duration=0.2)
    detected = []
    for th in (0.05, 0.1, 0.15, 0.25, 0.5):
        with mock.patch.object(scenario, "LOS_FREQ_DEV", th):
            detected.append(detect_los(rec)[0])
    assert detected == [True, True, True, False, False]


def test_detect_los_angle_drift_between_strings_2_and_3():
    rec = _synthetic_record(n=3)
    assert detect_los(rec) == (False, None)
    # Pairs (1, 2) and (1, 3) drift by exactly pi, which is not LOS; (2, 3) by 2 pi.
    rec.columns["phi_rel_2"][:] += np.linspace(0.0, math.pi, len(rec.t))
    rec.columns["phi_rel_3"][:] += np.linspace(0.0, -math.pi, len(rec.t))
    los, t_los = detect_los(rec)   # flagged at the first sample past pi
    assert los and t_los == float(rec.t[501]) == pytest.approx(0.501)


@pytest.mark.parametrize("t1", [0.0, -0.1, math.nan])
def test_detect_los_refuses_a_first_interval_that_is_not_positive(t1):
    rec = _flagged_record([False] * 3, 0.1)
    rec.columns["t"][:] = [0.0, t1, 0.2]
    with pytest.raises(ValueError, match=f"^t: the first interval must be positive and "
                                         f"finite, got {t1} s$"):
        detect_los(rec)


@pytest.mark.parametrize("cable_r, los_time", [(0.01, 0.5036), (None, None)],
                         ids=["cable_r=0.01", "default"])
def test_virtual_black_start_loses_synchronism_on_a_low_cable_resistance(cable_r, los_time):
    # The virtual-feedback verdict rests on the collector cable's damping: at
    # 0.01 pu on both strings the black start loses synchronism (a pinned
    # margin, which a change must report if it moves it); the default does not.
    spec = get_preset("blackstart-virtual")
    if cable_r is not None:
        spec.plant.strings = [dataclasses.replace(s, cable_r=cable_r) for s in spec.plant.strings]
    m = compute_metrics(o.run(spec, o.SimConfig(t_end=0.6)))
    assert (m.los_detected, m.los_time) == (los_time is not None, los_time)


# --- runs of True: _runs against the per-row loops it replaced -------------------------

def _first_sustained_reference(flags, n_sustain):
    """The index at which a run of True first reaches n_sustain samples, or None."""
    run_len = 0
    for i, flag in enumerate(flags):
        run_len = run_len + 1 if flag else 0
        if run_len >= n_sustain:
            return i
    return None


def _longest_run_reference(flags):
    """The length of the longest run of True (0 if there is none)."""
    best = run = 0
    for f in flags:
        run = run + 1 if f else 0
        best = max(best, run)
    return best


def _flagged_record(flags, dt):
    """A one-string record whose omega deviation and lim_i are set where flags is True."""
    t = np.arange(len(flags)) * dt
    cols = {name: np.zeros_like(t) for name in column_names(1)}
    cols["t"] = t
    cols["omega_1"] = np.where(flags, 1.2, 1.0)
    cols["lim_i_1"] = np.where(flags, 1.0, 0.0)
    header = {"scenario": {"strings": [{}], "v_ext": {"target": 0.8}, "p_ref": {"target": 0.0}},
              "sim": {"ts_control": dt, "t_end": (len(flags) - 1) * dt, "record_decimation": 1}}
    return RunRecord(header, np.column_stack(list(cols.values())))


@settings(max_examples=300, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=40), n_sustain=st.integers(1, 50))
@example(flags=[], n_sustain=1)
@example(flags=[True] * 7, n_sustain=3)                # all True
@example(flags=[False, True, False, True, True], n_sustain=2)  # a run ending at the last sample
@example(flags=[False, True, False], n_sustain=1)
@example(flags=[True, True, False, True], n_sustain=5)  # n_sustain longer than the array
def test_runs_match_the_per_row_loops(flags, n_sustain):
    flags = np.array(flags, dtype=bool)
    starts, lengths = _runs(flags)
    # The runs rebuild the flags exactly, in order, separated by at least one False.
    rebuilt = np.zeros(len(flags), dtype=bool)
    for s, n in zip(starts, lengths):
        assert n >= 1 and not rebuilt[max(s - 1, 0):s + n].any()
        rebuilt[s:s + n] = True
    assert np.array_equal(rebuilt, flags)

    assert int(lengths.max(initial=0)) == _longest_run_reference(flags)
    if len(flags) < 2:
        return  # a record needs two samples for a sample period
    dt = 1e-3
    rec = _flagged_record(flags, dt)
    first = _first_sustained_reference(flags, n_sustain)
    with mock.patch.object(scenario, "LOS_SUSTAIN", n_sustain * dt):
        los, t_los = detect_los(rec)
    assert (los, t_los) == ((False, None) if first is None else (True, float(rec.t[first])))
    limited = compute_metrics(rec).lim_i_max_duration
    assert limited == [_longest_run_reference(flags) * dt]


# --- metrics ---------------------------------------------------------------------------

def test_metrics_symmetric_record_balanced():
    rec = _synthetic_record()
    m = compute_metrics(rec)
    assert m.reactive_imbalance == 0.0
    assert not m.los_detected
    assert m.voltage_settled      # flat 0.8 against a 0.8 target
    assert m.status == STATUS_CONVERGED


def test_metrics_reactive_imbalance_is_max_spread():
    rec = _synthetic_record()
    rec.columns["q_1"][:] += 0.10
    rec.columns["q_2"][:] -= 0.02
    m = compute_metrics(rec)
    assert m.reactive_imbalance == pytest.approx(0.12)


def test_metrics_voltage_band():
    rec = _synthetic_record()
    rec.columns["vpcc_mag_1"][-5:] = 0.85   # leaves the +-0.02 band at the end
    assert not compute_metrics(rec).voltage_settled


def test_a_nan_in_the_settle_window_unsettles_the_voltage():
    rec = _synthetic_record(n=3)
    assert compute_metrics(rec).voltage_settled
    rec.columns["vpcc_mag_2"][-3] = math.nan
    assert not compute_metrics(rec).voltage_settled


def test_a_nan_in_the_settle_window_leaves_the_ramp_incomplete():
    rec = _synthetic_record(n=3)
    rec.header["scenario"]["p_ref"]["target"] = 0.5
    for k in range(1, 4):
        rec.columns[f"p_{k}"][:] += 0.5
    assert compute_metrics(rec).ramp_completed
    rec.columns["p_2"][-3] = math.nan
    assert not compute_metrics(rec).ramp_completed


@pytest.mark.parametrize("p_target", [0.0, 0.5])
def test_a_record_of_no_strings_gets_empty_verdicts(p_target):
    t = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    header = {"scenario": {"strings": [], "v_ext": {"target": 0.8},
                           "p_ref": {"target": p_target}},
              "sim": {"ts_control": 1e-3, "t_end": 1.0, "record_decimation": 1}}
    rec = RunRecord(header, np.column_stack([t] * len(column_names(0))))
    assert rec.col("p").shape == (0, len(t))
    assert compute_metrics(rec) == Metrics(False, None, [], [], 0.0, True, True, [],
                                           STATUS_CONVERGED, None)


def test_metrics_name_a_header_without_its_string_list():
    rec = _synthetic_record()
    del rec.header["scenario"]["strings"]
    with pytest.raises(ValueError, match="^header: missing key scenario.strings$"):
        compute_metrics(rec)


def test_zero_delay_black_start_is_symmetric_for_any_feedback():
    # Identical start signals must give identical per-string trajectories, for
    # virtual and for measured feedback alike.
    for fb in (FeedbackConfig(True, True, True),
               FeedbackConfig(False, False, False)):
        spec = build_black_start(0.0, fb)
        rec = o.run(spec, o.SimConfig(dt_plant=100e-6, t_end=0.5))
        for base in ("vpcc_mag", "p", "q", "omega", "v_ref", "phi_rel"):
            assert np.array_equal(rec.col(base, 1), rec.col(base, 2)), base
