"""Shared fixtures: the expensive scenario runs are executed once per session,
on a pool of up to two worker processes, and reused by the acceptance criteria
and any test that needs a real record."""
from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import owfsim as o

# Each session fixture's preset and SimConfig arguments.
PRESET_RUNS = {
    "blackstart_virtual": ("blackstart-virtual", {}),
    "blackstart_virtual_half_dt": ("blackstart-virtual", {"dt_plant": 10e-6}),
    "blackstart_measured": ("blackstart-measured-droop", {}),
    "ramp_nopmin_measured": ("ramp-nopmin-measured", {}),
    "ramp_pmin_measured_pv": ("ramp-pmin-measured-pv", {}),
    "ramp_pmin_virtual": ("ramp-pmin-virtual", {}),
}


def _timed_run(preset: str, cfg_kwargs: dict):
    """The preset's record, pickled, and the wall time of o.run alone.  The
    record is unpickled when a fixture asks for it, not on the pool's result
    thread: unpickling builds its columns from record.column_names, which a
    test may have patched (the reversed-layout golden pass) while a result
    arrives."""
    scenario = o.get_preset(preset)
    cfg = o.SimConfig(**cfg_kwargs)
    t0 = time.perf_counter()
    record = o.run(scenario, cfg)
    wall = time.perf_counter() - t0
    return pickle.dumps(record), wall


def _session_fixtures(item) -> list:
    """The fixtures item uses, and the value of its fixture parameter if it has one:
    a test parametrized over session fixtures reaches each through getfixturevalue."""
    callspec = getattr(item, "callspec", None)
    return [*item.fixturenames, *([callspec.params["fixture"]]
                                  if callspec and "fixture" in callspec.params else [])]


@pytest.fixture(scope="session", autouse=True)
def _preset_run(request):
    """A session fixture's (record, wall), run in a worker process.  At the
    session's start every session fixture that a collected test names, as a
    fixture or as the value of its fixture parameter, is submitted, in the
    order the tests first name it, so the runs overlap the tests before their
    first use; one reached otherwise is submitted on demand."""
    named = dict.fromkeys(name for item in request.session.items
                          for name in _session_fixtures(item) if name in PRESET_RUNS)
    # spawn: a fork from a process with threads warns on Python 3.12+.
    pool = ProcessPoolExecutor(min(2, os.cpu_count() or 1),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        futures = {name: pool.submit(_timed_run, *PRESET_RUNS[name]) for name in named}

        def result(name: str):
            if name not in futures:
                futures[name] = pool.submit(_timed_run, *PRESET_RUNS[name])
            record, wall = futures[name].result()
            return pickle.loads(record), wall

        yield result
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def blackstart_virtual(_preset_run):
    """Delayed black start, every outer loop on virtual power (dt = 20 us)."""
    return _preset_run("blackstart_virtual")


@pytest.fixture(scope="session")
def blackstart_virtual_half_dt(_preset_run):
    """Same scenario integrated at half the plant step."""
    return _preset_run("blackstart_virtual_half_dt")


@pytest.fixture(scope="session")
def blackstart_measured(_preset_run):
    """Delayed black start with QV and PV loops on measured power."""
    return _preset_run("blackstart_measured")


@pytest.fixture(scope="session")
def ramp_nopmin_measured(_preset_run):
    """Power ramp, reverse power unrestricted, all loops on measured power."""
    return _preset_run("ramp_nopmin_measured")


@pytest.fixture(scope="session")
def ramp_pmin_measured_pv(_preset_run):
    """Power ramp with a zero reverse-power floor and the PV loop on measured power."""
    return _preset_run("ramp_pmin_measured_pv")


@pytest.fixture(scope="session")
def ramp_pmin_virtual(_preset_run):
    """Power ramp with a zero reverse-power floor, every loop on virtual power."""
    return _preset_run("ramp_pmin_virtual")
