"""Complex space-vector algebra and the per-unit conventions used everywhere else.

A three-phase quantity is represented as a single complex number, either in the
stationary (alpha-beta) frame or in a synchronous (dq) frame.  Amplitude-invariant
scaling is used throughout: |v| = 1 pu means rated peak phase voltage, so
P = Re{v i*} holds without a 3/2 factor.

Electrical quantities are per-unit; time is kept in SI seconds, so a pu
inductance L enters the dynamics as L / omega_base.

Every function the package generates from text (the plant kernels and the
onshore regulator, the row recorder, the controller's rules and wrap_angle)
is built by compile_function, which registers its source in linecache.
"""
from __future__ import annotations

import cmath
import linecache
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


def compile_function(filename: str, name: str, args: str, body: str, namespace: dict,
                     cells=()):
    """_make(*cells), which returns the function name(args) whose body is the
    text body and which closes over cells, compiled in a copy of namespace (its
    globals).  The source is registered in linecache as filename, so tracebacks
    and inspect.getsource show it."""
    source = f"def _make({', '.join(cells)}):\n    def {name}({args}):\n" + "".join(
        f"        {line}\n" for line in body.splitlines()) + f"    return {name}\n"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(namespace)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_make"]


# The one statement of the wrap to (-pi, pi]: it rebinds phi.  Controller.step
# runs it inline; wrap_angle is it compiled alone.
WRAP_ANGLE = """\
phi = remainder(phi, tau)
if phi <= -pi:
    phi += tau
"""

wrap_angle = compile_function("<owfsim wrap_angle>", "wrap_angle", "phi", WRAP_ANGLE + "return phi",
                              {"remainder": math.remainder, "tau": math.tau, "pi": math.pi})()
wrap_angle.__qualname__ = "wrap_angle"
wrap_angle.__doc__ = "Wrap an angle to (-pi, pi]."
