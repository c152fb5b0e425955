"""Library property: a float argument may be NaN, infinite or huge.

Each public constructor and function in ``CALLS`` has a set of valid base
arguments.  The test replaces one of their float values (a scalar argument,
or one entry of an array argument) with NaN, +-inf or +-1e308.  The call
must then raise :class:`InvalidInputError` or :class:`NumericalOverflowError`,
or return only finite numbers: every number of a returned value or
dataclass, a returned drift evaluated at ``DRIFT_PROBE`` and a reference
trajectory at its midpoint.  ``fp_step``
and ``fp_solve`` may also raise :class:`ConfigurationError`, their error for
a step beyond the stability bound.  numpy's floating-point warnings fail the
suite (``filterwarnings`` in ``pyproject.toml``), so a call must not warn
either.

The examples are derandomized, so every run of the suite checks the same
ones.  Each case of ``FOUND`` was accepted, or returned a non-finite value,
before its fix and is added as an explicit example; the cases that change
two floats at once drive a result past the float range.  To search further,
drop ``derandomize`` and raise ``max_examples``.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spinmech.control import ControlLaw, ReferenceTrajectory
from spinmech.errors import (
    ConfigurationError,
    InvalidInputError,
    NumericalOverflowError,
    check_number,
)
from spinmech.fokker_planck import DensityField, Grid1D, fp_solve, fp_step
from spinmech.sde import (
    DriftSpec,
    SdeConfig,
    drift_from_density,
    euler_maruyama_step,
    ou_analytic_moments,
)
from spinmech.spin import (
    SpinOperator,
    Spinor,
    energy_levels,
    pauli,
    propagator,
    spin_hamiltonian,
)
from spinmech.stern_gerlach import BeamConfig, energy_transition, precess_moment

nan, inf = math.nan, math.inf
#: The values a float argument is replaced with.
EXTREMES = [nan, inf, -inf, 1e308, -1e308]
#: Where a returned drift is evaluated: inside every base table, at t = 0.
DRIFT_PROBE = (np.array([0.5, 1.5]), 0.0)

GRID = Grid1D(-8.0, 8.0, 32)
RHO = DensityField.from_function(GRID, lambda x: np.exp(-0.5 * x * x))
LINEAR = DriftSpec.linear(1.0)

#: Each call's function and valid base arguments; every float in them is a slot.
CALLS = {
    "SpinOperator": (SpinOperator, {"entries": [[1.0, 0.5], [0.5, -1.0]], "hbar": 1.0}),
    "pauli": (pauli, {"axis": "y", "hbar": 1.0}),
    "spin_hamiltonian": (spin_hamiltonian, {"omega0": 2.0, "hbar": 1.0}),
    "energy_levels": (energy_levels, {"omega0": 2.0, "hbar": 1.0}),
    "propagator": (propagator, {"hamiltonian": spin_hamiltonian(2.0), "duration": 0.5}),
    "Spinor": (Spinor, {"alpha": 0.6, "beta": 0.8}),
    "Spinor.from_unnormalized": (Spinor.from_unnormalized, {"alpha": 3.0, "beta": 4.0}),
    "SdeConfig": (SdeConfig, {"dt": 0.01, "n_steps": 10, "sigma": 1.0, "n_particles": 4,
                              "seed": 1, "x0": 0.5, "t0": 0.0}),
    "DriftSpec.linear": (DriftSpec.linear, {"omega": 1.0}),
    "DriftSpec.time_scaled": (DriftSpec.time_scaled, {"t_floor": 1e-3}),
    "DriftSpec.tabulated": (DriftSpec.tabulated, {"xs": [0.0, 1.0, 2.0],
                                                  "bs": [1.0, 0.0, -1.0]}),
    "drift_from_density": (drift_from_density, {"rho0": lambda x: np.exp(-x * x),
                                                "sigma": 1.0}),
    "euler_maruyama_step": (euler_maruyama_step, {"x": [0.5, -0.5], "drift": LINEAR,
                                                  "t": 0.0, "dt": 0.01, "dw": [0.1, -0.1]}),
    "ou_analytic_moments": (ou_analytic_moments, {"x0": 1.0, "omega": 1.0, "sigma": 1.0,
                                                  "t": [0.0, 1.0]}),
    "ReferenceTrajectory.constant": (ReferenceTrajectory.constant,
                                     {"level": 1.0, "duration": 2.0}),
    "ReferenceTrajectory.ramp": (ReferenceTrajectory.ramp,
                                 {"rate": 0.5, "duration": 2.0, "start": 0.1}),
    "ReferenceTrajectory.sine": (ReferenceTrajectory.sine, {
        "amplitude": 1.0, "angular_freq": 3.0, "duration": 2.0, "offset": 0.5}),
    "ControlLaw": (ControlLaw, {"omega": 1.0,
                                "reference": ReferenceTrajectory.constant(1.0, 2.0)}),
    "BeamConfig": (BeamConfig, {"mass": 1.0, "gamma": 1.0, "grad_bz": -1.0, "b_z": 1.0,
                                "magnet_length": 1.0, "drift_length": 1.0, "v_beam": 1.0,
                                "sigma_z": 0.1, "hbar": 1.0}),
    "energy_transition": (energy_transition, {"p_minus": 1.0, "p_plus": 2.0, "mass": 1.0}),
    "precess_moment": (precess_moment, {"gamma_vec": [1.0, 0.0, 0.5],
                                        "field": [0.0, 0.3, 1.0], "gamma": 1.0, "dt": 0.1}),
    "Grid1D": (Grid1D, {"x_min": -1.0, "x_max": 1.0, "n_cells": 16}),
    "DensityField": (DensityField, {"grid": GRID, "values": RHO.values.tolist()}),
    "fp_step": (fp_step, {"rho": RHO, "drift": LINEAR, "sigma": 1.0, "t": 0.0, "dt": 0.01}),
    "fp_solve": (fp_solve, {"rho0": RHO, "drift": LINEAR, "sigma": 1.0, "t_final": 0.05,
                            "dt": 0.01, "output_times": [0.02, 0.05]}),
}


def _slots(value, path=()):
    """Paths of the float leaves of ``value``: argument names, then list indices."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in _slots(v, path + (key,))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _slots(v, path + (i,))]
    return []


def _finite(value) -> bool:
    """True if every number in ``value`` is finite; drifts and references are evaluated."""
    if isinstance(value, DriftSpec):
        return _finite(value(*DRIFT_PROBE))
    if isinstance(value, ReferenceTrajectory):
        mid = value.duration / 2
        return _finite([value.duration, value.v_r(mid), value.v_r_dot(mid)])
    if callable(value) or value is None or isinstance(value, str):
        return True
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    return bool(np.all(np.isfinite(value)))


@st.composite
def calls(draw):
    """A call's name and one of its float slots set to an extreme value."""
    name = draw(st.sampled_from(sorted(CALLS)))
    path = draw(st.sampled_from(_slots(CALLS[name][1])))
    return name, {path: draw(st.sampled_from(EXTREMES))}


#: Calls that were accepted or returned a non-finite value before their fix.
FOUND = [
    ("BeamConfig", {("mass",): nan}),
    ("BeamConfig", {("gamma",): inf}),
    ("BeamConfig", {("grad_bz",): nan}),
    ("BeamConfig", {("sigma_z",): nan}),
    ("SdeConfig", {("sigma",): nan}),
    ("SdeConfig", {("x0",): nan}),
    ("Grid1D", {("x_min",): -inf}),
    ("ReferenceTrajectory.constant", {("level",): nan}),
    ("DriftSpec.tabulated", {("xs", 1): nan}),
    ("DriftSpec.time_scaled", {("t_floor",): nan}),
    ("drift_from_density", {("sigma",): nan}),
    ("energy_levels", {("omega0",): nan}),
    ("precess_moment", {("field", 0): nan}),
    ("SpinOperator", {("entries", 0, 0): nan}),
    ("spin_hamiltonian", {("omega0",): inf}),
    ("ou_analytic_moments", {("omega",): nan}),
    ("euler_maruyama_step", {("dt",): nan}),
    ("fp_step", {("sigma",): nan}),
    ("DensityField", {("values", i): nan for i in range(32)}),
    # two extremes whose product or sum leaves the float range
    ("DensityField", {("values", 0): 1e308, ("values", 1): 1e308}),
    ("energy_levels", {("omega0",): 1e308, ("hbar",): 1e308}),
    ("spin_hamiltonian", {("omega0",): 1e308, ("hbar",): 1e308}),
    ("euler_maruyama_step", {("x", 0): 1e308, ("dw", 0): 1e308}),
    ("precess_moment", {("gamma",): 1e308, ("dt",): 1e308}),
    ("precess_moment", {("gamma_vec", 0): 1e308, ("field", 0): 1e308}),
    ("ou_analytic_moments", {("sigma",): 1e308, ("t", 1): 1e308}),
]


def _with_found(test):
    """Run every case of ``FOUND`` as an explicit example of ``test``."""
    for case in FOUND:
        test = example(case)(test)
    return test


def _set(args, path, value):
    """Set the float at ``path`` of the argument dict ``args`` to ``value``."""
    for key in path[:-1]:
        args = args[key]
    args[path[-1]] = value


@_with_found
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(calls())
@pytest.mark.filterwarnings("ignore:grad_bz")  # a positive gradient is a documented warning
def test_any_float_argument_raises_a_library_error_or_gives_finite_values(case):
    name, changes = case
    fn, base = CALLS[name]
    args = {k: copy.deepcopy(v) if isinstance(v, list) else v for k, v in base.items()}
    for path, value in changes.items():
        _set(args, path, value)
    allowed = (InvalidInputError, NumericalOverflowError)
    if name.startswith("fp_"):
        allowed += (ConfigurationError,)
    try:
        result = fn(**args)
    except allowed:
        return
    assert _finite(result), result


@pytest.mark.parametrize("kwargs,rule", [
    ({}, "must be finite"),
    ({"low": 0.0}, "must be >= 0"),
    ({"low": 16}, "must be >= 16"),
    ({"positive": True}, "must be positive"),
])
@pytest.mark.parametrize("value", [nan, inf, -inf, "1.0", None, np.ones(2)])
def test_check_number_refuses_a_non_number_under_every_rule(kwargs, rule, value):
    with pytest.raises(InvalidInputError, match=f"^x {rule}, got "):
        check_number("x", value, **kwargs)


def test_check_number_bounds():
    assert check_number("x", -1.0) == -1.0
    assert check_number("x", 0, 0.0) == 0
    assert check_number("x", 16, 16) == 16
    with pytest.raises(InvalidInputError, match="^x must be >= 0, got -1.0$"):
        check_number("x", -1.0, 0.0)
    with pytest.raises(InvalidInputError, match="^x must be positive, got 0.0$"):
        check_number("x", 0.0, positive=True)
