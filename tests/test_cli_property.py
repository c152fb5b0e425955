"""Whole-CLI property: any parameter value gives a documented exit code.

Every scenario's parameters and the seed may take any int, float, bool,
string or list, non-finite floats and integers beyond 64 bits included.
``cli.main`` must return 0, 2, 3 or 4 and never raise; on exit 0 every
``metric.`` line of ``summary.txt`` must be a finite number, a bool or
``undefined``.

The values that set the amount of work are drawn small so the test stays
quick: particle, path and cell counts, snapshot and horizon counts, and the
step count ``t_final / dt``.  A step count is drawn as a small integer ``k``
(then ``t_final = k * dt``, or ``dt = t_final / k``), as one beyond 64 bits,
or left to a ``t_final`` that is not a positive finite number.  Where ``dt``
is chosen by the solver (``fp_stationary`` with ``dt = 0``, the density
solve of ``mc_fp_xval``), ``k`` counts steps of the solver's own ``dt``.

The 1000 examples are derandomized, so every run of the suite checks the
same ones; each run in ``FOUND``, which failed before its fix, is added as
an explicit example.  To search further, drop ``derandomize`` and raise
``max_examples``.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from spinmech import cli
from spinmech.config import read_value
from spinmech.errors import ConfigurationError, SpinmechError
from spinmech.fokker_planck import Grid1D, stable_dt
from spinmech.scenarios import REGISTRY, parse_config
from spinmech.sde import DriftSpec, drift_from_density

#: A small valid parameter set per scenario; the test overrides some of it.
BASE = {
    "ou_relax": {"omega": 1.0, "sigma": 1.0, "n_particles": 8, "t_final": 0.05, "dt": 0.01},
    "fp_stationary": {"omega": 1.0, "sigma": 1.0, "n_cells": 16, "t_final": 0.01},
    "mc_fp_xval": {"omega": 1.0, "sigma": 1.0, "n_particles": 8, "n_cells": 16,
                   "t_final": 0.01, "dt_mc": 0.005},
    "stern_gerlach": {"alpha_re": 0.6, "beta_re": 0.8, "n": 20},
    "momentum_limit": {"horizons": [2.0, 4.0], "n_paths": 4, "steps_per_horizon": 40},
    "track_particle": {"omega": 1.0, "t_final": 0.1, "dt": 0.01},
    "track_ensemble": {"omega": 1.0, "sigma": 1.0, "n_particles": 4, "t_final": 0.1,
                       "dt": 0.01},
}

#: Parameters whose value is a count of work items.
COUNTS = {"n_particles", "n_paths", "n", "n_cells", "n_snapshots", "steps_per_horizon"}
#: Parameters that ``_set_steps`` sets.
STEPPED = {"t_final", "dt", "dt_mc"}
#: Most steps, particles or cells one example may ask for.
SMALL = 40

ints = st.integers(min_value=-(10**30), max_value=10**30)
beyond_64_bits = st.one_of(
    st.integers(min_value=2**63, max_value=10**30),
    st.integers(min_value=-(10**30), max_value=-(2**63) - 1),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
one_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
)
number_lists = st.lists(st.one_of(ints, floats), max_size=4)
any_value = st.one_of(ints, floats, st.booleans(), one_line, number_lists)
#: Values a run may well accept, so that runs get past validation.
plausible = st.one_of(
    st.integers(min_value=-3, max_value=50),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0**e, st.sampled_from([1.0, 3.0, -1.0]), st.one_of(
        st.integers(min_value=-320, max_value=308),
        st.sampled_from([-320, -310, -300, -160, -155, 155, 160, 300, 308]),  # near the
    )),  # ends of the float range, where squares and quotients overflow
)
#: Any value that is not a positive finite number, so it can set no work.
no_work = any_value.filter(lambda v: not _positive(_value(v, "float")))
#: Counts: small, beyond 64 bits, or no integer at all.
counts = st.one_of(
    st.integers(min_value=-2, max_value=SMALL), beyond_64_bits, any_value
).filter(lambda v: not _large_count(v))


def _positive(v) -> bool:
    """True for a positive finite int or float (bools excluded)."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) < 1e308 and math.isfinite(v) and v > 0
    )


def _large_count(v) -> bool:
    """True if ``v`` reads as an integer above ``SMALL`` that fits 64 bits."""
    v = _value(v, "int")
    return v is not None and v > SMALL


def _render(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ", ".join(_render(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _value(v, kind):
    """What the config parser reads from ``v`` written as a ``kind`` value, or None."""
    try:
        return read_value(kind, _render(v).strip())
    except ValueError:
        return None


def _text(scenario, seed, params, out) -> str:
    lines = ["[scenario]", f"name = {scenario}", f"seed = {_render(seed)}",
             "[parameters]"]
    lines += [f"{k} = {_render(v)}" for k, v in params.items()]
    lines += ["[output]", f"dir = {out}"]
    return "\n".join(lines) + "\n"


def _solver_dt(scenario, p):
    """The density solver's own ``dt`` for validated parameters ``p``, or None.

    This repeats the scenario's own calls, so None means the scenario fails
    before its first density step.
    """
    try:
        if scenario == "fp_stationary":
            omega, sigma = p["omega"], p["sigma"]
            half = p["half_width"] or 6.0 * sigma / math.sqrt(2.0 * omega)
            grid = Grid1D(-half, half, p["n_cells"])
            drift = drift_from_density(
                lambda x: np.exp(-omega * np.asarray(x) ** 2 / (sigma * sigma)), sigma
            )
        else:
            grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
            drift, sigma = DriftSpec.linear(p["omega"]), p["sigma"]
        with np.errstate(all="ignore"):
            dt = stable_dt(drift, sigma, grid)
    except (SpinmechError, ArithmeticError):
        return None
    return dt if _positive(dt) else None


def _set_steps(draw, pick, scenario, seed, p):
    """Set ``t_final`` and the step size so the step count is small or rejected."""
    k = draw(st.one_of(st.integers(min_value=1, max_value=SMALL), st.just(2.0**64)))
    dt = None  # mc_fp_xval: the density solver's dt
    if scenario != "mc_fp_xval":
        if scenario != "fp_stationary" and draw(st.booleans()):
            p["t_final"] = pick(plausible, any_value)  # and dt from it
            t_final = _value(p["t_final"], "float")
            p["dt"] = t_final / k if _positive(t_final) else draw(any_value)
            return
        if draw(st.booleans()):
            p["dt"] = pick(plausible, any_value)
        dt = _value(p.get("dt", 0), "float")
        if scenario == "fp_stationary" and dt == 0:
            dt = None  # the solver's own dt
    if scenario in ("fp_stationary", "mc_fp_xval") and dt is None:
        try:
            parsed = parse_config(_text(scenario, seed, p, "unused")).parameters
        except ConfigurationError:
            parsed = None  # the run stops at the config, before any work
        dt = _solver_dt(scenario, parsed) if parsed else None
    p["t_final"] = pick(st.just(k * dt), no_work) if _positive(dt) else draw(any_value)
    if scenario == "mc_fp_xval":
        t_final = _value(p["t_final"], "float")
        steps = draw(st.integers(min_value=1, max_value=SMALL))
        p["dt_mc"] = t_final / steps if _positive(t_final) else draw(any_value)


@st.composite
def configs(draw):
    """One scenario's parameters, its seed, and the scenario name.

    Half the examples are wild: a parameter may go missing or take any
    value.  The others keep every value a number of a plausible size, so
    more runs get past validation to the numerics.
    """
    wild = draw(st.booleans())

    def pick(usual, other):
        return draw(st.one_of(usual, other) if wild else usual)

    scenario = draw(st.sampled_from(sorted(REGISTRY)))
    p = dict(BASE[scenario])
    changes = ["keep"] * 15 + ["set"] * 4 + (["drop"] if wild else [])
    for param in REGISTRY[scenario].params:
        change = draw(st.sampled_from(changes))
        if param.name in STEPPED or change == "keep":
            continue
        if change == "drop":
            p.pop(param.name, None)  # a required one then goes missing
        elif param.name in COUNTS:
            p[param.name] = pick(st.integers(min_value=-2, max_value=SMALL), counts)
        elif param.name == "horizons":
            p[param.name] = pick(st.lists(plausible, max_size=3).map(sorted), no_work)
        else:
            p[param.name] = pick(plausible, any_value)
    if scenario == "stern_gerlach" and draw(st.booleans()):
        angle = draw(st.floats(0.0, math.pi / 2))  # 0: a spin eigenstate
        p.update(alpha_re=math.cos(angle), beta_re=math.sin(angle))
    seed = pick(st.integers(), any_value)
    if scenario not in ("stern_gerlach", "momentum_limit"):
        _set_steps(draw, pick, scenario, seed, p)
    return scenario, seed, p


def _metric_ok(text: str) -> bool:
    if text in ("true", "false", "undefined"):
        return True
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


#: Runs that once raised, hung or reported a non-finite metric, each with its cause.
FOUND = [
    # t_final / dt overflows: round(inf) and int(inf) raised OverflowError
    ("ou_relax", 1, {"omega": 1.0, "sigma": 1.0, "n_particles": 4, "t_final": 1e300,
                     "dt": 1e-300}),
    ("fp_stationary", 0, {"omega": 1.0, "sigma": 1.0, "n_cells": 16, "t_final": 1e300,
                          "dt": 1e-10}),
    # one particle has no sample variance; its z-score overflowed
    ("ou_relax", 1, {"omega": 1.0, "sigma": 1e5, "n_particles": 1, "t_final": 0.05,
                     "dt": 0.01}),
    # sigma**2 overflows in the closed-form variance
    ("ou_relax", 1, {"omega": 1.0, "sigma": 1e160, "n_particles": 4, "t_final": 3e-310,
                     "dt": 1e-310}),
    ("track_ensemble", 0, {"omega": 2.2250738585e-313, "sigma": 1.0, "n_particles": 4,
                           "t_final": 0.01, "dt": 0.01}),
    # eta / omega overflows, times 1 - exp(-omega t) == 0: nan expected error
    ("track_particle", 0, {"omega": 1e-320, "eta": 1.0, "t_final": 3.0, "dt": 0.001}),
    # a subnormal duration has no difference step
    ("track_ensemble", 0, {"omega": 1.0, "sigma": 1.0, "n_particles": 4, "t_final": 1e-320,
                           "dt": 1e-320}),
    # the log-error fit cannot scale times near the bottom of the float range
    ("track_ensemble", 0, {"omega": 1.0, "sigma": 1.0, "n_particles": 4,
                           "t_final": 5.726725179492081e-276, "dt": 1.908908393164027e-276}),
    # x_t / t overflows in the tail window
    ("momentum_limit", 1, {"horizons": [2e-300, 4e-300], "t0": 1e-300, "n_paths": 3,
                           "steps_per_horizon": 40}),
    # plate positions near the float limit broke np.histogram or gave inf means
    ("stern_gerlach", 0, {"alpha_re": 0.6, "beta_re": 0.8, "n": 20,
                          "hbar": 4.49423283715579e307}),
    # mass * (|p_up|^2 - |p_down|^2) overflows
    ("stern_gerlach", 0, {"alpha_re": 0.6, "beta_re": 0.8, "n": 25, "mass": 1e300,
                          "gyromagnetic": 1e12}),
    # beta_im ** 2 raised OverflowError in the spinor check
    ("stern_gerlach", 0, {"alpha_re": 0.6, "beta_re": 0.8, "n": 20,
                          "beta_im": 1.3407807929942597e154}),
    # sigma ** 2 raised OverflowError in the stationary error variance
    ("track_ensemble", 1, {"omega": 1.0, "sigma": 1e155, "n_particles": 2, "t_final": 1e-300,
                           "dt": 1e-300}),
    # sigma**2 underflows to 0: division by zero in the step bounds
    ("mc_fp_xval", 0, {"omega": 1.0, "sigma": 1.4503337540320172e-266, "n_particles": 8,
                       "n_cells": 16, "t_final": 1, "dt_mc": 1.0}),
    # dx**2 underflows to 0: no stable step
    ("fp_stationary", 0, {"omega": 1.0, "sigma": 1.0, "n_cells": 16, "t_final": 0,
                          "half_width": 3.836691852083066e-170}),
    # no divisor of 80 * 734150239091023 lies near it / 4000: the record stride
    # search walked down one stride at a time for hours
    ("momentum_limit", 1, {"horizons": [2.0, 4.0], "n_paths": 2,
                           "steps_per_horizon": 5.873201912728184e+16}),
]


def _with_found(test):
    """Run every case of ``FOUND`` as an explicit example of ``test``."""
    for case in FOUND:
        test = example(case)(test)
    return test


@_with_found
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs())
def test_any_parameter_value_gives_a_documented_exit_code(case):
    scenario, seed, params = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_text(scenario, seed, params, out))
        code = cli.main(["run", str(cfg)])
        event(f"{scenario}: exit {code}")
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC, cli.EXIT_IO)
        if code == cli.EXIT_OK:
            metrics = [
                line.split(" = ", 1)
                for line in (out / "summary.txt").read_text().splitlines()
                if line.startswith("metric.")
            ]
            bad = [(k, v) for k, v in metrics if not _metric_ok(v)]
            assert not bad, bad
