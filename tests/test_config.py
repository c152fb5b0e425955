import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech.config import apply_overrides, read_value
from spinmech.errors import ConfigurationError
from spinmech.scenarios import REGISTRY, parse_config

MINIMAL_OU = """
[scenario]
name = ou_relax
seed = 42

[parameters]
omega = 1.0
sigma = 1.0
n_particles = 1000

[output]
dir = out/ou
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def errors_of(text):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


class TestReadValue:
    """Each value is read as the kind its key declares, never guessed."""

    @pytest.mark.parametrize(
        "kind,raw,expected",
        [
            ("int", "42", 42),
            ("int", "-7", -7),
            ("int", "1e4", 10_000),
            ("float", "1.5", 1.5),
            ("float", "1e-3", 1e-3),
            ("float", "42", 42.0),
            ("str", "true", "true"),
            ("str", "False", "False"),
            ("str", "hello", "hello"),
            ("list", "10, 100, 1000", [10.0, 100.0, 1000.0]),
            ("list", "42", [42.0]),
            ("str", "out/run_1", "out/run_1"),
            ("str", "007", "007"),
        ],
    )
    def test_typed_values(self, kind, raw, expected):
        value = read_value(kind, raw)
        assert value == expected
        assert type(value) is type(expected)

    @pytest.mark.parametrize(
        "kind,raw,message",
        [
            ("int", "1.5", "expected an integer, got '1.5'"),
            ("int", "true", "expected an integer, got 'true'"),
            ("int", str(2**64 + 42), "expected an integer within 64 bits"),
            ("float", "False", "expected a number, got 'False'"),
            ("float", "hello", "expected a number, got 'hello'"),
            ("float", "inf", "expected a finite number, got 'inf'"),
            ("list", "out/run_1", "expected a comma-separated number list"),
            ("list", "1, nan", "expected finite numbers, got '1, nan'"),
        ],
    )
    def test_rejected_values_quote_the_text(self, kind, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            read_value(kind, raw)


class TestParseConfig:
    def test_minimal_happy_path(self):
        cfg = parse_config(MINIMAL_OU)
        assert cfg.scenario == "ou_relax"
        assert cfg.seed == 42
        assert cfg.output_dir == "out/ou"
        assert cfg.parameters["omega"] == 1.0
        assert cfg.parameters["n_particles"] == 1000

    def test_defaults_fill_omitted_keys(self):
        cfg = parse_config(MINIMAL_OU)
        spec = REGISTRY["ou_relax"]
        for p in spec.params:
            if not p.required:
                assert cfg.parameters[p.name] == p.default

    def test_missing_seed_names_key_and_section(self):
        text = MINIMAL_OU.replace("seed = 42\n", "")
        msgs = errors_of(text)
        assert any("'seed'" in m and "[scenario]" in m for m in msgs)

    def test_missing_output_dir(self):
        text = MINIMAL_OU.replace("dir = out/ou\n", "")
        msgs = errors_of(text)
        assert any("'dir'" in m and "[output]" in m for m in msgs)

    def test_unknown_scenario_lists_known_ones(self):
        msgs = errors_of(MINIMAL_OU.replace("ou_relax", "warp_drive"))
        assert any("unknown scenario" in m and "ou_relax" in m for m in msgs)

    def test_unknown_parameter_has_line_number(self):
        text = MINIMAL_OU.replace("omega = 1.0", "omega = 1.0\nbogus_knob = 3")
        msgs = errors_of(text)
        assert any("bogus_knob" in m and m.startswith("line ") for m in msgs)

    def test_duplicate_key_conflict(self):
        text = MINIMAL_OU.replace("omega = 1.0", "omega = 1.0\nomega = 2.0")
        msgs = errors_of(text)
        assert any("conflicting duplicate key 'omega'" in m for m in msgs)

    def test_unparsable_value(self):
        msgs = errors_of(MINIMAL_OU.replace("omega = 1.0", "omega = fast"))
        assert any("expected a number" in m and "omega" in m for m in msgs)

    def test_all_errors_collected_not_fail_fast(self):
        text = """
[scenario]
name = ou_relax

[parameters]
omega = fast
sigma = -1
bogus = 1

[output]
"""
        msgs = errors_of(text)
        # missing seed, bad omega, bad sigma, unknown key, missing dir
        assert len(msgs) >= 5

    def test_line_outside_section(self):
        msgs = errors_of("omega = 1\n" + MINIMAL_OU)
        assert any("outside any section" in m for m in msgs)

    def test_non_integer_particle_count_rejected(self):
        msgs = errors_of(MINIMAL_OU.replace("n_particles = 1000", "n_particles = 10.5"))
        assert any("expected an integer" in m for m in msgs)

    def test_seed_in_scientific_notation_accepted(self):
        assert parse_config(MINIMAL_OU.replace("seed = 42", "seed = 1e3")).seed == 1000

    @pytest.mark.parametrize("text", ["007", "2024.10", "1,2", "true"])
    def test_output_dir_is_kept_as_written(self, text):
        assert parse_config(MINIMAL_OU.replace("dir = out/ou", f"dir = {text}")).output_dir == text

    def test_scientific_notation_particle_count_accepted(self):
        cfg = parse_config(MINIMAL_OU.replace("n_particles = 1000", "n_particles = 1e4"))
        assert cfg.parameters["n_particles"] == 10_000

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n" + MINIMAL_OU + "\n# trailing\n"
        assert parse_config(text).scenario == "ou_relax"


def config_for(scenario, params, seed="7"):
    lines = ["[scenario]", f"name = {scenario}", f"seed = {seed}", "", "[parameters]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    lines += ["", "[output]", "dir = out/x"]
    return "\n".join(lines)


class TestInvariantPropagation:
    """Every domain-type invariant is reachable as a named config error."""

    @pytest.mark.parametrize(
        "scenario,params,expected",
        [
            ("ou_relax", {"omega": -1, "sigma": 1, "n_particles": 100}, "omega must be > 0"),
            ("ou_relax", {"omega": 1, "sigma": -1, "n_particles": 100}, "sigma must be >= 0"),
            ("ou_relax", {"omega": 1, "sigma": 1, "n_particles": 0}, "n_particles must be > 0"),
            ("ou_relax", {"omega": 1, "sigma": 1, "n_particles": 10, "dt": -0.1}, "dt must be > 0"),
            ("fp_stationary", {"omega": 1, "sigma": 1, "n_cells": 8}, "n_cells must be >= 16"),
            ("fp_stationary", {"omega": 1, "sigma": 0}, "sigma must be > 0"),
            (
                "mc_fp_xval",
                {"omega": 1, "sigma": 1, "n_particles": 10, "x_min": 2, "x_max": -2},
                "x_min must be < x_max",
            ),
            (
                "stern_gerlach",
                {"alpha_re": 0.6, "beta_re": 0.9, "n": 10},
                "must equal 1 within 1e-9",
            ),
            (
                "stern_gerlach",
                {"alpha_re": 1e200, "beta_re": 0, "n": 10},
                "must equal 1 within 1e-9",
            ),
            ("stern_gerlach", {"alpha_re": 0.6, "beta_re": 0.8, "n": 10, "b_z": -1}, "b_z must be > 0"),
            ("stern_gerlach", {"alpha_re": 0.6, "beta_re": 0.8, "n": 10, "mass": 0}, "mass must be > 0"),
            (
                "stern_gerlach",
                {"alpha_re": 0.6, "beta_re": 0.8, "n": 10, "sigma_z": -1},
                "sigma_z must be >= 0",
            ),
            (
                "momentum_limit",
                {"horizons": "100, 10"},
                "increasing order",
            ),
            (
                "momentum_limit",
                {"horizons": "10, 10, 20"},
                "increasing order",
            ),
            (
                "momentum_limit",
                {"tail_fraction": 1.5},
                "tail_fraction must lie in (0, 1]",
            ),
            (
                "momentum_limit",
                {"t_floor": 0},
                "t_floor must be > 0",
            ),
            (
                "track_particle",
                {"omega": -1},
                "stable error dynamics require positive omega",
            ),
            (
                "track_particle",
                {"omega": 1, "profile": "square"},
                "profile must be one of",
            ),
            (
                "track_ensemble",
                {"omega": -2, "sigma": 1, "n_particles": 10},
                "stable error dynamics require positive omega",
            ),
        ],
    )
    def test_broken_config_names_the_invariant(self, scenario, params, expected):
        msgs = errors_of(config_for(scenario, params))
        assert any(expected in m for m in msgs), msgs


def _as_text(value):
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


#: (scenario, key, kind) of every float or list parameter of every scenario.
NUMERIC_PARAMS = [
    (name, p.name, p.kind)
    for name, spec in sorted(REGISTRY.items())
    for p in spec.params
    if p.kind in ("float", "list")
]


class TestNonFiniteValues:
    """inf and nan are config errors (exit 2), never a numerical failure later."""

    @given(
        target=st.sampled_from(NUMERIC_PARAMS),
        bad=st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999", "-2e308"]),
        position=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_finite_number_is_a_config_error(self, target, bad, position):
        scenario, key, kind = target
        canned = parse_config((CONFIGS / f"{scenario}.cfg").read_text()).parameters
        params = {k: _as_text(v) for k, v in canned.items()}
        parse_config(config_for(scenario, params))  # the finite original is valid
        if kind == "list":
            items = ["1.0", "2.0", "3.0"]
            items[position] = bad
            bad = ", ".join(items)
        params[key] = bad
        msgs = errors_of(config_for(scenario, params))
        assert any(f"parameters.{key}: expected" in m and "finite" in m for m in msgs), msgs

    def test_integer_beyond_float_range_is_a_config_error(self):
        msgs = errors_of(MINIMAL_OU.replace("omega = 1.0", "omega = 1" + "0" * 400))
        assert any("parameters.omega: expected a finite number" in m for m in msgs)

    def test_rejected_required_value_is_not_also_reported_missing(self):
        msgs = errors_of(MINIMAL_OU.replace("sigma = 1.0", "sigma = inf"))
        assert not any("missing required key 'sigma'" in m for m in msgs), msgs


class TestOverrides:
    def test_seed_and_dir_override(self):
        cfg = parse_config(MINIMAL_OU)
        out = apply_overrides(cfg, seed=99, output_dir="elsewhere")
        assert out.seed == 99
        assert out.output_dir == "elsewhere"
        assert out.parameters == cfg.parameters

    def test_none_overrides_keep_original(self):
        cfg = parse_config(MINIMAL_OU)
        assert apply_overrides(cfg) == cfg


class TestEcho:
    def test_flat_echo_is_sorted_and_complete(self):
        cfg = parse_config(MINIMAL_OU)
        echo = cfg.echo()
        assert echo["scenario.name"] == "ou_relax"
        assert echo["scenario.seed"] == 42
        assert echo["output.dir"] == "out/ou"
        param_keys = [k for k in echo if k.startswith("parameters.")]
        assert param_keys == sorted(param_keys)
        assert len(param_keys) == len(cfg.parameters)
