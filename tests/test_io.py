"""The CSV layer, and each artifact read back against what its scenario simulated."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech import io
from spinmech.control import ControlLaw, ReferenceTrajectory, simulate_tracking
from spinmech.errors import InvalidInputError
from spinmech.fokker_planck import DensityField, Grid1D, l1_distance
from spinmech.scenarios import _density_table, _read_density, parse_config, run_scenario
from spinmech.sde import DriftSpec, SdeConfig, simulate_ensemble
from spinmech.spin import Spinor
from spinmech.stern_gerlach import BeamConfig, simulate_beam


def run_config(scenario, out, seed, params):
    """Run ``scenario`` with ``params`` into ``out``; its RunSummary."""
    text = (
        f"[scenario]\nname = {scenario}\nseed = {seed}\n[parameters]\n"
        + "".join(f"{k} = {v}\n" for k, v in params.items())
        + f"[output]\ndir = {out}\n"
    )
    return run_scenario(parse_config(text))


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = np.concatenate(
        [rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100), [0.0, 1e-308]]
    )
    for v in values:
        assert float(io.fmt(v)) == v


def test_float_columns_round_trip(tmp_path):
    special = np.array([0.0, -0.0, 1e-308, -1e-308, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
    path = tmp_path / "floats.csv"
    io.write_csv(path, ["a", "b"], [special, -special])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:3] == ["0,-0", "-0,0"]
    back = io.read_csv(path)
    assert back.shape == (special.size, 2)
    assert np.array_equal(back[:, 0], special) and np.array_equal(back[:, 1], -special)
    assert np.array_equal(np.signbit(back), np.signbit(np.stack([special, -special], 1)))


def test_wide_all_float_table_round_trips(tmp_path):
    # more columns than one block of cells holds, so each block is a single row
    n_cols = io._BLOCK_CELLS + 5
    cols = np.random.default_rng(1).standard_normal((n_cols, 3)) * 1e200
    path = tmp_path / "wide.csv"
    io.write_csv(path, [f"c{i}" for i in range(n_cols)], list(cols))
    assert np.array_equal(io.read_csv(path), cols.T)


def test_long_table_round_trips_across_blocks(tmp_path):
    n = 3 * io._BLOCK_CELLS + 7  # several blocks of rows, the last one short
    ints = np.arange(n) - n // 2
    floats = np.random.default_rng(2).standard_normal(n)
    path = tmp_path / "long.csv"
    io.write_csv(path, ["i", "x"], [ints, floats])
    assert path.read_text().splitlines()[1] == f"{ints[0]},{io.fmt(floats[0])}"
    back = io.read_csv(path)
    assert np.array_equal(back[:, 0], ints) and np.array_equal(back[:, 1], floats)


def test_int_string_and_bool_columns_round_trip(tmp_path):
    ints = np.array([0, -7, 2**62, 12])
    names = ["up", "down", "up", "up"]
    flags = np.array([True, False, False, True])
    path = tmp_path / "mixed.csv"
    io.write_csv(path, ["i", "name", "flag", "x"], [ints, names, flags, [0.5, -0.0, 1e-308, 3.0]])
    assert path.read_text().splitlines()[1:3] == ["0,up,true,0.5", "-7,down,false,-0"]
    back = io.read_csv(path, converters={1: lambda s: s == "up", 2: lambda s: s == "true"})
    assert back.dtype == float
    assert np.array_equal(back[:, 0], ints.astype(float))
    assert np.array_equal(back[:, 1] == 1.0, [n == "up" for n in names])
    assert np.array_equal(back[:, 2] == 1.0, flags)
    assert np.array_equal(back[:, 3], [0.5, -0.0, 1e-308, 3.0])


def test_one_row_reads_back_as_a_table(tmp_path):
    io.write_csv(tmp_path / "one.csv", ["a", "b"], [[1.5], [2]])
    assert io.read_csv(tmp_path / "one.csv").tolist() == [[1.5, 2.0]]


@pytest.mark.parametrize("header,columns", [
    (["a", "b"], [[1.0, 2.0]]),  # fewer columns than names
    (["a", "b"], [[1.0, 2.0], [3.0]]),  # unequal lengths
])
def test_columns_that_do_not_match_the_header_are_refused(tmp_path, header, columns):
    with pytest.raises(InvalidInputError, match="do not match the header"):
        io.write_csv(tmp_path / "bad.csv", header, columns)
    assert not (tmp_path / "bad.csv").exists()


def test_trajectories_round_trip(tmp_path):
    run_config("ou_relax", tmp_path, 3, {"omega": 1, "sigma": 1, "n_particles": 7,
                                         "dt": 0.01, "t_final": 0.2, "record_every": 2})
    cfg = SdeConfig(dt=0.01, n_steps=20, sigma=1.0, n_particles=7, seed=3, x0=1.0,
                    record_every=2)
    batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
    path = tmp_path / "trajectories.csv"
    header = path.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"particle_{i}" for i in range(7))
    back = io.read_csv(path)
    assert np.array_equal(back[:, 0], batch.times)
    assert np.array_equal(back[:, 1:].T, batch.paths)


def test_density_round_trip(tmp_path):
    grid = Grid1D(-2.0, 2.0, 32)
    field = DensityField.from_function(grid, lambda x: np.exp(-np.asarray(x) ** 2))
    path = tmp_path / "rho.csv"
    io.write_csv(path, *_density_table(field))
    assert path.read_text().splitlines()[0] == "x,rho"
    back = _read_density(path, grid)
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)


@given(
    x_min=st.floats(-1e3, 1e3),
    width=st.floats(1e-2, 1e3),
    n_cells=st.integers(16, 600),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_density_round_trip_compares_with_the_original(
    tmp_path_factory, x_min, width, n_cells, seed
):
    grid = Grid1D(x_min, x_min + width, n_cells)
    v = np.random.default_rng(seed).random(n_cells) + 1e-3
    field = DensityField(grid, v / (v.sum() * grid.dx))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    io.write_csv(path, *_density_table(field))
    back = _read_density(path, grid)
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)
    assert l1_distance(back, field) == 0.0


@pytest.mark.parametrize("other", [
    Grid1D(0.0, float(np.nextafter(1.0, 2.0)), 32),  # x_max one ulp further out
    Grid1D(0.0, 1.0, 64),
])
def test_density_from_another_grid_is_refused(tmp_path, other):
    grid = Grid1D(0.0, 1.0, 32)
    io.write_csv(tmp_path / "rho.csv", *_density_table(DensityField(grid, np.ones(32))))
    with pytest.raises(InvalidInputError, match="cell centers"):
        _read_density(tmp_path / "rho.csv", other)


def test_density_sequence_manifest(tmp_path):
    summary = run_config("fp_stationary", tmp_path, 1, {
        "omega": 1, "sigma": 1, "n_cells": 32, "half_width": 4, "t_final": 0.01,
        "n_snapshots": 3,
    })
    names = ["density_0000.csv", "density_0001.csv", "density_0002.csv"]
    assert summary.artifacts == names + ["density_manifest.csv", "summary.txt"]
    manifest = (tmp_path / "density_manifest.csv").read_text().splitlines()
    assert manifest[0] == "index,time,file"
    rows = [line.split(",") for line in manifest[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [r[2] for r in rows] == names
    assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 0.01
    for name in names:
        _read_density(tmp_path / name, Grid1D(-4.0, 4.0, 32))


def test_plate_records_round_trip(tmp_path):
    run_config("stern_gerlach", tmp_path, 8, {"alpha_re": 0.6, "beta_re": 0.8, "n": 200,
                                              "sigma_z": 0.25})
    records = simulate_beam(
        Spinor(0.6, 0.8),
        BeamConfig(
            mass=1.0, gamma=1.0, grad_bz=-2.0, b_z=1.0, magnet_length=1.0,
            drift_length=1.0, v_beam=1.0, sigma_z=0.25,
        ),
        200,
        seed=8,
    )
    path = tmp_path / "plate.csv"
    assert path.read_text().splitlines()[0] == "index,branch,z_final,p_final"
    back = io.read_csv(path, converters={1: lambda s: s == "up"})
    assert np.array_equal(back[:, 0], np.arange(200))
    assert np.array_equal(back[:, 1] == 1.0, records.is_up)
    assert np.array_equal(back[:, 2], records.z_final)
    assert np.array_equal(back[:, 3], records.p_final)

    lines = (tmp_path / "branch_summary.csv").read_text().splitlines()
    assert lines[0] == "branch,count,mean_z,std_z,mean_p,std_p"
    counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
    assert counts == {"up": int(records.is_up.sum()), "down": int((~records.is_up).sum())}


def test_tracking_report_round_trip(tmp_path):
    summary = run_config("track_particle", tmp_path, 0, {"omega": 1, "t_final": 1,
                                                         "dt": 0.01, "record_every": 10})
    law = ControlLaw(1.0, ReferenceTrajectory.constant(1.0, 100 * 0.01), lambda t: 0.0)
    cfg = SdeConfig(dt=1e-2, n_steps=100, sigma=0.0, n_particles=1, seed=0, x0=2.0,
                    record_every=10)
    report = simulate_tracking(law, cfg, lambda t: 0.0)
    path = tmp_path / "tracking.csv"
    assert path.read_text().splitlines()[0] == "t,e_mean,e_std,u"
    table = io.read_csv(path)
    assert np.array_equal(table[:, 0], report.times)
    assert np.array_equal(table[:, 1], report.errors)
    assert np.array_equal(table[:, 2], report.error_std)
    assert np.array_equal(table[:, 3], report.control)

    payload = json.loads((tmp_path / "tracking_summary.json").read_text())
    assert payload["terminal_error"] == report.terminal_error
    assert payload["fitted_decay_rate"] == report.fitted_decay_rate
    assert payload["fit_window"] == list(report.fit_window)
    assert payload["config"] == json.loads(json.dumps(summary.config_echo))
