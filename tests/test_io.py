import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech import io
from spinmech.control import ControlLaw, ReferenceTrajectory, simulate_tracking
from spinmech.errors import InvalidInputError
from spinmech.fokker_planck import DensityField, Grid1D, l1_distance
from spinmech.sde import DriftSpec, SdeConfig, simulate_ensemble
from spinmech.spin import Spinor
from spinmech.stern_gerlach import BeamConfig, simulate_beam


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = np.concatenate(
        [rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100), [0.0, 1e-308]]
    )
    for v in values:
        assert float(io.fmt(v)) == v


def test_trajectories_round_trip(tmp_path):
    cfg = SdeConfig(dt=0.01, n_steps=20, sigma=1.0, n_particles=7, seed=3, x0=1.0)
    batch = simulate_ensemble(DriftSpec.linear(1.0), cfg)
    path = tmp_path / "traj.csv"
    io.write_trajectories(path, batch)
    header = path.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"particle_{i}" for i in range(7))
    back = io.read_trajectories(path)
    assert np.array_equal(back.times, batch.times)
    assert np.array_equal(back.paths, batch.paths)


def test_density_round_trip(tmp_path):
    grid = Grid1D(-2.0, 2.0, 32)
    field = DensityField.from_function(grid, lambda x: np.exp(-np.asarray(x) ** 2))
    path = tmp_path / "rho.csv"
    io.write_density(path, field)
    back = io.read_density(path, grid)
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
    io.write_density(path, field)
    back = io.read_density(path, grid)
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)
    assert l1_distance(back, field) == 0.0


@pytest.mark.parametrize("other", [
    Grid1D(0.0, float(np.nextafter(1.0, 2.0)), 32),  # x_max one ulp further out
    Grid1D(0.0, 1.0, 64),
])
def test_density_from_another_grid_is_refused(tmp_path, other):
    grid = Grid1D(0.0, 1.0, 32)
    io.write_density(tmp_path / "rho.csv", DensityField(grid, np.ones(32)))
    with pytest.raises(InvalidInputError, match="cell centers"):
        io.read_density(tmp_path / "rho.csv", other)


def test_density_sequence_manifest(tmp_path):
    grid = Grid1D(-2.0, 2.0, 32)
    f = DensityField.from_function(grid, lambda x: np.exp(-np.asarray(x) ** 2))
    names = io.write_density_sequence(tmp_path, [0.0, 0.5, 1.0], [f, f, f])
    assert names == [
        "density_0000.csv",
        "density_0001.csv",
        "density_0002.csv",
        "density_manifest.csv",
    ]
    manifest = (tmp_path / "density_manifest.csv").read_text().splitlines()
    assert manifest[0] == "index,time,file"
    assert manifest[2].split(",") == ["1", "0.5", "density_0001.csv"]
    for name in names[:-1]:
        assert (tmp_path / name).exists()


def test_plate_records_round_trip(tmp_path):
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
    io.write_plate_records(path, records)
    back = io.read_plate_records(path)
    assert np.array_equal(back.is_up, records.is_up)
    assert np.array_equal(back.z_final, records.z_final)
    assert np.array_equal(back.p_final, records.p_final)

    summary = tmp_path / "branch_summary.csv"
    io.write_branch_summary(summary, records)
    lines = summary.read_text().splitlines()
    assert lines[0] == "branch,count,mean_z,std_z,mean_p,std_p"
    counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
    assert counts["up"] + counts["down"] == 200


def test_tracking_report_round_trip(tmp_path):
    ref = ReferenceTrajectory.constant(1.0, 1.0 + 1e-9)
    law = ControlLaw(1.0, ref)
    cfg = SdeConfig(dt=1e-2, n_steps=100, sigma=0.0, n_particles=1, seed=0, x0=2.0,
                    record_every=10)
    report = simulate_tracking(law, cfg)
    path = tmp_path / "tracking.csv"
    io.write_tracking_report(path, report)
    table = io.read_tracking_table(path)
    assert np.array_equal(table["t"], report.times)
    assert np.array_equal(table["e_mean"], report.errors)
    assert np.array_equal(table["u"], report.control)

    js = tmp_path / "summary.json"
    io.write_tracking_summary(js, report, {"scenario.name": "track_particle"})
    payload = json.loads(js.read_text())
    assert payload["terminal_error"] == report.terminal_error
    assert payload["config"]["scenario.name"] == "track_particle"
    assert "fitted_decay_rate" in payload
