import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpend import io
from stochpend.bifurcation import AtlasCurves, Gamma2Ray, PhasePortrait, ScanResult
from stochpend.dynamics import BobEmbedding, Trajectory
from stochpend.io import (
    _write_columns,
    report_dict,
    write_embedding_csv,
    write_histogram_csv,
    write_pair_csv,
    write_portrait_csv,
    write_scan_csv,
    write_section_csv,
    write_trajectory_csv,
)
from stochpend.poincare import ConcentrationReport, FillReport, StroboscopicSection
from stochpend.verification import MomentBoundReport
from stochpend.rpsde import PathGrid, PathSample

from conftest import set_workers

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))


def value_rows(header, rows) -> bytes:
    """CSV bytes formatted value by value with ``format(float(x), ".17g")``."""
    lines = [header] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(width=st.integers(1, 4), data=st.data())
def test_column_writer_matches_value_formatting(tmp_path_factory, width, data):
    rows = data.draw(st.lists(st.tuples(*[FLOATS] * width), max_size=30))
    columns = [np.array([row[c] for row in rows], dtype=float) for c in range(width)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = ",".join(f"c{c}" for c in range(width))
    _write_columns(path, header, columns)
    assert path.read_bytes() == value_rows(header, rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(0, 300), workers=st.sampled_from([1, 2]),
       row=st.sampled_from(["%.17g,%.17g,%.17g", "%d,%.17g,%.17g", "%d,%d,%d",
                            "%.17g,%.17g,%s"]),
       seed=st.integers(0, 2**32 - 1))
def test_split_writer_gives_the_inline_bytes(tmp_path_factory, rows, workers, row, seed):
    """With every file over the split threshold, the header and first half
    written here and the second half appended by a forked helper (on two
    workers) give the bytes of one process formatting every row."""
    rng = np.random.default_rng(seed)
    values = {"%.17g": rng.choice(EDGES + list(rng.normal(size=8)), rows),
              "%d": rng.integers(-10**6, 10**6, rows), "%s": rng.choice(["empty", "pi1"], rows)}
    columns = [values[t] for t in row.split(",")]
    root = tmp_path_factory.mktemp("split")
    _write_columns(root / "inline.csv", "a,b,c", columns, row)
    with pytest.MonkeyPatch.context() as mp:
        set_workers(mp, workers)
        mp.setattr(io, "SPLIT_VALUES", 1)
        _write_columns(root / "split.csv", "a,b,c", columns, row)
    assert (root / "split.csv").read_bytes() == (root / "inline.csv").read_bytes()


def test_edge_values_in_every_column(tmp_path):
    x = np.array(EDGES)
    _write_columns(tmp_path / "e.csv", "a,b", (x, -x))
    assert (tmp_path / "e.csv").read_text().splitlines() == [
        "a,b", "nan,nan", "inf,-inf", "-inf,inf", "0,-0", "-0,0",
        "4.9406564584124654e-324,-4.9406564584124654e-324",
        "-4.9406564584124654e-324,4.9406564584124654e-324",
        "1.7976931348623157e+308,-1.7976931348623157e+308",
        "-1.7976931348623157e+308,1.7976931348623157e+308",
        "0.10000000000000001,-0.10000000000000001",
        "0.33333333333333331,-0.33333333333333331"]


def test_series_writers_match_value_formatting(tmp_path):
    grid = PathGrid(0.5, 0.25, 6)
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal(grid.n + 1) for _ in range(3))
    a[2], b[3] = -0.0, np.inf
    t = grid.times()
    pair = (PathSample(grid, a), PathSample(grid, b))
    write_pair_csv(tmp_path / "pair.csv", pair)
    assert (tmp_path / "pair.csv").read_bytes() == value_rows("t,xi1,xi2", zip(t, a, b))
    traj = Trajectory(grid, a, b, c)
    write_trajectory_csv(tmp_path / "traj.csv", traj)
    assert (tmp_path / "traj.csv").read_bytes() == \
        value_rows("t,theta,p,H", zip(t, a, b, c))
    emb = BobEmbedding(grid, a, c)
    write_embedding_csv(tmp_path / "emb.csv", emb)
    assert (tmp_path / "emb.csv").read_bytes() == value_rows("t,x,y", zip(t, a, c))


def test_grid_writers_keep_their_row_order(tmp_path):
    theta = np.linspace(-1.0, 1.0, 4)
    p = np.array([-0.5, 0.0, 2.0 / 3.0])
    hbar = np.arange(12.0).reshape(3, 4) / 7.0
    write_portrait_csv(tmp_path / "portrait.csv",
                       PhasePortrait(theta, p, hbar, equilibria=[], separatrix_levels=[]))
    rows = [(th, mom, hbar[j, i]) for j, mom in enumerate(p) for i, th in enumerate(theta)]
    assert (tmp_path / "portrait.csv").read_bytes() == value_rows("theta,p,Hbar", rows)

    labels = np.array([["PI1", "PI2", "BOUNDARY"], ["PI2", "PI2", "PI1"]], dtype=object)
    l1, l2 = np.array([-0.1, 0.3]), np.array([0.0, 0.2, 1.0 / 3.0])
    write_scan_csv(tmp_path / "scan.csv",
                   ScanResult(l1, l2, labels, boundary_cells=np.empty((0, 2))))
    expected = "lambda1,lambda2,label\n" + "".join(
        f"{format(a, '.17g')},{format(b, '.17g')},{labels[i, j]}\n"
        for i, a in enumerate(l1) for j, b in enumerate(l2))
    assert (tmp_path / "scan.csv").read_text() == expected

    counts = np.array([[0.0, 3.0], [12.0, 1.0], [5.0, 0.0]])
    edges = np.zeros(1)
    write_histogram_csv(tmp_path / "hist.csv",
                        FillReport(counts, occupancy=0.5, band_edges=edges,
                                   band_occupancy=edges))
    expected = "theta_bin,p_bin,count\n" + "".join(
        f"{i},{j},{int(counts[i, j])}\n" for i in range(3) for j in range(2))
    assert (tmp_path / "hist.csv").read_text() == expected

    sec = StroboscopicSection(theta=np.array([0.1, 4.0, -0.0]), p=np.array([1.0, -2.5, 1e-300]))
    write_section_csv(tmp_path / "sec.csv", sec)
    expected = "n,theta_wrapped,p\n" + "".join(
        f"{n},{format(th, '.17g')},{format(mom, '.17g')}\n"
        for n, (th, mom) in enumerate(zip(sec.theta_wrapped, sec.p)))
    assert (tmp_path / "sec.csv").read_text() == expected


def test_report_dict_gives_plain_json_types():
    report = MomentBoundReport(
        t=np.array([0.0, 0.5]), fourth1=np.zeros(2), fourth2=np.ones(2),
        cross22=np.zeros(2), cross31=np.zeros(2), cross13=np.zeros(2),
        fitted_constants={"C1_hat": {"lsq": 0.25, "dominating": 0.5}},
        residuals={"C1_hat": np.array([1.0, -0.0])}, ensemble_n=3)
    assert report_dict(report) == {
        "t": [0.0, 0.5], "fourth1": [0.0, 0.0], "fourth2": [1.0, 1.0],
        "cross22": [0.0, 0.0], "cross31": [0.0, 0.0], "cross13": [0.0, 0.0],
        "fitted_constants": {"C1_hat": {"lsq": 0.25, "dominating": 0.5}},
        "residuals": {"C1_hat": [1.0, -0.0]}, "ensemble_n": 3}
    atlas = report_dict(AtlasCurves(gamma1=np.array([[0.5, -0.25]]), gamma2=Gamma2Ray()))
    assert atlas == {"gamma1": [[0.5, -0.25]], "gamma2": {"min_lambda1": 0.25}}
    assert type(atlas["gamma1"][0][0]) is float
    concentration = ConcentrationReport(equilibrium_theta=0.0, sigma_levels=[(0.2, 0.1)],
                                        radii=np.ones(1), ensemble_n=3, horizon_periods=2)
    assert report_dict(concentration)["sigma_levels"] == [[0.2, 0.1]]
