"""Trace records and CSV round-trip fidelity."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorsolve.trace import (
    TRACE_COLUMNS,
    RunTrace,
    _format,
    TraceRecord,
    read_trace_csv,
    write_summary_csv,
    write_trace_csv,
)

RNG = np.random.default_rng


def random_trace(seed, n, with_dist=True):
    rng = RNG(seed)
    trace = RunTrace()
    for t in range(1, n + 1):
        trace.append(
            TraceRecord(
                t=t,
                objective=float(rng.standard_normal() * 10.0 ** rng.integers(-9, 9)),
                lagrangian=float(rng.standard_normal()),
                feas_gap=float(abs(rng.standard_normal())),
                sigma=float(rng.uniform(0.0, 1.0)),
                step_w=float(abs(rng.standard_normal())),
                step_z=float(abs(rng.standard_normal())),
                stop_metric=float(abs(rng.standard_normal())),
                dist_w=float(abs(rng.standard_normal())) if with_dist else None,
                dist_z=float(abs(rng.standard_normal())) if with_dist else None,
                wall_ns=int(t * 1234567),
            )
        )
    return trace


def same_value(a, b):
    """Equal, with nan equal to nan and the sign of zero kept."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


FLOAT_FIELDS = TRACE_COLUMNS[1:-3]
records = st.lists(
    st.tuples(
        st.tuples(*(st.floats() for _ in FLOAT_FIELDS)),
        st.tuples(*(st.none() | st.floats() for _ in range(2))),
        st.integers(0, 2**63 - 1),
    ),
    max_size=6,
)


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "trace.csv"


@settings(max_examples=100, deadline=None)
@given(rows=records, zero_wall=st.booleans())
def test_round_trip_is_exact(scratch_csv, rows, zero_wall):
    """Any float64 (nan, +-inf, -0.0, subnormals, max) and blank distance
    columns read back unchanged, and the file holds csv.writer's bytes for
    the same cells."""
    trace = RunTrace()
    for t, (floats, dists, wall_ns) in enumerate(rows, start=1):
        values = dict(zip(FLOAT_FIELDS, floats), dist_w=dists[0], dist_z=dists[1])
        trace.append(TraceRecord(t=t, wall_ns=wall_ns, **values))
    write_trace_csv(trace, scratch_csv, zero_wall=zero_wall)
    back = read_trace_csv(scratch_csv)
    written = scratch_csv.read_bytes()
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(TRACE_COLUMNS)
    for rec in trace:
        cells = [getattr(rec, name) for name in TRACE_COLUMNS]
        writer.writerow(cells[:-1] + [0 if zero_wall else rec.wall_ns])
    assert written == want.getvalue().encode()
    assert len(back) == len(trace)
    for got, rec in zip(back, trace):
        for name in TRACE_COLUMNS[:-1]:
            assert same_value(getattr(got, name), getattr(rec, name)), name
        assert got.wall_ns == (0 if zero_wall else rec.wall_ns)


# every cell type a record may carry; rows of only Python float and int
# cells take the writer's one-format path, any other row its per-cell path
plain_cells = st.floats() | st.integers(-(2**70), 2**70)
mixed_cells = (
    plain_cells
    | st.none()
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
)
cell_rows = st.lists(
    st.booleans().flatmap(
        lambda plain: st.tuples(
            *((plain_cells if plain else mixed_cells) for _ in TRACE_COLUMNS[1:])
        )
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(rows=cell_rows, zero_wall=st.booleans())
def test_writer_bytes_equal_format_join(scratch_csv, rows, zero_wall):
    """Whatever mix of Python float, np.float64, np.float32, int and None a
    row holds, the file holds the _format of every cell."""
    trace = RunTrace()
    for t, cells in enumerate(rows, start=1):
        trace.append(TraceRecord(t, *cells))
    write_trace_csv(trace, scratch_csv, zero_wall=zero_wall)
    want = [",".join(TRACE_COLUMNS)]
    for rec in trace:
        cells = [getattr(rec, name) for name in TRACE_COLUMNS]
        if zero_wall:
            cells[-1] = 0
        want.append(",".join(map(_format, cells)))
    assert scratch_csv.read_bytes() == "".join(s + "\r\n" for s in want).encode()


def test_blank_dist_columns_when_no_planted_solution(tmp_path):
    trace = random_trace(2, 3, with_dist=False)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,objective,lagrangian,feas_gap,sigma,step_w,step_z,stop_metric,"
        "dist_w,dist_z,wall_ns"
    )
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[8] == "" and cells[9] == ""


def test_zero_wall_option(tmp_path):
    trace = random_trace(3, 5)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path, zero_wall=True)
    back = read_trace_csv(path)
    assert all(r.wall_ns == 0 for r in back)
    assert trace.records[0].wall_ns != 0  # in-memory records untouched


def test_append_requires_increasing_t():
    trace = RunTrace()
    trace.append(random_trace(4, 1).records[0])
    with pytest.raises(ValueError):
        trace.append(random_trace(4, 1).records[0])


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_column_access():
    trace = random_trace(5, 4)
    assert trace.column("t") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        trace.column("rho")


def test_summary_writer(tmp_path):
    rows = [
        {"algo": "gd", "final_obj": 0.5, "final_gap": 0.0, "iters": 10,
         "wall_ns": 0, "eta_hat": 0.93, "plateau": 1e-9},
        {"algo": "admm", "final_obj": 0.25, "final_gap": 1e-4, "iters": 12,
         "wall_ns": 0, "eta_hat": None, "plateau": None},
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "algo,final_obj,final_gap,iters,wall_ns,eta_hat,plateau"
    assert lines[1] == "gd,0.5,0.0,10,0,0.93,1e-09"
    assert lines[2] == "admm,0.25,0.0001,12,0,,"
    with pytest.raises(ValueError):
        write_summary_csv([{"algo": "x", "bogus": 1}], path)


table_cells = (
    st.text()
    | st.none()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
)


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(st.text(), min_size=1, max_size=5, unique=True)))
    row = st.fixed_dictionaries({}, optional={name: table_cells for name in columns})
    return columns, draw(st.lists(row, max_size=4))


@settings(max_examples=200, deadline=None)
@given(table=tables(), stray=st.text())
def test_table_writer_round_trips_through_csv_reader(scratch_csv, table, stray):
    """Under any header, csv.reader gives back the header and the _format of
    every cell (a missing key reads as a blank cell); a key outside the
    header raises."""
    columns, rows = table
    write_summary_csv(rows, scratch_csv, columns)
    with open(scratch_csv, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == list(columns)
    assert back[1:] == [[_format(row.get(name)) for name in columns] for row in rows]
    if stray not in columns:
        with pytest.raises(ValueError):
            write_summary_csv(rows + [{stray: 1.0}], scratch_csv, columns)
