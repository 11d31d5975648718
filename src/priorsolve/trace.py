"""Per-iteration run traces, and the one writer of every CSV artifact.

One record per iteration with a fixed column set:

    t,objective,lagrangian,feas_gap,sigma,step_w,step_z,stop_metric,
    dist_w,dist_z,wall_ns

dist_w / dist_z are distances to a planted solution and stay blank when no
planted solution is known.  wall_ns is the cumulative wall time since the
start of the run.  Traces, summary.csv and plateaus.csv share one format:
CRLF rows under a header, None blank, ints and strings as they are, floats
by repr (shortest round-trip form, so reading reproduces them exactly).
"""

import csv
from dataclasses import dataclass, field
from operator import attrgetter

__all__ = [
    "TraceRecord",
    "RunTrace",
    "StageInfo",
    "write_trace_csv",
    "read_trace_csv",
    "write_summary_csv",
]

TRACE_COLUMNS = (
    "t",
    "objective",
    "lagrangian",
    "feas_gap",
    "sigma",
    "step_w",
    "step_z",
    "stop_metric",
    "dist_w",
    "dist_z",
    "wall_ns",
)

SUMMARY_COLUMNS = (
    "algo",
    "final_obj",
    "final_gap",
    "iters",
    "wall_ns",
    "eta_hat",
    "plateau",
)


@dataclass
class TraceRecord:
    """State of one iteration, evaluated at the new iterate."""

    t: int
    objective: float
    lagrangian: float
    feas_gap: float
    sigma: float
    step_w: float
    step_z: float
    stop_metric: float
    dist_w: float = None
    dist_z: float = None
    wall_ns: int = 0


@dataclass
class StageInfo:
    """Multi-scale stage annotation: which records a stage produced and
    with which effective parameters."""

    index: int
    rho: float
    alpha: float
    beta: float
    first_t: int
    last_t: int


@dataclass
class RunTrace:
    records: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    stop_reason: str = None  # set by the run loop: "tol", "budget", "nonfinite"

    def append(self, record):
        if self.records and record.t <= self.records[-1].t:
            raise ValueError("trace records must be strictly increasing in t")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name):
        """One column across all records as a plain list."""
        if name not in TRACE_COLUMNS:
            raise ValueError(f"unknown trace column {name!r}")
        return [getattr(r, name) for r in self.records]


def _format(value):
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def write_trace_csv(trace, path, zero_wall=False):
    """Write the trace, streaming one line per record (csv.writer's bytes: no
    _format-ed cell needs quoting); zero_wall=True writes 0 in the timing
    column so that repeated runs produce byte-identical files.  A row of
    only float and int cells is formatted by one C-level % operation; any
    other row goes through _format cell by cell, to the same bytes."""
    columns = TRACE_COLUMNS[:-1] if zero_wall else TRACE_COLUMNS
    values = attrgetter(*columns)
    end = ",0\r\n" if zero_wall else "\r\n"
    template = ",".join(["%r"] * len(columns)) + end
    plain = frozenset((float, int))  # the cell types whose repr is their _format
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for cells in map(values, trace):
            if plain.issuperset(map(type, cells)):
                fh.write(template % cells)
            else:
                fh.write(",".join(map(_format, cells)) + end)


def read_trace_csv(path):
    """Parse a trace file back into a RunTrace (records only; stage
    annotations and the stop reason are in-memory and not serialized)."""
    trace = RunTrace()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header {header!r}")
        for row in reader:
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row {row!r}")
            values = {}
            for name, cell in zip(TRACE_COLUMNS, row):
                if name in ("t", "wall_ns"):
                    values[name] = int(cell)
                elif cell == "":
                    values[name] = None
                else:
                    values[name] = float(cell)
            trace.append(TraceRecord(**values))
    return trace


def write_summary_csv(rows, path, columns=SUMMARY_COLUMNS):
    """Write one row per dict in rows (by default one per algorithm) under
    the header columns; a key outside columns raises ValueError."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            extra = set(row) - set(columns)
            if extra:
                raise ValueError(f"unknown field(s) {sorted(extra)} for {columns}")
            writer.writerow([_format(row.get(name)) for name in columns])
