"""Per-layer metrics of one traced job, derived from its spans.

Every metric is a per-job total unless its name says otherwise.  Times named
``*_s`` are inclusive span time except ``*self_s``, which subtract the time
covered by child spans.  Metrics of a layer the workload never reaches read 0.
"""

import json

import numpy as np

PER_LAYER = (
    ("process.import_s", "s"),
    ("config.parse_s", "s"),
    ("generator.load_s", "s"),
    ("losses.svd_s", "s"),
    ("generator.geometry_calls", "count"),
    ("generator.geometry_self_s", "s"),
    ("generator.geometry_pairs_per_s", "1/s"),
    ("generator.forward_calls", "count"),
    ("generator.vjp_calls", "count"),
    ("generator.jacobian_calls", "count"),
    ("generator.forward_s", "s"),
    ("generator.vjp_s", "s"),
    ("generator.jacobian_s", "s"),
    ("generator.passes_per_iter", "1/iter"),
    ("generator.gflops_computed", "GFLOP"),
    ("losses.value_calls", "count"),
    ("losses.grad_calls", "count"),
    ("losses.value_s", "s"),
    ("losses.grad_s", "s"),
    ("prox.calls", "count"),
    ("prox.s", "s"),
    ("admm.iters", "count"),
    ("admm.step_us", "us"),
    ("admm.exact_w_min_s", "s"),
    ("admm.step_self_s", "s"),
    ("gd.iters", "count"),
    ("gd.us_per_iter", "us"),
    ("gd.self_s", "s"),
    ("harness.build_instance_s", "s"),
    ("harness.fit_rate_s", "s"),
    ("harness.sweep_self_s", "s"),
    ("trace.write_s", "s"),
    ("trace.rows_written", "count"),
    ("trace.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("bench.accounted_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
)

# spans whose generator passes count toward generator.passes_per_iter
SOLVER_SPANS = ("admm.admm_step", "gd.run_gd")


class Spans:
    """Columns of one job's span file, with durations and self times in s."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name_id = data["name_id"]
            self.parent = data["parent"]
            self.import_s = int(data["import_ns"]) * 1e-9
            self.missing = [str(m) for m in data["missing"]]
            dur = (data["end"] - data["start"]).astype(float) * 1e-9
        self.dur = dur
        nested = self.parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, self.parent[nested], dur[nested])
        self.self_time = dur - covered

    def mask(self, name):
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name):
        return int(np.count_nonzero(self.mask(name)))

    def total(self, name):
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name):
        return float(self.self_time[self.mask(name)].sum())

    def inside(self, ancestors):
        """Mask of spans with an ancestor named in ancestors.  Parents are
        recorded before their children, so one forward sweep suffices."""
        ids = {self.names.index(a) for a in ancestors if a in self.names}
        out = np.zeros(self.name_id.shape, dtype=bool)
        name_id, parent = self.name_id.tolist(), self.parent.tolist()
        for i, p in enumerate(parent):
            if p >= 0 and (out[p] or name_id[p] in ids):
                out[i] = True
        return out


def layer_shapes(generator_path):
    """(rows, cols) of each layer of a generator JSON file."""
    with open(generator_path) as fh:
        doc = json.load(fh)
    shapes = []
    for layer in doc["layers"]:
        if "init" in layer:
            shapes.append((int(layer["init"]["rows"]), int(layer["init"]["cols"])))
        else:
            shapes.append((len(layer["weights"]), len(layer["weights"][0])))
    return shapes


def generator_flops(shapes, forwards, vjps, jacobians):
    """Matrix-product flops of the generator calls, computed from shapes:
    a forward is 2rc per layer, a VJP a forward plus 2rc per layer, and a
    Jacobian a forward plus rc per layer for the row scaling and 2rcd for
    each product with the running d-column Jacobian after the first."""
    d = shapes[0][1]
    fwd = sum(2 * r * c for r, c in shapes)
    jac = fwd + sum(r * c for r, c in shapes)
    jac += sum(2 * r * c * d for r, c in shapes[1:])
    return forwards * fwd + vjps * 2 * fwd + jacobians * jac


def _data_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def job_layers(spans, job, wall_s):
    """Per-layer metrics of one traced job that took wall_s from spawn to
    exit (all but the overhead ratio, which needs the untraced runs)."""
    s = spans
    trace_files = [p for p in job.trace_files if p.is_file()]
    rows = {p.name: _data_rows(p) for p in trace_files}
    gd_iters = rows.get("gd_trace.csv", 0)
    in_solver = s.inside(SOLVER_SPANS)
    passes = int(np.count_nonzero(
        in_solver & (s.mask("generator.forward") | s.mask("generator.vjp"))
    ))
    admm_iters = s.calls("admm.admm_step")
    pairs = int(np.count_nonzero(
        s.inside(("generator.estimate_geometry",)) & s.mask("generator.jacobian")
    ))
    geometry_s = s.total("generator.estimate_geometry")
    forwards = s.calls("generator.forward")
    vjps = s.calls("generator.vjp")
    jacobians = s.calls("generator.jacobian")
    flops = generator_flops(layer_shapes(job.generator), forwards, vjps, jacobians)
    solver_iters = admm_iters + gd_iters
    accounted = s.import_s + float(s.self_time.sum())
    return {
        "process.import_s": s.import_s,
        "config.parse_s": s.total("config.parse_config"),
        "generator.load_s": s.total("generator.load_generator"),
        "losses.svd_s": s.total("losses.svd"),
        "generator.geometry_calls": s.calls("generator.estimate_geometry"),
        "generator.geometry_self_s": s.self_total("generator.estimate_geometry"),
        "generator.geometry_pairs_per_s": pairs / geometry_s if geometry_s else 0.0,
        "generator.forward_calls": forwards,
        "generator.vjp_calls": vjps,
        "generator.jacobian_calls": jacobians,
        "generator.forward_s": s.total("generator.forward"),
        "generator.vjp_s": s.total("generator.vjp"),
        "generator.jacobian_s": s.total("generator.jacobian"),
        "generator.passes_per_iter": passes / solver_iters if solver_iters else 0.0,
        "generator.gflops_computed": flops * 1e-9,
        "losses.value_calls": s.calls("losses.value"),
        "losses.grad_calls": s.calls("losses.grad"),
        "losses.value_s": s.total("losses.value"),
        "losses.grad_s": s.total("losses.grad"),
        "prox.calls": s.calls("prox.prox"),
        "prox.s": s.total("prox.prox"),
        "admm.iters": admm_iters,
        "admm.step_us": (
            s.total("admm.admm_step") / admm_iters * 1e6 if admm_iters else 0.0
        ),
        "admm.exact_w_min_s": s.total("admm.exact_w_min"),
        "admm.step_self_s": s.self_total("admm.admm_step"),
        "gd.iters": gd_iters,
        "gd.us_per_iter": s.total("gd.run_gd") / gd_iters * 1e6 if gd_iters else 0.0,
        "gd.self_s": s.self_total("gd.run_gd"),
        "harness.build_instance_s": s.total("harness.build_instance"),
        "harness.fit_rate_s": s.total("harness.fit_rate"),
        "harness.sweep_self_s": s.self_total("harness.plateau_vs_rho"),
        "trace.write_s": s.total("trace.write_trace_csv"),
        "trace.rows_written": sum(rows.values()),
        "trace.bytes_written": sum(p.stat().st_size for p in trace_files),
        "cli.self_s": s.self_total("cli.main"),
        "bench.accounted_frac": accounted / wall_s,
    }
