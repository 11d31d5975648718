"""Spans around priorsolve's public functions, recorded from outside the package.

``Tracer.install`` replaces each target below with a wrapper that records a
span (name, start, end, parent) and calls the original; ``restore`` puts the
originals back.  Module-level functions are replaced in every priorsolve
module that imported them, so calls through ``from .x import f`` are seen
too.  Spans stay in memory and are written once, at the end, as an ``.npz``.

Run as a script, this file is a traced stand-in for ``python -m priorsolve``:

    python bench/tracer.py SPANS.npz compare config.ini --out-dir out
"""

import functools
import importlib
import sys
import time

# (span name, module, attribute path); targets missing from the package are
# skipped and reported by Tracer.missing
TARGETS = (
    ("config.parse_config", "priorsolve.config", "parse_config"),
    ("generator.load_generator", "priorsolve.generator", "load_generator"),
    ("generator.estimate_geometry", "priorsolve.generator", "estimate_geometry"),
    ("generator.forward", "priorsolve.generator", "FeedforwardGenerator.forward"),
    ("generator.vjp", "priorsolve.generator", "FeedforwardGenerator.vjp"),
    ("generator.jacobian", "priorsolve.generator", "FeedforwardGenerator.jacobian"),
    ("losses.value", "priorsolve.losses", "QuadraticDenoise.value"),
    ("losses.grad", "priorsolve.losses", "QuadraticDenoise.grad"),
    ("losses.value", "priorsolve.losses", "ScaledQuadratic.value"),
    ("losses.grad", "priorsolve.losses", "ScaledQuadratic.grad"),
    ("losses.value", "priorsolve.losses", "LeastSquares.value"),
    ("losses.grad", "priorsolve.losses", "LeastSquares.grad"),
    ("losses.svd", "priorsolve.losses", "LeastSquares.svd"),
    ("prox.prox", "priorsolve.prox", "Regularizer.prox"),
    ("harness.build_instance", "priorsolve.harness", "build_instance"),
    ("harness.fit_rate", "priorsolve.harness", "fit_rate"),
    ("harness.plateau_vs_rho", "priorsolve.harness", "plateau_vs_rho"),
    ("admm.admm_step", "priorsolve.admm", "admm_step"),
    ("admm.exact_w_min", "priorsolve.admm", "exact_w_min"),
    ("admm.run", "priorsolve.admm", "run"),
    ("admm.run_multiscale", "priorsolve.admm", "run_multiscale"),
    ("gd.run_gd", "priorsolve.gd", "run_gd"),
    ("trace.write_trace_csv", "priorsolve.trace", "write_trace_csv"),
)


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self._saved = []
        self.missing = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """fn with every call recorded as a span called name."""
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "priorsolve" or n.startswith("priorsolve.")]
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(name, original)
            if owner_name:
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path, import_ns):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int32),
            import_ns=np.int64(import_ns),
            missing=np.array(self.missing, dtype=str),
        )


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import priorsolve.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", priorsolve.cli.main, cli_args)
    finally:
        tracer.restore()
    tracer.save(spans_path, import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
