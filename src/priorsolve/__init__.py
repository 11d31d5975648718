"""Inverse problems with a feedforward generative prior.

Solvers for  min_{w,z} L(w) + R(w) + H(z)  subject to  w = G(z),
where L is a smooth data-fit term, R and H are proximable penalties, and G
is a feedforward generator network.  Provides a linearized ADMM solver with
a diminishing dual step schedule, an exact-minimization multi-scale
variant, a latent-space gradient descent baseline, sampled geometry
diagnostics for G, and an experiment harness with a command line front end.

Public names import lazily (PEP 562), each from the module whose ``__all__``
lists it, so ``import priorsolve`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# leaf-first: each module imports only modules listed before it
_MODULES = ("generator", "prox", "trace", "losses", "admm", "gd", "harness", "config")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    modules = (importlib.import_module(f".{m}", __name__) for m in _MODULES)
    if name == "__all__":
        ordered = sorted(modules, key=lambda module: module.__name__)
        value = [*(n for module in ordered for n in module.__all__), "__version__"]
    elif not name.startswith("__") and (owner := next(
            (module for module in modules if name in module.__all__), None)):
        value = getattr(owner, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
