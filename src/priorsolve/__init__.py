"""Inverse problems with a feedforward generative prior.

Solvers for  min_{w,z} L(w) + R(w) + H(z)  subject to  w = G(z),
where L is a smooth data-fit term, R and H are proximable penalties, and G
is a feedforward generator network.  Provides a linearized ADMM solver with
a diminishing dual step schedule, an exact-minimization multi-scale
variant, a latent-space gradient descent baseline, sampled geometry
diagnostics for G, and an experiment harness with a command line front end.
"""

__version__ = "0.1.0"

from . import admm, config, gd, generator, harness, losses, prox, trace
from .admm import *
from .config import *
from .gd import *
from .generator import *
from .harness import *
from .losses import *
from .prox import *
from .trace import *

__all__ = [
    *admm.__all__, *config.__all__, *gd.__all__, *generator.__all__,
    *harness.__all__, *losses.__all__, *prox.__all__, *trace.__all__,
    "__version__",
]
