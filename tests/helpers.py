"""Helpers shared by the test modules."""

import math

import numpy as np

from fraccauchy.continuation import CauchyData


def with_noise(data, delta, rng, perturb_f=False):
    """Additive Gaussian grid noise on g (optionally also f), rescaled so the
    relative L2 perturbation equals delta exactly."""
    delta = float(delta)
    if not 0.0 <= delta < 1.0:
        raise ValueError("relative noise level must lie in [0, 1)")
    w = data.basis.weights

    def perturb(v):
        nsq = float(np.sum(w * v ** 2))
        if nsq == 0.0:
            raise ValueError("cannot scale relative noise on an all-zero trace")
        e = rng.standard_normal(v.size)
        return v + e * (delta * math.sqrt(nsq / float(np.sum(w * e ** 2))))

    g = perturb(data.g) if delta > 0.0 else data.g.copy()
    f = perturb(data.f) if (perturb_f and delta > 0.0) else data.f.copy()
    return CauchyData(f, g, delta, data.basis)
