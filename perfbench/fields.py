"""Seeded exact solutions of the homogeneous curl-curl problem.

F = sum_k c_k exp(cos(t_k) x + sin(t_k) y) satisfies -lap F + F = 0 for
any angles t_k and weights c_k, so E = curl F = (dF/dy, -dF/dx) has
scalar curl -F and the pair solves the problem the two solvers discretize.
The program only ever sees the resulting AnalyticField.
"""

import numpy as np

from dualcurl.curlcurl import AnalyticField

TERMS = 3


def field_rng(seed, round_, index):
    """Generator for one input; the same arguments give the same field."""
    return np.random.default_rng([seed, round_, index])


def exact_field(rng, terms=TERMS):
    theta = rng.uniform(0.0, 2.0 * np.pi, terms)
    c = rng.uniform(0.5, 1.5, terms) * rng.choice((-1.0, 1.0), terms)
    a, b = np.cos(theta), np.sin(theta)

    def modes(x, y):
        return np.exp(np.multiply.outer(a, x) + np.multiply.outer(b, y))

    def F(x, y):
        return np.tensordot(c, modes(x, y), axes=1)

    return AnalyticField(
        Ex=lambda x, y: np.tensordot(c * b, modes(x, y), axes=1),
        Ey=lambda x, y: -np.tensordot(c * a, modes(x, y), axes=1),
        scalar=F,
        vector_curl=lambda x, y: -F(x, y),
    )
