"""The one definition of "within eps", and its vectorised form.

A point q is an eps-neighbour of p when ``math.dist(p, q) <= eps``
(inclusive, as in DBSCAN). :func:`within_eps` is that test. Every range
search, the served classify and the equivalence checks decide with it, so
DISC, DBSCAN and every index backend agree on points that sit at eps.

:func:`within_eps_many` gives the same answer over numpy rows. It decides
with the squared sum of :func:`dists_to_many` wherever that sum lies
outside a relative band of :data:`EPS_BAND` around ``eps * eps``, and asks
:func:`within_eps` about the rare rows inside the band. The band is far
wider than the rounding error of either computation (about d * 2**-53 for
the sum, one ulp for ``math.dist``), so the fast path never decides a row
the other way. Bounds that skip candidates without testing them (an
R-tree's subtree prune, a grid's cell stencil) compare against
:func:`eps_sq_bound`, the top of the band, so they never skip a point
within eps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: Relative half-width of the band around ``eps * eps`` inside which a
#: squared sum does not decide "within eps" and ``math.dist`` does. The
#: argument needs ``eps * eps`` to be a normal float (eps above ~1.5e-154).
EPS_BAND = 2.0**-32


def within_eps(a: Sequence[float], b: Sequence[float], eps: float) -> bool:
    """Return True when ``a`` and ``b`` lie within ``eps`` of each other.

    The comparison is inclusive (``dist <= eps``), matching DBSCAN's
    definition of the epsilon-neighbourhood.
    """
    return math.dist(a, b) <= eps


def eps_sq_bound(eps: float) -> float:
    """Largest squared sum a pair within ``eps`` can have: the band's top."""
    return eps * eps * (1.0 + EPS_BAND)


def dists_to_many(a, b) -> np.ndarray:
    """Squared Euclidean distances between broadcast rows of ``a`` and ``b``.

    The last axis holds the coordinates: one centre ``(d,)`` against rows
    ``(n, d)`` gives ``(n,)``; paired rows ``(n, d)`` give ``(n,)``; a batch
    ``(m, 1, d)`` against a block ``(n, d)`` gives ``(m, n)``. The sum runs
    column by column, which numpy does several times faster than one
    subtraction over rows of d coordinates. Use it to rank by distance;
    decide "within eps" with :func:`within_eps_many`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[..., 0] - b[..., 0]
    total = diff * diff
    for k in range(1, a.shape[-1]):
        diff = a[..., k] - b[..., k]
        total += diff * diff
    return total


def within_eps_many(a, b, eps: float) -> np.ndarray:
    """:func:`within_eps` over broadcast rows of ``a`` and ``b``.

    Shapes broadcast as in :func:`dists_to_many`; the boolean result has
    their shape without the coordinate axis. Rows whose squared sum lies
    inside the band are decided by :func:`within_eps`, all others by the
    sum.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = dists_to_many(a, b)
    within = np.asarray(sq <= eps_sq_bound(eps))
    edge = within & (sq >= eps * eps * (1.0 - EPS_BAND))
    if edge.any():
        a, b = np.broadcast_arrays(a, b)
        for row in map(tuple, np.argwhere(edge)):
            within[row] = within_eps(a[row].tolist(), b[row].tolist(), eps)
    return within
