"""``within_eps_many`` gives exactly ``within_eps``'s answer.

Pairs are placed at eps off the grid and nudged by a few ulps, so a large
share of their squared sums lands within rounding of ``eps * eps``: the
pairs a squared-sum test and ``math.dist`` used to decide differently.
Every shape the callers use is covered: one centre against many rows
(linear scan, single balls), a batch of centres against a block (the
numpy grid's grouped path) and paired rows (its flat batched path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.distance import dists_to_many, within_eps, within_eps_many

#: Pairs placed at eps per shape and dimension (3 shapes x 4 dims x 12,000
#: = 144,000 in all).
PAIRS = 12_000
EPS_VALUES = (0.05, 0.5, 0.75, 1.0)


def at_eps(rng: np.random.Generator, centers: np.ndarray, eps: float) -> np.ndarray:
    """One row per centre, at distance eps from it give or take a few ulps."""
    step = rng.normal(size=centers.shape)
    step /= np.linalg.norm(step, axis=-1, keepdims=True)
    rows = centers + eps * step
    nudge = rng.integers(-3, 4, size=rows.shape)
    return rows + nudge * np.spacing(rows)


def expected(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """``within_eps`` row by row over broadcast ``a`` and ``b``."""
    a, b = np.broadcast_arrays(a, b)
    flat_a = a.reshape(-1, a.shape[-1]).tolist()
    flat_b = b.reshape(-1, b.shape[-1]).tolist()
    answers = [within_eps(x, y, eps) for x, y in zip(flat_a, flat_b)]
    return np.array(answers, dtype=bool).reshape(a.shape[:-1])


def assert_matches(a, b, eps) -> int:
    """Check one call; return how many rows a squared-sum test gets wrong."""
    want = expected(a, b, eps)
    got = within_eps_many(a, b, eps)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return int(np.count_nonzero((dists_to_many(a, b) <= eps * eps) != want))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
class TestWithinEpsMany:
    def test_one_centre_against_many_rows(self, dim):
        rng = np.random.default_rng(dim)
        split = 0
        per_eps = PAIRS // len(EPS_VALUES)
        for eps in EPS_VALUES:
            for _ in range(per_eps // 250):
                centre = rng.uniform(-10.0, 10.0, size=dim)
                rows = at_eps(rng, np.tile(centre, (250, 1)), eps)
                split += assert_matches(centre, rows, eps)
        if dim > 1:
            assert split, "no pair separated the two tests; nudge harder"

    def test_batch_of_centres_against_a_block(self, dim):
        rng = np.random.default_rng(10 + dim)
        split = 0
        per_eps = PAIRS // len(EPS_VALUES)
        for eps in EPS_VALUES:
            for _ in range(per_eps // 250):
                centres = rng.uniform(-10.0, 10.0, size=(25, dim))
                # Ten rows at eps from each centre, plus the other 240
                # pairs of the block at arbitrary distances.
                block = at_eps(rng, np.repeat(centres, 10, axis=0), eps)
                split += assert_matches(centres[:, None, :], block, eps)
        if dim > 1:
            assert split, "no pair separated the two tests; nudge harder"

    def test_paired_rows(self, dim):
        rng = np.random.default_rng(20 + dim)
        split = 0
        per_eps = PAIRS // len(EPS_VALUES)
        for eps in EPS_VALUES:
            centres = rng.uniform(-10.0, 10.0, size=(per_eps, dim))
            split += assert_matches(centres, at_eps(rng, centres, eps), eps)
        if dim > 1:
            assert split, "no pair separated the two tests; nudge harder"


def test_empty_and_far_rows():
    assert within_eps_many((0.0, 0.0), np.empty((0, 2)), 1.0).shape == (0,)
    far = within_eps_many((0.0, 0.0), [(3.0, 4.0), (0.6, 0.8), (0.0, 0.0)], 1.0)
    assert far.tolist() == [False, True, True]


def test_zero_radius_holds_only_the_centre():
    rows = [(1.0, 1.0), (1.0, np.nextafter(1.0, 2.0))]
    assert within_eps_many((1.0, 1.0), rows, 0.0).tolist() == [True, False]
