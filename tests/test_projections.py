"""Unit tests for the three building-block projections."""

import math

import numpy as np
import pytest

from ncdist import (
    project_halfspace,
    project_monotone_nonincreasing,
    project_simplex,
    random_kernel,
)


def reference_monotone_nonincreasing(y):
    """Minimax form of the isotonic fit, O(n^3): an independent oracle."""
    n = len(y)
    neg = [-v for v in y]  # non-decreasing fit of the negated data
    out = []
    for i in range(n):
        best = -math.inf
        for j in range(i + 1):
            worst = math.inf
            for k in range(i, n):
                worst = min(worst, sum(neg[j : k + 1]) / (k - j + 1))
            best = max(best, worst)
        out.append(-best)
    return out


def reference_simplex(y):
    """Bisection on the shift threshold."""
    lo = min(y) - 1.0
    hi = max(y)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if sum(max(v - mid, 0.0) for v in y) > 1.0:
            lo = mid
        else:
            hi = mid
    tau = (lo + hi) / 2.0
    return [max(v - tau, 0.0) for v in y]


class TestMonotoneProjection:
    def test_sorted_input_unchanged(self):
        y = [0.5, 0.3, 0.2]
        assert project_monotone_nonincreasing(y) == y

    def test_two_point_violation_pools(self):
        assert project_monotone_nonincreasing([0.0, 1.0]) == [0.5, 0.5]

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            y = list(rng.normal(size=n))
            got = project_monotone_nonincreasing(y)
            ref = reference_monotone_nonincreasing(y)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_output_is_non_increasing_and_preserves_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = list(rng.normal(size=6))
            x = project_monotone_nonincreasing(y)
            assert all(a >= b - 1e-14 for a, b in zip(x, x[1:]))
            assert math.fsum(x) == pytest.approx(math.fsum(y), abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            y = list(rng.normal(size=5))
            x = project_monotone_nonincreasing(y)
            assert project_monotone_nonincreasing(x) == pytest.approx(x, abs=1e-15)

    def test_never_beaten_by_random_feasible_points(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            y = list(rng.normal(size=5))
            x = project_monotone_nonincreasing(y)
            dx = math.dist(x, y)
            z = sorted(rng.normal(size=5), reverse=True)
            assert dx <= math.dist(z, y) + 1e-12


class TestSimplexProjection:
    def test_simplex_point_unchanged(self):
        y = [0.6, 0.4, 0.0]
        assert project_simplex(y) == y

    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            y = list(rng.normal(size=n) * 2.0)
            assert project_simplex(y) == pytest.approx(reference_simplex(y), abs=1e-10)

    def test_output_in_simplex(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            y = list(rng.normal(size=7) * 3.0)
            x = project_simplex(y)
            assert all(v >= 0.0 for v in x)
            assert math.fsum(x) == pytest.approx(1.0, abs=1e-12)

    def test_preserves_ordering(self):
        """Thresholding keeps a non-increasing input non-increasing."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            y = sorted(rng.normal(size=6), reverse=True)
            x = project_simplex(y)
            assert all(a >= b - 1e-15 for a, b in zip(x, x[1:]))


class TestHalfspaceProjection:
    def test_feasible_point_unchanged(self):
        normal = (-1.0, 1.0, 1.0)
        y = [0.3, 0.4, 0.3]
        assert project_halfspace(y, normal) == y

    def test_lands_on_boundary(self):
        normal = (-1.0, 1.0, 1.0)
        y = [0.7, 0.2, 0.1]
        x = project_halfspace(y, normal)
        assert math.fsum(a * b for a, b in zip(x, normal)) == pytest.approx(0.0, abs=1e-15)

    def test_moves_along_normal_only(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            normal = random_kernel(n, int(rng.integers(0, 1 << 30))).values[::-1]
            y = list(rng.normal(size=n))
            x = project_halfspace(y, normal)
            diff = [a - b for a, b in zip(y, x)]
            scale = math.fsum(d * a for d, a in zip(diff, normal)) / math.fsum(
                a * a for a in normal
            )
            assert diff == pytest.approx([scale * a for a in normal], abs=1e-12)
