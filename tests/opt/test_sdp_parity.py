"""Parity oracle: the vectorised SDP loop against the original ``np.add.at`` loop.

``VectorProgramSolver._minimise`` builds its gradient with one flattened
``np.bincount`` scatter and inlines the norms.  ``ReferenceSolver`` below keeps
the original ``solve`` and ``_minimise`` verbatim (six ``np.add.at`` calls, one
``zeros_like`` and two ``np.linalg.norm`` calls per iteration, and a final
``_max_violation`` recomputation).  Every float of the result must match
exactly, not approximately: duplicate edges and hub vertices make many terms
land on the same cell, which pins the accumulation order.
"""

import itertools

import numpy as np
import pytest

from repro.errors import SolverError
from repro.opt.sdp import SdpOptions, SdpResult, VectorProgramSolver


class ReferenceSolver(VectorProgramSolver):
    """The solver as it was before the ``bincount`` rewrite."""

    def solve(self, num_vertices, conflict_edges, stitch_edges=()):
        if num_vertices <= 0:
            raise SolverError("cannot solve an empty vector program")
        for (i, j) in list(conflict_edges) + list(stitch_edges):
            if not (0 <= i < num_vertices and 0 <= j < num_vertices):
                raise SolverError(f"edge ({i}, {j}) outside vertex range")

        # A couple of extra dimensions beyond K helps the low-rank factorisation
        # escape the local minima a rank-K landscape exhibits.
        dim = self.options.dimension or (self.num_colors + 2)
        rng = np.random.default_rng(self.options.seed + num_vertices)
        vectors = rng.normal(size=(num_vertices, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

        conflict = np.asarray(conflict_edges, dtype=int).reshape(-1, 2)
        stitch = np.asarray(stitch_edges, dtype=int).reshape(-1, 2)
        lower_bound = -1.0 / (self.num_colors - 1)

        penalty = self.options.penalty_initial
        total_iterations = 0
        for _ in range(self.options.max_outer_iterations):
            vectors, inner_iterations = self._minimise(
                vectors, conflict, stitch, lower_bound, penalty
            )
            total_iterations += inner_iterations
            violation = self._max_violation(vectors, conflict, lower_bound)
            if violation < 1e-3:
                break
            penalty *= self.options.penalty_growth

        gram = np.clip(vectors @ vectors.T, -1.0, 1.0)
        objective = self._objective(vectors, conflict, stitch)
        violation = self._max_violation(vectors, conflict, lower_bound)
        return SdpResult(
            gram=gram,
            vectors=vectors,
            objective=objective,
            constraint_violation=violation,
            iterations=total_iterations,
        )

    def _minimise(
        self,
        vectors: np.ndarray,
        conflict: np.ndarray,
        stitch: np.ndarray,
        lower_bound: float,
        penalty: float,
    ):
        """Projected gradient descent with a fixed penalty weight."""
        rate = self.options.learning_rate
        n = vectors.shape[0]
        previous_value = np.inf
        iterations = 0
        for iteration in range(self.options.max_inner_iterations):
            iterations = iteration + 1
            gradient = np.zeros_like(vectors)
            value = 0.0
            if conflict.size:
                vi = vectors[conflict[:, 0]]
                vj = vectors[conflict[:, 1]]
                dots = np.einsum("ij,ij->i", vi, vj)
                value += dots.sum()
                np.add.at(gradient, conflict[:, 0], vj)
                np.add.at(gradient, conflict[:, 1], vi)
                violation = np.maximum(lower_bound - dots, 0.0)
                value += penalty * float((violation**2).sum())
                scale = (-2.0 * penalty * violation)[:, None]
                np.add.at(gradient, conflict[:, 0], scale * vj)
                np.add.at(gradient, conflict[:, 1], scale * vi)
            if stitch.size:
                vi = vectors[stitch[:, 0]]
                vj = vectors[stitch[:, 1]]
                dots = np.einsum("ij,ij->i", vi, vj)
                value -= self.alpha * dots.sum()
                np.add.at(gradient, stitch[:, 0], -self.alpha * vj)
                np.add.at(gradient, stitch[:, 1], -self.alpha * vi)

            # Project the gradient onto the tangent space of each unit sphere
            # (Riemannian gradient), then step and re-normalise.
            radial = np.einsum("ij,ij->i", gradient, vectors)[:, None] * vectors
            tangent = gradient - radial
            grad_norm = float(np.linalg.norm(tangent) / max(n, 1))
            if grad_norm < self.options.gradient_tolerance:
                break
            vectors = vectors - rate * tangent
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            vectors = vectors / norms

            if abs(previous_value - value) < 1e-9 * (1.0 + abs(value)):
                break
            previous_value = value
        return vectors, iterations


def assert_identical(num_colors, num_vertices, conflict, stitch, alpha=0.1, options=None):
    """Solve with both solvers and require every output to match bit for bit."""
    expected = ReferenceSolver(num_colors, alpha, options).solve(num_vertices, conflict, stitch)
    actual = VectorProgramSolver(num_colors, alpha, options).solve(
        num_vertices, conflict, stitch
    )
    assert np.array_equal(actual.vectors, expected.vectors)
    assert np.array_equal(actual.gram, expected.gram)
    assert actual.objective == expected.objective
    assert actual.constraint_violation == expected.constraint_violation
    assert actual.iterations == expected.iterations
    return actual


def random_problem(seed, num_vertices, conflict_density, stitch_density):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(num_vertices), 2))
    draws = rng.random(len(pairs))
    conflict = [p for p, d in zip(pairs, draws) if d < conflict_density]
    stitch_limit = conflict_density + stitch_density
    stitch = [p for p, d in zip(pairs, draws) if conflict_density <= d < stitch_limit]
    # Shuffle edge order and endpoint orientation: both reach the scatter.
    rng.shuffle(conflict)
    rng.shuffle(stitch)
    conflict = [(j, i) if rng.random() < 0.5 else (i, j) for (i, j) in conflict]
    stitch = [(j, i) if rng.random() < 0.5 else (i, j) for (i, j) in stitch]
    return conflict, stitch


@pytest.mark.parametrize("num_colors", [3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_random_graphs(num_colors, seed):
    num_vertices = 3 + 5 * seed
    conflict, stitch = random_problem(seed, num_vertices, 0.35, 0.15)
    assert_identical(num_colors, num_vertices, conflict, stitch)


def test_conflict_only():
    conflict, _ = random_problem(11, 14, 0.5, 0.0)
    assert_identical(4, 14, conflict, [])


def test_stitch_only():
    _, stitch = random_problem(12, 12, 0.0, 0.3)
    result = assert_identical(4, 12, [], stitch)
    assert result.constraint_violation == 0.0


@pytest.mark.parametrize("tolerance", [1e-4, 0.0])
def test_edge_free(tolerance):
    assert_identical(4, 7, [], [], options=SdpOptions(gradient_tolerance=tolerance))


def test_single_vertex():
    assert_identical(4, 1, [], [])


def test_parallel_and_duplicate_edges():
    """Repeated and reversed edges add several terms to the same cells."""
    conflict = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (2, 0), (0, 1)]
    stitch = [(2, 3), (3, 2), (2, 3), (0, 3)]
    assert_identical(4, 4, conflict, stitch)


def test_hub_vertices():
    """Two hubs receive a term from every spoke, in both orientations."""
    spokes = range(2, 40)
    conflict = [(0, s) for s in spokes] + [(s, 1) for s in spokes] + [(0, 1)]
    stitch = [(s, 0) for s in range(2, 40, 3)] + [(1, s) for s in range(3, 40, 4)]
    assert_identical(4, 40, conflict, stitch)


def test_hub_with_odd_edge_counts():
    """Odd block lengths shift the scatter blocks off any SIMD alignment."""
    conflict = [(0, s) for s in range(1, 8)]
    stitch = [(s, 0) for s in range(8, 11)]
    assert_identical(5, 11, conflict, stitch)


def test_non_default_options():
    options = SdpOptions(
        dimension=9,
        max_outer_iterations=4,
        max_inner_iterations=120,
        learning_rate=0.11,
        penalty_initial=0.5,
        penalty_growth=9.0,
        gradient_tolerance=1e-6,
        seed=7,
    )
    conflict, stitch = random_problem(21, 18, 0.4, 0.2)
    assert_identical(4, 18, conflict, stitch, alpha=0.35, options=options)


def test_minimum_dimension():
    """``dimension = K - 1`` exactly, the smallest accepted rank."""
    conflict, stitch = random_problem(22, 10, 0.4, 0.2)
    assert_identical(4, 10, conflict, stitch, options=SdpOptions(dimension=3))


def test_outer_loop_exhausted():
    """A cut penalty schedule ends infeasible; the last violation is reported."""
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    options = SdpOptions(max_outer_iterations=2, max_inner_iterations=15)
    result = assert_identical(3, 6, edges, [], options=options)
    assert result.constraint_violation > 1e-3
