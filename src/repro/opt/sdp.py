"""Semidefinite / vector programming substrate for color assignment.

The paper relaxes K-coloring to the vector program of Eq. (2)/(3):

.. math::

    \\min \\sum_{e_{ij} \\in CE} v_i \\cdot v_j
          \\; - \\; \\alpha \\sum_{e_{ij} \\in SE} v_i \\cdot v_j
    \\quad \\text{s.t.} \\quad
    v_i \\cdot v_i = 1, \\qquad
    v_i \\cdot v_j \\ge -\\tfrac{1}{K-1} \\;\\; \\forall e_{ij} \\in CE

and solves it with CSDP.  CSDP is not available offline, so this module
implements a specialised solver for exactly this SDP family using the
Burer–Monteiro low-rank factorisation ``X = V V^T`` with unit-norm rows:
projected gradient descent on the unit sphere with an augmented quadratic
penalty for the conflict-edge inequality constraints, and an outer loop that
tightens the penalty.  The downstream mapping stages only consume the pairwise
inner products ``x_ij``, which this solver provides with the same semantics
("close to 1" = same mask, "close to -1/(K-1)" = different masks).

The relaxation loop is plain numpy and bit-identical to the original
six-``np.add.at`` formulation (see :meth:`VectorProgramSolver._minimise`).
Moving the loop into the compiled solve kernels with a new, documented float
accumulation order (step (b) of the ROADMAP SDP item) is deliberately not
done here: it would change the relaxation's floats, so it needs a quality
gate and a cache-version bump of its own.

The module also exposes :func:`simplex_vectors`, the K unit vectors of Fig. 3
(mutual inner product exactly ``-1/(K-1)``), used by tests and by the
discrete-solution encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SolverError


def simplex_vectors(num_colors: int, dimension: Optional[int] = None) -> np.ndarray:
    """Return ``num_colors`` unit vectors with pairwise inner product -1/(K-1).

    The vectors form a regular simplex; for K = 4 they match the four vectors
    of Fig. 3 up to rotation.  ``dimension`` defaults to ``num_colors - 1``
    (the minimum embedding dimension) and may be larger, in which case the
    vectors are zero-padded.
    """
    if num_colors < 2:
        raise ConfigurationError("simplex_vectors needs at least 2 colors")
    k = num_colors
    dim = dimension if dimension is not None else k - 1
    if dim < k - 1:
        raise ConfigurationError(
            f"dimension {dim} too small for {k} simplex vectors (need >= {k - 1})"
        )
    # Start from the identity-based construction: columns of I_k, centred and
    # scaled, give k points in the hyperplane orthogonal to the all-ones
    # vector with constant pairwise inner product.
    identity = np.eye(k)
    centred = identity - np.full((k, k), 1.0 / k)
    # Rows of `centred` live in a (k-1)-dimensional subspace; orthonormalise.
    basis, _ = np.linalg.qr(centred.T)
    coords = centred @ basis[:, : k - 1]
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    coords = coords / norms
    padded = np.zeros((k, dim))
    padded[:, : k - 1] = coords
    return padded


def gram_from_coloring(colors: Sequence[int], num_colors: int) -> np.ndarray:
    """Return the Gram matrix of a discrete coloring under the simplex encoding."""
    vectors = simplex_vectors(num_colors)
    v = np.asarray([vectors[c] for c in colors])
    return v @ v.T


def discrete_objective(
    colors: Sequence[int],
    conflict_edges: Iterable[Tuple[int, int]],
    stitch_edges: Iterable[Tuple[int, int]],
    alpha: float,
) -> float:
    """Return conflicts + alpha * stitches for a discrete coloring."""
    conflicts = sum(1 for (i, j) in conflict_edges if colors[i] == colors[j])
    stitches = sum(1 for (i, j) in stitch_edges if colors[i] != colors[j])
    return conflicts + alpha * stitches


@dataclass
class SdpOptions:
    """Hyper-parameters of the low-rank vector-program solver."""

    dimension: Optional[int] = None
    max_outer_iterations: int = 6
    max_inner_iterations: int = 400
    learning_rate: float = 0.05
    penalty_initial: float = 2.0
    penalty_growth: float = 4.0
    gradient_tolerance: float = 1e-4
    seed: int = 2014

    def validate(self) -> None:
        if self.max_outer_iterations <= 0 or self.max_inner_iterations <= 0:
            raise ConfigurationError("iteration counts must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if self.penalty_initial <= 0 or self.penalty_growth <= 1:
            raise ConfigurationError("penalty schedule must be increasing")
        if self.dimension is not None and self.dimension < 1:
            raise ConfigurationError("dimension must be at least 1")
        if self.gradient_tolerance < 0:
            raise ConfigurationError("gradient tolerance must be non-negative")


@dataclass
class SdpResult:
    """Solution of the vector-program relaxation.

    Attributes
    ----------
    gram:
        ``n x n`` matrix of pairwise inner products, clipped to [-1, 1].
    vectors:
        The low-rank factor ``V`` (rows are unit vectors).
    objective:
        Relaxed objective value (Eq. 2/3 without the constant term).
    constraint_violation:
        Largest violation of the conflict-edge inequality (0 when feasible).
    iterations:
        Total inner iterations performed.
    """

    gram: np.ndarray
    vectors: np.ndarray
    objective: float
    constraint_violation: float
    iterations: int

    def inner_product(self, i: int, j: int) -> float:
        """Return ``x_ij`` for a vertex-index pair."""
        return float(self.gram[i, j])


class VectorProgramSolver:
    """Low-rank solver for the K-patterning vector program (Eq. 2/3)."""

    def __init__(
        self,
        num_colors: int,
        alpha: float = 0.1,
        options: Optional[SdpOptions] = None,
    ) -> None:
        if num_colors < 2:
            raise ConfigurationError("num_colors must be at least 2")
        if alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        self.num_colors = num_colors
        self.alpha = alpha
        self.options = options or SdpOptions()
        self.options.validate()
        dimension = self.options.dimension
        if dimension is not None and dimension < num_colors - 1:
            raise ConfigurationError(
                f"dimension {dimension} too small for {num_colors} colors "
                f"(need >= {num_colors - 1})"
            )

    # ------------------------------------------------------------------ API
    def solve(
        self,
        num_vertices: int,
        conflict_edges: Sequence[Tuple[int, int]],
        stitch_edges: Sequence[Tuple[int, int]] = (),
    ) -> SdpResult:
        """Solve the relaxation for a graph on ``range(num_vertices)``.

        Edge endpoints must be indices in ``[0, num_vertices)``.
        """
        if num_vertices <= 0:
            raise SolverError("cannot solve an empty vector program")
        conflict = np.asarray(conflict_edges, dtype=int).reshape(-1, 2)
        stitch = np.asarray(stitch_edges, dtype=int).reshape(-1, 2)
        edges = np.concatenate((conflict, stitch))
        outside = ((edges < 0) | (edges >= num_vertices)).any(axis=1)
        if outside.any():
            i, j = edges[np.argmax(outside)]
            raise SolverError(f"edge ({i}, {j}) outside vertex range")

        # A couple of extra dimensions beyond K helps the low-rank factorisation
        # escape the local minima a rank-K landscape exhibits.
        dim = self.options.dimension
        if dim is None:
            dim = self.num_colors + 2
        rng = np.random.default_rng(self.options.seed + num_vertices)
        vectors = rng.normal(size=(num_vertices, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

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

        # The loop's last violation is already that of the final vectors.
        gram = np.clip(vectors @ vectors.T, -1.0, 1.0)
        objective = self._objective(vectors, conflict, stitch)
        return SdpResult(
            gram=gram,
            vectors=vectors,
            objective=objective,
            constraint_violation=violation,
            iterations=total_iterations,
        )

    def solve_graph(
        self,
        vertices: Sequence[int],
        conflict_edges: Iterable[Tuple[int, int]],
        stitch_edges: Iterable[Tuple[int, int]] = (),
    ) -> Tuple[SdpResult, Dict[int, int]]:
        """Solve for arbitrary vertex ids; also return the id -> index map."""
        index = {vertex: position for position, vertex in enumerate(sorted(vertices))}
        ce = [(index[u], index[v]) for (u, v) in conflict_edges]
        se = [(index[u], index[v]) for (u, v) in stitch_edges]
        return self.solve(len(index), ce, se), index

    # ------------------------------------------------------------ internals
    def _objective(
        self, vectors: np.ndarray, conflict: np.ndarray, stitch: np.ndarray
    ) -> float:
        value = 0.0
        if conflict.size:
            value += float(
                np.einsum("ij,ij->i", vectors[conflict[:, 0]], vectors[conflict[:, 1]]).sum()
            )
        if stitch.size:
            value -= self.alpha * float(
                np.einsum("ij,ij->i", vectors[stitch[:, 0]], vectors[stitch[:, 1]]).sum()
            )
        return value

    @staticmethod
    def _max_violation(
        vectors: np.ndarray, conflict: np.ndarray, lower_bound: float
    ) -> float:
        if not conflict.size:
            return 0.0
        dots = np.einsum("ij,ij->i", vectors[conflict[:, 0]], vectors[conflict[:, 1]])
        return float(np.maximum(lower_bound - dots, 0.0).max())

    def _minimise(
        self,
        vectors: np.ndarray,
        conflict: np.ndarray,
        stitch: np.ndarray,
        lower_bound: float,
        penalty: float,
    ) -> Tuple[np.ndarray, int]:
        """Projected gradient descent with a fixed penalty weight.

        Accumulation-order contract: every float this produces is
        bit-identical to the reference loop in
        ``tests/opt/test_sdp_parity.py``, which built the gradient from six
        ``np.add.at`` calls.

        * The gradient is one ``np.bincount`` over the flattened cells
          ``row * dim + col``.  ``bincount`` adds its weights one at a time,
          in array order, onto 0.0, so each cell sums its terms in the order
          the weight blocks are concatenated: ``vj`` onto the conflict
          ``c0`` rows, ``vi`` onto ``c1``, ``scale * vj`` onto ``c0``,
          ``scale * vi`` onto ``c1``, then ``-alpha * vj`` onto the stitch
          ``s0`` rows and ``-alpha * vi`` onto ``s1``.  That is the order of
          the six ``np.add.at`` calls.  The index arrays are built once per
          call, not once per iteration.
        * Every inner product stays an ``np.einsum("ij,ij->i")`` call.  Its
          SIMD summation order differs from a hand-written multiply-and-sum,
          which would move the floats.
        * The norms are the expressions ``np.linalg.norm`` evaluates
          (``sqrt(t.dot(t))`` over the flattened tangent, ``sqrt`` of an
          ``add.reduce`` of squares per row) without its Python wrapper.
        """
        rate = self.options.learning_rate
        tolerance = self.options.gradient_tolerance
        alpha = self.alpha
        n, dim = vectors.shape
        mc, ms = len(conflict), len(stitch)
        c0, c1 = conflict[:, 0], conflict[:, 1]
        s0, s1 = stitch[:, 0], stitch[:, 1]
        # Row k of the weights is multipliers[k] * vectors[sources[k]],
        # scattered onto row targets[k]; the blocks follow the contract above.
        sources = np.concatenate((c1, c0, c1, c0, s1, s0))
        targets = np.concatenate((c0, c1, c0, c1, s0, s1))
        flat = (targets[:, None] * dim + np.arange(dim)).ravel()
        multipliers = np.ones(len(sources))
        multipliers[4 * mc :] = -alpha
        column = multipliers[:, None]
        scale, scale_copy = multipliers[2 * mc : 3 * mc], multipliers[3 * mc : 4 * mc]
        penalty_factor = -2.0 * penalty

        previous_value = np.inf
        iterations = 0
        for iteration in range(self.options.max_inner_iterations):
            iterations = iteration + 1
            gathered = vectors.take(sources, axis=0)
            value = 0.0
            if mc:
                vj, vi = gathered[:mc], gathered[mc : 2 * mc]
                dots = np.einsum("ij,ij->i", vi, vj)
                value += dots.sum()
                violation = np.maximum(lower_bound - dots, 0.0)
                value += penalty * float((violation**2).sum())
                np.multiply(penalty_factor, violation, out=scale)
                scale_copy[:] = scale
            if ms:
                vj, vi = gathered[4 * mc : 4 * mc + ms], gathered[4 * mc + ms :]
                dots = np.einsum("ij,ij->i", vi, vj)
                value -= alpha * dots.sum()
            gathered *= column
            gradient = np.bincount(
                flat, weights=gathered.ravel(), minlength=n * dim
            ).reshape(n, dim)

            # Project the gradient onto the tangent space of each unit sphere
            # (Riemannian gradient), then step and re-normalise.
            radial = np.einsum("ij,ij->i", gradient, vectors)[:, None] * vectors
            tangent = gradient - radial
            flat_tangent = tangent.ravel()
            grad_norm = math.sqrt(flat_tangent.dot(flat_tangent)) / n
            if grad_norm < tolerance:
                break
            vectors = vectors - rate * tangent
            norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1, keepdims=True))
            norms[norms == 0] = 1.0
            vectors = vectors / norms

            if abs(previous_value - value) < 1e-9 * (1.0 + abs(value)):
                break
            previous_value = value
        return vectors, iterations
