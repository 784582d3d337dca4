"""Eigendecomposition of the adjacency matrix and diagonals of exp(beta*A).

The subgraph-centrality vector f(beta), f[i] = [exp(beta*A)]_{ii}, is
evaluated from the symmetric eigendecomposition as

    f[i] = sum_k w[i, k] * exp(beta * lambda_k),

where w[i, k] is the squared i-th component of the k-th orthonormal
eigenvector (so the weights are non-negative by construction and each row
sums to 1).  Eigenvalues are also clustered into numerically distinct
values, giving the grouped weights a[i, j] = sum of w[i, k] over cluster j;
the grouped form drives the beta -> infinity dominance analysis.

:func:`taylor_diagonal_oracle` evaluates the same diagonal from the exact
integer walk tables via partial Taylor sums.  It shares no code with the
spectral path and exists as an independent cross-check for the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .walks import closed_walk_table

__all__ = [
    "SpectralDecomposition",
    "CentralityDiagonal",
    "EigendecompositionError",
    "CentralityOverflowError",
    "InsufficientTermsError",
    "eigendecompose",
    "exp_eigenvalues",
    "centrality_diagonal",
    "taylor_required_terms",
    "taylor_diagonal_oracle",
]

#: Residual bound for accepted eigenpairs: ||A u - lambda u|| <= tol * max(1, ||A||_2).
RESIDUAL_TOL = 1e-10

#: Absolute gap below which adjacent eigenvalues join the same cluster.
CLUSTER_TOL = 1e-8

#: Relative tail bound the Taylor truncation must satisfy.
TAYLOR_TAIL_REL = 1e-12

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class EigendecompositionError(RuntimeError):
    """The eigensolver failed to converge or missed the accuracy contract."""


class CentralityOverflowError(OverflowError):
    """exp(beta * lambda) exceeds the double-precision range."""


class InsufficientTermsError(ValueError):
    """Requested Taylor truncation cannot meet the remainder bound."""


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending), squared-eigenvector weights, and the
    same weights grouped over numerically distinct eigenvalues."""

    eigenvalues: np.ndarray  # (n,), descending
    weights: np.ndarray  # (n, n); weights[i, k] = u_{k,i}^2
    distinct_eigenvalues: np.ndarray  # (kappa,), descending cluster means
    grouped_weights: np.ndarray  # (n, kappa)

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])


@dataclass(frozen=True, eq=False)
class CentralityDiagonal:
    """Diagonal of exp(beta*A) plus its trace at a single beta."""

    beta: float
    values: np.ndarray  # (n,); values[i] = [exp(beta*A)]_{ii}
    trace: float


def eigendecompose(g: Graph) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the adjacency matrix.

    Validates the residual and orthonormality invariants and raises
    :class:`EigendecompositionError` rather than returning silent garbage.
    Clusters of eigenvalues closer than ``CLUSTER_TOL`` (absolute gap,
    scanned in descending order) are merged into one distinct eigenvalue,
    represented by the cluster mean.
    """
    a = g.adjacency_matrix()
    try:
        lam, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    lam = lam[::-1].copy()
    u = u[:, ::-1]

    scale = max(1.0, float(np.abs(lam).max()))
    residual = np.linalg.norm(a @ u - u * lam, axis=0)
    if float(residual.max()) > RESIDUAL_TOL * scale:
        raise EigendecompositionError(
            f"eigenpair residual {residual.max():.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * max(1, ||A||_2)"
        )

    weights = u**2  # squares: non-negativity is structural
    row_err = float(np.abs(weights.sum(axis=1) - 1.0).max())
    col_err = float(np.abs(weights.sum(axis=0) - 1.0).max())
    if max(row_err, col_err) > 1e-10:
        raise EigendecompositionError(
            f"eigenvector basis is not orthonormal (weight sum error {max(row_err, col_err):.3e})"
        )

    starts = [0]
    for k in range(1, g.n):
        if lam[k - 1] - lam[k] > CLUSTER_TOL:
            starts.append(k)
    bounds = starts + [g.n]
    distinct = np.array([lam[a0:b0].mean() for a0, b0 in zip(bounds, bounds[1:])])
    grouped = np.add.reduceat(weights, starts, axis=1)

    for arr in (lam, weights, distinct, grouped):
        arr.flags.writeable = False
    return SpectralDecomposition(lam, weights, distinct, grouped)


def exp_eigenvalues(d: SpectralDecomposition, beta: float) -> np.ndarray:
    """exp(beta * lambda_k) for all k, with an explicit overflow guard."""
    peak = float(np.max(beta * d.eigenvalues))
    if peak > _LOG_FLOAT_MAX:
        raise CentralityOverflowError(
            f"exp({peak:.6g}) overflows double precision at beta={beta:.6g}"
        )
    return np.exp(beta * d.eigenvalues)


def centrality_diagonal(d: SpectralDecomposition, beta: float) -> CentralityDiagonal:
    """Diagonal of exp(beta*A) and its trace, via the eigendecomposition."""
    e = exp_eigenvalues(d, beta)
    return CentralityDiagonal(float(beta), d.weights @ e, float(e.sum()))


def taylor_required_terms(beta: float, max_degree: int) -> int:
    """Smallest T with (beta*d)^T / T! < TAYLOR_TAIL_REL * exp(beta*d).

    ``d = max_degree`` bounds the 1-norm of the adjacency matrix, so the
    dropped Taylor tail is below ``TAYLOR_TAIL_REL * exp(beta*d)``
    componentwise once T satisfies this.  Evaluated in logs to avoid
    overflow of either side.
    """
    x = abs(beta) * max_degree
    if x == 0.0:
        return 1
    threshold = math.log(TAYLOR_TAIL_REL) + x
    t = 1
    while t * math.log(x) - math.lgamma(t + 1) >= threshold:
        t += 1
    return t


def taylor_diagonal_oracle(
    g: Graph, beta: float, terms: int | None = None
) -> CentralityDiagonal:
    """Diagonal of exp(beta*A) from exact walk counts: sum of beta^l/l! * [A^l]_{ii}.

    Independent of the eigendecomposition path.  ``terms`` defaults to the
    minimal truncation satisfying the remainder bound; an explicit smaller
    value raises :class:`InsufficientTermsError`.
    """
    max_degree = max(g.degrees())
    needed = taylor_required_terms(beta, max_degree)
    if terms is None:
        terms = needed
    elif terms < needed:
        x = abs(beta) * max_degree
        raise InsufficientTermsError(
            f"{terms} terms leave tail (beta*||A||_1)^T/T! >= "
            f"{TAYLOR_TAIL_REL:.0e} * exp({x:.6g}); need at least {needed}"
        )
    table = closed_walk_table(g, max(1, terms - 1))
    values = np.zeros(g.n)
    coef = 1.0
    for length in range(terms):
        if length:
            coef *= beta / length
        values += coef * np.array([row[length] for row in table.diag], dtype=float)
    return CentralityDiagonal(float(beta), values, float(values.sum()))
