"""Eigendecomposition of the adjacency matrix and diagonals of exp(beta*A).

The subgraph-centrality vector f(beta), f[i] = [exp(beta*A)]_{ii}, is
evaluated from the symmetric eigendecomposition as

    f[i] = sum_k w[i, k] * exp(beta * lambda_k),

where w[i, k] is the squared i-th component of the k-th orthonormal
eigenvector (so the weights are non-negative by construction and each row
sums to 1).  Eigenvalues are also clustered into numerically distinct
values, giving the grouped weights a[i, j] = sum of w[i, k] over cluster j.
Their column sums are the multiplicities, and the difference of two rows
holds the coefficients of f[i] - f[k] as a sum over distinct eigenvalues.

exp(beta * lambda) over a set of betas is formed in one place,
``_exp_rows``, which raises :class:`CentralityOverflowError` at the first
beta whose exponential or trace is not finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "SpectralDecomposition",
    "CentralityDiagonal",
    "EigendecompositionError",
    "CentralityOverflowError",
    "eigendecompose",
    "centrality_diagonal",
]

#: Residual bound for accepted eigenpairs: ||A u - lambda u|| <= tol * max(1, ||A||_2).
RESIDUAL_TOL = 1e-10

#: Absolute gap below which adjacent eigenvalues join the same cluster.
CLUSTER_TOL = 1e-8

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_TRACE_OVERFLOW = "trace of exp(beta*A) overflows double precision at beta={:.6g}"


class EigendecompositionError(RuntimeError):
    """The eigensolver failed to converge or missed the accuracy contract."""


class CentralityOverflowError(OverflowError):
    """exp(beta * lambda) exceeds the double-precision range."""


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending), squared-eigenvector weights, and the
    same weights grouped over numerically distinct eigenvalues."""

    eigenvalues: np.ndarray  # (n,), descending
    weights: np.ndarray  # (n, n); weights[i, k] = u_{k,i}^2
    distinct_eigenvalues: np.ndarray  # (kappa,), descending cluster means
    grouped_weights: np.ndarray  # (n, kappa)


@dataclass(frozen=True, eq=False)
class CentralityDiagonal:
    """Diagonal of exp(beta*A) plus its trace at a single beta."""

    beta: float
    values: np.ndarray  # (n,); values[i] = [exp(beta*A)]_{ii}
    trace: float


def _cluster_starts(lam: np.ndarray) -> list[int]:
    """Start index of each cluster of the descending eigenvalues ``lam``.

    A cluster ends wherever the gap to the next eigenvalue exceeds
    ``CLUSTER_TOL``.
    """
    return [0] + [k for k in range(1, lam.size) if lam[k - 1] - lam[k] > CLUSTER_TOL]


def _cluster_means(lam: np.ndarray, starts: list[int]) -> np.ndarray:
    """The mean of each cluster: the distinct eigenvalues, descending."""
    bounds = starts + [lam.size]
    return np.array([lam[a:b].mean() for a, b in zip(bounds, bounds[1:])])


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

    starts = _cluster_starts(lam)
    distinct = _cluster_means(lam, starts)
    grouped = np.add.reduceat(weights, starts, axis=1)

    for arr in (lam, weights, distinct, grouped):
        arr.flags.writeable = False
    return SpectralDecomposition(lam, weights, distinct, grouped)


def _exp_rows(d: SpectralDecomposition, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(outer(betas, lambda)), one row per beta, and its row sums (the traces).

    The one evaluator of exp(beta * lambda) over a set of betas.  Raises
    :class:`CentralityOverflowError` naming the first beta at which
    exp(beta * lambda_k) or the trace is not finite.
    """
    x = betas[:, None] * d.eigenvalues
    # the eigenvalues descend, so a row peaks at its first or last entry
    peaks = np.maximum(x[:, 0], x[:, -1])
    over = peaks > _LOG_FLOAT_MAX
    stop = int(over.argmax()) if over.any() else betas.size
    e = np.exp(x[:stop], out=x[:stop])  # every exponent <= log(DBL_MAX): finite
    with np.errstate(over="ignore"):  # reported below, by beta
        traces = e.sum(axis=1)
    finite = np.isfinite(traces)
    if not finite.all():
        raise CentralityOverflowError(_TRACE_OVERFLOW.format(betas[int(finite.argmin())]))
    if stop < betas.size:
        raise CentralityOverflowError(
            f"exp({peaks[stop]:.6g}) overflows double precision at beta={betas[stop]:.6g}"
        )
    return e, traces


def _centrality_rows(
    d: SpectralDecomposition, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of exp(beta*A) (one row per beta of ``betas``) and their traces.

    One gemv per row of :func:`_exp_rows`, ``weights @ exp(beta * lambda)``,
    the same product as for a single beta, so every row is bitwise what a
    one-row call gives.  A diagonal entry that is not finite although the
    trace is raises the trace's :class:`CentralityOverflowError`.
    """
    e, traces = _exp_rows(d, betas)
    with np.errstate(over="ignore"):  # reported below, by beta
        values = np.matmul(d.weights, e[..., None])[..., 0]
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise CentralityOverflowError(_TRACE_OVERFLOW.format(betas[int(finite.argmin())]))
    return values, traces


def centrality_diagonal(d: SpectralDecomposition, beta: float) -> CentralityDiagonal:
    """Diagonal of exp(beta*A) and its trace, via the eigendecomposition."""
    values, traces = _centrality_rows(d, np.array([beta], dtype=float))
    return CentralityDiagonal(float(beta), values[0], float(traces[0]))
