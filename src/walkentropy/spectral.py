"""Eigendecomposition of the adjacency matrix and diagonals of exp(beta*A).

The subgraph-centrality vector f(beta), f[i] = [exp(beta*A)]_{ii}, is
evaluated from the symmetric eigendecomposition as

    f[i] = sum_k w[i, k] * exp(beta * lambda_k),

where w[i, k] is the squared i-th component of the k-th orthonormal
eigenvector (so the weights are non-negative by construction and each row
sums to 1).  Eigenvalues are not grouped here: the one reader of a
clustering, the walk-table certifier, clusters its own ``eigvalsh``
eigenvalues in :mod:`walkentropy.walks`.

exp(beta * lambda) over a set of betas is formed in one place,
``_exp_rows``, which raises :class:`CentralityOverflowError` at the first
beta whose trace is not finite; ``_centrality_rows`` raises the same
error at the first beta with a diagonal entry that is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "SpectralDecomposition",
    "EigendecompositionError",
    "CentralityOverflowError",
    "eigendecompose",
]

#: Residual bound for accepted eigenpairs: ||A u - lambda u|| <= tol * max(1, ||A||_2).
RESIDUAL_TOL = 1e-10

_TRACE_OVERFLOW = "trace of exp(beta*A) overflows double precision at beta={:.6g}"


class EigendecompositionError(RuntimeError):
    """The eigensolver failed to converge or missed the accuracy contract."""


class CentralityOverflowError(OverflowError):
    """exp(beta * lambda) exceeds the double-precision range."""


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and squared-eigenvector weights."""

    eigenvalues: np.ndarray  # (n,), descending
    weights: np.ndarray  # (n, n); weights[i, k] = u_{k,i}^2


def eigendecompose(g: Graph) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the adjacency matrix.

    Validates the residual and orthonormality invariants and raises
    :class:`EigendecompositionError` rather than returning silent garbage.
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

    for arr in (lam, weights):
        arr.flags.writeable = False
    return SpectralDecomposition(lam, weights)


def _exp_rows(d: SpectralDecomposition, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(outer(betas, lambda)), one row per beta, and its row sums (the traces).

    The one evaluator of exp(beta * lambda) over a set of betas.  Raises
    :class:`CentralityOverflowError` naming the first beta whose trace is
    not finite, which every row with an overflowing exponential has.
    """
    x = betas[:, None] * d.eigenvalues
    with np.errstate(over="ignore"):  # reported below, by beta
        e = np.exp(x, out=x)
        traces = e.sum(axis=1)
    finite = np.isfinite(traces)
    if not finite.all():
        raise CentralityOverflowError(_TRACE_OVERFLOW.format(betas[int(finite.argmin())]))
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
