"""Walk entropy and the maximal-entropy predicate.

The walk entropy at temperature beta is the Shannon entropy (natural log)
of the distribution proportional to the diagonal of exp(beta*A).  It
attains its maximum log n exactly when all diagonal entries agree, so
maximality is decided on the *relative spread* of the diagonal, not on
|entropy - log n|: the entropy deficit is quadratic in the spread and a
comparison there would forfeit half of the available precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    CentralityDiagonal,
    SpectralDecomposition,
    _centrality_rows,
    centrality_diagonal,
)

__all__ = [
    "MAXIMALITY_TOL",
    "EntropyReport",
    "relative_spread",
    "entropy_from_diagonal",
    "walk_entropy",
]

#: Default relative diagonal spread below which entropy counts as maximal.
MAXIMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EntropyReport:
    beta: float
    entropy: float
    max_entropy: float  # log n
    deficit: float  # log n - entropy
    probabilities: np.ndarray  # f / trace
    trace: float
    spread: float  # (max f - min f) / mean f
    is_maximal: bool

    def as_dict(self) -> dict:
        return {
            "beta": self.beta,
            "entropy": self.entropy,
            "max_entropy": self.max_entropy,
            "deficit": self.deficit,
            "spread": self.spread,
            "is_maximal": self.is_maximal,
            "trace": self.trace,
            "probabilities": self.probabilities.tolist(),
        }


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _row_spreads(values: np.ndarray) -> np.ndarray:
    """(max f - min f) / mean f of each row of ``values``."""
    mean = values.sum(axis=1) / values.shape[1]  # what values.mean(axis=1) computes
    return (values.max(axis=1) - values.min(axis=1)) / mean


def relative_spread(values: np.ndarray) -> float:
    return float(_row_spreads(np.asarray(values, dtype=float)[None, :])[0])


def _row_entropies(
    values: np.ndarray, traces: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities, entropy and spread of each row of ``values``, the
    diagonal of exp(beta*A) with trace ``traces``."""
    spreads = _row_spreads(values)
    p = values / traces[:, None]
    # 0*log 0 := 0; cannot occur for beta >= 0 where f >= 1
    logs = np.log(np.where(p > 0.0, p, 1.0))
    # 0.0 - s, not -s: a one-vertex graph's sum is +0, whose entropy is +0
    entropies = 0.0 - np.multiply(p, logs, out=logs).sum(axis=1)
    return p, entropies, spreads


def entropy_from_diagonal(
    cd: CentralityDiagonal, tol: float = MAXIMALITY_TOL
) -> EntropyReport:
    """Entropy report from an already-evaluated diagonal of exp(beta*A).

    Maximal means a relative spread at most ``tol``, a finite float > 0.
    """
    _check_finite(tol=tol)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    values = np.asarray(cd.values, dtype=float)[None, :]
    p, entropies, spreads = _row_entropies(values, np.array([cd.trace]))
    max_entropy = math.log(p.shape[1])
    entropy, spread = float(entropies[0]), float(spreads[0])
    return EntropyReport(
        beta=float(cd.beta),
        entropy=entropy,
        max_entropy=max_entropy,
        deficit=max_entropy - entropy,
        probabilities=p[0],
        trace=float(cd.trace),
        spread=spread,
        is_maximal=spread <= tol,
    )


def walk_entropy(
    d: SpectralDecomposition, beta: float, tol: float = MAXIMALITY_TOL
) -> EntropyReport:
    """Walk entropy at temperature beta (natural-log units)."""
    _check_finite(beta=beta)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return entropy_from_diagonal(centrality_diagonal(d, beta), tol)


def _scan_betas(beta_min: float, beta_max: float, step: float) -> np.ndarray:
    """The grid beta_min, beta_min+step, ..., <= beta_max, validated."""
    _check_finite(beta_min=beta_min, beta_max=beta_max, step=step)
    if beta_min < 0 or beta_max < beta_min:
        raise ValueError(f"need 0 <= beta_min <= beta_max, got [{beta_min}, {beta_max}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    steps = (beta_max - beta_min) / step
    # refuse what cannot be built before numpy is asked: past 2**53 steps
    # (or at inf) a double no longer counts the nodes, and numpy's errors vary
    if not steps < 2.0**53:
        raise MemoryError(f"beta grid [{beta_min:g}, {beta_max:g}] at step {step:g} is too large")
    return beta_min + np.arange(int(math.floor(steps + 1e-9)) + 1) * step


def _scan_table(
    d: SpectralDecomposition,
    beta_min: float,
    beta_max: float,
    step: float,
    class_reps: list[int],
) -> np.ndarray:
    """Walk entropy at beta_min, beta_min+step, ..., <= beta_max, one row
    per beta: beta, entropy, max_entropy, deficit, spread, then f at each
    vertex-class representative.

    The whole grid is evaluated in one array pass.  Every cell is bitwise
    the field of the :func:`walk_entropy` report at its beta (f is
    ``probabilities[class_reps] * trace``), but no report is built.
    """
    betas = _scan_betas(beta_min, beta_max, step)
    values, traces = _centrality_rows(d, betas)
    p, entropies, spreads = _row_entropies(values, traces)
    max_entropy = math.log(p.shape[1])
    return np.column_stack((
        betas,
        entropies,
        np.full(betas.size, max_entropy),
        max_entropy - entropies,
        spreads,
        p[:, class_reps] * traces[:, None],
    ))


def _csv_lines(table: np.ndarray, class_reps: list[int]) -> list[str]:
    """Header and one ``%.12g`` row per row of a scan table.

    Column order is fixed: beta, entropy, max_entropy, deficit, spread,
    then one centrality column per vertex-class representative.
    """
    header = "beta,entropy,max_entropy,deficit,spread" + "".join(
        f",f_v{r}" for r in class_reps
    )
    row = ",".join(["%.12g"] * table.shape[1])
    return [header] + [row % tuple(cells) for cells in table.tolist()]
