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
    "is_entropy_maximal",
    "entropy_scan",
    "scan_csv_lines",
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

    def centrality_values(self) -> np.ndarray:
        return self.probabilities * self.trace


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
    entropies = -np.multiply(p, logs, out=logs).sum(axis=1)
    return p, entropies, spreads


def _reports(
    betas: np.ndarray, values: np.ndarray, traces: np.ndarray, tol: float
) -> list[EntropyReport]:
    """One report per row of ``values``, the diagonal of exp(beta*A) at ``betas``."""
    p, entropies, spreads = _row_entropies(values, traces)
    max_entropy = math.log(p.shape[1])
    return [
        EntropyReport(
            beta=beta,
            entropy=entropy,
            max_entropy=max_entropy,
            deficit=max_entropy - entropy,
            probabilities=row,
            trace=trace,
            spread=spread,
            is_maximal=spread <= tol,
        )
        for beta, entropy, row, trace, spread in zip(
            betas.tolist(), entropies.tolist(), p, traces.tolist(), spreads.tolist()
        )
    ]


def entropy_from_diagonal(
    cd: CentralityDiagonal, tol: float = MAXIMALITY_TOL
) -> EntropyReport:
    """Entropy report from an already-evaluated diagonal of exp(beta*A)."""
    values = np.asarray(cd.values, dtype=float)[None, :]
    return _reports(np.array([cd.beta]), values, np.array([cd.trace]), tol)[0]


def walk_entropy(
    d: SpectralDecomposition, beta: float, tol: float = MAXIMALITY_TOL
) -> EntropyReport:
    """Walk entropy at temperature beta (natural-log units)."""
    _check_finite(beta=beta)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return entropy_from_diagonal(centrality_diagonal(d, beta), tol)


def is_entropy_maximal(
    d: SpectralDecomposition, beta: float, tol: float = MAXIMALITY_TOL
) -> bool:
    """True iff all diagonal entries of exp(beta*A) agree within relative ``tol``."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return relative_spread(centrality_diagonal(d, beta).values) <= tol


def _scan_betas(beta_min: float, beta_max: float, step: float) -> np.ndarray:
    """The grid beta_min, beta_min+step, ..., <= beta_max, validated."""
    _check_finite(beta_min=beta_min, beta_max=beta_max, step=step)
    if beta_min < 0 or beta_max < beta_min:
        raise ValueError(f"need 0 <= beta_min <= beta_max, got [{beta_min}, {beta_max}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(math.floor((beta_max - beta_min) / step + 1e-9)) + 1
    return beta_min + np.arange(count) * step


def entropy_scan(
    d: SpectralDecomposition, beta_min: float, beta_max: float, step: float
) -> list[EntropyReport]:
    """Entropy reports at beta_min, beta_min+step, ..., <= beta_max, in order.

    The whole grid is evaluated in one array pass; each report is bitwise
    the :func:`walk_entropy` report at its beta, decided at ``MAXIMALITY_TOL``.
    """
    betas = _scan_betas(beta_min, beta_max, step)
    return _reports(betas, *_centrality_rows(d, betas), MAXIMALITY_TOL)


def _scan_table(
    d: SpectralDecomposition,
    beta_min: float,
    beta_max: float,
    step: float,
    class_reps: list[int],
) -> np.ndarray:
    """The :func:`entropy_scan` grid, one row per beta: beta, entropy,
    max_entropy, deficit, spread, then f at each vertex-class representative.

    Every cell is bitwise the field of the matching report (f is
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
    """Header and one ``%.12g`` row per row of a scan table."""
    header = "beta,entropy,max_entropy,deficit,spread" + "".join(
        f",f_v{r}" for r in class_reps
    )
    row = ",".join(["%.12g"] * table.shape[1])
    return [header] + [row % tuple(cells) for cells in table.tolist()]


def scan_csv_lines(reports: list[EntropyReport], class_reps: list[int]) -> list[str]:
    """CSV rows for a scan, 12 significant digits.

    Column order is fixed: beta, entropy, max_entropy, deficit, spread,
    then one centrality column per vertex-class representative.
    """
    rows = [
        [r.beta, r.entropy, r.max_entropy, r.deficit, r.spread]
        + (r.probabilities[class_reps] * r.trace).tolist()
        for r in reports
    ]
    table = np.array(rows, dtype=float).reshape(len(rows), 5 + len(class_reps))
    return _csv_lines(table, class_reps)
