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

from .spectral import CentralityDiagonal, SpectralDecomposition, centrality_diagonal

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


def relative_spread(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float((values.max() - values.min()) / values.mean())


def entropy_from_diagonal(
    cd: CentralityDiagonal, tol: float = MAXIMALITY_TOL
) -> EntropyReport:
    """Entropy report from an already-evaluated diagonal of exp(beta*A)."""
    p = cd.values / cd.trace
    positive = p > 0.0  # 0*log 0 := 0; cannot occur for beta >= 0 where f >= 1
    entropy = float(-(p[positive] * np.log(p[positive])).sum())
    max_entropy = math.log(p.shape[0])
    spread = relative_spread(cd.values)
    return EntropyReport(
        beta=cd.beta,
        entropy=entropy,
        max_entropy=max_entropy,
        deficit=max_entropy - entropy,
        probabilities=p,
        trace=cd.trace,
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


def is_entropy_maximal(
    d: SpectralDecomposition, beta: float, tol: float = MAXIMALITY_TOL
) -> bool:
    """True iff all diagonal entries of exp(beta*A) agree within relative ``tol``."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return entropy_from_diagonal(centrality_diagonal(d, beta), tol).is_maximal


def entropy_scan(
    d: SpectralDecomposition,
    beta_min: float,
    beta_max: float,
    step: float,
    tol: float = MAXIMALITY_TOL,
) -> list[EntropyReport]:
    """Entropy reports at beta_min, beta_min+step, ..., <= beta_max, in order."""
    _check_finite(beta_min=beta_min, beta_max=beta_max, step=step)
    if beta_min < 0 or beta_max < beta_min:
        raise ValueError(f"need 0 <= beta_min <= beta_max, got [{beta_min}, {beta_max}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    count = int(math.floor((beta_max - beta_min) / step + 1e-9)) + 1
    return [walk_entropy(d, beta_min + t * step, tol) for t in range(count)]


def scan_csv_lines(reports: list[EntropyReport], class_reps: list[int]) -> list[str]:
    """CSV rows for a scan, 12 significant digits.

    Column order is fixed: beta, entropy, max_entropy, deficit, spread,
    then one centrality column per vertex-class representative.
    """
    header = "beta,entropy,max_entropy,deficit,spread" + "".join(
        f",f_v{r}" for r in class_reps
    )
    lines = [header]
    for rep in reports:
        f = rep.centrality_values()
        cells = [rep.beta, rep.entropy, rep.max_entropy, rep.deficit, rep.spread]
        cells.extend(float(f[r]) for r in class_reps)
        lines.append(",".join(f"{c:.12g}" for c in cells))
    return lines
