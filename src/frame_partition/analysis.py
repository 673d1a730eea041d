"""Scalar functionals of a Gram matrix and the per-block certificate.

The three row functionals on an index block:

* sigma  — largest off-diagonal absolute row sum; sigma < 1 certifies a
  Riesz sequence with guaranteed bounds (1 - sigma, 1 + sigma).
* eta    — largest off-diagonal squared-magnitude row sum; eta < 1 defines
  a uniformly separated sequence.
* gamma  — largest off-diagonal |G_ij| (the separation constant).

Two Bessel constants are exposed: the optimal spectral one (lambda_max of
the Gram matrix) and the Schur-test one (max absolute row sum, diagonal
included).  They differ by design: the Schur bound sums over all entries
while sigma omits the diagonal, so for unit vectors schur_bound = sigma-ish
row sums + 1.

Every spectrum (the spectral bound, and each block's lambda_min and
lambda_max) comes from ``block_spectrum``, so ``partition``, ``analyze``
and ``certify`` share one rule.  For a Gram matrix built by ``gram`` it
diagonalizes the smaller side: a block of k vectors in dimension d < k
has the d x d frame operator V_b* V_b, whose nonzero spectrum is the block
Gram's, and rank at most d < k, so lambda_min is 0.0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, EmptyBlockError
from .linalg import GramMatrix

# sigma in [1 - BORDERLINE_TOL, 1) is still certified but flagged.
BORDERLINE_TOL = 1e-12


def normalize_block(n: int, block: Iterable[int] | None) -> np.ndarray:
    """Sorted, de-duplicated index block; None means the full index set."""
    if block is None:
        return np.arange(n, dtype=int)
    idx = np.array(sorted({int(i) for i in block}), dtype=int)
    if idx.size == 0:
        raise EmptyBlockError("index block is empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ArgumentError(f"block indices out of range for n={n}: {idx.tolist()}")
    return idx


def block_spectrum(
    g: GramMatrix, sub: np.ndarray, idx: np.ndarray | None = None
) -> tuple[float, float]:
    """``(lambda_min, lambda_max)`` of the block Gram ``sub`` = G[idx, idx].

    ``idx`` None means the whole index set, with ``sub`` = G.  When the
    block has more vectors than ``g.factor`` has columns, lambda_max comes
    from the d x d frame operator of the block's rows and lambda_min is 0.0
    exactly (the rank is at most d); otherwise ``sub`` is diagonalized.
    The submatrix of a ``GramMatrix`` is Hermitian by construction, so it is
    not re-checked.
    """
    v = g.factor
    if v is not None and sub.shape[0] > v.shape[1]:
        rows = v if idx is None else v.take(idx, axis=0)
        return 0.0, float(np.linalg.eigvalsh(rows.conj().T @ rows)[-1])
    eigs = np.linalg.eigvalsh(sub)
    return float(eigs[0]), float(eigs[-1])


def spectral_bessel_bound(g: GramMatrix) -> float:
    """Optimal Bessel constant: lambda_max of the Gram matrix."""
    return block_spectrum(g, g.entries)[1]


def schur_bessel_bound(g: GramMatrix) -> float:
    """Schur-test Bessel constant: max absolute row sum, diagonal included."""
    return float(np.abs(g.entries).sum(axis=1).max())


def _row_functionals(sub: np.ndarray) -> tuple[float, float, float]:
    """(sigma, eta, gamma) of a block submatrix: one ``abs`` pass, diagonal zeroed."""
    mag = np.abs(sub, order="C")  # C order fixes the summation order of the column sums
    mag.flat[:: sub.shape[0] + 1] = 0.0  # the diagonal
    return float(mag.sum(axis=0).max()), float((mag**2).sum(axis=0).max()), float(mag.max())


def row_functionals(
    g: GramMatrix, block: Iterable[int] | None = None
) -> tuple[float, float, float]:
    """(sigma, eta, gamma) over the block; all three are 0 for singletons."""
    if block is None:
        return _row_functionals(g.entries)
    idx = normalize_block(g.n, block)
    return _row_functionals(g.entries.take(idx, axis=0).take(idx, axis=1))


def sigma(g: GramMatrix, block: Iterable[int] | None = None) -> float:
    """Largest off-diagonal absolute row sum over the block."""
    return row_functionals(g, block)[0]


def eta(g: GramMatrix, block: Iterable[int] | None = None) -> float:
    """Largest off-diagonal squared-magnitude row sum over the block."""
    return row_functionals(g, block)[1]


def separation_constant(g: GramMatrix, block: Iterable[int] | None = None) -> float:
    """Largest off-diagonal |G_ij| over the block."""
    return row_functionals(g, block)[2]


@dataclass(frozen=True)
class BlockCertificate:
    """One block's numbers and verdict; the fields are the report's block keys, in order."""

    indices: tuple[int, ...]
    sigma: float
    eta: float
    gamma: float
    lambda_min: float
    lambda_max: float
    certified: bool  # the mode's verdict (block_verdict)
    borderline: bool

    @property
    def a_bound(self) -> float:
        """1 - sigma, the guaranteed lower Riesz bound when sigma < 1."""
        return 1.0 - self.sigma

    @property
    def b_bound(self) -> float:
        """1 + sigma, the Riesz upper bound."""
        return 1.0 + self.sigma


def block_verdict(mode: str, sigma: float, eta: float) -> tuple[bool, bool]:
    """``(certified, borderline)`` for a block in ``mode``.

    Feichtinger mode certifies sigma < 1 (the Riesz criterion), uniform mode
    eta < 1; the raw comparison decides, with no hidden margin.  In both
    modes the block is flagged borderline when sigma is certified but
    within BORDERLINE_TOL below 1.
    """
    borderline = 1.0 - BORDERLINE_TOL <= sigma < 1.0
    return (sigma if mode == "feichtinger" else eta) < 1.0, borderline


def certify_block(g: GramMatrix, idx: Sequence[int], mode: str) -> BlockCertificate:
    """sigma, eta, gamma, the extreme eigenvalues and the ``mode`` verdict of one block.

    ``idx`` must hold sorted, distinct, in-range indices (a partition block
    or a normalized block); it is not re-checked.  The extreme eigenvalues
    come from ``block_spectrum``.
    """
    idx = np.asarray(idx, dtype=int)
    sub = g.entries.take(idx, axis=0).take(idx, axis=1)  # g.entries[np.ix_(idx, idx)]
    lambda_min, lambda_max = block_spectrum(g, sub, idx)
    s, e, gamma = _row_functionals(sub)
    certified, borderline = block_verdict(mode, s, e)
    return BlockCertificate(
        tuple(idx.tolist()), s, e, gamma, lambda_min, lambda_max, certified, borderline
    )


def riesz_certificate(g: GramMatrix, block: Iterable[int] | None = None) -> BlockCertificate:
    """The block's certificate under the Riesz criterion sigma < 1.

    No hidden margin is applied; sigma within BORDERLINE_TOL below 1 is
    certified but flagged.  Uncertified blocks still carry the spectral
    pair: lambda_min > 0 means spectrally Riesz even though the sigma
    criterion does not apply.
    """
    return certify_block(g, normalize_block(g.n, block), "feichtinger")

