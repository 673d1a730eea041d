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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, EmptyBlockError
from .linalg import GramMatrix, UnitVectorSequence, gram, hermitian_eigenvalues, synthesis

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


def spectral_bessel_bound(g: GramMatrix) -> float:
    """Optimal Bessel constant: lambda_max of the Gram matrix."""
    return float(hermitian_eigenvalues(g)[-1])


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
    or a normalized block); it is not re-checked.  The submatrix of a
    ``GramMatrix`` is Hermitian by construction, so the spectrum is taken
    without a re-check.
    """
    idx = np.asarray(idx, dtype=int)
    sub = g.entries.take(idx, axis=0).take(idx, axis=1)  # g.entries[np.ix_(idx, idx)]
    eigs = np.linalg.eigvalsh(sub)
    s, e, gamma = _row_functionals(sub)
    certified, borderline = block_verdict(mode, s, e)
    return BlockCertificate(
        tuple(idx.tolist()), s, e, gamma, float(eigs[0]), float(eigs[-1]), certified, borderline
    )


def riesz_certificate(g: GramMatrix, block: Iterable[int] | None = None) -> BlockCertificate:
    """The block's certificate under the Riesz criterion sigma < 1.

    No hidden margin is applied; sigma within BORDERLINE_TOL below 1 is
    certified but flagged.  Uncertified blocks still carry the spectral
    pair: lambda_min > 0 means spectrally Riesz even though the sigma
    criterion does not apply.
    """
    return certify_block(g, normalize_block(g.n, block), "feichtinger")


def verify_riesz_inequality(
    seq: UnitVectorSequence,
    block: Iterable[int] | None = None,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Sample random coefficients on the block and check the Riesz sandwich.

    For each trial c: (lambda_min - tol) * ||c||^2 <= ||sum c_k f_k||^2
    <= (lambda_max + tol) * ||c||^2, with the block-Gram eigenvalue bounds.
    """
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    idx = normalize_block(seq.n, block)
    cert = riesz_certificate(gram(seq), idx)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(trials):
        c = rng.standard_normal(idx.size)
        if seq.field == "complex":
            c = c + 1j * rng.standard_normal(idx.size)
        full = np.zeros(seq.n, dtype=np.complex128)
        full[idx] = c
        image = synthesis(seq, full)
        nsq = float(np.linalg.norm(image) ** 2)
        csq = float(np.linalg.norm(c) ** 2)
        if nsq < (cert.lambda_min - tol) * csq or nsq > (cert.lambda_max + tol) * csq:
            return False
    return True
