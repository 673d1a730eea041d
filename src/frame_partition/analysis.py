"""Scalar functionals of a Gram matrix and the per-block certificate.

The three row functionals on an index block:

* sigma  — largest off-diagonal absolute row sum; sigma < 1 certifies a
  Riesz sequence with guaranteed bounds (1 - sigma, 1 + sigma), and a
  feichtinger verdict also needs the computed lambda_min > 0.
* eta    — largest off-diagonal squared-magnitude row sum; eta < 1 defines
  a uniformly separated sequence.
* gamma  — largest off-diagonal |G_ij| (the separation constant).

Two Bessel constants are exposed: the optimal spectral one (lambda_max of
the Gram matrix) and the Schur-test one (max absolute row sum, diagonal
included).  They differ by design: the Schur bound sums over all entries
while sigma omits the diagonal, so for unit vectors schur_bound = sigma-ish
row sums + 1.

``partition``, ``certify`` and ``riesz_certificate`` take every block's
numbers from ``certify_blocks``, and every spectrum comes from ``_spectra``.
It diagonalizes the smaller side, through the Gram matrix's factor V: a
block of k vectors in dimension d < k has the d x d frame operator
V_b* V_b, whose nonzero spectrum is the block Gram's, and rank at most
d < k, so lambda_min is 0.0 exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError
from .linalg import GramMatrix

# sigma in [1 - BORDERLINE_TOL, 1) is still certified but flagged.
BORDERLINE_TOL = 1e-12


def normalize_block(n: int, block: Iterable[int] | None) -> np.ndarray:
    """Sorted, de-duplicated index block; None means the full index set."""
    if block is None:
        return np.arange(n, dtype=int)
    idx = np.array(sorted({int(i) for i in block}), dtype=int)
    if idx.size == 0:
        raise ArgumentError("index block is empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ArgumentError(f"block indices out of range for n={n}: {idx.tolist()}")
    return idx


def _spectra(g: GramMatrix, idx: np.ndarray, subs: np.ndarray) -> tuple[list, list]:
    """``lambda_min`` and ``lambda_max`` of each block Gram ``subs[b]`` = G[idx[b], idx[b]].

    One ``eigvalsh`` call covers the (r, k, k) stack, or the d x d frame
    operators when k > d.  Each matrix gets the bits it gets alone.
    """
    if subs.shape[1] > g.factor.shape[1]:
        rows = g.factor.take(idx, axis=0)
        top = np.linalg.eigvalsh(np.swapaxes(rows.conj(), 1, 2) @ rows)[:, -1].tolist()
        return [0.0] * len(top), top
    eigs = np.linalg.eigvalsh(subs)
    return eigs[:, 0].tolist(), eigs[:, -1].tolist()


def spectral_bessel_bound(g: GramMatrix) -> float:
    """Optimal Bessel constant: lambda_max of the Gram matrix, diagonalized once per ``g``."""
    if g.spectrum is None:
        lo, hi = _spectra(g, np.arange(g.n)[None], g.entries[None])
        object.__setattr__(g, "spectrum", (lo[0], hi[0]))
    return g.spectrum[1]


def schur_bessel_bound(g: GramMatrix) -> float:
    """Schur-test Bessel constant: max absolute row sum, diagonal included."""
    return float(g.magnitudes.sum(axis=1).max())


def _row_functionals(subs: np.ndarray) -> tuple[list, list, list]:
    """(sigma, eta, gamma) of each (k, k) matrix in ``subs``: one ``abs`` pass, diagonals zeroed.

    Each column sum adds its terms in row order, as a 2-d ``sum(axis=0)`` does.
    """
    r, k = subs.shape[:2]
    mag = np.empty((2, r, k * k))
    np.abs(subs.reshape(r, k * k), out=mag[0])
    mag[0, :, :: k + 1] = 0.0  # the diagonals
    np.square(mag[0], out=mag[1])
    col_sums = np.add.reduce(mag.reshape(2, r, k, k), axis=2)
    sigma, eta = np.maximum.reduce(col_sums, axis=2).tolist()
    return sigma, eta, np.maximum.reduce(mag[0], axis=1).tolist()


def row_functionals(
    g: GramMatrix, block: Iterable[int] | None = None
) -> tuple[float, float, float]:
    """(sigma, eta, gamma) over the block; all three are 0 for singletons."""
    idx = None if block is None else normalize_block(g.n, block)
    sub = g.entries if idx is None else g.entries.take(idx, axis=0).take(idx, axis=1)
    return tuple(x[0] for x in _row_functionals(sub[None]))


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


def block_verdict(mode: str, sigma: float, eta: float, lambda_min: float) -> tuple[bool, bool]:
    """``(certified, borderline)`` for a block in ``mode``.

    Feichtinger mode certifies sigma < 1 and lambda_min > 0: the Riesz
    criterion, and a computed spectrum that agrees with it, so a block of
    more vectors than the dimension (lambda_min 0.0 exactly) is never
    certified.  Uniform mode certifies eta < 1.  The raw comparisons
    decide, with no hidden margin.  In both modes the block is flagged
    borderline when sigma is within BORDERLINE_TOL below 1.
    """
    borderline = 1.0 - BORDERLINE_TOL <= sigma < 1.0
    if mode == "feichtinger":
        return sigma < 1.0 and lambda_min > 0.0, borderline
    return eta < 1.0, borderline


def certify_blocks(
    g: GramMatrix, blocks: Sequence[Sequence[int]], mode: str
) -> list[BlockCertificate]:
    """Each block's sigma, eta, gamma, extreme eigenvalues and ``mode`` verdict, in input order.

    The blocks hold sorted, distinct, in-range indices, not re-checked.  The
    r blocks of each size k are certified as one (r, k, k) stack, each
    getting the bits it would get alone.
    """
    by_size: dict[int, list[int]] = {}
    for pos, block in enumerate(blocks):
        by_size.setdefault(len(block), []).append(pos)
    out: list = [None] * len(blocks)
    for k, positions in by_size.items():
        r = len(positions)
        if k == g.n:  # the whole index set, whose lambda_max is the spectral bound
            idx = np.broadcast_to(np.arange(k), (r, k))
            subs = np.broadcast_to(g.entries, (r, k, k))
            lambda_max = [spectral_bessel_bound(g)] * r  # fills g.spectrum
            lambda_min = [g.spectrum[0]] * r
        elif r == 1:  # two takes cost less than building the flat index
            i = np.asarray(blocks[positions[0]], dtype=np.intp)
            idx, subs = i[None], g.entries.take(i, axis=0).take(i, axis=1)[None]
        else:  # G[idx[b, i], idx[b, j]] for every b, i, j
            flat = itertools.chain.from_iterable(map(blocks.__getitem__, positions))
            idx = np.fromiter(flat, np.intp, r * k).reshape(r, k)
            subs = g.entries.ravel().take(idx[:, :, None] * g.n + idx[:, None, :])
        if k < g.n:
            lambda_min, lambda_max = _spectra(g, idx, subs)
        rows = zip(positions, idx.tolist(), *_row_functionals(subs), lambda_min, lambda_max)
        for pos, ix, s, e, gamma, lo, hi in rows:
            verdict = block_verdict(mode, s, e, lo)
            out[pos] = BlockCertificate(tuple(ix), s, e, gamma, lo, hi, *verdict)
    return out


def riesz_certificate(g: GramMatrix, block: Iterable[int] | None = None) -> BlockCertificate:
    """The block's certificate under the Riesz criterion sigma < 1.

    No hidden margin is applied; sigma within BORDERLINE_TOL below 1 is
    certified but flagged.  Uncertified blocks still carry the spectral
    pair: lambda_min > 0 means spectrally Riesz even though the sigma
    criterion does not apply.
    """
    return certify_blocks(g, [normalize_block(g.n, block)], "feichtinger")[0]
