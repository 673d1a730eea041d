"""Halving bipartition by local search and the two certified partitioners.

The bipartition step realizes the classical extremal argument: starting
from everything in one part, repeatedly move the lowest-index element whose
within-part interaction exceeds half its total row sum.  Each move strictly
decreases the total within-part weight, so the search terminates, and at
termination every index j satisfies

    sum_{i in part(j)} a_ij  <=  (1/2) * sum_{i in indices} a_ij.

Iterating m levels (each level splitting every current block against the
weight submatrix of that block) yields at most 2^m blocks with per-index
within-block sums at most 1/2^m of the original row sums.  Applied to the
off-diagonal Gram weights of a unit-vector sequence with Bessel constant B,
the row sums are at most B - 1, so choosing the smallest m with
(B - 1) / 2^m < 1 makes every block sigma-certified (power 1) or uniformly
separated (power 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis import (
    BlockCertificate,
    certify_blocks,
    normalize_block,
    schur_bessel_bound,
    spectral_bessel_bound,
)
from .errors import ArgumentError
from .linalg import UnitVectorSequence, WeightMatrix, gram, weight_matrix

MODES = ("feichtinger", "uniform")

# |B - (1 + 2^k)| <= this means required_levels sits on a breakpoint; the
# raw strict comparison decides, and the certificate flags it.
BREAKPOINT_TOL = 1e-12

# Allowance added to B when the partitioners pick the level count.  A
# computed lambda_max can land epsilon below a true Bessel constant that
# sits exactly on a power-of-two breakpoint (three duplicate vectors:
# true B = 3, computed 2.999...96), which would under-provision m and leave
# a block at eta = 1.  The allowance only ever bumps m up by one.
LEVEL_SAFETY = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering {0..n-1}; levels = halving rounds applied."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    levels: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if len(block) == 0:
                raise ArgumentError("empty blocks must be dropped before construction")
            seen.update(block)
        if sum(map(len, self.blocks)) != len(seen):
            raise ArgumentError("partition blocks overlap or repeat an index")
        if seen != set(range(self.n)):
            raise ArgumentError("partition blocks do not cover the index set")
        if self.levels < 0:
            raise ArgumentError("levels must be >= 0")
        if len(self.blocks) > 2**self.levels:
            raise ArgumentError("more blocks than 2^levels")


@dataclass(frozen=True)
class PartitionCertificate:
    partition: Partition
    mode: str
    global_bessel: float  # the B the halving used
    spectral_bound: float
    schur_bound: float
    target: float  # (B - 1) / 2^levels
    per_block: tuple[BlockCertificate, ...]
    all_certified: bool
    borderline: bool


def _weight_entries(a: WeightMatrix | np.ndarray) -> np.ndarray:
    if isinstance(a, WeightMatrix):
        return a.entries
    # construction validates symmetry, nonnegativity and the zero diagonal
    return WeightMatrix(np.asarray(a, dtype=np.float64)).entries


def _local_search(sub: np.ndarray) -> tuple[np.ndarray, int]:
    """Run the halving local search on a restricted weight matrix.

    Returns the boolean membership mask of the first part and the number of
    moves performed.  Each move takes the lowest index whose within-part sum
    exceeds half its row sum.  That test is decided with correctly rounded
    sums (math.fsum), so an exact tie (within-part sum exactly half the row
    sum) never registers as a violation; every accepted move is then a
    genuine one, the within-part weight strictly decreases, and the search
    terminates.  Naive float sums can round an exact tie upward and
    oscillate forever on symmetric inputs.

    Running float sums decide everything outside a band of 1e-9 * row
    around half the row sum.  A move of j adds or subtracts ``sign * sub[j]``
    in O(k) (``sign`` is +1 on the first part and -1 on the second, and
    multiplying by +-1 is exact).  The sums start as the row sums, with
    every index in the first part, and every k moves they are computed
    afresh, so between refreshes they drift from the exact sums by at most
    about k * eps * row, which is <= 5e-13 * row at k = 2048 and far inside
    the band.  A running sum above the band is therefore an exact violator,
    one at or below it is not, and only an index inside the band needs the
    fsum test.  The move sequence is the one a full fsum scan from index 0
    makes.  The update relies on ``sub`` being a weight block: symmetric
    with a zero diagonal.
    """
    k = sub.shape[0]
    row = sub.sum(axis=0)
    half, margin = 0.5 * row, 1e-9 * row
    low, high = half - margin, half + margin
    sign = np.ones(k)  # +1 on the first part, -1 on the second
    within = row.copy()  # everything starts in the first part
    over = np.empty(k, dtype=bool)
    step = np.empty(k)
    moves = 0
    until_refresh = k
    while True:
        if until_refresh == 0:
            in_first = sign > 0
            f = in_first.astype(np.float64)
            within = np.where(in_first, f @ sub, (1.0 - f) @ sub)
            until_refresh = k
        np.greater(within, low, out=over)
        j = int(over.argmax())  # the first candidate (0 if none); above the band it moves at once
        if not within[j] > high[j]:  # scan the candidates in order, deciding in-band ones by fsum
            for j in over.nonzero()[0].tolist():
                if within[j] > high[j]:
                    break
                same_part = sign == sign[j]
                if math.fsum(sub[same_part, j].tolist()) > 0.5 * math.fsum(sub[:, j].tolist()):
                    break
            else:
                return sign > 0, moves
        sign[j] = s = -sign[j]
        moved_from = within[j]
        np.multiply(sign, sub[j], out=step)
        if s > 0:
            within += step
        else:
            within -= step
        within[j] = row[j] - moved_from
        moves += 1
        until_refresh -= 1


def _ordered_parts(
    idx: np.ndarray, in_first: np.ndarray
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first = tuple(idx[in_first].tolist())
    second = tuple(idx[~in_first].tolist())
    if not first or (second and second[0] < first[0]):
        first, second = second, first
    return first, second


def _search(w: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, int]:
    """The local search on the sorted block ``idx`` of ``w``: in place if it is every index."""
    sub = w if idx.size == w.shape[0] else w.take(idx, axis=0).take(idx, axis=1)
    return _local_search(sub)


def mills_bipartition(
    a: WeightMatrix | np.ndarray, indices: Iterable[int] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split ``indices`` so each index keeps at most half its row sum in-part.

    Returns two disjoint tuples covering ``indices`` (the part holding the
    smallest index first; one may be empty) such that for every j in part P:
    sum_{i in P} a_ij <= (1/2) * sum_{i in indices} a_ij.
    """
    w = _weight_entries(a)
    idx = normalize_block(w.shape[0], indices)
    return _ordered_parts(idx, _search(w, idx)[0])


def halving_partition(a: WeightMatrix | np.ndarray, m: int) -> Partition:
    """Apply the bipartition recursively m levels.

    A block that cannot split leaves the search: one index, or a block with
    no move, whose row sums are all 0.  A move strictly lowers the
    within-part weight, so a search that moves leaves two nonempty parts.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ArgumentError(f"level count must be an integer >= 0, got {m!r}")
    w = _weight_entries(a)
    n = w.shape[0]
    done: list[np.ndarray] = []
    active = [np.arange(n)]
    for _ in range(m):
        if not active:
            break
        searching, active = active, []
        for idx in searching:
            in_first, moves = _search(w, idx)
            if moves == 0:
                done.append(idx)
                continue
            for part in (idx[in_first], idx[~in_first]):
                (active if part.size > 1 else done).append(part)
    blocks = sorted((tuple(b.tolist()) for b in done + active), key=lambda b: b[0])
    return Partition(n=n, blocks=tuple(blocks), levels=int(m))


def required_levels(b: float) -> int:
    """Smallest m >= 0 with (B - 1) / 2^m < 1; strict comparison on floats.

    That is 0 for any finite B < 2, below 1 included; a non-finite B raises.
    """
    if not math.isfinite(b):
        raise ArgumentError(f"Bessel constant must be finite, got {b!r}")
    return math.frexp(b - 1.0)[1] if b >= 2.0 else 0  # the e with B - 1 in [2^(e-1), 2^e)


def halving_plan(b: float) -> tuple[int, bool]:
    """``(levels, on_breakpoint)`` of the halving for the Bessel constant B.

    ``levels`` is required_levels(B + LEVEL_SAFETY), so only a non-finite B
    raises ArgumentError.  ``on_breakpoint`` is true when B is within
    BREAKPOINT_TOL of some 1 + 2^k.  Only k = levels - 1 can match, except
    at B = 2^53 = fl(1 + 2^53), where B + LEVEL_SAFETY - 1 rounds to
    2^53 - 1 and k = levels.
    """
    m = required_levels(b + LEVEL_SAFETY)
    on_breakpoint = any(
        abs(b - (1.0 + math.ldexp(1.0, k))) <= BREAKPOINT_TOL for k in (m - 1, m) if 0 <= k < 1024
    )
    return m, on_breakpoint


def _certified_partition(seq: UnitVectorSequence, mode: str) -> PartitionCertificate:
    g = gram(seq)
    spectral_b = spectral_bessel_bound(g)
    schur_b = schur_bessel_bound(g)
    b = schur_b if mode == "feichtinger" else spectral_b
    m, on_breakpoint = halving_plan(b)
    power = 1 if mode == "feichtinger" else 2
    part = halving_partition(weight_matrix(g, power), m)
    per_block = tuple(certify_blocks(g, part.blocks, mode))
    return PartitionCertificate(
        partition=part,
        mode=mode,
        global_bessel=b,
        spectral_bound=spectral_b,
        schur_bound=schur_b,
        target=math.ldexp(b - 1.0, -m),
        per_block=per_block,
        all_certified=all(bc.certified for bc in per_block),
        borderline=on_breakpoint or any(bc.borderline for bc in per_block),
    )


def feichtinger_partition(seq: UnitVectorSequence) -> PartitionCertificate:
    """Partition into sigma-certified Riesz blocks via Schur bound + halving.

    Uses B = schur_bessel_bound, weight power 1 and m = required_levels(B);
    every block then has sigma <= (B - 1) / 2^m < 1.
    """
    return _certified_partition(seq, "feichtinger")


def uniform_partition(seq: UnitVectorSequence) -> PartitionCertificate:
    """Partition into uniformly separated blocks (eta < 1).

    Uses the spectral Bessel bound (the tightest valid B), weight power 2
    and m = required_levels(B); every block then has eta <= (B - 1) / 2^m < 1.
    """
    return _certified_partition(seq, "uniform")
