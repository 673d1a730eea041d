"""Reference code the tests check the package against.

The exhaustive bipartition oracle checks the halving local search; the
other functions are the earlier, plainer builders of the Gram matrix, its
weights and the halving, which the current ones must match bit for bit.
"""

import math

import numpy as np

from frame_partition.analysis import normalize_block
from frame_partition.partition import _local_search, _ordered_parts, _weight_entries

ORACLE_SIZE_CAP = 20


class TooLargeForOracle(ValueError):
    """Instance exceeds the size cap of the exhaustive oracle."""


def brute_force_bipartition(a, indices=None):
    """Exhaustive oracle: the bipartition minimizing the max within-part row sum.

    Scans all 2^(k-1) splits (the smallest index pinned to the first part)
    and returns the first minimizer plus its value.  Capped at k <= 20.
    """
    w = _weight_entries(a)
    idx = normalize_block(w.shape[0], indices)
    k = idx.size
    if k > ORACLE_SIZE_CAP:
        raise TooLargeForOracle(f"oracle capped at {ORACLE_SIZE_CAP} indices, got {k}")
    sub = w[np.ix_(idx, idx)]
    row = sub.sum(axis=0)
    best_val = math.inf
    best_mask = np.ones(k, dtype=bool)
    mask = np.empty(k, dtype=bool)
    shifts = np.arange(k - 1)
    for bits in range(2 ** (k - 1)):
        mask[0] = True
        mask[1:] = ((bits >> shifts) & 1) == 0
        t_first = sub[mask].sum(axis=0)
        within = np.where(mask, t_first, row - t_first)
        val = float(within.max())
        if val < best_val:
            best_val = val
            best_mask = mask.copy()
    first, second = _ordered_parts(idx, best_mask)
    return first, second, best_val


def reference_gram(vectors):
    """G = V V* through n x n temporaries: the upper triangle plus its conjugate transpose."""
    v = np.asarray(vectors, dtype=np.complex128)
    upper = np.triu(v @ v.conj().T, 1)
    g = upper + upper.conj().T
    g[np.diag_indices_from(g)] = np.linalg.norm(v, axis=1) ** 2
    return g


def reference_schur_bound(entries):
    return float(np.abs(entries).sum(axis=1).max())


def reference_weights(entries, power):
    a = np.abs(entries) ** power
    np.fill_diagonal(a, 0.0)
    return a


def reference_halving(a, m):
    """Sorted blocks of m halving levels, searching every block at every level."""
    w = _weight_entries(a)
    blocks = [tuple(range(w.shape[0]))]
    for _ in range(m):
        split = []
        for block in blocks:
            idx = np.array(block, dtype=int)
            in_first, _ = _local_search(w[np.ix_(idx, idx)])
            split.extend(part for part in _ordered_parts(idx, in_first) if part)
        blocks = split
    return sorted(blocks)
