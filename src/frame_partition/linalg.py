"""Unit-vector sequences, Gram matrices and the weight matrices built on them.

Convention used everywhere in this package: the inner product <x, y> is
linear in the first argument and conjugate-linear in the second.  Real-mode
data is stored with zero imaginary parts and goes through the same complex
code path; only the Gram matrix's factor (``GramMatrix.factor``) is kept
in float64 for it.

Input is validated once, where it comes in.  ``UnitVectorSequence`` and
``WeightMatrix(entries)`` check every invariant.  A ``GramMatrix`` is built
only from a sequence (``GramMatrix(seq)``, also exported as ``gram``), and
``weight_matrix`` builds a trusted ``WeightMatrix`` from it without
re-checking, because what they compute from a validated sequence holds the
invariants by construction.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NormViolation

# Acceptance tolerance for "unit" vectors; a vector outside it is refused,
# never rescaled.
UNIT_NORM_TOL = 1e-9

FIELDS = ("real", "complex")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class UnitVectorSequence:
    """Ordered finite list of unit-norm vectors, one per row of ``vectors``."""

    vectors: np.ndarray
    field: str = "complex"

    def __post_init__(self) -> None:
        # C order: sequence_digest reinterprets the rows' bytes
        v = np.array(self.vectors, dtype=np.complex128, order="C")
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ArgumentError(
                f"vectors must be a nonempty 2-d array, got shape {np.shape(self.vectors)}"
            )
        if not np.all(np.isfinite(v)):
            raise ArgumentError("vectors contain NaN or Inf entries")
        if self.field not in FIELDS:
            raise ArgumentError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.field == "real" and np.any(v.imag != 0.0):
            raise ArgumentError("real-mode sequence has nonzero imaginary parts")
        norms = np.linalg.norm(v, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise NormViolation(bad[0], norms[bad[0]], tuple(int(i) for i in bad))
        object.__setattr__(self, "vectors", _freeze(v))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of pairwise inner products G[i, j] = <f_i, f_j> of ``seq``.

    The upper triangle is computed and mirrored, so G[i][j] == conj(G[j][i])
    holds exactly; the diagonal is set to the real squared norms.  The
    vectors are finite with norms within ``UNIT_NORM_TOL`` of 1, so every
    entry is finite, and the result is not checked again.  ``factor`` is
    the n x d matrix V of the vectors, G = V V* (float64 for a real-mode
    sequence).  ``spectrum`` caches its ``(lambda_min, lambda_max)`` for
    ``analysis.spectral_bessel_bound``.
    """

    seq: dataclasses.InitVar[UnitVectorSequence]
    entries: np.ndarray = dataclasses.field(init=False)
    factor: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    spectrum: tuple[float, float] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self, seq: UnitVectorSequence) -> None:
        if not isinstance(seq, UnitVectorSequence):
            raise ArgumentError(f"GramMatrix takes a UnitVectorSequence, got {type(seq).__name__}")
        v = seq.vectors
        g = np.triu(v @ v.conj().T, 1)
        g += g.T.conj()  # each entry plus the zero mirrored onto it, so exactly Hermitian
        np.fill_diagonal(g, np.linalg.norm(v, axis=1) ** 2)
        object.__setattr__(self, "entries", _freeze(g))
        # real-mode vectors have zero imaginary parts: real arithmetic is a quarter of the work
        factor = np.ascontiguousarray(v.real) if seq.field == "real" else v
        object.__setattr__(self, "factor", factor)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def magnitudes(self) -> np.ndarray:
        """|G|, computed once: the Schur bound and the weight matrix share it."""
        return _freeze(np.abs(self.entries))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric nonnegative matrix with zero diagonal; entries |G_ij|^power."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ArgumentError(f"weight matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ArgumentError("weight matrix contains NaN or Inf entries")
        if np.any(a != a.T):
            raise ArgumentError("weight matrix is not symmetric")
        if np.any(a < 0.0):
            raise ArgumentError("weight matrix has negative entries")
        if np.any(np.diagonal(a) != 0.0):
            raise ArgumentError("weight matrix diagonal must be zero")
        object.__setattr__(self, "entries", _freeze(a))


gram = GramMatrix


def weight_matrix(g: GramMatrix, power: int = 1) -> WeightMatrix:
    """Off-diagonal |G_ij|^power with zero diagonal; symmetric exactly.

    G is exactly Hermitian and |conj z| == |z| exactly, so the weight
    matrix is not checked again.
    """
    if power not in (1, 2):
        raise ArgumentError(f"power must be 1 or 2, got {power!r}")
    a = g.magnitudes.copy() if power == 1 else np.square(g.magnitudes)
    np.fill_diagonal(a, 0.0)
    out = object.__new__(WeightMatrix)
    object.__setattr__(out, "entries", _freeze(a))
    return out
