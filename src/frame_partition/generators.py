"""Deterministic constructors of unit-vector test sequences.

Random draws use a fixed, named stream: PCG64 seeded with the spec seed,
uniform doubles in [0, 1), turned into Gaussians by the Box-Muller
transform (r = sqrt(-2 log(1 - u1)), z = r*cos(2 pi u2) followed by
r*sin(2 pi u2)).  One flat draw per sequence, consumed row-major, real
parts before imaginary parts in complex mode.  Identical specs therefore
produce bit-identical sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .linalg import UnitVectorSequence

KINDS = ("orthonormal", "duplicates", "angle_pair", "basis_union", "harmonic", "random_unit")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    dim: int
    count: int = 2
    angle: float = 0.0  # radians; used by angle_pair and basis_union
    multiplicity: int = 1  # used by duplicates
    seed: int = 0  # used by random_unit
    field: str = "real"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ArgumentError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.dim < 1:
            raise ArgumentError(f"dim must be >= 1, got {self.dim}")
        if self.count < 1:
            raise ArgumentError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.multiplicity < 1:
            raise ArgumentError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if not 0.0 <= self.angle <= np.pi / 2:
            raise ArgumentError(f"angle must lie in [0, pi/2], got {self.angle}")
        if self.field not in ("real", "complex"):
            raise ArgumentError(f"field must be 'real' or 'complex', got {self.field!r}")


def _box_muller(rng: np.random.Generator, size: int) -> np.ndarray:
    half = (size + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(angle), r * np.sin(angle)])[:size]


def _orthonormal(spec: GeneratorSpec) -> np.ndarray:
    if spec.count > spec.dim:
        raise ArgumentError(f"orthonormal needs count <= dim, got {spec.count} > {spec.dim}")
    return np.eye(spec.dim, dtype=np.complex128)[: spec.count]


def _duplicates(spec: GeneratorSpec) -> np.ndarray:
    e1 = np.zeros(spec.dim, dtype=np.complex128)
    e1[0] = 1.0
    return np.tile(e1, (spec.multiplicity, 1))


def _angle_pair(spec: GeneratorSpec) -> np.ndarray:
    if spec.dim < 2:
        raise ArgumentError("angle_pair needs dim >= 2")
    v = np.zeros((2, spec.dim), dtype=np.complex128)
    v[0, 0] = 1.0
    v[1, 0] = np.cos(spec.angle)
    v[1, 1] = np.sin(spec.angle)
    return v


def _basis_union(spec: GeneratorSpec) -> np.ndarray:
    # standard basis plus the basis rotated by angle in coordinate pairs
    # (0,1), (2,3), ...; a trailing odd coordinate is left fixed
    d = spec.dim
    rot = np.eye(d)
    c, s = np.cos(spec.angle), np.sin(spec.angle)
    for t in range(0, d - 1, 2):
        rot[t, t] = c
        rot[t, t + 1] = -s
        rot[t + 1, t] = s
        rot[t + 1, t + 1] = c
    return np.vstack([np.eye(d), rot.T]).astype(np.complex128)


def _harmonic(spec: GeneratorSpec) -> np.ndarray:
    if spec.dim > spec.count:
        raise ArgumentError(f"harmonic needs dim <= count, got {spec.dim} > {spec.count}")
    k = np.arange(spec.count)[:, None]
    j = np.arange(spec.dim)[None, :]
    return np.exp(2j * np.pi * j * k / spec.count) / np.sqrt(spec.dim)


def _random_unit(spec: GeneratorSpec) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.field == "real":
        flat = _box_muller(rng, spec.count * spec.dim)
        v = flat.reshape(spec.count, spec.dim).astype(np.complex128)
    else:
        flat = _box_muller(rng, 2 * spec.count * spec.dim)
        parts = flat.reshape(spec.count, 2, spec.dim)
        v = parts[:, 0, :] + 1j * parts[:, 1, :]
    norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def generate(spec: GeneratorSpec) -> UnitVectorSequence:
    """Build the sequence described by ``spec``; deterministic per spec."""
    builders = {
        "orthonormal": _orthonormal,
        "duplicates": _duplicates,
        "angle_pair": _angle_pair,
        "basis_union": _basis_union,
        "harmonic": _harmonic,
        "random_unit": _random_unit,
    }
    field = "complex" if spec.kind == "harmonic" else spec.field
    return UnitVectorSequence(builders[spec.kind](spec), field=field)
