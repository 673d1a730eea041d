"""Riesz-sequence certification and certified halving partitions.

Certifies when a finite system of unit vectors forms a Riesz sequence (via
the off-diagonal row-sum criterion on its Gram matrix) and constructively
partitions any such system into finitely many certified Riesz or uniformly
separated blocks, with machine-checkable spectral certificates.

The package root exports what the CLI and the README use; everything else
is imported from its submodule (``frame_partition.linalg``, ``.analysis``,
``.partition``, ``.fileio``, ``.generators``, ``.errors``).
"""

from .analysis import (
    eta,
    riesz_certificate,
    row_functionals,
    schur_bessel_bound,
    separation_constant,
    sigma,
    spectral_bessel_bound,
)
from .errors import ArgumentError, FramePartitionError, NormViolation
from .fileio import (
    CERTIFICATE_SCHEMA,
    TOOL_VERSION as __version__,
    build_report,
    read_report,
    read_vectors,
    recertify,
    sequence_digest,
    write_report,
    write_vectors,
)
from .generators import KINDS, GeneratorSpec, generate
from .linalg import UnitVectorSequence, gram
from .partition import feichtinger_partition, uniform_partition

__all__ = [
    "ArgumentError",
    "CERTIFICATE_SCHEMA",
    "FramePartitionError",
    "GeneratorSpec",
    "KINDS",
    "NormViolation",
    "UnitVectorSequence",
    "build_report",
    "eta",
    "feichtinger_partition",
    "generate",
    "gram",
    "read_report",
    "read_vectors",
    "recertify",
    "riesz_certificate",
    "row_functionals",
    "schur_bessel_bound",
    "separation_constant",
    "sequence_digest",
    "sigma",
    "spectral_bessel_bound",
    "uniform_partition",
    "write_report",
    "write_vectors",
]
