"""Golden input digests: ``sequence_digest``'s output, pinned in two fixtures.

``tests/data/golden_digests.json`` holds the schema_version 1 digests,

* ``corpus``: the digest of every acceptance-grid instance
  (``conftest.corpus_specs``), in grid order;
* ``cases``: the digests of hand-made sequences at the edges of float
  formatting: signed zeros, subnormals, repr's switches to exponent
  notation, repeated complex values and a Fortran-ordered input.

``tests/data/golden_digests_v2.json`` holds the schema_version 2 digests
of the same sequences, in the same layout.  It was written from
``test_fileio.reference_digest_v2``, which follows the README's definition
with hashlib and numpy alone.

A certificate names its input by this digest, so a report written before a
change must still certify after it.  ``test_fileio.py`` requires the current
code to reproduce both files exactly.  Neither may change: a new digest
needs a new schema_version.  ``PYTHONPATH=src python tests/golden_digests.py
VERSION`` writes the fixture of version 1 or 2 from ``sequence_digest``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from frame_partition import GeneratorSpec, UnitVectorSequence, generate, sequence_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_digests.json"
GOLDEN_V2_PATH = Path(__file__).parent / "data" / "golden_digests_v2.json"


def _raw(vectors) -> SimpleNamespace:
    """Coordinates a unit vector cannot hold; ``sequence_digest`` reads only these fields."""
    v = np.ascontiguousarray(vectors, dtype=np.complex128)
    return SimpleNamespace(dim=v.shape[1], field="complex", vectors=v)


def _orthogonal(dim: int, seed: int, dtype=np.float64) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((dim, dim))
    if dtype == np.complex128:
        a = a + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    return q


def hand_made_cases() -> dict:
    """Named inputs whose digests the fixture pins."""
    tiny = math.sqrt(1.0 - 1e-10)
    tenth = math.sqrt(1.0 - 1e-8)
    root = 1.0 / math.sqrt(2.0)
    repeated = [[0.6, 0.8j, 0.0], [0.6, 0.0, 0.8j], [0.0, 0.6, -0.8j], [0.6, 0.8j, 0.0]]
    return {
        "negative_zero_real": UnitVectorSequence(
            np.array([[-0.0, 1.0], [1.0, -0.0], [0.0, -1.0]]), field="real"
        ),
        "negative_zero_imag_in_real_mode": UnitVectorSequence(
            np.array([[complex(1.0, -0.0), complex(0.0, -0.0)], [complex(0.0, 0.0), 1.0]]),
            field="real",
        ),
        "negative_zero_complex": UnitVectorSequence(
            np.array([[complex(-0.0, 1.0), complex(-0.0, -0.0)], [complex(0.0, -0.0), -1.0]]),
            field="complex",
        ),
        "subnormals": UnitVectorSequence(
            np.array([[1.0, 5e-324, -5e-324], [2.2250738585072014e-308, -1e-310, 1.0]]),
            field="real",
        ),
        "smallest_subnormal_complex": UnitVectorSequence(
            np.array([[complex(5e-324, -5e-324), complex(1.0, 5e-324)]]), field="complex"
        ),
        "exponent_switch_small": UnitVectorSequence(
            np.array([[1e-5, tiny], [1e-4, tenth], [-1e-5, tiny]]), field="real"
        ),
        "exponent_switch_large": _raw(
            [[1e16, 1e15, -1e16, 1e22], [complex(1e16, -1e-5), 1.5e300, 123456789.0, 1e-4]]
        ),
        "repeated_complex": UnitVectorSequence(np.array(repeated), field="complex"),
        "harmonic_frame": generate(GeneratorSpec("harmonic", dim=6, count=12)),
        "basis_union": generate(GeneratorSpec("basis_union", dim=5, angle=math.pi / 4)),
        "signed_pairs": UnitVectorSequence(
            np.array([[root, -root], [-root, root], [root, root]]), field="real"
        ),
        "fortran_order_real": UnitVectorSequence(_orthogonal(7, 1).T, field="real"),
        "fortran_order_complex": UnitVectorSequence(
            _orthogonal(5, 2, np.complex128).T, field="complex"
        ),
    }


def case_digests(version: int) -> dict[str, str]:
    return {name: sequence_digest(seq, version) for name, seq in hand_made_cases().items()}


def corpus_digests(sequences, version: int) -> list[str]:
    return [sequence_digest(seq, version) for seq in sequences]


def write_golden(path: Path, corpus: list[str], cases: dict[str, str]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        '{\n"corpus":[\n'
        + ",\n".join(json.dumps(d) for d in corpus)
        + '\n],\n"cases":{\n'
        + ",\n".join(f"{json.dumps(name)}:{json.dumps(d)}" for name, d in cases.items())
        + "\n}\n}\n"
    )
    print(f"wrote {len(corpus)} corpus digests and {len(cases)} hand-made cases to {path}")


if __name__ == "__main__":
    import sys

    from conftest import corpus_specs

    version = int(sys.argv[1])
    write_golden(
        {1: GOLDEN_PATH, 2: GOLDEN_V2_PATH}[version],
        corpus_digests((generate(spec) for spec in corpus_specs()), version),
        case_digests(version),
    )
