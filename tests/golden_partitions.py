"""Golden partitions: the halving search's output, pinned in a fixture.

``tests/data/golden_partitions.json`` holds

* ``corpus``: for every acceptance-grid instance (``conftest.corpus_specs``),
  Feichtinger mode then uniform mode, the sha256 of the partition's
  ``[blocks, levels]``;
* ``weights``: for seeded weight matrices, a third of them full of exact
  ties, the local search's two parts and its move count.

``test_partition.py`` requires the current code to reproduce the file
exactly.  Rewrite it (only when a change of output is intended) with

    PYTHONPATH=src python tests/golden_partitions.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from frame_partition import feichtinger_partition, generate, uniform_partition
from frame_partition.partition import _local_search

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_partitions.json"
WEIGHT_CASES = 210
TIE_VALUES = np.array([0.0, 0.1, 0.2, 0.3])


def partition_digest(cert) -> str:
    part = cert.partition
    payload = json.dumps([[list(block) for block in part.blocks], part.levels])
    return hashlib.sha256(payload.encode()).hexdigest()


def corpus_digests(sequences) -> list[str]:
    return [
        partition_digest(partitioner(seq))
        for seq in sequences
        for partitioner in (feichtinger_partition, uniform_partition)
    ]


def weight_case(i: int) -> np.ndarray:
    """Seeded symmetric zero-diagonal weights; cases i % 6 in {4, 5} tie often."""
    rng = np.random.Generator(np.random.PCG64(7000 + i))
    k = int(rng.integers(2, 61))
    if i % 6 == 4:
        values = rng.integers(0, 3, size=(k, k)).astype(np.float64)
    elif i % 6 == 5:
        values = TIE_VALUES[rng.integers(0, TIE_VALUES.size, size=(k, k))]
    else:
        values = rng.random((k, k))
    upper = np.triu(values, 1)
    return upper + upper.T


def weight_results() -> list[dict]:
    results = []
    for i in range(WEIGHT_CASES):
        in_first, moves = _local_search(weight_case(i))
        blocks = [np.flatnonzero(in_first).tolist(), np.flatnonzero(~in_first).tolist()]
        results.append({"blocks": blocks, "moves": moves})
    return results


if __name__ == "__main__":
    from conftest import corpus_specs

    golden = {
        "corpus": corpus_digests(generate(spec) for spec in corpus_specs()),
        "weights": weight_results(),
    }
    lines = ",\n".join(
        f'"{key}":[\n' + ",\n".join(json.dumps(item) for item in items) + "\n]"
        for key, items in golden.items()
    )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(golden['corpus'])} corpus digests and "
          f"{len(golden['weights'])} weight cases to {GOLDEN_PATH}")
