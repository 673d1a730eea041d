"""Golden certificate reports: ``build_report``'s output, pinned in a fixture.

``tests/data/golden_reports.json`` holds the sha256 of
``json.dumps(report minus timings, sort_keys=True)``, with ``schema_version``
1 and the version-1 ``input_digest`` put in place of what the report holds,

* ``corpus``: for every acceptance-grid instance (``conftest.corpus_specs``),
  Feichtinger mode then uniform mode.

The digest covers every float in the report bit for bit (``json.dumps``
writes floats by ``repr``), so block statistics, global bounds, verdicts and
flags must all stay exactly as they were.  ``test_fileio.py`` requires the
current code to reproduce the file exactly.  Rewrite it (only when a change
of report content is intended) with

    PYTHONPATH=src python tests/golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from frame_partition import (
    build_report,
    feichtinger_partition,
    generate,
    sequence_digest,
    uniform_partition,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_reports.json"


def report_digest(cert, seq) -> str:
    report = build_report(cert, seq)
    report.pop("timings")
    # the fixture pins schema_version 1 reports; the version and the digest
    # it defines are tested on their own
    report.update(schema_version=1, input_digest=sequence_digest(seq, 1))
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def corpus_digests(sequences) -> list[str]:
    return [
        report_digest(partitioner(seq), seq)
        for seq in sequences
        for partitioner in (feichtinger_partition, uniform_partition)
    ]


if __name__ == "__main__":
    from conftest import corpus_specs

    golden = {
        "corpus": corpus_digests(generate(spec) for spec in corpus_specs()),
    }
    lines = ",\n".join(
        f'"{key}":[\n' + ",\n".join(json.dumps(item) for item in items) + "\n]"
        for key, items in golden.items()
    )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(golden['corpus'])} corpus report digests to {GOLDEN_PATH}")
