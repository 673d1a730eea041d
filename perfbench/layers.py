"""Per-layer timings for the traced run.

After the traced run has timed a pair of ``cli.main`` calls, the benchmark
calls each module's public functions itself, in the order the CLI uses
them, on the same vector file.  Each call is timed on its own; a layer's
self time is the enclosing call minus the calls timed inside it.  Nothing
inside ``src/`` is instrumented.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from frame_partition import analysis, fileio, linalg, partition

# Halving levels L1..L8 are reported; a level deeper than the instance's m
# times only the empty loop.  No workload instance needs more than 6.
LEVEL_SLOTS = 8

# Per-pair times (seconds, reported as the mean per partition+certify pair).
TIME_METRICS = (
    "cli.partition_self_s",
    "cli.certify_self_s",
    "fileio.read_vectors_s",
    "fileio.digest_s",
    "fileio.build_report_s",
    "fileio.write_report_s",
    "fileio.read_report_s",
    "fileio.recertify_s",
    "linalg.gram_s",
    "linalg.weight_matrix_s",
    "analysis.spectral_bound_s",
    "analysis.schur_bound_s",
    "analysis.block_stats_s",
    "partition.halving_s",
    "partition.certified_s",
    "partition.self_s",
) + tuple(f"partition.level_s.L{k}" for k in range(1, LEVEL_SLOTS + 1))

# Counts per round (every round does the same work).
COUNT_METRICS = {
    "fileio.cells_read": "count",
    "fileio.report_bytes": "bytes",
    "partition.levels": "count",
} | {f"partition.level_blocks.L{k}": "count" for k in range(1, LEVEL_SLOTS + 1)}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class LayerTrace:
    """Sums of per-layer times and counts over the pairs of a traced run."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.pairs = 0

    def trace_pair(
        self, vec_path: str, report_path: str, mode: str, cli_partition_s: float, cli_certify_s: float
    ) -> list[str]:
        """Time the public calls behind one partition+certify pair.

        Returns mismatches between the level-by-level halving, halving_partition
        and the certified partitioner (empty when they agree).
        """
        s = self.seconds
        seq, read_s = _timed(fileio.read_vectors, vec_path)
        _, digest_s = _timed(fileio.sequence_digest, seq)
        g, gram_s = _timed(linalg.gram, seq)
        spectral, spectral_s = _timed(analysis.spectral_bessel_bound, g)
        schur, schur_s = _timed(analysis.schur_bessel_bound, g)
        feichtinger = mode == "feichtinger"
        m = partition.required_levels((schur if feichtinger else spectral) + partition.LEVEL_SAFETY)
        w, weight_s = _timed(linalg.weight_matrix, g, 1 if feichtinger else 2)
        halved, halving_s = _timed(partition.halving_partition, w, m)

        mismatches = []
        if m > LEVEL_SLOTS:
            mismatches.append(f"{m} halving levels exceed the {LEVEL_SLOTS} traced level slots")
        # halving_partition hands the raw entries to mills_bipartition; do the same
        entries = w.entries
        blocks = [tuple(range(seq.n))]
        for k in range(1, LEVEL_SLOTS + 1):
            start = time.perf_counter()
            if k <= m:
                split = []
                for block in blocks:
                    split.extend(part for part in partition.mills_bipartition(entries, block) if part)
                blocks = split
            s[f"partition.level_s.L{k}"] += time.perf_counter() - start
            if k <= m:
                self.counts[f"partition.level_blocks.L{k}"] += len(blocks)
        if sorted(blocks) != list(halved.blocks):
            mismatches.append("level-by-level halving differs from halving_partition")

        start = time.perf_counter()
        for block in halved.blocks:
            analysis.sigma(g, block)
            analysis.eta(g, block)
            analysis.separation_constant(g, block)
            analysis.riesz_certificate(g, block)
        block_stats_s = time.perf_counter() - start

        partitioner = partition.feichtinger_partition if feichtinger else partition.uniform_partition
        cert, certified_s = _timed(partitioner, seq)
        if cert.partition != halved:
            mismatches.append("certified partitioner differs from halving_partition")
        report, build_s = _timed(fileio.build_report, cert, seq)
        _, write_s = _timed(fileio.write_report, report_path, report)
        report, read_report_s = _timed(fileio.read_report, report_path)
        _, recertify_s = _timed(fileio.recertify, seq, report)

        s["fileio.read_vectors_s"] += read_s
        s["fileio.digest_s"] += digest_s
        s["linalg.gram_s"] += gram_s
        s["analysis.spectral_bound_s"] += spectral_s
        s["analysis.schur_bound_s"] += schur_s
        s["linalg.weight_matrix_s"] += weight_s
        s["partition.halving_s"] += halving_s
        s["analysis.block_stats_s"] += block_stats_s
        s["partition.certified_s"] += certified_s
        s["partition.self_s"] += certified_s - (
            gram_s + spectral_s + schur_s + weight_s + halving_s + block_stats_s
        )
        s["fileio.build_report_s"] += build_s - digest_s
        s["fileio.write_report_s"] += write_s
        s["fileio.read_report_s"] += read_report_s
        s["fileio.recertify_s"] += recertify_s
        s["cli.partition_self_s"] += cli_partition_s - (read_s + certified_s + build_s + write_s)
        s["cli.certify_self_s"] += cli_certify_s - (read_s + read_report_s + digest_s + recertify_s)

        self.counts["fileio.cells_read"] += seq.n * seq.dim
        self.counts["fileio.report_bytes"] += os.path.getsize(report_path)
        self.counts["partition.levels"] += m
        self.pairs += 1
        return mismatches

    def metrics(self, rounds: int) -> dict[str, dict[str, float]]:
        out = {name: {"value": self.seconds[name] / self.pairs, "unit": "s"} for name in TIME_METRICS}
        for name, unit in COUNT_METRICS.items():
            out[name] = {"value": self.counts[name] // rounds, "unit": unit}
        return out
