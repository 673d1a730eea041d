"""Partition-then-certify benchmark of the frame-partition CLI.

    python3 perfbench/run.py --workload {corpus,halving,wide} --seed N --seconds S --trace {0,1}

Runs ``frame_partition.cli.main`` in this process, with its output
captured: ``partition`` then ``certify`` on every instance of the workload,
in rounds, until the next round would end after ``--seconds``.  Every report
is checked against its input by ``check.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  See README.md next to this file.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: with more, a BLAS helper thread
# keeps spinning on the second core after each eigvalsh and slows the
# pure-Python local search that follows (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRAME_PARTITION_THREADS", None)

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Edits that certify must reject.  A block value moved past --tol is caught
# (exit 5); the global claims are not checked by certify yet, so those
# probes count as failed operations.
TAMPERS = ("block_sigma", "target", "levels", "schur_B", "all_certified")


def tampered(report: dict, edit: str) -> dict:
    """The report with one claim changed (edits the dict in place)."""
    if edit == "block_sigma":
        report["blocks"][0]["sigma"] += 1e-6
    elif edit == "target":
        report["target"] = -3.0
    elif edit == "levels":
        report["levels"] += 3
    elif edit == "schur_B":
        report["global_bounds"]["schur_B"] = 0.01
    else:
        report["all_certified"] = not report["all_certified"]
    return report


def run_cli(cli, argv: list[str]) -> tuple[int, float]:
    """One CLI command in this process with stdout/stderr captured: (exit code, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import frame_partition.cli."""
    code = (
        "import time; t = time.perf_counter(); import frame_partition.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.split()[-1])


def p50(samples: list[float]) -> float:
    """The median, smoothed: the mean of the middle fifth of the sorted samples.

    A workload's commands fall into clusters by instance size.  When the
    middle of the samples lies in a gap between two clusters, the plain
    median jumps from one to the other between runs; the mean of the
    samples from about the 40th to the 60th percentile does not.
    """
    ordered = sorted(samples)
    low = round(0.4 * (len(ordered) - 1))
    return statistics.fmean(ordered[low : len(ordered) - low])


def tail(samples: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it: the 11th largest.

    With 10 samples or fewer there is no such percentile; the largest is returned.
    """
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


class Bench:
    def __init__(self, args, work: Path) -> None:
        from frame_partition import cli, fileio, generators

        import workloads

        self.args = args
        self.work = work
        self.cli, self.fileio, self.generators = cli, fileio, generators
        self.instances = workloads.WORKLOADS[args.workload](args.seed)
        self.probe_spec = workloads.PROBE_SPEC
        self.tamper = args.workload == "corpus"
        self.pairs = [(name, mode) for name, _, modes in self.instances for mode in modes]
        self.vectors: dict[str, object] = {}
        self.sizes: dict[str, int] = {}
        self.probes: list[tuple[str, str, str]] = []  # (vector file, tampered report, edit)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.partition_s: list[float] = []
        self.certify_s: list[float] = []
        self.vectors_done = 0
        self.reports: dict[tuple[str, str], dict] = {}
        self.round_blocks: list[int] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> dict[str, float]:
        times = {"import": import_seconds()}
        start = time.perf_counter()
        seqs = {name: self.generators.generate(spec) for name, spec, _ in self.instances}
        times["generate"] = time.perf_counter() - start
        start = time.perf_counter()
        for name, seq in seqs.items():
            self.fileio.write_vectors(self.path(f"{name}.json"), seq)
        times["write"] = time.perf_counter() - start
        start = time.perf_counter()
        self.warm_up()
        times["warm_up"] = time.perf_counter() - start
        self.vectors = {name: seq.vectors for name, seq in seqs.items()}
        self.sizes = {name: seq.n for name, seq in seqs.items()}
        return times

    def warm_up(self) -> None:
        """Partition and certify the probe instance in both modes; write the tampered reports."""
        vec = self.path("probe.json")
        self.fileio.write_vectors(vec, self.generators.generate(self.probe_spec))
        self.probes = []
        for mode in ("feichtinger", "uniform"):
            report = self.path(f"probe-{mode}.report.json")
            codes = (
                run_cli(self.cli, ["partition", vec, "--mode", mode, "-o", report])[0],
                run_cli(self.cli, ["certify", vec, report])[0],
            )
            if codes != (0, 0):
                self.errors.append(f"warm-up {mode}: exit codes {codes}")
                continue
            if not self.tamper:
                continue
            for edit in TAMPERS:
                path = self.path(f"probe-{mode}-{edit}.report.json")
                doc = tampered(json.loads(Path(report).read_text()), edit)
                Path(path).write_text(json.dumps(doc))
                self.probes.append((vec, path, edit))

    # -- measured rounds ---------------------------------------------------

    def run_round(self, rng: random.Random, trace, timed: bool = True) -> None:
        """Partition and certify every pair once, then run the tamper probes.

        With ``timed`` false the operations are counted and checked but their
        times are not kept: the warm-up round.
        """
        order = list(self.pairs)
        rng.shuffle(order)
        blocks = 0
        for name, mode in order:
            vec = self.path(f"{name}.json")
            report_path = self.path(f"{name}-{mode}.report.json")
            code_p, part_s = run_cli(self.cli, ["partition", vec, "--mode", mode, "-o", report_path])
            code_c, cert_s = run_cli(self.cli, ["certify", vec, report_path])
            self.attempted += 2
            self.failed += (code_p != 0) + (code_c != 0)
            if code_p != 0 or code_c != 0:
                print(f"failed: {name} {mode}: exit codes {code_p}, {code_c}", file=sys.stderr)
                continue
            if timed:
                self.partition_s.append(part_s)
                self.certify_s.append(cert_s)
                self.vectors_done += self.sizes[name]

            report = json.loads(Path(report_path).read_text())
            report.pop("timings")
            blocks += len(report["blocks"])
            key = (name, mode)
            if key not in self.reports:
                problems = check.check_report(self.vectors[name], report)
                if self.args.workload == "wide" and report["levels"] != 0:
                    problems.append(f"wide instance ran {report['levels']} halving levels")
                self.errors += [f"{name} {mode}: {p}" for p in problems]
                self.reports[key] = report
            elif report != self.reports[key]:
                self.errors.append(f"{name} {mode}: report differs from the first round's")
            if trace is not None and timed:
                problems = trace.trace_pair(vec, self.path("trace.report.json"), mode, part_s, cert_s)
                self.errors += [f"{name} {mode}: {p}" for p in problems]
        self.round_blocks.append(blocks)

        for vec, path, edit in self.probes:
            code, _ = run_cli(self.cli, ["certify", vec, path])
            self.attempted += 1
            if code == 0 or (edit == "block_sigma" and code != 5):
                self.failed += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "halving", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "frame_partition" / "cli.py").is_file():
        print(f"error: frame_partition sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads

    if check.self_test():
        print("error: checker self-test failed", file=sys.stderr)
        return 1

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        trace = layers.LayerTrace() if args.trace else None
        rng = random.Random(args.seed)
        if args.workload in workloads.WARM_UP_ROUND:
            bench.run_round(rng, None, timed=False)
        rounds, longest = 0, 0.0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            bench.run_round(rng, trace)
            rounds += 1
            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() - start + longest > args.seconds:
                break
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(set(bench.round_blocks)) > 1:
        bench.errors.append(f"block totals differ between rounds: {bench.round_blocks}")
    for message in bench.errors[:20]:
        print(f"check: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds in {measured_s:.1f} s, "
        f"{len(bench.partition_s)} partition and {len(bench.certify_s)} certify samples",
        file=sys.stderr,
    )

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = trace.metrics(rounds)
        metrics["cli.import_s"] = {"value": setup_median("import"), "unit": "s"}
        metrics["cli.partition_p50_s"] = {"value": p50(bench.partition_s), "unit": "s"}
        metrics["cli.certify_p50_s"] = {"value": p50(bench.certify_s), "unit": "s"}
        metrics["generators.generate_s"] = {"value": setup_median("generate"), "unit": "s"}
        metrics["fileio.write_vectors_s"] = {"value": setup_median("write"), "unit": "s"}
    else:
        metrics = {
            "partition_s.p50": {"value": p50(bench.partition_s), "unit": "s"},
            "partition_s.tail": {"value": tail(bench.partition_s), "unit": "s"},
            "certify_s.p50": {"value": p50(bench.certify_s), "unit": "s"},
            "certify_s.tail": {"value": tail(bench.certify_s), "unit": "s"},
            "vectors_per_s": {
                "value": bench.vectors_done / (sum(bench.partition_s) + sum(bench.certify_s)),
                "unit": "vectors/s",
            },
            "blocks": {"value": bench.round_blocks[0], "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(sum(s.values()) for s in setups), "unit": "s"},
        }
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
