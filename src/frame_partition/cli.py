"""Command-line front door: generate | analyze | partition | certify.

Exit codes are a stable contract:
  0  success / all blocks certified / certificate verified
  2  usage error, malformed file, index or digest mismatch
  3  I/O failure
  4  unit-norm violation in the input
  5  at least one block failed certification (report still written)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import analysis, fileio, generators, partition
from .errors import ArgumentError, FramePartitionError, NormViolation
from .linalg import gram

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NORM = 4
EXIT_UNCERTIFIED = 5


def cmd_generate(args: argparse.Namespace) -> int:
    spec = generators.GeneratorSpec(
        kind=args.kind,
        dim=args.dim,
        count=args.count,
        angle=args.angle,
        multiplicity=args.multiplicity,
        seed=args.seed,
        field=args.field,
    )
    seq = generators.generate(spec)
    fileio.write_vectors(args.output, seq)
    print(f"wrote {seq.n} vectors (dim {seq.dim}, {seq.field}) to {args.output}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    seq = fileio.read_vectors(args.input)
    g = gram(seq)
    values = {
        "n": seq.n,
        "dim": seq.dim,
        "field": seq.field,
        "spectral_B": analysis.spectral_bessel_bound(g),
        "schur_B": analysis.schur_bessel_bound(g),
    }
    values["sigma"], values["eta"], values["gamma"] = analysis.row_functionals(g)
    if args.json:
        print(json.dumps(values, indent=2))
    else:
        for key, value in values.items():
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    seq = fileio.read_vectors(args.input)
    start = time.perf_counter()
    # --mode is one of partition.MODES: feichtinger_partition or uniform_partition
    cert = getattr(partition, f"{args.mode}_partition")(seq)
    elapsed = time.perf_counter() - start
    report = fileio.build_report(cert, seq, timings={"partition_s": elapsed})
    fileio.write_report(args.output, report)
    status = "all blocks certified" if cert.all_certified else "UNCERTIFIED block present"
    print(
        f"{cert.mode}: {len(cert.partition.blocks)} blocks, m={cert.partition.levels}, "
        f"B={cert.global_bessel:.6g}, target={cert.target:.6g}; {status}"
    )
    return EXIT_OK if cert.all_certified else EXIT_UNCERTIFIED


def cmd_certify(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ArgumentError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    seq = fileio.read_vectors(args.input)
    report = fileio.read_report(args.report)
    # the schema accepts 1.0 for 1
    digest = fileio.sequence_digest(seq, int(report["schema_version"]))
    if report["input_digest"] != digest:
        print(
            f"digest mismatch: report was built for {report['input_digest'][:12]}..., "
            f"input hashes to {digest[:12]}...",
            file=sys.stderr,
        )
        return EXIT_USAGE
    results, claims = fileio.recertify(seq, report, tol=args.tol)
    for entry in results:
        verdict = "PASS" if entry["passed"] else "FAIL"
        print(f"block {entry['block']} {entry['indices']}: {verdict}")
        for failure in entry["failures"]:
            print(f"  {failure}")
    for failure in claims:
        print(f"claim FAIL: {failure}")
    passed = not claims and all(entry["passed"] for entry in results)
    return EXIT_OK if passed else EXIT_UNCERTIFIED


# Built once per process (parse_args leaves it unchanged): an argparse
# parser is a web of reference cycles, so one built per call is garbage
# that only the cyclic collector frees.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frame-partition",
        description=(
            "Certify Riesz-sequence structure of finite unit-vector systems and "
            "partition them into certified blocks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated vector file")
    gen.add_argument("--kind", required=True, choices=generators.KINDS)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--count", type=int, default=2)
    gen.add_argument("--angle", type=float, default=0.0)
    gen.add_argument("--multiplicity", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--field", choices=("real", "complex"), default="real")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="print Bessel bounds and sigma/eta/gamma")
    ana.add_argument("input")
    ana.add_argument("--json", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    part = sub.add_parser("partition", help="partition and write a certificate report")
    part.add_argument("input")
    part.add_argument("--mode", choices=partition.MODES, default="feichtinger")
    part.add_argument("-o", "--output", required=True)
    part.set_defaults(func=cmd_partition)

    cer = sub.add_parser("certify", help="re-check a certificate report against its input")
    cer.add_argument("input")
    cer.add_argument("report")
    cer.add_argument("--tol", type=float, default=fileio.REPORT_TOL)
    cer.set_defaults(func=cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except NormViolation as exc:
        print(f"norm violation: {exc}", file=sys.stderr)
        return EXIT_NORM
    except FramePartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
