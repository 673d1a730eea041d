"""Vector files, certificate reports and the independent re-check.

Vector files are JSON whatever their suffix (floats round-trip exactly:
each is written as the shortest decimal that reads back to it).  They are
written and read through orjson, after a scan that refuses structural
nesting deeper than ``MAX_NESTING``; what orjson refuses is read by
``json.loads``, so a file means what it means to ``json``.  A complex file
whose bytes are exactly what ``write_vectors`` writes is read without a
list per coordinate: its numbers are parsed as one flat array and kept
only if writing them gives back the file, so the general parse would read
the same floats.  Certificate reports stay on ``json``: they must hold
integers beyond 64 bits and NaN as written.  They are checked against the
published ``CERTIFICATE_SCHEMA`` by a direct encoding of it,
``_schema_error``, which names where a report breaks the schema, and they
are bound to their input by a content digest.  Both kinds of file are
written over an existing file in place and cut to length.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import re
import reprlib
import stat
from collections.abc import Iterator, KeysView
from pathlib import Path
from typing import Any, Callable

import numpy as np
import orjson

from . import analysis
from .errors import ArgumentError
from .linalg import UnitVectorSequence, gram
from .partition import PartitionCertificate, halving_plan

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 2  # what partition writes; certify reads every version in the schema

REPORT_TOL = 1e-9

CERTIFICATE_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "frame-partition certificate report",
    "type": "object",
    "required": [
        "schema_version",
        "tool_version",
        "input_digest",
        "mode",
        "global_bounds",
        "levels",
        "target",
        "blocks",
        "all_certified",
        "borderline",
        "timings",
    ],
    "properties": {
        "schema_version": {"enum": [1, SCHEMA_VERSION]},
        "tool_version": {"type": "string"},
        "input_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "mode": {"enum": ["feichtinger", "uniform"]},
        "global_bounds": {
            "type": "object",
            "required": ["spectral_B", "schur_B", "bessel_B_used"],
            "properties": {
                "spectral_B": {"type": "number"},
                "schur_B": {"type": "number"},
                "bessel_B_used": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "levels": {"type": "integer", "minimum": 0},
        "target": {"type": "number"},
        "blocks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "indices",
                    "sigma",
                    "eta",
                    "gamma",
                    "lambda_min",
                    "lambda_max",
                    "certified",
                    "borderline",
                ],
                "properties": {
                    "indices": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "integer", "minimum": 0},
                    },
                    "sigma": {"type": "number"},
                    "eta": {"type": "number"},
                    "gamma": {"type": "number"},
                    "lambda_min": {"type": "number"},
                    "lambda_max": {"type": "number"},
                    "certified": {"type": "boolean"},
                    "borderline": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "all_certified": {"type": "boolean"},
        "borderline": {"type": "boolean"},
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
    "additionalProperties": False,
}

_BLOCK_SCHEMA = CERTIFICATE_SCHEMA["properties"]["blocks"]["items"]
_BLOCK_FIELDS = _BLOCK_SCHEMA["required"]  # analysis.BlockCertificate's fields, in order
# Each object's keys in schema order, compared as a set.
_REPORT_KEYS = dict.fromkeys(CERTIFICATE_SCHEMA["required"]).keys()
_BOUND_KEYS = dict.fromkeys(CERTIFICATE_SCHEMA["properties"]["global_bounds"]["required"]).keys()
_BLOCK_KEYS = dict.fromkeys(_BLOCK_FIELDS).keys()
# A block's numbers and flags, all but its indices, from a report block and from a certificate.
_REPORTED = operator.itemgetter(*_BLOCK_FIELDS[1:])
_RECOMPUTED = operator.attrgetter(*_BLOCK_FIELDS[1:])
_DIGEST = re.compile(CERTIFICATE_SCHEMA["properties"]["input_digest"]["pattern"])
_MODES = CERTIFICATE_SCHEMA["properties"]["mode"]["enum"]
_VERSIONS = CERTIFICATE_SCHEMA["properties"]["schema_version"]["enum"]


def _is_number(x: Any) -> bool:
    return type(x) is float or type(x) is int  # a bool is not a number


def _is_index(x: Any) -> bool:
    """An integer >= 0; an integral float such as 3.0 counts as an integer."""
    return (type(x) is int or (type(x) is float and x.is_integer())) and not x < 0


# The report's scalar properties as (key, test, what the value must be), in schema order.
_REPORT_RULES = [
    ("schema_version", lambda x: _is_number(x) and x in _VERSIONS, f"one of {_VERSIONS}"),
    ("tool_version", lambda x: type(x) is str, "a string"),
    ("input_digest", lambda x: type(x) is str and _DIGEST.search(x) is not None,
     "64 lowercase hex digits"),
    ("mode", lambda x: type(x) is str and x in _MODES, f"one of {_MODES}"),
    ("levels", _is_index, "an integer >= 0"),
    ("target", _is_number, "a number"),
    ("all_certified", lambda x: type(x) is bool, "a boolean"),
    ("borderline", lambda x: type(x) is bool, "a boolean"),
]
# A block's scalar properties as (key, the Python types JSON gives its values, what it must be).
_TYPES = {"number": ({int, float}, "a number"), "boolean": ({bool}, "a boolean")}
_BLOCK_RULES = [
    (key, *_TYPES[rule["type"]])
    for key, rule in _BLOCK_SCHEMA["properties"].items()
    if key != "indices"
]


def _expected(path: str, what: str, value: Any) -> str:
    return f"{path + ': ' if path else ''}expected {what}, got {reprlib.repr(value)}"


def _object_error(path: str, doc: Any, keys: KeysView[str] | None) -> str | None:
    """Where ``doc`` is not an object with exactly ``keys`` (any keys for None)."""
    if type(doc) is not dict:
        return _expected(path, "an object", doc)
    if keys is None or doc.keys() == keys:
        return None
    where = f"{path}: " if path else ""
    missing = [key for key in keys if key not in doc]
    if missing:
        return f"{where}missing key {missing[0]!r}"
    return f"{where}unexpected key {next(key for key in doc if key not in keys)!r}"


def _numbers_error(path: str, doc: dict) -> str | None:
    for key, value in doc.items():
        if not _is_number(value):
            name = f".{key}" if type(key) is str and key.isidentifier() else f"[{key!r}]"
            return _expected(path + name, "a number", value)
    return None


def _schema_error(report: Any) -> str | None:
    """Where ``report`` breaks CERTIFICATE_SCHEMA, in one line; None when it conforms.

    A direct encoding of the schema under draft 2020-12 rules: exact key
    sets, ``enum`` (a bool is not 1), the digest pattern by ``re.search``
    (so ``$`` also matches before a final newline), integral floats as
    integers, ``minimum`` and ``minItems``.  The message names the JSON
    path of the first value found to break a rule, and the rule.
    """
    if error := _object_error("", report, _REPORT_KEYS):
        return error
    for key, ok, what in _REPORT_RULES:
        if not ok(report[key]):
            return _expected(key, what, report[key])
    bounds, timings, blocks = report["global_bounds"], report["timings"], report["blocks"]
    if error := (
        _object_error("global_bounds", bounds, _BOUND_KEYS)
        or _object_error("timings", timings, None)
        or _numbers_error("global_bounds", bounds)
        or _numbers_error("timings", timings)
    ):
        return error
    if type(blocks) is not list or not blocks:
        return _expected("blocks", "a nonempty array", blocks)
    for i, block in enumerate(blocks):
        if error := _object_error(f"blocks[{i}]", block, _BLOCK_KEYS):
            return error
        indices = block["indices"]
        if type(indices) is not list or not indices:
            return _expected(f"blocks[{i}].indices", "a nonempty array", indices)
        for j, x in enumerate(indices):
            if not (type(x) is int and x >= 0 or _is_index(x)):  # a plain int needs no call
                return _expected(f"blocks[{i}].indices[{j}]", "an integer >= 0", x)
        for key, types, what in _BLOCK_RULES:
            if type(block[key]) not in types:
                return _expected(f"blocks[{i}].{key}", what, block[key])
    return None


def _check_report(report: Any) -> None:
    error = _schema_error(report)
    if error is not None:
        raise ArgumentError(f"report does not match the certificate schema: {error}")


def sequence_digest(seq: UnitVectorSequence, version: int = SCHEMA_VERSION) -> str:
    """Content hash of the sequence as report ``schema_version`` ``version`` defines it.

    Version 2 is the sha256 hex digest of the UTF-8 header line
    ``{"dim":D,"field":"F"}`` (with its newline) followed by the vectors'
    C-ordered little-endian complex128 bytes: no float is formatted, and
    ``-0.0`` and ``0.0`` still hash apart.

    Version 1, kept to certify the reports written before version 2, is the
    sha256 hex digest of a canonical payload, the UTF-8 text
    ``{"dim":D,"field":"F","vectors":[...]}`` with no whitespace and the
    keys in that order.  ``vectors`` holds one list per vector of
    ``["re","im"]`` pairs, each part the Python ``repr`` of the coordinate's
    float64 real or imaginary part (so ``-0.0``, ``0.0`` and ``1e-05``
    appear as written here), imaginary parts included in real mode.  It is
    the compact ``json.dumps`` of that structure with ``sort_keys=True``.
    ``repr`` is its whole cost, so each distinct bit pattern is formatted
    once (bit patterns keep ``-0.0`` apart from ``0.0``) and the strings
    fill one row template per vector.
    """
    if version == 2:
        header = '{"dim":%d,"field":%s}\n' % (seq.dim, json.dumps(seq.field))
        digest = hashlib.sha256(header.encode())
        digest.update(np.ascontiguousarray(seq.vectors, dtype="<c16"))
        return digest.hexdigest()
    if version != 1:
        raise ArgumentError(f"no input digest is defined for schema_version {version!r}")
    bits, where = np.unique(seq.vectors.view(np.uint64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    row = "[" + ",".join(['["%s","%s"]'] * seq.dim) + "]"
    vectors = ",".join([row] * len(seq.vectors)) % tuple(text[where.ravel()].tolist())
    payload = '{"dim":%d,"field":%s,"vectors":[%s]}' % (seq.dim, json.dumps(seq.field), vectors)
    return hashlib.sha256(payload.encode()).hexdigest()


def _vector_chunks(v: np.ndarray, field: str) -> Iterator[bytes]:
    """The bytes of the vector file holding ``v``, in pieces of at most 64 rows.

    Joined, they are orjson's compact dump of the document.  The writer and
    ``_canonical_complex``'s check both use them, so the two cannot drift.
    """
    v = np.ascontiguousarray(v)
    count, dim = v.shape
    # real parts alone, or each coordinate as its [re, im] pair of float64s
    rows = np.ascontiguousarray(v.real) if field == "real" else v.view(float).reshape(count, dim, 2)
    yield orjson.dumps({"dim": dim, "field": field, "count": count})[:-1] + b',"vectors":['
    for lo in range(0, count, 64):
        rows_json = orjson.dumps(rows[lo : lo + 64], option=orjson.OPT_SERIALIZE_NUMPY)
        yield (b"," if lo else b"") + rows_json[1:-1]
    yield b"]}\n"


def _write_in_place(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` over what it holds, then cut a regular file to length.

    No ``O_TRUNC``: ext4 starts writeback of a file truncated to zero when
    it is closed.  A symlink is written through; a pipe or terminal (say
    ``/dev/stdout``) gets no truncate.  A new file gets ``open``'s mode.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_vectors(path: str | Path, seq: UnitVectorSequence) -> None:
    """Write ``seq`` as a JSON vector file, whatever the suffix of ``path``."""
    _write_in_place(path, b"".join(_vector_chunks(seq.vectors, seq.field)))


def _numeric_rows(rows: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """The rows as one array when every cell is a number, or [re, im] pair of numbers.

    ``shape`` is ``(count, dim)`` for real rows and ``(count, dim, 2)`` for
    complex ones, whose float pairs are reinterpreted as complex128.  Returns
    None for anything else (strings, null, nesting, integers too large for
    int64) so that the caller's per-cell parse names the bad cell.
    """
    try:
        a = np.array(rows)
    except (ValueError, OverflowError):
        return None
    if a.dtype.kind not in "fi" or a.shape != shape:
        return None
    a = a.astype(np.float64)
    return a.view(np.complex128)[..., 0] if len(shape) == 3 else a


def _json_pair(cell: Any) -> complex | None:
    """An ``[re, im]`` cell as a complex number; None for a cell that is not a pair."""
    if isinstance(cell, list) and len(cell) == 2:
        return complex(float(cell[0]), float(cell[1]))
    return None


def _parse_cells(rows: list, count: int, dim: int, value: Callable[[Any], Any]) -> np.ndarray:
    """Cell-by-cell parse of shape-checked rows; names the first unparseable cell.

    ``value`` turns one cell into a number; it returns None for a JSON
    complex cell that is not an ``[re, im]`` pair.
    """
    vectors = np.zeros((count, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                x = value(cell)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ArgumentError(f"row {i} col {j}: unparseable cell {cell!r}") from exc
            if x is None:
                raise ArgumentError(f"row {i} col {j}: expected [re, im] pair")
            vectors[i, j] = x
    return vectors


def _parse_json_vectors(doc: Any) -> UnitVectorSequence:
    if not isinstance(doc, dict):
        raise ArgumentError("vector file must contain a JSON object")
    try:
        dim, field, count, rows = doc["dim"], doc["field"], doc["count"], doc["vectors"]
    except KeyError as exc:
        raise ArgumentError(f"malformed vector file header: missing {exc}") from exc
    if not (_is_index(dim) and _is_index(count) and type(field) is str):
        raise ArgumentError(
            "malformed vector file header: dim and count must be integers >= 0 and field a string"
        )
    dim, count = int(dim), int(count)
    if dim < 1 or count < 1:
        raise ArgumentError(f"dim and count must be >= 1, got dim={dim}, count={count}")
    if not isinstance(rows, list) or len(rows) != count:
        raise ArgumentError("vector count does not match header")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ArgumentError(f"row {i} has wrong length (expected {dim})")
    vectors = _numeric_rows(rows, (count, dim, 2) if field == "complex" else (count, dim))
    if vectors is None:
        vectors = _parse_cells(rows, count, dim, _json_pair if field == "complex" else float)
    return UnitVectorSequence(vectors, field=field)


def _decode(data: bytes, path: str | Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_json(text: str, source: str) -> Any:
    """The JSON document in ``text``; invalid or too deeply nested text exits 2.

    Besides JSONDecodeError, ``json.loads`` raises ValueError for an integer
    literal longer than Python's int-to-string digit limit.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ArgumentError(f"invalid JSON in {source}: {exc}") from exc


MAX_NESTING = 1000  # about where json.loads runs out of recursion

# Number, comma and whitespace characters: never a quote, a backslash, a
# bracket or a character that a valid string escape puts after a backslash.
_NOT_STRUCTURE = b"0123456789+-.eE, \t\n\r"


def _nesting_depth(data: bytes) -> int:
    """The deepest nesting of arrays and objects in JSON text.

    Brackets inside strings do not count.  Deleting ``_NOT_STRUCTURE``
    first leaves every valid escape next to its backslash, so a quote is
    escaped exactly when an odd run of backslashes precedes it.  On invalid
    text the count is exact up to the first error, where a parser stops,
    so it never reads less than the depth a parser reaches.
    """
    s = np.frombuffer(data.translate(None, _NOT_STRUCTURE), dtype=np.uint8)
    quote = s == ord('"')
    slash = np.flatnonzero(s == ord("\\"))
    if slash.size:
        gap = np.diff(slash) != 1
        first, last = slash[np.r_[True, gap]], slash[np.r_[gap, True]]
        escaped = last[(last - first) % 2 == 0] + 1
        quote[escaped[escaped < s.size]] = False
    outside = np.bitwise_xor.accumulate(quote.view(np.uint8)) == 0
    opens = outside & ((s == ord("[")) | (s == ord("{")))
    closes = outside & ((s == ord("]")) | (s == ord("}")))
    depth = np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int32)
    return int(depth.max(initial=0))


def _bracket_count(data: bytes) -> int:
    """The number of "[" and "{" bytes in ``data``, inside strings too."""
    s = np.frombuffer(data, dtype=np.uint8)
    return int(np.count_nonzero(s == ord("["))) + int(np.count_nonzero(s == ord("{")))


def _parse_vector_json(data: bytes, path: Path) -> Any:
    """The JSON document in a vector file's bytes; invalid or too deeply nested text exits 2.

    The nesting scan comes first, where there are enough brackets to nest
    that deep: orjson crashes the process on nesting in the hundreds of
    thousands of levels.  Text that orjson refuses (NaN, a number beyond
    float range, a lone surrogate escape, any error) goes to ``json.loads``,
    which reads it or words the error.  orjson reads an integer literal
    beyond 64 bits as the nearest float.
    """
    if _bracket_count(data) > MAX_NESTING:
        depth = _nesting_depth(data)
        if depth > MAX_NESTING:
            raise ArgumentError(
                f"invalid JSON in {path}: nested {depth} levels deep (the limit is {MAX_NESTING})"
            )
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return _parse_json(_decode(data, path), str(path))


_COMPLEX_HEAD = re.compile(rb'\{"dim":([1-9]\d*),"field":"complex","count":([1-9]\d*),"vectors":')


def _canonical_complex(data: bytes) -> np.ndarray | None:
    """The vectors of a complex file that is exactly what ``write_vectors`` writes, else None.

    The numbers are parsed as one flat array, without a list per
    coordinate, and kept only if writing them gives back ``data``; the
    general parse of those bytes would then read the same floats.
    """
    head = _COMPLEX_HEAD.match(data)
    if head is None:
        return None
    try:
        dim, count = int(head[1]), int(head[2])
        # with no bracket or brace left nothing nests, so orjson cannot crash on depth;
        # the head loses its "{" and the file's closing "]}\n" leaves its "\n"
        numbers = data.translate(None, b"[]{}")
        flat = np.array(orjson.loads(b"[%b]" % memoryview(numbers)[head.end() - 1 : -1]))
    except ValueError:  # not JSON, or a header number past int()'s digit limit
        return None
    if flat.dtype != np.float64 or flat.shape != (2 * count * dim,):
        return None
    vectors = flat.view(np.complex128).reshape(count, dim)
    pos = 0
    for chunk in _vector_chunks(vectors, "complex"):
        if not data.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return vectors if pos == len(data) else None


def read_vectors(path: str | Path) -> UnitVectorSequence:
    """Read a JSON vector file, whatever the suffix of ``path``."""
    path = Path(path)
    data = path.read_bytes()
    vectors = _canonical_complex(data)
    if vectors is not None:
        return UnitVectorSequence(vectors, field="complex")
    return _parse_json_vectors(_parse_vector_json(data, path))


def build_report(
    cert: PartitionCertificate,
    seq: UnitVectorSequence,
    timings: dict[str, float] | None = None,
) -> dict[str, Any]:
    """Machine-readable report for a certified partition.

    The report is checked against the schema where it leaves the program,
    in ``write_report``.
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "input_digest": sequence_digest(seq),
        "mode": cert.mode,
        "global_bounds": {
            "spectral_B": cert.spectral_bound,
            "schur_B": cert.schur_bound,
            "bessel_B_used": cert.global_bessel,
        },
        "levels": cert.partition.levels,
        "target": cert.target,
        "blocks": [
            {key: getattr(bc, key) for key in _BLOCK_FIELDS} | {"indices": list(bc.indices)}
            for bc in cert.per_block
        ],
        "all_certified": cert.all_certified,
        "borderline": cert.borderline,
        "timings": dict(timings or {}),
    }
    return report


def write_report(path: str | Path, report: dict[str, Any]) -> None:
    _check_report(report)
    # compact: with indent, json runs its pure-Python encoder instead of the C one
    _write_in_place(path, (json.dumps(report) + "\n").encode())


def read_report(path: str | Path) -> dict[str, Any]:
    report = _parse_json(_decode(Path(path).read_bytes(), path), f"report {path}")
    _check_report(report)
    return report


def recertify(
    seq: UnitVectorSequence, report: dict[str, Any], tol: float = REPORT_TOL
) -> tuple[list[dict[str, Any]], list[str]]:
    """Independently recompute the report's claims and diff them vs the report.

    Returns ``(blocks, claims)``: one entry per block,
    {"block", "indices", "passed", "failures"}, and one line per failed
    global claim (see ``_claim_failures``).  Raises ArgumentError when a
    block repeats an index or the blocks are not a partition of the input's
    index set.
    """
    blocks = [b["indices"] for b in report["blocks"]]
    seen: set[int] = set()
    for pos, block in enumerate(blocks):
        if not block or seen.intersection(block):
            raise ArgumentError("report blocks are empty or overlap")
        if len(set(block)) != len(block):
            raise ArgumentError(f"report block {pos} repeats an index")
        seen.update(block)
    if seen != set(range(seq.n)):
        raise ArgumentError(
            f"report blocks do not cover the input index set 0..{seq.n - 1}"
        )
    g = gram(seq)
    records = analysis.certify_blocks(g, [sorted(block) for block in blocks], report["mode"])
    results = []
    for pos, (block, reported, bc) in enumerate(zip(blocks, report["blocks"], records)):
        # the recomputed numbers are finite, so values equal to them differ by 0.0 <= tol
        failures = [] if tol >= 0 and _REPORTED(reported) == _RECOMPUTED(bc) else [
            f"{key}: reported {reported[key]!r}, recomputed {getattr(bc, key)!r}"
            for key in _BLOCK_FIELDS[1:]  # all but indices
            if _differs(reported[key], getattr(bc, key), tol)
        ]
        results.append(
            {"block": pos, "indices": list(block), "passed": not failures, "failures": failures}
        )
    claims = _claim_failures(
        report, analysis.spectral_bessel_bound(g), analysis.schur_bessel_bound(g), records, tol
    )
    return results, claims


def _differs(reported: Any, value: float | bool, tol: float) -> bool:
    """Whether a report value fails against the recomputed one.

    A flag fails when unequal, at any ``tol``.  A number fails unless within
    ``tol``: a NaN fails, and so does a JSON integer beyond float range.
    """
    if type(value) is bool:
        return reported != value
    try:
        return not abs(reported - value) <= tol
    except OverflowError:
        return True


def _claim_failures(
    report: dict[str, Any],
    spectral_b: float,
    schur_b: float,
    records: list[analysis.BlockCertificate],
    tol: float,
) -> list[str]:
    """The report's global claims that do not hold, one line each.

    ``spectral_B`` and ``schur_B`` are compared with the recomputed
    ``spectral_b`` and ``schur_b``.  ``bessel_B_used`` must be at least the
    mode's recomputed bound (earlier versions could write a larger one), and
    ``levels`` and ``target`` must be what the halving derives from it; the report may hold at most 2^levels blocks.
    ``all_certified`` and ``borderline`` must match the recomputed block
    ``records`` (and, for ``borderline``, whether B sits on a power-of-two
    breakpoint).
    """
    bounds = report["global_bounds"]
    failures = [
        f"{key}: reported {bounds[key]!r}, recomputed {value!r}"
        for key, value in (("spectral_B", spectral_b), ("schur_B", schur_b))
        if _differs(bounds[key], value, tol)
    ]
    b = bounds["bessel_B_used"]
    mode_b = schur_b if report["mode"] == "feichtinger" else spectral_b
    levels = int(report["levels"])
    try:
        finite = math.isfinite(b)
    except OverflowError:  # a JSON integer beyond float range
        finite = False
    plan = halving_plan(b) if finite and b >= mode_b - tol else None
    if not finite:
        failures.append(f"bessel_B_used: reported {b!r}, not a finite number")
    elif plan is None:
        failures.append(
            f"bessel_B_used: reported {b!r}, below the {report['mode']} bound {mode_b!r}"
        )
    else:
        required, on_breakpoint = plan
        if levels != required:
            failures.append(f"levels: reported {levels}, required {required} for B={b!r}")
        target = math.ldexp(b - 1.0, -levels)
        if _differs(report["target"], target, tol):
            failures.append(f"target: reported {report['target']!r}, recomputed {target!r}")
    # len(blocks) <= 2**levels, without building 2**levels
    if (len(report["blocks"]) - 1).bit_length() > levels:
        failures.append(f"blocks: {len(report['blocks'])} blocks exceed 2^{levels}")
    all_certified = all(bc.certified for bc in records)
    if report["all_certified"] != all_certified:
        failures.append(
            f"all_certified: reported {report['all_certified']}, recomputed {all_certified}"
        )
    if plan is not None:
        borderline = on_breakpoint or any(bc.borderline for bc in records)
        if report["borderline"] != borderline:
            failures.append(
                f"borderline: reported {report['borderline']}, recomputed {borderline}"
            )
    return failures
