import copy
import hashlib
import json
import math
import os
import re
import reprlib
import stat
from types import SimpleNamespace
from unittest import mock

import jsonschema
import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frame_partition import (
    ArgumentError,
    CERTIFICATE_SCHEMA,
    FramePartitionError,
    GeneratorSpec,
    NormViolation,
    UnitVectorSequence,
    build_report,
    feichtinger_partition,
    generate,
    read_report,
    read_vectors,
    recertify,
    sequence_digest,
    uniform_partition,
    write_report,
    write_vectors,
)
from frame_partition.fileio import (
    _bracket_count,
    _canonical_complex,
    _nesting_depth,
    _parse_json_vectors,
    _parse_vector_json,
    _schema_error,
)

import golden_reports
from golden_digests import (
    GOLDEN_PATH,
    GOLDEN_V2_PATH,
    case_digests,
    corpus_digests,
    hand_made_cases,
)


@pytest.fixture
def complex_seq():
    return generate(GeneratorSpec("random_unit", dim=5, count=9, seed=20, field="complex"))


class TestVectorFiles:
    # a vector file is JSON whatever its suffix
    @pytest.mark.parametrize("suffix", ["json", "txt"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_round_trip_bit_exact(self, tmp_path, suffix, field):
        seq = generate(GeneratorSpec("random_unit", dim=6, count=11, seed=30, field=field))
        path = tmp_path / f"v.{suffix}"
        write_vectors(path, seq)
        back = read_vectors(path)
        assert back.field == seq.field
        assert back.vectors.tobytes() == seq.vectors.tobytes()
        # orjson's compact layout, on one line
        text = path.read_text()
        assert text.startswith('{"dim":6,"field":"%s","count":11,"vectors":[[' % field)
        assert text == orjson.dumps(json.loads(text)).decode() + "\n"
        assert text.count("\n") == 1 and " " not in text

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_edge_floats_round_trip(self, tmp_path, field):
        # -0.0, the smallest subnormal and the largest float, in every position
        edges = np.array([-0.0, 5e-324, 1.7976931348623157e308, -5e-324, 1e-05, 0.0])
        vectors = np.empty((6, 6), dtype=np.complex128)
        vectors.real = [np.roll(edges, k) for k in range(6)]
        vectors.imag = vectors.real[::-1] if field == "complex" else 0.0
        raw = SimpleNamespace(dim=6, n=6, field=field, vectors=vectors)
        path = tmp_path / "v.json"
        write_vectors(path, raw)
        assert parsed_vectors(lambda: read_vectors(path)).tobytes() == vectors.tobytes()
        # and as unit vectors
        seq = UnitVectorSequence(np.array([[-0.0, 1.0], [5e-324, 1.0], [1.0, -5e-324]]))
        write_vectors(path, seq)
        assert read_vectors(path).vectors.tobytes() == seq.vectors.tobytes()

    def test_labels_key_is_ignored(self, tmp_path):
        seq = UnitVectorSequence(np.eye(2), field="real")
        plain, labelled = tmp_path / "plain.json", tmp_path / "labelled.json"
        write_vectors(plain, seq)
        doc = json.loads(plain.read_text())
        assert list(doc) == ["dim", "field", "count", "vectors"]
        # a labels value that is not a list was refused while labels were read
        labelled.write_text(json.dumps({**doc, "labels": 5}))
        a, b = read_vectors(plain), read_vectors(labelled)
        assert a.vectors.tobytes() == b.vectors.tobytes() and a.field == b.field
        for version in (1, 2):
            assert sequence_digest(a, version) == sequence_digest(b, version)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("{not json")
        with pytest.raises(ArgumentError):
            read_vectors(path)

    def test_wrong_row_length(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"dim": 2, "field": "real", "count": 1, "vectors": [[1.0]]}))
        with pytest.raises(ArgumentError):
            read_vectors(path)

    def test_norm_violation_on_read(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            json.dumps({"dim": 2, "field": "real", "count": 1, "vectors": [[2.0, 0.0]]})
        )
        with pytest.raises(NormViolation):
            read_vectors(path)


class TestDigest:
    def test_stable_across_runs(self, complex_seq):
        assert sequence_digest(complex_seq) == sequence_digest(complex_seq)

    def test_differs_for_different_data(self):
        a = UnitVectorSequence(np.eye(2))
        b = UnitVectorSequence(np.eye(3))
        assert sequence_digest(a) != sequence_digest(b)

    def test_matches_file_round_trip(self, tmp_path, complex_seq):
        path = tmp_path / "v.json"
        write_vectors(path, complex_seq)
        back = read_vectors(path)
        for version in (1, 2):
            assert sequence_digest(back, version) == sequence_digest(complex_seq, version)

    def test_version_2_is_the_default(self, complex_seq):
        assert sequence_digest(complex_seq) == sequence_digest(complex_seq, 2)
        assert sequence_digest(complex_seq, 1) != sequence_digest(complex_seq, 2)

    @pytest.mark.parametrize("version", [0, 3, None])
    def test_unknown_version(self, complex_seq, version):
        with pytest.raises(ArgumentError, match="schema_version"):
            sequence_digest(complex_seq, version)


def reference_digest(seq):
    """The digest as first defined: repr every coordinate into a JSON payload."""
    payload = {
        "dim": seq.dim,
        "field": seq.field,
        "vectors": [
            [[repr(float(x.real)), repr(float(x.imag))] for x in row] for row in seq.vectors
        ],
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


def reference_digest_v2(seq):
    """The schema_version 2 digest as the README defines it, from hashlib and numpy alone:
    a header line, then each coordinate's real and imaginary part as little-endian float64."""
    header = '{"dim":%d,"field":"%s"}\n' % (seq.dim, seq.field)
    parts = np.stack([seq.vectors.real, seq.vectors.imag], axis=-1).astype("<f8")
    return hashlib.sha256(header.encode("utf-8") + parts.tobytes(order="C")).hexdigest()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 0.1,
               1.0, -1.0, 1e15, 1e16, 1e22, 1.7976931348623157e308]


def float_parts(field):
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    return finite if field == "complex" else st.just(0.0) | st.just(-0.0)


@st.composite
def raw_vectors(draw):
    """Any finite coordinates, repeated values likely; real mode keeps imag parts at +-0."""
    field = draw(st.sampled_from(["real", "complex"]))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    pool = st.sampled_from(draw(st.lists(float_parts("complex"), min_size=1, max_size=8)))
    re = draw(arrays(np.float64, shape, elements=pool | float_parts("complex")))
    im_parts = pool | float_parts(field) if field == "complex" else float_parts(field)
    im = draw(arrays(np.float64, shape, elements=im_parts))
    vectors = np.empty(shape, dtype=np.complex128)
    vectors.real, vectors.imag = re, im
    return SimpleNamespace(dim=shape[1], field=field, vectors=vectors)


class TestDigestDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw_vectors())
    def test_matches_reference_payload(self, raw):
        assert sequence_digest(raw, 1) == reference_digest(raw)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw_vectors(), st.booleans())
    def test_version_2_matches_reference(self, raw, transpose):
        if transpose:  # a Fortran-ordered array hashes as its C-ordered copy
            raw.vectors = raw.vectors.T.copy().T
        assert sequence_digest(raw, 2) == reference_digest_v2(raw)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(raw_vectors(), st.booleans())
    def test_unit_sequences_match_reference(self, raw, transpose):
        v = raw.vectors.T if transpose else raw.vectors
        with np.errstate(over="ignore"):  # coordinates near 1.8e308 overflow the norm
            norms = np.linalg.norm(v, axis=1)
        assume(np.all(np.isfinite(norms)) and np.all(norms > 1e-150))
        seq = UnitVectorSequence(v / norms[:, None], field=raw.field)
        assert seq.vectors.flags.c_contiguous
        assert sequence_digest(seq, 1) == reference_digest(seq)
        assert sequence_digest(seq, 2) == reference_digest_v2(seq)


def reference_cells(rows, count, dim, field):
    """The cell-by-cell parse: complex128 array, or the ArgumentError message."""
    vectors = np.zeros((count, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if field == "complex" and not (isinstance(cell, list) and len(cell) == 2):
                return f"row {i} col {j}: expected [re, im] pair"
            try:
                if field == "complex":
                    vectors[i, j] = complex(float(cell[0]), float(cell[1]))
                else:
                    vectors[i, j] = float(cell)
            except (TypeError, ValueError, OverflowError):
                return f"row {i} col {j}: unparseable cell {cell!r}"
    return vectors


SCALAR_CELLS = (
    st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.sampled_from(["1.5", "-0.0", "2", "1e-5", "x", "", None, 10**400, -(10**400), 2**63, 2**64])
)
CELLS = SCALAR_CELLS | st.lists(SCALAR_CELLS, max_size=3)
NUMBER_CELLS = (
    st.integers(-3, 3)
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(-2, 2)
    | st.sampled_from(EDGE_FLOATS)
)


@st.composite
def vector_docs(draw):
    """Header-valid vector documents whose cells mix every JSON value kind."""
    field = draw(st.sampled_from(["real", "complex"]))
    count, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if field == "complex":
        pair = st.lists(SCALAR_CELLS, min_size=2, max_size=2)
        cell = pair | st.lists(NUMBER_CELLS, min_size=2, max_size=2)
    else:
        cell = NUMBER_CELLS
    cell = draw(st.sampled_from([cell, cell | CELLS]))
    rows = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=count, max_size=count))
    return {"dim": dim, "field": field, "count": count, "vectors": rows}


def parsed_vectors(parse):
    """The complex128 array that ``parse()`` hands to UnitVectorSequence.

    Parsing stops there: random cells are not unit vectors.
    """
    captured = []
    with mock.patch(
        "frame_partition.fileio.UnitVectorSequence",
        lambda vectors, field: captured.append(vectors),
    ):
        parse()
    return np.array(captured[0], dtype=np.complex128)


def reference_depth(text):
    """Deepest array/object nesting of valid JSON text, one character at a time."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(alphabet='[]{}"\\/ ,.:e0\n\t\u00e9\u2028'),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet='[]{}"\\e0'), inner, max_size=4),
    max_leaves=30,
)


class TestNestingDepth:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(JSON_VALUES, st.sampled_from([None, 0, 2]), st.booleans())
    def test_matches_reference_scan(self, value, indent, ensure_ascii):
        text = json.dumps(value, indent=indent, ensure_ascii=ensure_ascii)
        assert _nesting_depth(text.encode()) == reference_depth(text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(JSON_VALUES, st.sampled_from([None, 2]))
    def test_bracket_count_matches_bytes_count(self, value, indent):
        # the count that gates the scan includes brackets inside strings
        data = json.dumps(value, indent=indent, ensure_ascii=False).encode()
        assert _bracket_count(data) == data.count(b"[") + data.count(b"{")

    @pytest.mark.parametrize(
        "data", [b"", b'"[{"', b'["[", {"{": [1]}]', b"[" * 1001, b"\xff{\x00["]
    )
    def test_bracket_count_cases(self, data):
        assert _bracket_count(data) == data.count(b"[") + data.count(b"{")

    @pytest.mark.parametrize("text, depth", [
        ('"\\\\"', 0),
        ('["\\\\", [[]]]', 3),
        ('["\\"[[", [1]]', 2),
        ('["\\\\\\"[[", [1]]', 2),
        ('{"[": {"]": []}}', 3),
        ("", 0),
    ])
    def test_escapes(self, text, depth):
        assert _nesting_depth(text.encode()) == reference_depth(text) == depth

    @pytest.mark.parametrize("depth, scanned", [(1000, False), (1001, True)])
    def test_scan_only_past_the_limit_in_brackets(self, tmp_path, depth, scanned):
        # depth <= the number of "[" and "{" bytes, so at most 1000 of them need no scan
        path = tmp_path / "v.json"
        path.write_bytes(b"[" * depth + b"]" * depth)
        with mock.patch("frame_partition.fileio._nesting_depth", wraps=_nesting_depth) as scan:
            with pytest.raises(ArgumentError) as err:
                read_vectors(path)
        assert scan.called == scanned
        assert ("nested 1001 levels deep" in str(err.value)) == scanned


class TestParseDifferential:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(vector_docs())
    def test_matches_cell_by_cell_parse(self, doc):
        expected = reference_cells(doc["vectors"], doc["count"], doc["dim"], doc["field"])
        try:
            got = parsed_vectors(lambda: _parse_json_vectors(doc))
        except ArgumentError as exc:
            assert str(exc) == expected
        else:
            assert not isinstance(expected, str)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(vector_docs())
    def test_file_read_matches_json_loads(self, tmp_path_factory, doc):
        # orjson reads the file; json.loads is the reference
        text = json.dumps(doc)
        path = tmp_path_factory.mktemp("docs") / "v.json"
        path.write_text(text)
        outcomes = []
        for parse in (lambda: read_vectors(path), lambda: _parse_json_vectors(json.loads(text))):
            try:
                got = parsed_vectors(parse)
                outcomes.append((got.shape, got.tobytes()))
            except FramePartitionError:
                outcomes.append(FramePartitionError)
        assert outcomes[0] == outcomes[1]


def general_parse(path):
    """The general read of a vector file, which the complex fast path must agree with."""
    return _parse_json_vectors(_parse_vector_json(path.read_bytes(), path))


def read_outcomes(path):
    """What ``read_vectors`` and the general parse each make of the file: bytes or message."""
    outcomes = []
    for parse in (lambda: read_vectors(path), lambda: general_parse(path)):
        try:
            outcomes.append(parsed_vectors(parse).tobytes())
        except ArgumentError as exc:
            outcomes.append(str(exc))
    return outcomes


# -0.0, subnormals, +-1e308 and values that need all 17 significant digits
FAST_PATH_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS
    + [-5e-324, 2.225073858507201e-308, 1e308, -1e308, -1.7976931348623157e308,
       0.30000000000000004, 1.0000000000000002, -0.12345678901234568, 9.999999999999998e-301]
)
# (count, dim, 2): up to three 64-row pieces of the written file
FAST_PATH_SHAPES = st.tuples(
    st.integers(1, 5) | st.sampled_from([64, 65, 129]), st.integers(1, 4), st.just(2)
)
# the benchmark's `wide` workload holds harmonic frames of these (count, dim)
WIDE_HARMONIC_SIZES = [(count, count // 2 + 16) for count in range(128, 289, 16)]
ROW_0 = "[[1.0,0.0],[0.0,0.0]]"
# Edits of a canonical complex file, each with the message the general parse gives (None: it
# reads the unedited file's vectors).  No edited file takes the fast path.
MUTATIONS = {
    "whitespace": (lambda t: t.replace("],[", "], [", 1), None),
    "integer cell": (lambda t: t.replace("[1.0,0.0]", "[1,0.0]"), None),
    "keys reordered": (
        lambda t: t.replace('"dim":2,"field":"complex"', '"field":"complex","dim":2'), None
    ),
    "no final newline": (lambda t: t[:-1], None),
    "extra key": (lambda t: t[:-2] + ',"note":"x"}\n', None),
    "null": (
        lambda t: t.replace("[1.0,0.0]", "[null,0.0]"), "row 0 col 0: unparseable cell [None, 0.0]"
    ),
    "digits glued after ]": (lambda t: t.replace("[1.0,0.0],", "[1.0,0.0]5,"), "invalid JSON in"),
    # the same numbers in the same order, in a triple and a single
    "pair split": (
        lambda t: t.replace(ROW_0, "[[1.0,0.0,0.0],[0.0]]"), "row 0 col 0: expected [re, im] pair"
    ),
}


class TestCanonicalComplexRead:
    """A complex file exactly as ``write_vectors`` writes it is read by a flat parse."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_written_bytes_are_one_orjson_dump(self, tmp_path, field, count):
        seq = generate(GeneratorSpec("random_unit", dim=3, count=count, seed=count, field=field))
        v = seq.vectors
        doc = {
            "dim": 3,
            "field": field,
            "count": count,
            "vectors": v.real.copy() if field == "real" else v.view(float).reshape(count, 3, 2),
        }
        path = tmp_path / "v.json"
        write_vectors(path, seq)
        option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
        assert path.read_bytes() == orjson.dumps(doc, option=option)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.float64, FAST_PATH_SHAPES, elements=FAST_PATH_FLOATS))
    def test_fast_path_matches_general_parse(self, tmp_path_factory, parts):
        vectors = parts.view(np.complex128)[..., 0]
        path = tmp_path_factory.mktemp("fast") / "v.json"
        write_vectors(path, SimpleNamespace(field="complex", vectors=vectors))
        fast = _canonical_complex(path.read_bytes())
        assert fast is not None and fast.tobytes() == vectors.tobytes()
        assert read_outcomes(path) == [vectors.tobytes()] * 2

    def test_every_written_complex_file_takes_the_fast_path(self, tmp_path, corpus):
        # a change in how orjson writes floats would otherwise only lose the speed
        seqs = [(spec, seq) for spec, seq in corpus if seq.field == "complex"]
        seqs += [
            (spec, generate(spec))
            for spec in (GeneratorSpec("harmonic", dim=d, count=c) for c, d in WIDE_HARMONIC_SIZES)
        ]
        assert len(seqs) > 150
        path = tmp_path / "v.json"
        missed = []
        for spec, seq in seqs:
            write_vectors(path, seq)
            fast = _canonical_complex(path.read_bytes())
            if fast is None or fast.tobytes() != seq.vectors.tobytes():
                missed.append(spec)
        assert missed == []

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_edited_file_reads_as_the_general_parse(self, tmp_path, mutation):
        edit, message = MUTATIONS[mutation]
        rest = generate(GeneratorSpec("random_unit", dim=2, count=2, seed=1, field="complex"))
        seq = UnitVectorSequence(np.vstack([[1.0, 0.0], rest.vectors]), field="complex")
        path = tmp_path / "v.json"
        write_vectors(path, seq)
        text = path.read_text()
        assert ROW_0 in text and _canonical_complex(text.encode()) is not None
        edited = edit(text)
        assert edited != text
        path.write_text(edited)
        assert _canonical_complex(edited.encode()) is None
        fast, general = read_outcomes(path)
        assert fast == general
        if message is None:
            assert fast == seq.vectors.tobytes()
        else:
            assert message in fast


class TestGoldenDigests:
    """The fixture was written by tests/golden_digests.py; digests must not drift."""

    golden = json.loads(GOLDEN_PATH.read_text())

    def test_corpus_digests_unchanged(self, corpus):
        digests = corpus_digests((seq for _, seq in corpus), 1)
        assert len(digests) == len(self.golden["corpus"])
        assert [spec for (spec, _), got, want in zip(corpus, digests, self.golden["corpus"])
                if got != want] == []

    def test_hand_made_digests_unchanged(self):
        assert case_digests(1) == self.golden["cases"]


class TestGoldenDigestsV2:
    """The fixture was written from ``reference_digest_v2``; digests must not drift."""

    golden = json.loads(GOLDEN_V2_PATH.read_text())

    def test_reference_reproduces_fixture(self, corpus):
        assert [reference_digest_v2(seq) for _, seq in corpus] == self.golden["corpus"]
        cases = {name: reference_digest_v2(seq) for name, seq in hand_made_cases().items()}
        assert cases == self.golden["cases"]

    def test_corpus_digests_unchanged(self, corpus):
        assert corpus_digests((seq for _, seq in corpus), 2) == self.golden["corpus"]

    def test_hand_made_digests_unchanged(self):
        assert case_digests(2) == self.golden["cases"]

    def test_same_sequences_share_a_digest_in_both_versions(self):
        v1 = json.loads(GOLDEN_PATH.read_text())
        pairs = list(zip(v1["corpus"], self.golden["corpus"]))
        pairs += [(v1["cases"][name], d) for name, d in self.golden["cases"].items()]
        # equal v1 digests exactly where the v2 digests are equal; the corpus repeats some
        assert len(set(pairs)) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        assert len(set(pairs)) < len(pairs)


class TestGoldenReports:
    """The fixture was written by tests/golden_reports.py; reports must not drift."""

    golden = json.loads(golden_reports.GOLDEN_PATH.read_text())

    def test_corpus_reports_unchanged(self, corpus):
        digests = golden_reports.corpus_digests(seq for _, seq in corpus)
        assert len(digests) == len(self.golden["corpus"])
        changed = [
            (corpus[i // 2][0], ("feichtinger", "uniform")[i % 2])
            for i, (got, want) in enumerate(zip(digests, self.golden["corpus"]))
            if got != want
        ]
        assert changed == []

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_written_report_holds_version_2(self, tmp_path, field):
        seq = generate(GeneratorSpec("random_unit", dim=4, count=12, seed=3, field=field))
        path = tmp_path / "r.json"
        write_report(path, build_report(feichtinger_partition(seq), seq))
        report = json.loads(path.read_text())
        assert report["schema_version"] == 2
        assert report["input_digest"] == reference_digest_v2(seq)


def _base_reports() -> list[dict]:
    seq = generate(GeneratorSpec("random_unit", dim=4, count=12, seed=3, field="complex"))
    return [
        build_report(partitioner(seq), seq, timings={"partition_s": 0.01})
        for partitioner in (feichtinger_partition, uniform_partition)
    ]


BASE_REPORTS = _base_reports()
DIGEST = BASE_REPORTS[0]["input_digest"]
MUTANT_VALUES = [
    True, False, None, 0, 1, 2, -1, 1.0, 3.0, -0.0, 0.5, -2.5, math.nan, math.inf, -math.inf,
    10**30, -(10**30), "", "x", "1", "feichtinger", "uniform", [], [0], [1.0], [True], {},
    {"a": 1}, DIGEST + "\n", DIGEST + "0", DIGEST.upper(), "0" * 64, DIGEST[:-1],
]
MUTANT_KEYS = ["extra", "sigma", "indices", "mode", "timings", "spectral_B", "levels"]
SCHEMA_VALIDATOR = jsonschema.Draft202012Validator(CERTIFICATE_SCHEMA)


def _containers(doc, path=()):
    """Paths to every dict and list inside ``doc``, ``doc`` itself first."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _containers(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edit(report, path, action, key, value):
    """Apply one edit in place: set ``key`` to ``value``, delete it, or add ``value``."""
    target = _at(report, path)
    if action == "delete":
        del target[key]
    elif action == "add" and isinstance(target, list):
        target.append(copy.deepcopy(value))
    else:
        target[key] = copy.deepcopy(value)


def _single_edits(report):
    """Every value of ``report`` swapped for each mutant value or deleted, and one
    mutant value added to every dict and list."""
    for path in _containers(report):
        target = _at(report, path)
        for key in list(target) if isinstance(target, dict) else range(len(target)):
            yield path, "delete", key, None
            for value in MUTANT_VALUES:
                yield path, "set", key, value
        for value in MUTANT_VALUES:
            yield path, "add", "extra", value


@st.composite
def mutated_reports(draw):
    """A real report with one to four values swapped, keys deleted or keys added."""
    report = copy.deepcopy(draw(st.sampled_from(BASE_REPORTS)))
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 4]))):
        path = draw(st.sampled_from(list(_containers(report))))
        target = _at(report, path)
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(["set", "delete", "add"] if keys else ["add"]))
        key = draw(st.sampled_from(MUTANT_KEYS if action == "add" else keys))
        _edit(report, path, action, key, draw(st.sampled_from(MUTANT_VALUES)))
    return report


# One edit of BASE_REPORTS[0] and the validator's message for it.
SCHEMA_MESSAGES = [
    (("blocks", 1), "set", "sigma", "x", "blocks[1].sigma: expected a number, got 'x'"),
    ((), "delete", "levels", None, "missing key 'levels'"),
    ((), "add", "extra", 1, "unexpected key 'extra'"),
    (("blocks", 0), "delete", "eta", None, "blocks[0]: missing key 'eta'"),
    (("global_bounds",), "add", "B", 1.0, "global_bounds: unexpected key 'B'"),
    ((), "set", "levels", True, "levels: expected an integer >= 0, got True"),
    ((), "set", "levels", -1, "levels: expected an integer >= 0, got -1"),
    ((), "set", "blocks", [], "blocks: expected a nonempty array, got []"),
    (("blocks", 0, "indices"), "set", 0, 1.5,
     "blocks[0].indices[0]: expected an integer >= 0, got 1.5"),
    ((), "set", "input_digest", DIGEST.upper(),  # long values are shortened
     f"input_digest: expected 64 lowercase hex digits, got {reprlib.repr(DIGEST.upper())}"),
    ((), "set", "schema_version", 3, "schema_version: expected one of [1, 2], got 3"),
    ((), "set", "mode", "x", "mode: expected one of ['feichtinger', 'uniform'], got 'x'"),
    (("timings",), "set", "a b", "1", "timings['a b']: expected a number, got '1'"),
    ((), "set", "timings", None, "timings: expected an object, got None"),
]


def _path_text(path):
    """A JSON path as the validator writes it: ``blocks[1].indices``, ``timings.partition_s``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _names_edit(message, report, path, action, key):
    """Whether ``message`` names the key that one edit of ``report`` touched, or its container.

    ``report`` is the report before the edit.  The message may point at or
    inside the edited value, name a missing or an unexpected key of the
    container, or say that the edited array is now empty.
    """
    target = _at(report, path)
    if action == "add" and isinstance(target, list):
        key = len(target)  # the appended item
    if re.match(re.escape(_path_text(path + (key,))) + r"($|[:.\[])", message):
        return True
    where = f"{_path_text(path)}: " if path else ""
    if isinstance(target, list):
        return message.startswith(f"{where}expected a nonempty array")
    return message in (f"{where}missing key {key!r}", f"{where}unexpected key {key!r}")


class TestConforms:
    """``_schema_error`` is the report validator: it must decide as the published
    schema does, and word each rejection in one line that names where it is."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(mutated_reports())
    def test_accepts_only_schema_valid_reports(self, report):
        error = _schema_error(report)
        assert (error is None) == SCHEMA_VALIDATOR.is_valid(report), error
        assert error is None or "\n" not in error

    def test_every_single_edit(self):
        # two blocks keep every schema position while the edit count stays small
        base = dict(BASE_REPORTS[0], blocks=BASE_REPORTS[0]["blocks"][:2])
        accepted = rejected = 0
        for edit in _single_edits(base):
            report = copy.deepcopy(base)
            _edit(report, *edit)
            error = _schema_error(report)
            assert (error is None) == SCHEMA_VALIDATOR.is_valid(report), (edit, error)
            if error is None:
                accepted += 1
            else:
                rejected += 1
                assert "\n" not in error and _names_edit(error, base, *edit[:3]), (edit, error)
        assert accepted > 100 and rejected > 100

    @pytest.mark.parametrize(
        "path, action, key, value, message", SCHEMA_MESSAGES, ids=[m for *_, m in SCHEMA_MESSAGES]
    )
    def test_messages(self, path, action, key, value, message):
        report = copy.deepcopy(BASE_REPORTS[0])
        _edit(report, path, action, key, value)
        assert _schema_error(report) == message

    def test_not_an_object(self):
        assert _schema_error([1, 2]) == "expected an object, got [1, 2]"

    def test_base_reports_conform(self):
        assert all(_schema_error(report) is None for report in BASE_REPORTS)

    def test_corpus_reports_conform(self, corpus):
        rejected = [
            (spec, partitioner.__name__)
            for spec, seq in corpus
            for partitioner in (feichtinger_partition, uniform_partition)
            if _schema_error(build_report(partitioner(seq), seq, timings={"partition_s": 0.01}))
        ]
        assert rejected == []


class TestInPlaceWrites:
    """Both writers overwrite a file in place and cut it to length, with no O_TRUNC."""

    @pytest.fixture(params=["report", "vectors"])
    def write(self, request, complex_seq):
        if request.param == "report":
            report = build_report(feichtinger_partition(complex_seq), complex_seq)
            return lambda path: write_report(path, report)
        return lambda path: write_vectors(path, complex_seq)

    @pytest.mark.parametrize("extra", [pytest.param(1000, id="longer"),
                                       pytest.param(-100, id="shorter")])
    def test_overwrite_leaves_the_fresh_bytes(self, tmp_path, write, extra):
        fresh, path = tmp_path / "fresh.json", tmp_path / "old.json"
        write(fresh)
        path.write_bytes(b"\xff" * (fresh.stat().st_size + extra))
        inode = path.stat().st_ino
        write(path)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino == inode  # the same file, not a replacement

    def test_symlink_is_written_through(self, tmp_path, write):
        fresh, target, link = tmp_path / "fresh.json", tmp_path / "target.json", tmp_path / "link"
        write(fresh)
        target.write_bytes(b"\xff" * (fresh.stat().st_size + 1000))
        link.symlink_to(target)
        write(link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_opened_without_truncation(self, tmp_path, write):
        # ext4 flushes a file on close after it was truncated to zero on open
        with mock.patch("frame_partition.fileio.os.open", wraps=os.open) as opened:
            write(tmp_path / "out.json")
        (path, flags, mode), = [call.args for call in opened.call_args_list]
        assert path == tmp_path / "out.json" and mode == 0o666
        assert flags & os.O_TRUNC == 0 and flags & os.O_CREAT

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_write_bytes_mode(self, tmp_path, write, umask):
        new, reference = tmp_path / "new.json", tmp_path / "reference.json"
        old = os.umask(umask)
        try:
            write(new)
            reference.write_bytes(b"")
        finally:
            os.umask(old)
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


class TestReports:
    def test_schema_valid(self, complex_seq):
        cert = feichtinger_partition(complex_seq)
        report = build_report(cert, complex_seq, timings={"partition_s": 0.01})
        jsonschema.validate(report, CERTIFICATE_SCHEMA)

    def test_write_read_round_trip(self, tmp_path, complex_seq):
        cert = uniform_partition(complex_seq)
        report = build_report(cert, complex_seq)
        path = tmp_path / "r.json"
        write_report(path, report)
        assert read_report(path) == report
        assert path.read_text() == json.dumps(report) + "\n"

    def test_read_rejects_schema_violation(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ArgumentError):
            read_report(path)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(CERTIFICATE_SCHEMA)

    def test_write_rejects_invalid_report(self, tmp_path, complex_seq):
        report = build_report(feichtinger_partition(complex_seq), complex_seq)
        report["levels"] = -1
        path = tmp_path / "r.json"
        with pytest.raises(ArgumentError) as info:
            write_report(path, report)
        assert str(info.value) == (
            "report does not match the certificate schema: "
            "levels: expected an integer >= 0, got -1"
        )
        assert not path.exists()

    def test_read_error_is_the_best_match(self, tmp_path):
        bad = {"schema_version": 3, "mode": "other"}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ArgumentError) as info:
            read_report(path)
        # the first required key in schema order that the report lacks
        assert str(info.value) == (
            "report does not match the certificate schema: missing key 'tool_version'"
        )

    def test_recertify_fresh_report_passes(self, complex_seq):
        for cert in (feichtinger_partition(complex_seq), uniform_partition(complex_seq)):
            report = build_report(cert, complex_seq)
            results, claims = recertify(complex_seq, report)
            assert all(entry["passed"] for entry in results)
            assert claims == []

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_recertify_tolerance_that_zero_misses(self, complex_seq, tol):
        # a fresh report agrees exactly, which passes only a tolerance that 0.0 meets
        report = build_report(feichtinger_partition(complex_seq), complex_seq)
        results, _ = recertify(complex_seq, report, tol=tol)
        numbers = ["sigma", "eta", "gamma", "lambda_min", "lambda_max"]
        for entry in results:
            assert [failure.split(":")[0] for failure in entry["failures"]] == numbers

    def test_recertify_catches_tampered_eigenvalue(self, complex_seq):
        cert = feichtinger_partition(complex_seq)
        report = build_report(cert, complex_seq)
        report["blocks"][0]["lambda_min"] += 1e-3
        results, _ = recertify(complex_seq, report)
        assert not results[0]["passed"]
        assert any("lambda_min" in f for f in results[0]["failures"])

    def test_recertify_catches_joined_duplicates(self):
        seq = generate(GeneratorSpec("duplicates", dim=2, multiplicity=2))
        cert = feichtinger_partition(seq)
        report = build_report(cert, seq)
        # merge the two singletons: sigma on the joined block is 1, not the
        # reported 0, so the block must FAIL
        report["blocks"] = [dict(report["blocks"][0], indices=[0, 1])]
        results, _ = recertify(seq, report)
        assert not results[0]["passed"]
        assert any("sigma" in f for f in results[0]["failures"])

    def test_recertify_rejects_bad_index_cover(self, complex_seq):
        cert = feichtinger_partition(complex_seq)
        report = build_report(cert, complex_seq)
        report["blocks"][0]["indices"] = report["blocks"][0]["indices"][:-1] or [0]
        with pytest.raises(ArgumentError):
            recertify(complex_seq, report)


def _fresh_reports() -> list[tuple]:
    pairs = []
    for field in ("real", "complex"):
        seq = generate(GeneratorSpec("random_unit", dim=6, count=24, seed=8, field=field))
        for partitioner in (feichtinger_partition, uniform_partition):
            pairs.append((seq, build_report(partitioner(seq), seq)))
    return pairs


FRESH_REPORTS = _fresh_reports()
BLOCK_NUMBERS = ["sigma", "eta", "gamma", "lambda_min", "lambda_max"]


class TestRecertifyProperty:
    """Any one report number moved past ``--tol`` is flagged by name."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    @pytest.mark.parametrize("key", BLOCK_NUMBERS + ["spectral_B", "schur_B", "target"])
    def test_moved_number_is_flagged(self, data, key):
        seq, fresh = data.draw(st.sampled_from(FRESH_REPORTS))
        report = copy.deepcopy(fresh)
        tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2]))
        if key in BLOCK_NUMBERS:
            pos = data.draw(st.integers(0, len(report["blocks"]) - 1))
            doc = report["blocks"][pos]
        else:
            doc = report["global_bounds"] if key in report["global_bounds"] else report
        past = data.draw(st.floats(1e-15, 10.0) | st.sampled_from([5e-324, 1e-300]))
        moved = doc[key] + data.draw(st.sampled_from([-1.0, 1.0])) * (tol + past)
        assume(not abs(moved - doc[key]) <= tol)  # past tol after rounding
        doc[key] = moved
        blocks, claims = recertify(seq, report, tol)
        lines = blocks[pos]["failures"] if key in BLOCK_NUMBERS else claims
        assert any(line.startswith(f"{key}: ") for line in lines)
