import json
import re

import jsonschema
import numpy as np
import pytest

from frame_partition import (
    ArgumentError,
    CERTIFICATE_SCHEMA,
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


@pytest.fixture
def complex_seq():
    return generate(GeneratorSpec("random_unit", dim=5, count=9, seed=20, field="complex"))


class TestVectorFiles:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_round_trip_bit_exact(self, tmp_path, fmt, field):
        seq = generate(GeneratorSpec("random_unit", dim=6, count=11, seed=30, field=field))
        path = tmp_path / f"v.{fmt}"
        write_vectors(path, seq)
        back = read_vectors(path)
        assert back.field == seq.field
        assert np.array_equal(back.vectors, seq.vectors)

    def test_json_preserves_labels(self, tmp_path):
        seq = UnitVectorSequence(np.eye(2), labels=("a", "b"))
        path = tmp_path / "v.json"
        write_vectors(path, seq)
        assert read_vectors(path).labels == ("a", "b")

    def test_unknown_format(self, tmp_path):
        seq = UnitVectorSequence(np.eye(2))
        with pytest.raises(ArgumentError):
            write_vectors(tmp_path / "v.xml", seq)

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

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,0.0\n")
        with pytest.raises(ArgumentError):
            read_vectors(path)

    def test_csv_bad_complex_cell(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("dim,field,count\n1,complex,1\nnot-a-pair\n")
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
        assert sequence_digest(read_vectors(path)) == sequence_digest(complex_seq)


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
        with pytest.raises(jsonschema.ValidationError):
            write_report(path, report)
        assert not path.exists()

    def test_read_error_is_the_best_match(self, tmp_path):
        bad = {"schema_version": 2, "mode": "other"}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(bad, CERTIFICATE_SCHEMA)
        with pytest.raises(ArgumentError, match=re.escape(expected.value.message)):
            read_report(path)

    def test_recertify_fresh_report_passes(self, complex_seq):
        for cert in (feichtinger_partition(complex_seq), uniform_partition(complex_seq)):
            report = build_report(cert, complex_seq)
            results = recertify(complex_seq, report)
            assert all(entry["passed"] for entry in results)

    def test_recertify_catches_tampered_eigenvalue(self, complex_seq):
        cert = feichtinger_partition(complex_seq)
        report = build_report(cert, complex_seq)
        report["blocks"][0]["lambda_min"] += 1e-3
        results = recertify(complex_seq, report)
        assert not results[0]["passed"]
        assert any("lambda_min" in f for f in results[0]["failures"])

    def test_recertify_catches_joined_duplicates(self):
        seq = generate(GeneratorSpec("duplicates", dim=2, multiplicity=2))
        cert = feichtinger_partition(seq)
        report = build_report(cert, seq)
        # merge the two singletons: sigma on the joined block is 1, not the
        # reported 0, so the block must FAIL
        report["blocks"] = [dict(report["blocks"][0], indices=[0, 1])]
        results = recertify(seq, report)
        assert not results[0]["passed"]
        assert any("sigma" in f for f in results[0]["failures"])

    def test_recertify_rejects_bad_index_cover(self, complex_seq):
        cert = feichtinger_partition(complex_seq)
        report = build_report(cert, complex_seq)
        report["blocks"][0]["indices"] = report["blocks"][0]["indices"][:-1] or [0]
        with pytest.raises(ArgumentError):
            recertify(complex_seq, report)
