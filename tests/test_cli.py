import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frame_partition import (
    gram,
    read_report,
    read_vectors,
    schur_bessel_bound,
    spectral_bessel_bound,
)
import frame_partition
from frame_partition.cli import main
from frame_partition.partition import halving_plan

from test_analysis import reference_row_functionals


def run(*argv):
    return main(list(argv))


class TestGenerate:
    def test_orthonormal_basis_file(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        assert run("generate", "--kind", "orthonormal", "--dim", "3", "--count", "3",
                   "-o", str(out)) == 0
        seq = read_vectors(out)
        assert seq.n == 3 and seq.dim == 3

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "random_unit", "--dim", "8", "--count", "32",
                "--seed", "7", "-o"]
        assert run(*args, str(a)) == 0
        assert run(*args, str(b)) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("flags", [
        pytest.param(["--kind", "orthonormal", "--dim", "2", "--count", "5"], id="count"),
        pytest.param(["--kind", "random_unit", "--dim", "2", "--seed", "-1"], id="seed"),
    ])
    def test_invalid_flags_exit_2(self, tmp_path, capsys, flags):
        assert run("generate", *flags, "-o", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_io_failure_exit_3(self, tmp_path):
        assert run("generate", "--kind", "orthonormal", "--dim", "2", "--count", "2",
                   "-o", str(tmp_path / "missing" / "x.json")) == 3

    def test_any_suffix_is_json(self, tmp_path, capsys):
        out, report = tmp_path / "v.txt", tmp_path / "r.txt"
        assert run("generate", "--kind", "harmonic", "--dim", "2", "--count", "4",
                   "-o", str(out)) == 0
        assert json.loads(out.read_text())["field"] == "complex"
        assert run("partition", str(out), "-o", str(report)) == 0
        assert run("certify", str(out), str(report)) == 0

    @pytest.mark.parametrize("kind, flags", [
        ("orthonormal", ["--count", "3"]),
        ("duplicates", ["--multiplicity", "2"]),
        ("angle_pair", ["--angle", "0.5"]),
        ("basis_union", ["--angle", "0.5"]),
    ])
    def test_complex_field_honoured(self, tmp_path, capsys, kind, flags):
        # real-valued kinds are written with the field asked for, not one inferred from the values
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        assert run("generate", "--kind", kind, "--dim", "3", *flags, "--field", "complex",
                   "-o", str(vec)) == 0
        assert json.loads(vec.read_text())["field"] == "complex"
        assert read_vectors(vec).field == "complex"
        assert run("partition", str(vec), "-o", str(rep)) == 0
        assert run("certify", str(vec), str(rep)) == 0

    def test_format_flag_exits_2(self, tmp_path, capsys):
        assert run("generate", "--kind", "orthonormal", "--dim", "2", "--format", "csv",
                   "-o", str(tmp_path / "v.csv")) == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()


class TestAnalyze:
    def test_orthonormal_values(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run("generate", "--kind", "orthonormal", "--dim", "4", "--count", "4", "-o", str(out))
        capsys.readouterr()
        assert run("analyze", str(out), "--json") == 0
        values = json.loads(capsys.readouterr().out)
        assert values["sigma"] == 0.0
        assert values["eta"] == 0.0
        assert values["spectral_B"] == pytest.approx(1.0, abs=1e-12)
        assert values["schur_B"] == 1.0

    def test_duplicate_pair_values(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run("generate", "--kind", "duplicates", "--dim", "2", "--multiplicity", "2",
            "-o", str(out))
        capsys.readouterr()
        assert run("analyze", str(out), "--json") == 0
        values = json.loads(capsys.readouterr().out)
        assert values["gamma"] == 1.0
        assert values["sigma"] == 1.0
        assert values["spectral_B"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_json_values_match_library(self, tmp_path, capsys, field):
        out = tmp_path / "v.json"
        run("generate", "--kind", "random_unit", "--dim", "8", "--count", "40", "--seed", "3",
            "--field", field, "-o", str(out))
        capsys.readouterr()
        assert run("analyze", str(out), "--json") == 0
        values = json.loads(capsys.readouterr().out)
        seq = read_vectors(out)
        g = gram(seq)
        assert (values["n"], values["dim"], values["field"]) == (40, 8, field)
        assert values["spectral_B"] == spectral_bessel_bound(g)
        assert values["schur_B"] == schur_bessel_bound(g)
        expected = reference_row_functionals(g, np.arange(seq.n))
        assert (values["sigma"], values["eta"], values["gamma"]) == expected

    def test_malformed_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("analyze", str(bad)) == 2

    def test_norm_violation_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"dim": 2, "field": "real", "count": 3,
             "vectors": [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]}))
        assert run("analyze", str(bad)) == 4
        # one line, the offending indices listed once
        assert capsys.readouterr().err == (
            "norm violation: vector 1 has norm 2.0, expected 1 (offending indices: [1, 2])\n"
        )


class TestPartition:
    def test_orthonormal_single_block(self, tmp_path):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "orthonormal", "--dim", "4", "--count", "4", "-o", str(vec))
        assert run("partition", str(vec), "-o", str(rep)) == 0
        report = read_report(rep)
        assert report["levels"] == 0
        assert len(report["blocks"]) == 1
        assert report["all_certified"]

    def test_duplicates_in_distinct_blocks(self, tmp_path):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "duplicates", "--dim", "2", "--multiplicity", "3",
            "-o", str(vec))
        assert run("partition", str(vec), "-o", str(rep)) == 0
        report = read_report(rep)
        assert sorted(tuple(b["indices"]) for b in report["blocks"]) == [(0,), (1,), (2,)]

    def test_uniform_mode(self, tmp_path):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "random_unit", "--dim", "16", "--count", "64",
            "--seed", "1", "-o", str(vec))
        assert run("partition", str(vec), "--mode", "uniform", "-o", str(rep)) == 0
        report = read_report(rep)
        assert report["mode"] == "uniform"
        assert all(b["eta"] < 1.0 for b in report["blocks"])

    def test_bessel_override_flag_refused_exit_2(self, tmp_path, capsys):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "duplicates", "--dim", "2", "--multiplicity", "3",
            "-o", str(vec))
        capsys.readouterr()
        assert run("partition", str(vec), "--bessel-override", "1.5", "-o", str(rep)) == 2
        assert "unrecognized arguments: --bessel-override 1.5" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("vectors", [
        pytest.param([[0.9999999991]], id="one"),
        pytest.param([[0.9999999991, 0.0], [0.0, 0.9999999991]], id="two"),
    ])
    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    def test_bessel_constant_below_one(self, tmp_path, capsys, mode, vectors):
        # norms 1 - 9e-10 are accepted, and B = 1 - 1.8e-9 asks for no halving level
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        vec.write_text(_vector_doc("real", len(vectors[0]), vectors))
        assert run("partition", str(vec), "--mode", mode, "-o", str(rep)) == 0
        report = read_report(rep)
        assert report["global_bounds"]["bessel_B_used"] < 1.0
        assert report["levels"] == 0 and len(report["blocks"]) == 1
        assert report["target"] == report["global_bounds"]["bessel_B_used"] - 1.0
        assert run("certify", str(vec), str(rep), "--tol", "0") == 0
        assert "FAIL" not in capsys.readouterr().out


def _vector_doc(field, dim, vectors, **extra):
    return json.dumps(
        {"dim": dim, "field": field, "count": len(vectors), "vectors": vectors, **extra}
    )


CSV_TEXT = "dim,field,count\n2,real,1\n1.0,0.0\n"

MALFORMED_VECTOR_FILES = [
    ("list_cell.json", _vector_doc("real", 2, [[[1, 0], 0]])),
    ("null_cell.json", _vector_doc("real", 2, [[None, 1.0]])),
    ("text_in_pair.json", _vector_doc("complex", 2, [[["x", 0], [0, 0]]])),
    ("huge_int_cell.json", _vector_doc("real", 1, [[10**400]])),
    ("negative_dim.json", json.dumps({"dim": -1, "field": "real", "count": 1, "vectors": [[1.0]]})),
    # header numbers must be integers (2.0 counts), never bools or strings
    ("fractional_dim.json", json.dumps({"dim": 2.7, "field": "real", "count": 1,
                                        "vectors": [[0.6, 0.8]]})),
    ("bool_header.json", json.dumps({"dim": True, "field": "real", "count": True,
                                     "vectors": [[1.0]]})),
    ("string_header.json", json.dumps({"dim": "2", "field": "real", "count": "2",
                                       "vectors": [[1.0, 0.0], [0.0, 1.0]]})),
    # a count x dim allocation would need 16 TB: rows are checked first
    ("huge_dim.json", json.dumps({"dim": 10**12, "field": "real", "count": 1,
                                  "vectors": [[1.0]]})),
    ("not_utf8.json", b"\xff\xfe"),
    # CSV text is not JSON, whatever the suffix
    ("csv_text.csv", CSV_TEXT),
    ("deep_nesting.json", "[" * 100_000 + "]" * 100_000),
    # longer than the int-to-string digit limit: json.loads raises a plain ValueError
    ("long_int_literal.json", _vector_doc("real", 1, [[0]]).replace("0", "1" * 5000)),
]


class TestMalformedVectorFiles:
    @pytest.mark.parametrize(
        "name, text", MALFORMED_VECTOR_FILES, ids=[name for name, _ in MALFORMED_VECTOR_FILES]
    )
    def test_partition_exits_2_with_one_line(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run("partition", str(path), "-o", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "partition", "certify"])
    def test_csv_file_exits_2_with_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "old.csv"
        path.write_text(CSV_TEXT)
        report = tmp_path / "r.json"
        args = {"analyze": [], "partition": ["-o", str(report)], "certify": [str(report)]}
        assert run(command, str(path), *args[command]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid JSON in {path}: Expecting value: line 1 column 1 (char 0)\n"
        )


def run_python(*argv):
    """Run Python in a child process that imports this package from this checkout."""
    src = str(Path(frame_partition.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def run_process(*argv):
    """Run the CLI in a child process, so that a crash fails the test, not pytest."""
    return run_python("-m", "frame_partition.cli", *argv)


class TestNestingGuard:
    """orjson crashes on nesting this deep; the structural scan must refuse it first."""

    @pytest.mark.parametrize("data, depth", [
        pytest.param(b"[" * 3_000_000 + b"]" * 3_000_000, 3_000_000, id="brackets"),
        # a bracket count that ignored strings would read depth 0 here
        pytest.param(b'["]",' * 1_000_000 + b"1" + b"]" * 1_000_000, 1_000_000,
                     id="brackets_in_strings"),
    ])
    def test_deep_file_exits_2_with_one_line(self, tmp_path, data, depth):
        path = tmp_path / "v.json"
        path.write_bytes(data)
        done = run_process("partition", str(path), "-o", str(tmp_path / "r.json"))
        assert done.returncode == 2  # a signal would give a negative code
        assert done.stderr.startswith("error: ") and f"nested {depth} levels" in done.stderr
        assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1

    def test_brackets_in_a_label_still_read(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(_vector_doc("real", 1, [[1.0]], labels=["[" * 5000]))
        done = run_process("partition", str(path), "-o", str(tmp_path / "r.json"))
        assert done.returncode == 0, done.stderr
        assert read_vectors(path).vectors.tolist() == [[1.0]]


class TestCertify:
    def make_pair(self, tmp_path, kind="random_unit", mode="feichtinger"):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", kind, "--dim", "8", "--count", "24", "--seed", "5",
            "--field", "complex", "-o", str(vec))
        run("partition", str(vec), "--mode", mode, "-o", str(rep))
        return vec, rep

    def test_fresh_report_passes(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 0
        assert "FAIL" not in capsys.readouterr().out

    @staticmethod
    def raise_bessel_constant(rep, b):
        """State B in the report, with the levels, target and borderline flag it implies.

        Earlier versions could partition with a B above the mode's bound;
        their reports must still certify.
        """
        report = json.loads(rep.read_text())
        levels, on_breakpoint = halving_plan(b)
        report["global_bounds"]["bessel_B_used"] = b
        report.update(
            levels=levels,
            target=math.ldexp(b - 1.0, -levels),
            borderline=on_breakpoint or any(block["borderline"] for block in report["blocks"]),
        )
        rep.write_text(json.dumps(report))

    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    def test_bessel_constant_above_bound_passes(self, tmp_path, capsys, mode):
        vec, rep = self.make_pair(tmp_path, mode=mode)
        self.raise_bessel_constant(rep, 9.5)
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_huge_bessel_constant_certifies(self, tmp_path, capsys):
        # 1024 levels: 2.0**1024 overflows, so the level and target arithmetic must not use it
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "orthonormal", "--dim", "2", "--count", "2", "-o", str(vec))
        run("partition", str(vec), "-o", str(rep))
        self.raise_bessel_constant(rep, 1e308)
        assert read_report(rep)["levels"] == 1024
        capsys.readouterr()
        assert run("certify", str(vec), str(rep), "--tol", "0") == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("data", [
        pytest.param(b"\xff\xfe", id="not_utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep_nesting"),
        pytest.param(b'{"levels": ' + b"1" * 5000 + b"}", id="long_int_literal"),
    ])
    def test_unreadable_report_exit_2(self, tmp_path, capsys, data):
        vec, rep = self.make_pair(tmp_path)
        rep.write_bytes(data)
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_tampered_lambda_fails(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["blocks"][0]["lambda_min"] += 1e-3
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_digest_mismatch_exit_2_and_force(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        other = tmp_path / "other.json"
        run("generate", "--kind", "orthonormal", "--dim", "24", "--count", "24",
            "-o", str(other))
        assert run("certify", str(other), str(rep)) == 2
        # no flag skips the digest check: --force is an unrecognized argument
        capsys.readouterr()
        assert run("certify", str(other), str(rep), "--force") == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_index_mismatch_exit_2(self, tmp_path):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["blocks"][0]["indices"] = [report["blocks"][0]["indices"][0]] * 1 + [999]
        rep.write_text(json.dumps(report))
        assert run("certify", str(vec), str(rep)) == 2

    def test_pair_beyond_dimension_is_not_certified(self, tmp_path, capsys):
        # sigma = 1 - 1.8e-9 < 1, but two vectors in dimension 1 have lambda_min 0
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        vec.write_text(_vector_doc("real", 1, [[0.9999999991], [-0.9999999991]]))
        assert run("partition", str(vec), "-o", str(rep)) == 5
        report = json.loads(rep.read_text())
        assert [b["certified"] for b in report["blocks"]] == [False]
        report["blocks"][0]["certified"] = report["all_certified"] = True
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        out = capsys.readouterr().out
        assert "certified: reported True, recomputed False" in out
        assert "claim FAIL: all_certified" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, tol):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["blocks"][0]["lambda_min"] = -5.0
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep), f"--tol={tol}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_block_value_fails(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["blocks"][0]["sigma"] = float("nan")
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        assert "sigma: reported nan" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, edit, claims", [
        pytest.param("feichtinger", {"target": -3.0}, ["target"], id="target"),
        pytest.param("feichtinger", {"levels": "+3"}, ["levels", "target"], id="levels"),
        pytest.param("feichtinger", {"schur_B": 0.01}, ["schur_B"], id="schur_B"),
        pytest.param("feichtinger", {"bessel_B_used": "/2"}, ["bessel_B_used"], id="B_below"),
        pytest.param("feichtinger", {"all_certified": "flip"}, ["all_certified"], id="all"),
        pytest.param("feichtinger", {"bessel_B_used": 1e308}, ["levels", "target"], id="huge_B"),
        pytest.param("uniform", {"target": float("nan")}, ["target"], id="nan_target"),
        pytest.param("uniform", {"levels": 0}, ["levels", "target", "blocks"], id="too_many_blocks"),
        # spectral_B = 0.5 is also below every block's lambda_max (>= 1 for unit vectors)
        pytest.param("uniform", {"spectral_B": 0.5, "bessel_B_used": 0.5},
                     ["spectral_B", "bessel_B_used"], id="B_below_one"),
        # JSON integers beyond float range
        pytest.param("feichtinger", {"target": 10**400}, ["target"], id="huge_int_target"),
        pytest.param("feichtinger", {"schur_B": 10**400}, ["schur_B"], id="huge_int_schur_B"),
        pytest.param("feichtinger", {"bessel_B_used": 10**400}, ["bessel_B_used"],
                     id="huge_int_B"),
        pytest.param("feichtinger", {"spectral_B": 10**400}, ["spectral_B"],
                     id="huge_int_spectral_B"),
        # the uniform mode's B is held against the recomputed spectral_B, not the reported one
        pytest.param("uniform", {"spectral_B": 10**400}, ["spectral_B"],
                     id="huge_int_uniform_spectral_B"),
        pytest.param("uniform", {"levels": 10**400}, ["levels", "target"], id="huge_int_levels"),
    ])
    def test_false_global_claim_fails(self, tmp_path, capsys, mode, edit, claims):
        vec, rep = self.make_pair(tmp_path, mode=mode)
        report = json.loads(rep.read_text())
        bounds = report["global_bounds"]
        for key, value in edit.items():
            doc = bounds if key in bounds else report
            if value == "+3":
                doc[key] += 3
            elif value == "/2":
                doc[key] /= 2
            elif value == "flip":
                doc[key] = not doc[key]
            else:
                doc[key] = value
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert [line.split()[2].rstrip(":") for line in lines] == claims

    @pytest.mark.parametrize("b, shown", [
        pytest.param(float("inf"), "inf", id="inf"),
        pytest.param(10**400, str(10**400), id="huge_int"),
    ])
    def test_non_finite_bessel_constant_line(self, tmp_path, capsys, b, shown):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["global_bounds"]["bessel_B_used"] = b
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert lines == [f"claim FAIL: bessel_B_used: reported {shown}, not a finite number"]

    def test_bessel_constant_below_bound_line(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        bounds = report["global_bounds"]
        bounds["bessel_B_used"] /= 2
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert lines == [
            f"claim FAIL: bessel_B_used: reported {bounds['bessel_B_used']!r}, "
            f"below the feichtinger bound {bounds['schur_B']!r}"
        ]

    def test_repeated_index_exit_2(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        pos, block = next((i, b) for i, b in enumerate(report["blocks"]) if len(b["indices"]) > 1)
        seq = read_vectors(vec)
        idx = block["indices"] + block["indices"][:1]
        # the spectrum of the matrix with the repeated row: lambda_min ~ 0
        eigs = np.linalg.eigvalsh((seq.vectors @ seq.vectors.conj().T)[np.ix_(idx, idx)])
        block.update(indices=idx, lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]))
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 2
        err = capsys.readouterr().err
        assert err == f"error: report block {pos} repeats an index\n"

    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    @pytest.mark.parametrize("kind", ["random_unit", "duplicates"])
    def test_zero_tolerance_passes_fresh_report(self, tmp_path, capsys, mode, kind):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        # three duplicates: B = 3 sits on a breakpoint, so the report is borderline
        run("generate", "--kind", kind, "--dim", "8", "--count", "24", "--seed", "5",
            "--multiplicity", "3", "--field", "complex", "-o", str(vec))
        run("partition", str(vec), "--mode", mode, "-o", str(rep))
        assert read_report(rep)["borderline"] == (kind == "duplicates")
        capsys.readouterr()
        assert run("certify", str(vec), str(rep), "--tol", "0") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_understated_bessel_constant_fails(self, tmp_path, capsys):
        # every block claim and the levels/target derived from the stated B hold;
        # only the stated B (17.5) is below the spectral bound (22.40)
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "random_unit", "--dim", "16", "--count", "256", "--seed", "3",
            "-o", str(vec))
        run("partition", str(vec), "--mode", "uniform", "-o", str(rep))
        report = json.loads(rep.read_text())
        spectral = report["global_bounds"]["spectral_B"]
        assert 22.40 <= spectral < 22.41
        report["global_bounds"].update(spectral_B=17.5, bessel_B_used=17.5)
        assert halving_plan(17.5) == (report["levels"], False)
        report["target"] = math.ldexp(16.5, -report["levels"])
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert lines == [
            f"claim FAIL: spectral_B: reported 17.5, recomputed {spectral!r}",
            f"claim FAIL: bessel_B_used: reported 17.5, below the uniform bound {spectral!r}",
        ]

    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    def test_spectral_bound_below_blocks_fails(self, tmp_path, capsys, mode):
        vec, rep = self.make_pair(tmp_path, mode=mode)
        report = json.loads(rep.read_text())
        report["global_bounds"]["spectral_B"] = 0.01
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert lines[0].startswith("claim FAIL: spectral_B: reported 0.01")

    def test_spectral_bound_above_schur_fails(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["global_bounds"]["spectral_B"] = report["global_bounds"]["schur_B"] + 1e-6
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert [line.split()[2] for line in lines] == ["spectral_B:"]

    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    @pytest.mark.parametrize("kind", ["random_unit", "duplicates"])
    def test_flipped_report_borderline_fails(self, tmp_path, capsys, mode, kind):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", kind, "--dim", "8", "--count", "24", "--seed", "5",
            "--multiplicity", "3", "-o", str(vec))
        run("partition", str(vec), "--mode", mode, "-o", str(rep))
        report = json.loads(rep.read_text())
        report["borderline"] = not report["borderline"]
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("claim")]
        assert lines == [
            f"claim FAIL: borderline: reported {report['borderline']}, "
            f"recomputed {not report['borderline']}"
        ]

    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    def test_flipped_block_borderline_fails(self, tmp_path, capsys, mode):
        vec, rep = self.make_pair(tmp_path, mode=mode)
        report = json.loads(rep.read_text())
        report["blocks"][1]["borderline"] = True
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        out = capsys.readouterr().out
        assert "block 1 " in out and "FAIL" in out
        assert "  borderline: reported True, recomputed False" in out.splitlines()

    @pytest.mark.parametrize("key, tol", [
        ("sigma", None), ("eta", None), ("gamma", None), ("lambda_min", None),
        ("lambda_max", None), ("certified", None), ("borderline", None),
        # a flipped flag fails whatever the tolerance
        ("certified", "2"), ("borderline", "2"),
    ])
    def test_edited_block_field_line(self, tmp_path, capsys, key, tol):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        block = report["blocks"][0]
        recomputed = block[key]
        block[key] = not recomputed if type(recomputed) is bool else recomputed + 0.25
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        argv = ("certify", str(vec), str(rep)) + (("--tol", tol) if tol else ())
        assert run(*argv) == 5
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"block 0 {block['indices']}: FAIL"
        assert [line for line in out if line.startswith("  ")] == [
            f"  {key}: reported {block[key]!r}, recomputed {recomputed!r}"
        ]

    def test_huge_int_block_value_fails(self, tmp_path, capsys):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        recomputed = report["blocks"][0]["sigma"]
        report["blocks"][0]["sigma"] = 10**400
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 5
        failures = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line
                    or line.startswith("  ")]
        assert failures == [
            f"block 0 {report['blocks'][0]['indices']}: FAIL",
            f"  sigma: reported {10**400}, recomputed {recomputed!r}",
        ]

    def test_loose_tolerance_lets_small_edits_pass(self, tmp_path):
        vec, rep = self.make_pair(tmp_path)
        report = json.loads(rep.read_text())
        report["blocks"][0]["sigma"] += 1e-12
        rep.write_text(json.dumps(report))
        assert run("certify", str(vec), str(rep), "--tol", "1e-6") == 0


SCHEMA_BREAKS = [
    pytest.param(lambda r: r.pop("levels"), "missing key 'levels'", id="missing_key"),
    pytest.param(lambda r: r.update(extra=1), "unexpected key 'extra'", id="unexpected_key"),
    pytest.param(lambda r: r["blocks"][0].update(sigma="0.5"), "blocks[0].sigma: ",
                 id="string_sigma"),
    pytest.param(lambda r: r.update(levels=True), "levels: ", id="bool_levels"),
    pytest.param(lambda r: r.update(input_digest=r["input_digest"].upper()), "input_digest: ",
                 id="uppercase_digest"),
    pytest.param(lambda r: r.update(blocks=[]), "blocks: ", id="empty_blocks"),
]


class TestMalformedReports:
    @pytest.mark.parametrize("edit, named", SCHEMA_BREAKS)
    def test_certify_exits_2_with_one_line(self, tmp_path, capsys, edit, named):
        vec, rep = TestCertify().make_pair(tmp_path)
        report = json.loads(rep.read_text())
        edit(report)
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: report does not match the certificate schema: ")
        assert named in captured.err and captured.err.count("\n") == 1


# Every command in both modes, and one schema error, in a process that cannot import jsonschema.
WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None  # an import of jsonschema now raises ImportError
from frame_partition.cli import main

vec, out = sys.argv[1:]
assert main(["generate", "--kind", "random_unit", "--dim", "4", "--count", "12",
             "--seed", "3", "--field", "complex", "-o", vec]) == 0
for mode in ("feichtinger", "uniform"):
    rep = f"{out}.{mode}.json"
    assert main(["partition", vec, "--mode", mode, "-o", rep]) == 0
    assert main(["certify", vec, rep]) == 0
report = json.load(open(rep))
report["levels"] = True
json.dump(report, open(rep, "w"))
assert main(["certify", vec, rep]) == 2
"""


class TestWithoutJsonschema:
    def test_commands_run(self, tmp_path):
        done = run_python("-c", WITHOUT_JSONSCHEMA, str(tmp_path / "v.json"), str(tmp_path / "r"))
        assert done.returncode == 0, done.stderr
        assert done.stderr == (
            "error: report does not match the certificate schema: "
            "levels: expected an integer >= 0, got True\n"
        )

    def test_cli_import_leaves_jsonschema_out(self):
        done = run_python(
            "-c", "import sys, frame_partition.cli; print('jsonschema' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


# Reports written by an earlier release (schema_version 1, repr-payload digest)
# for random_unit 12x4, seed 3, with their vector files: they must keep certifying.
V1_REPORTS = Path(__file__).parent / "data" / "v1_reports"
V1_PAIRS = [
    (f"random_unit_12x4_{field}.json", f"random_unit_12x4_{field}.{mode}.report.json")
    for field in ("real", "complex")
    for mode in ("feichtinger", "uniform")
]


class TestV1Reports:
    @pytest.mark.parametrize("vectors, report", V1_PAIRS, ids=[r for _, r in V1_PAIRS])
    def test_certifies(self, capsys, vectors, report):
        assert json.loads((V1_REPORTS / report).read_text())["schema_version"] == 1
        assert run("certify", str(V1_REPORTS / vectors), str(V1_REPORTS / report)) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("vectors, report", V1_PAIRS, ids=[r for _, r in V1_PAIRS])
    def test_edited_input_is_a_digest_mismatch(self, tmp_path, capsys, vectors, report):
        doc = json.loads((V1_REPORTS / vectors).read_text())
        row = doc["vectors"][0]
        # a sign flip keeps the vector a unit vector
        if doc["field"] == "complex":
            row[0][0] = -row[0][0]
        else:
            row[0] = -row[0]
        edited = tmp_path / vectors
        edited.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("certify", str(edited), str(V1_REPORTS / report)) == 2
        assert capsys.readouterr().err.startswith("digest mismatch: ")

    def test_float_version_certifies(self, tmp_path):
        vectors, report = V1_PAIRS[0]
        doc = json.loads((V1_REPORTS / report).read_text())
        doc["schema_version"] = 1.0  # the schema accepts it as 1
        path = tmp_path / report
        path.write_text(json.dumps(doc))
        assert run("certify", str(V1_REPORTS / vectors), str(path)) == 0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_new_report_relabelled_version_1_is_a_digest_mismatch(self, tmp_path, capsys, field):
        vec, rep = tmp_path / "v.json", tmp_path / "r.json"
        run("generate", "--kind", "random_unit", "--dim", "4", "--count", "12", "--seed", "3",
            "--field", field, "-o", str(vec))
        assert run("partition", str(vec), "-o", str(rep)) == 0
        report = json.loads(rep.read_text())
        assert report["schema_version"] == 2
        report["schema_version"] = 1
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert run("certify", str(vec), str(rep)) == 2
        assert capsys.readouterr().err.startswith("digest mismatch: ")


class TestUsage:
    def test_no_command_exit_2(self):
        assert run() == 2

    def test_unknown_command_exit_2(self):
        assert run("frobnicate") == 2
