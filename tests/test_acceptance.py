"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS" line on success (visible with
pytest -s); a failed assertion marks the criterion red.
"""

import json
import time

import numpy as np
import pytest

from frame_partition import (
    GeneratorSpec,
    build_report,
    eta,
    feichtinger_partition,
    generate,
    gram,
    recertify,
    riesz_certificate,
    schur_bessel_bound,
    sigma,
    spectral_bessel_bound,
    uniform_partition,
)
from frame_partition.partition import (
    halving_partition,
    mills_bipartition,
    required_levels,
)
from frame_partition.cli import main as cli_main

from conftest import random_symmetric_weight
from oracle import brute_force_bipartition


def elapsed_under(start, budget):
    return time.perf_counter() - start < budget


def test_criterion_1_spectral_envelope():
    # 200 seeded random sequences, real and complex: every eigenvalue of
    # every inspected block Gram lies within sigma of 1.
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1001))
    for k in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 33))
        field = "real" if k % 2 == 0 else "complex"
        seq = generate(GeneratorSpec("random_unit", dim=d, count=n, seed=1000 + k, field=field))
        g = gram(seq)
        blocks = [list(range(n))]
        for _ in range(2):
            size = int(rng.integers(1, n + 1))
            blocks.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
        for block in blocks:
            s = sigma(g, block)
            for lam in np.linalg.eigvalsh(g.entries[np.ix_(block, block)]):
                assert abs(lam - 1.0) <= s + 1e-8
    assert elapsed_under(start, 30.0)
    print("criterion 1: PASS (Gershgorin-style sigma envelope, 200 instances)")


def test_criterion_2_schur_dominance(corpus):
    start = time.perf_counter()
    assert len(corpus) >= 500
    for _, seq in corpus:
        g = gram(seq)
        assert spectral_bessel_bound(g) <= schur_bessel_bound(g) + 1e-9
    assert elapsed_under(start, 30.0)
    print(f"criterion 2: PASS (spectral <= Schur bound on {len(corpus)} instances)")


def test_criterion_3_mills_guarantee():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(3003))
    for _ in range(100):
        n = int(rng.integers(2, 33))
        a = random_symmetric_weight(rng, n)
        row = a.sum(axis=0)
        j1, j2 = mills_bipartition(a)
        for part in (j1, j2):
            for j in part:
                assert a[np.ix_(list(part), [j])].sum() <= 0.5 * row[j] + 1e-9
        part3 = halving_partition(a, 3)
        for block in part3.blocks:
            for j in block:
                assert a[np.ix_(list(block), [j])].sum() <= row[j] / 8.0 + 1e-9
    assert elapsed_under(start, 10.0)
    print("criterion 3: PASS (half and 1/8 row-sum guarantees, 100 matrices)")


def test_criterion_4_oracle_consistency():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(4004))
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = random_symmetric_weight(rng, n)
        _, _, optimum = brute_force_bipartition(a)
        j1, j2 = mills_bipartition(a)
        achieved = 0.0
        for part in (j1, j2):
            for j in part:
                achieved = max(achieved, a[np.ix_(list(part), [j])].sum())
        assert optimum <= achieved + 1e-12
        # the lemma bound the oracle confirms achievable holds for both
        half_bound = 0.5 * a.sum(axis=0).max() + 1e-9
        assert optimum <= half_bound
        assert achieved <= half_bound
    assert elapsed_under(start, 60.0)
    print("criterion 4: PASS (local search never beats the exhaustive oracle, 50 instances)")


def test_criterion_5_feichtinger_end_to_end(corpus, tmp_path):
    start = time.perf_counter()
    from frame_partition import write_vectors

    for pos, (_, seq) in enumerate(corpus):
        cert = feichtinger_partition(seq)
        assert cert.all_certified
        assert len(cert.partition.blocks) <= 2 ** required_levels(cert.schur_bound)
        for bc in cert.per_block:
            assert bc.sigma < 1.0
            assert bc.lambda_min >= 1.0 - bc.sigma - 1e-8
        vec = tmp_path / "v.json"
        rep = tmp_path / "r.json"
        write_vectors(vec, seq)
        assert cli_main(["partition", str(vec), "-o", str(rep)]) == 0
    assert elapsed_under(start, 60.0)
    print(f"criterion 5: PASS (certified Riesz partitions + CLI exit 0, {len(corpus)} instances)")


def test_criterion_6_uniform_end_to_end(corpus):
    start = time.perf_counter()
    for _, seq in corpus:
        cert = uniform_partition(seq)
        assert cert.all_certified
        assert cert.target < 1.0
        g = gram(seq)
        for bc in cert.per_block:
            direct = eta(g, bc.indices)
            assert direct <= cert.target + 1e-9
            assert direct < 1.0
    assert elapsed_under(start, 30.0)
    print(f"criterion 6: PASS (uniformly separated partitions, {len(corpus)} instances)")


def test_criterion_7_exact_small_cases():
    start = time.perf_counter()
    # orthonormal: one block, all functionals zero, bounds (1, 1)
    seq = generate(GeneratorSpec("orthonormal", dim=4, count=4))
    cert = feichtinger_partition(seq)
    assert cert.partition.blocks == ((0, 1, 2, 3),)
    bc = cert.per_block[0]
    assert bc.sigma == 0.0 and bc.eta == 0.0 and bc.gamma == 0.0
    assert abs(bc.lambda_min - 1.0) <= 1e-12
    assert abs(bc.lambda_max - 1.0) <= 1e-12

    # duplicate pair: gamma 1, spectrum (0, 2), forced split
    pair = generate(GeneratorSpec("duplicates", dim=2, multiplicity=2))
    g = gram(pair)
    full = riesz_certificate(g)
    assert full.sigma == 1.0 and not full.certified
    assert abs(full.lambda_min - 0.0) <= 1e-12
    assert abs(full.lambda_max - 2.0) <= 1e-12
    split = feichtinger_partition(pair)
    assert split.partition.blocks == ((0,), (1,))

    # 60-degree pair: sigma exactly cos(pi/3) and the spectrum matches 1 +- sigma
    theta = np.pi / 3
    angled = generate(GeneratorSpec("angle_pair", dim=2, angle=theta))
    ga = gram(angled)
    s = sigma(ga)
    assert abs(s - 0.5) <= 1e-12
    ca = riesz_certificate(ga)
    assert abs(ca.lambda_min - (1.0 - s)) <= 1e-12
    assert abs(ca.lambda_max - (1.0 + s)) <= 1e-12
    assert elapsed_under(start, 1.0)
    print("criterion 7: PASS (exact small cases)")


def test_criterion_8_determinism_and_round_trip(corpus, tmp_path):
    start = time.perf_counter()
    from frame_partition import write_vectors

    # library-level round trip on the full corpus
    for _, seq in corpus:
        cert = feichtinger_partition(seq)
        report = build_report(cert, seq)
        results, claims = recertify(seq, report)
        assert all(entry["passed"] for entry in results) and claims == []

    # identical inputs, two runs: identical certificates
    def stripped(path):
        doc = json.loads(path.read_text())
        doc.pop("timings")
        return doc

    subset = [seq for _, seq in corpus[:10]] + [seq for _, seq in corpus[-10:]]
    for pos, seq in enumerate(subset):
        vec = tmp_path / f"v{pos}.json"
        write_vectors(vec, seq)
        reports = []
        for run in (1, 2):
            rep = tmp_path / f"r{pos}_{run}.json"
            assert cli_main(["partition", str(vec), "-o", str(rep)]) == 0
            assert cli_main(["certify", str(vec), str(rep)]) == 0
            reports.append(stripped(rep))
        assert reports[0] == reports[1]
    assert elapsed_under(start, 30.0)
    print("criterion 8: PASS (deterministic certificates and round-trip certify)")
