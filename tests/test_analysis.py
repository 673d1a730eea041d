from dataclasses import fields

import numpy as np
import pytest

from frame_partition import (
    CERTIFICATE_SCHEMA,
    ArgumentError,
    UnitVectorSequence,
    eta,
    gram,
    riesz_certificate,
    schur_bessel_bound,
    separation_constant,
    sigma,
    spectral_bessel_bound,
)
from frame_partition.analysis import (
    BlockCertificate,
    block_verdict,
    certify_blocks,
)
from frame_partition.generators import GeneratorSpec, generate


def pair_gram(offdiag):
    """Gram of e_1 and a unit vector at inner product ``offdiag`` with it."""
    rows = [[1.0, 0.0], [offdiag, np.sqrt(1.0 - offdiag**2)]]
    return gram(UnitVectorSequence(np.array(rows), field="real"))


def identity_gram(n):
    return gram(UnitVectorSequence(np.eye(n), field="real"))


def random_gram(seed, dim=6, count=10, field="complex"):
    return gram(generate(GeneratorSpec("random_unit", dim=dim, count=count, seed=seed, field=field)))


def reference_row_functionals(g, idx):
    """(sigma, eta, gamma) of the block by separate passes, independent of the library kernel."""
    mag = np.abs(g.entries[np.ix_(idx, idx)])
    np.fill_diagonal(mag, 0.0)
    sq = np.abs(g.entries[np.ix_(idx, idx)]) ** 2
    np.fill_diagonal(sq, 0.0)
    gamma = 0.0 if len(idx) == 1 else float(mag.max())
    return float(mag.sum(axis=0).max()), float(sq.sum(axis=0).max()), gamma


class TestBesselBounds:
    def test_identity_spectral(self):
        assert spectral_bessel_bound(identity_gram(3)) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_pair_spectral(self):
        assert spectral_bessel_bound(pair_gram(1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_identity_schur(self):
        assert schur_bessel_bound(identity_gram(3)) == 1.0

    def test_half_pair_schur(self):
        assert schur_bessel_bound(pair_gram(0.5)) == 1.5

    def test_rayleigh_sampling_oracle(self):
        # every sampled x obeys sum |<x, f_i>|^2 <= (lambda_max + tol) ||x||^2
        seq = generate(GeneratorSpec("random_unit", dim=5, count=10, seed=4, field="complex"))
        bound = spectral_bessel_bound(gram(seq))
        rng = np.random.Generator(np.random.PCG64(40))
        for _ in range(200):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            total = float(np.sum(np.abs(seq.vectors.conj() @ x) ** 2))
            assert total <= (bound + 1e-9) * float(np.linalg.norm(x) ** 2)

    def test_schur_dominates_spectral(self):
        for seed in range(10):
            g = random_gram(seed)
            assert 1.0 - 1e-9 <= spectral_bessel_bound(g) <= schur_bessel_bound(g) + 1e-9


class TestRowFunctionals:
    def test_identity_all_zero(self):
        g = identity_gram(4)
        assert sigma(g) == 0.0
        assert eta(g) == 0.0
        assert separation_constant(g) == 0.0

    def test_half_pair_values(self):
        g = pair_gram(0.5)
        assert sigma(g) == 0.5
        assert eta(g) == 0.25
        assert separation_constant(g) == 0.5

    def test_duplicate_pair_gamma(self):
        assert separation_constant(pair_gram(1.0)) == 1.0

    def test_singleton_block(self):
        g = pair_gram(0.5)
        assert sigma(g, [1]) == 0.0
        assert eta(g, [0]) == 0.0
        assert separation_constant(g, [0]) == 0.0

    def test_empty_block(self):
        g = pair_gram(0.5)
        for fn in (sigma, eta, separation_constant):
            with pytest.raises(ArgumentError, match="index block is empty"):
                fn(g, [])

    def test_out_of_range_block(self):
        with pytest.raises(ArgumentError):
            sigma(pair_gram(0.5), [0, 7])

    def test_chained_inequalities(self):
        # gamma <= sigma, gamma^2 <= eta, eta <= gamma * sigma per-row Cauchy-Schwarz
        rng = np.random.Generator(np.random.PCG64(77))
        for seed in range(10):
            g = random_gram(seed, dim=4, count=12)
            block = sorted(rng.choice(12, size=rng.integers(2, 12), replace=False).tolist())
            s, e, c = sigma(g, block), eta(g, block), separation_constant(g, block)
            assert c <= s
            assert c**2 <= e + 1e-12
            assert e <= c * s + 1e-12

    def test_monotone_in_block(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for seed in range(10):
            g = random_gram(seed, dim=4, count=10)
            big = sorted(rng.choice(10, size=8, replace=False).tolist())
            small = sorted(rng.choice(big, size=4, replace=False).tolist())
            assert sigma(g, small) <= sigma(g, big)
            assert eta(g, small) <= eta(g, big)

    def test_eta_direct_recomputation(self):
        g = random_gram(31, dim=5, count=9)
        block = [0, 2, 3, 7, 8]
        sub = np.abs(g.entries[np.ix_(block, block)]) ** 2
        expected = max(sub[:, j].sum() - sub[j, j] for j in range(len(block)))
        assert eta(g, block) == pytest.approx(expected, abs=1e-14)


class TestBlockStats:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bit_equal_to_separate_functions(self, field):
        rng = np.random.Generator(np.random.PCG64(5))
        for seed in range(20):
            g = random_gram(seed, dim=4, count=12, field=field)
            idx = np.sort(rng.choice(12, size=rng.integers(1, 13), replace=False))
            eigs = np.linalg.eigvalsh(g.entries[np.ix_(idx, idx)])
            (bc,) = certify_blocks(g, [idx], "uniform")
            expected = reference_row_functionals(g, idx)
            assert bc.indices == tuple(idx.tolist())
            assert (bc.sigma, bc.eta, bc.gamma) == expected
            assert (sigma(g, idx), eta(g, idx), separation_constant(g, idx)) == expected
            if idx.size <= 4:
                assert (bc.lambda_min, bc.lambda_max) == (eigs[0], eigs[-1])
            else:  # more vectors than the dimension: the 4 x 4 frame operator
                rows = g.factor[idx]
                frame_max = np.linalg.eigvalsh(rows.conj().T @ rows)[-1]
                assert (bc.lambda_min, bc.lambda_max) == (0.0, frame_max)
                assert abs(bc.lambda_max - eigs[-1]) <= 1e-14 * eigs[-1]
            verdict = block_verdict("uniform", bc.sigma, bc.eta, bc.lambda_min)
            assert (bc.certified, bc.borderline) == verdict

    @pytest.mark.parametrize("spec", [
        GeneratorSpec("harmonic", dim=160, count=288),
        GeneratorSpec("duplicates", dim=2, multiplicity=5),
    ], ids=["harmonic288x160", "duplicates5x2"])
    def test_more_vectors_than_dimension(self, spec):
        seq = generate(spec)
        g = gram(seq)
        rng = np.random.Generator(np.random.PCG64(7))
        blocks = [np.arange(seq.n)] + [
            np.sort(rng.choice(seq.n, size=size, replace=False))
            for size in (seq.dim + 1, (seq.dim + 1 + seq.n) // 2)
        ]
        for idx in blocks:
            (bc,) = certify_blocks(g, [idx], "feichtinger")
            eigs = np.linalg.eigvalsh(g.entries[np.ix_(idx, idx)])
            assert bc.lambda_min == 0.0 and not bc.certified
            assert abs(bc.lambda_max - eigs[-1]) <= 1e-14 * eigs[-1]
        full = float(np.linalg.eigvalsh(g.entries)[-1])
        assert abs(spectral_bessel_bound(g) - full) <= 1e-14 * full

    def test_fields_are_the_report_block_keys(self):
        block_keys = CERTIFICATE_SCHEMA["properties"]["blocks"]["items"]["required"]
        assert [f.name for f in fields(BlockCertificate)] == block_keys

    @pytest.mark.parametrize("s, e, feichtinger, uniform, borderline", [
        (0.5, 0.9, True, True, False),
        (1.0, 0.5, False, True, False),
        (0.5, 1.0, True, False, False),
        (1.0 - 1e-13, 0.5, True, True, True),
        (1.0 - 1e-13, 1.0, True, False, True),
    ])
    def test_verdict(self, s, e, feichtinger, uniform, borderline):
        lo = 1.0 - s  # the Gershgorin lower bound on lambda_min
        assert block_verdict("feichtinger", s, e, lo) == (feichtinger, borderline)
        assert block_verdict("uniform", s, e, lo) == (uniform, borderline)

    @pytest.mark.parametrize("s, lo", [(1.0 - 1e-9, 0.0), (0.5, -1e-17)])
    def test_feichtinger_verdict_needs_positive_lambda_min(self, s, lo):
        # a spectrum that disagrees with sigma < 1 refuses the feichtinger verdict only
        assert block_verdict("feichtinger", s, 0.5, lo) == (False, False)
        assert block_verdict("uniform", s, 0.5, lo) == (True, False)


def reference_certificate(g, idx, mode):
    """One block's certificate by separate per-block passes, independent of the stacked kernel."""
    idx = np.asarray(idx)
    if idx.size > g.factor.shape[1]:
        rows = g.factor[idx]
        lambda_min, lambda_max = 0.0, float(np.linalg.eigvalsh(rows.conj().T @ rows)[-1])
    else:
        eigs = np.linalg.eigvalsh(g.entries[np.ix_(idx, idx)])
        lambda_min, lambda_max = float(eigs[0]), float(eigs[-1])
    s, e, gamma = reference_row_functionals(g, idx)
    verdict = block_verdict(mode, s, e, lambda_min)
    return BlockCertificate(tuple(idx.tolist()), s, e, gamma, lambda_min, lambda_max, *verdict)


def bits(bc):
    """A certificate's fields with every float as its exact hex form (so -0.0 differs from 0.0)."""
    values = (getattr(bc, f.name) for f in fields(bc))
    return tuple(x.hex() if type(x) is float else x for x in values)


class TestCertifyBlocks:
    @pytest.mark.parametrize("mode", ["feichtinger", "uniform"])
    def test_matches_per_block_reference_on_corpus(self, corpus, mode):
        # per instance: a random partition into mixed sizes, in shuffled order,
        # plus the whole index set; k > d blocks arise wherever count > dim
        rng = np.random.Generator(np.random.PCG64(17))
        more_than_dim = 0
        for _, seq in corpus:
            g = gram(seq)
            n = seq.n
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 5), replace=False))
            blocks = [sorted(b.tolist()) for b in np.split(rng.permutation(n), cuts)]
            blocks.append(list(range(n)))
            rng.shuffle(blocks)
            got = certify_blocks(g, blocks, mode)
            assert [bits(bc) for bc in got] == [
                bits(reference_certificate(g, b, mode)) for b in blocks
            ]
            (single,) = certify_blocks(g, blocks[:1], mode)
            assert bits(single) == bits(got[0])
            more_than_dim += sum(len(b) > seq.dim for b in blocks)
        assert more_than_dim > len(corpus)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_sizes_match_per_block(self, field):
        # groups of several equal-size blocks on both sides of k = d, and a block order
        # that interleaves the groups
        g = random_gram(3, dim=8, count=120, field=field)
        perm = np.random.Generator(np.random.PCG64(8)).permutation(120)
        sizes = [1, 1, 2, 2, 2, 8, 8, 9, 9, 16, 16, 1, 2, 9, 34]
        blocks = [sorted(b.tolist()) for b in np.split(perm, np.cumsum(sizes)[:-1])]
        for mode in ("feichtinger", "uniform"):
            got = certify_blocks(g, blocks, mode)
            assert [bits(bc) for bc in got] == [
                bits(reference_certificate(g, b, mode)) for b in blocks
            ]

    def test_whole_set_shares_the_spectral_bound(self):
        g = random_gram(4, dim=6, count=10)
        (bc,) = certify_blocks(g, [range(10)], "uniform")
        assert g.spectrum == (bc.lambda_min, bc.lambda_max)
        assert spectral_bessel_bound(g) == bc.lambda_max
        assert bits(bc) == bits(reference_certificate(g, range(10), "uniform"))

    def test_empty_input(self):
        assert certify_blocks(random_gram(0), [], "uniform") == []


class TestRieszCertificate:
    def test_orthonormal_block(self):
        cert = riesz_certificate(identity_gram(3))
        assert cert.sigma == 0.0
        assert cert.certified and not cert.borderline
        assert cert.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert cert.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_pair_uncertified(self):
        cert = riesz_certificate(pair_gram(1.0))
        assert cert.sigma == 1.0
        assert not cert.certified
        assert cert.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert cert.lambda_max == pytest.approx(2.0, abs=1e-12)

    def test_sixty_degree_equality_case(self):
        cert = riesz_certificate(pair_gram(0.5))
        assert cert.sigma == 0.5 and cert.certified
        assert cert.lambda_min == pytest.approx(0.5, abs=1e-12)
        assert cert.lambda_max == pytest.approx(1.5, abs=1e-12)

    def test_gershgorin_envelope(self):
        # every block eigenvalue lies within sigma of 1
        rng = np.random.Generator(np.random.PCG64(123))
        for seed in range(10):
            n = int(rng.integers(3, 14))
            g = random_gram(seed, dim=4, count=n)
            block = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
            s = sigma(g, block)
            for lam in np.linalg.eigvalsh(g.entries[np.ix_(block, block)]):
                assert abs(lam - 1.0) <= s + 1e-8

    def test_certified_lower_bound(self):
        for seed in range(10):
            g = random_gram(seed, dim=12, count=6)
            cert = riesz_certificate(g)
            if cert.certified:
                assert cert.lambda_min >= 1.0 - cert.sigma - 1e-8
                assert cert.lambda_max <= 1.0 + cert.sigma + 1e-8

