import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frame_partition import (
    ArgumentError,
    UnitVectorSequence,
    eta,
    feichtinger_partition,
    gram,
    sigma,
    uniform_partition,
)
from frame_partition.generators import GeneratorSpec, generate
from frame_partition import analysis as analysis_module
from frame_partition import partition as partition_module
from frame_partition.linalg import weight_matrix
from frame_partition.partition import (
    BREAKPOINT_TOL,
    LEVEL_SAFETY,
    Partition,
    _local_search,
    halving_partition,
    halving_plan,
    mills_bipartition,
    required_levels,
)

from conftest import random_symmetric_weight
from golden_partitions import GOLDEN_PATH, corpus_digests, weight_results
from oracle import TooLargeForOracle, brute_force_bipartition, reference_halving


def reference_local_search(sub):
    """The quadratic search: rescan from index 0 with one fsum per index per move."""
    k = sub.shape[0]
    row = np.array([math.fsum(sub[:, j]) for j in range(k)])
    in_first = np.ones(k, dtype=bool)
    moves = 0
    while True:
        moved = False
        for j in range(k):
            same_part = in_first == in_first[j]
            within = math.fsum(sub[same_part, j])
            if within > 0.5 * row[j]:
                in_first[j] = not in_first[j]
                moves += 1
                moved = True
                break
        if not moved:
            return in_first, moves


TIE_VALUES = [0.0, 0.1, 0.2, 0.3, 1.0, 2.0]


@st.composite
def tie_heavy_weights(draw):
    """Symmetric zero-diagonal weights from a small value set, k <= 40."""
    k = draw(st.integers(1, 40))
    values = draw(arrays(np.float64, (k, k), elements=st.sampled_from(TIE_VALUES)))
    upper = np.triu(values, 1)
    return upper + upper.T


def within_part_sums(a, part):
    part = list(part)
    return {j: sum(a[i, j] for i in part) for j in part}


def assert_half_row_guarantee(a, indices, parts, factor=0.5, tol=1e-9):
    row = {j: sum(a[i, j] for i in indices) for j in indices}
    for part in parts:
        for j, s in within_part_sums(a, part).items():
            assert s <= factor * row[j] + tol


class TestMillsBipartition:
    def test_duplicate_pair_splits(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert mills_bipartition(a) == ((0,), (1,))

    def test_zero_matrix_trivial_partition(self):
        a = np.zeros((3, 3))
        assert mills_bipartition(a) == ((0, 1, 2), ())

    def test_random_half_row_guarantee(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(20):
            a = random_symmetric_weight(rng, 8)
            j1, j2 = mills_bipartition(a)
            assert sorted(j1 + j2) == list(range(8))
            assert_half_row_guarantee(a, range(8), (j1, j2))

    def test_sub_index_set(self):
        rng = np.random.Generator(np.random.PCG64(2))
        a = random_symmetric_weight(rng, 10)
        indices = [1, 3, 4, 7, 9]
        j1, j2 = mills_bipartition(a, indices)
        assert sorted(j1 + j2) == indices
        assert_half_row_guarantee(a, indices, (j1, j2))

    def test_accepts_weight_matrix_type(self):
        seq = generate(GeneratorSpec("random_unit", dim=3, count=6, seed=5))
        w = weight_matrix(gram(seq), 1)
        j1, j2 = mills_bipartition(w)
        assert sorted(j1 + j2) == list(range(6))

    def test_rejects_asymmetric(self):
        with pytest.raises(ArgumentError, match="weight matrix is not symmetric"):
            mills_bipartition(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ArgumentError, match="weight matrix has negative entries"):
            mills_bipartition(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_move_count_bounded(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(10):
            n = int(rng.integers(4, 24))
            a = random_symmetric_weight(rng, n)
            _, moves = _local_search(a)
            assert moves <= n * n

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tie_heavy_weights())
    def test_matches_reference_search(self, a):
        in_first, moves = _local_search(a)
        want_first, want_moves = reference_local_search(a)
        assert np.array_equal(in_first, want_first)
        assert moves == want_moves

    def test_exact_tie_decided_by_fsum(self, monkeypatch):
        # index 0 is far above half its row and moves without an fsum; then
        # indices 1 and 2 sit exactly on half, so the exact test keeps them
        calls = []
        fsum = math.fsum

        def counting_fsum(values):
            calls.append(len(values))
            return fsum(values)

        clique = np.ones((3, 3)) - np.eye(3)
        monkeypatch.setattr(math, "fsum", counting_fsum)
        in_first, moves = _local_search(clique)
        monkeypatch.undo()
        assert [np.flatnonzero(in_first).tolist(), np.flatnonzero(~in_first).tolist()] == [
            [1, 2],
            [0],
        ]
        assert moves == 1
        assert calls == [2, 3, 2, 3]  # within-part and row fsums of indices 1 and 2

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_search_past_refresh(self, seed):
        # k well above the Hypothesis sizes, where the k-move refresh and the
        # drift of the running sums come into play
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        k = int(rng.integers(96, 161))
        if seed % 2:
            upper = np.triu(rng.choice(TIE_VALUES, size=(k, k)), 1)
            a = upper + upper.T
        else:
            a = random_symmetric_weight(rng, k)
        in_first, moves = _local_search(a)
        want_first, want_moves = reference_local_search(a)
        assert np.array_equal(in_first, want_first)
        assert moves == want_moves


class TestHalvingPartition:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_heavy_weights(), st.sampled_from([*range(9), 64]))
    @example(np.zeros((1, 1)), 3)
    @example(np.zeros((5, 5)), 2)
    @example(np.zeros((5, 5)), 64)
    def test_matches_per_block_loop(self, a, m):
        # blocks that cannot split leave the search; the blocks stay the same
        part = halving_partition(a, m)
        assert list(part.blocks) == reference_halving(a, m)
        assert part.levels == m

    @pytest.mark.parametrize("m", [None, 20, 1000])
    def test_search_calls_bounded(self, monkeypatch, m):
        # each search splits a block or finalizes one, so there are at most
        # 2n - 1 of them, however many levels are asked for (None: the level
        # count the Feichtinger partitioner picks)
        seq = generate(GeneratorSpec("random_unit", dim=16, count=64, seed=4))
        w = weight_matrix(gram(seq), 1)
        if m is None:
            m = feichtinger_partition(seq).partition.levels
        calls = []
        search = partition_module._local_search

        def counting_search(sub):
            calls.append(sub.shape[0])
            return search(sub)

        monkeypatch.setattr(partition_module, "_local_search", counting_search)
        part = halving_partition(w, m)
        monkeypatch.undo()
        assert 0 < len(calls) <= 2 * seq.n - 1
        assert 1 not in calls  # a block of one index is never searched
        want = reference_halving(w, m)
        assert list(part.blocks) == want
        if m > 900:
            assert len(want) == seq.n

    def test_zero_levels_identity(self):
        a = np.zeros((4, 4))
        part = halving_partition(a, 0)
        assert part.blocks == ((0, 1, 2, 3),)
        assert part.levels == 0

    def test_duplicate_pair_one_level(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        part = halving_partition(a, 1)
        assert part.blocks == ((0,), (1,))

    def test_random_quarter_row_guarantee(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(10):
            a = random_symmetric_weight(rng, 12)
            part = halving_partition(a, 2)
            assert len(part.blocks) <= 4
            assert_half_row_guarantee(a, range(12), part.blocks, factor=0.25)

    def test_negative_levels(self):
        with pytest.raises(ArgumentError):
            halving_partition(np.zeros((2, 2)), -1)

    def test_partition_covers_and_disjoint(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a = random_symmetric_weight(rng, 15)
        for m in range(4):
            part = halving_partition(a, m)
            flat = sorted(i for block in part.blocks for i in block)
            assert flat == list(range(15))

    def test_singleton_input(self):
        part = halving_partition(np.zeros((1, 1)), 3)
        assert part.blocks == ((0,),)
        assert part.levels == 3

    @pytest.mark.parametrize("blocks", [((0, 1, 0),), ((0, 1), (1,)), ((0,), (0, 1))])
    def test_partition_rejects_a_repeated_index(self, blocks):
        with pytest.raises(ArgumentError, match="overlap or repeat an index"):
            Partition(n=2, blocks=blocks, levels=1)


class TestRequiredLevels:
    def test_b_equal_one(self):
        assert required_levels(1.0) == 0

    def test_b_equal_two_strict(self):
        assert required_levels(2.0) == 1

    def test_b_equal_five(self):
        assert required_levels(5.0) == 3

    def test_fractional(self):
        assert required_levels(1.5) == 0
        assert required_levels(3.0) == 2

    def test_below_one(self):
        # (B - 1) / 2^0 < 1 already; accepted norms 1 - 9e-10 give B = 1 - 1.8e-9
        assert required_levels(0.5) == 0
        assert required_levels(1.0 - 1.8e-9) == 0
        assert required_levels(-3.0) == 0


def reference_on_breakpoint(b):
    """B within BREAKPOINT_TOL of 1 + 2^k for some k, by scanning every k with 2^k <= B."""
    return any(abs(b - (1.0 + 2.0**k)) <= BREAKPOINT_TOL for k in range(1024) if 2.0**k <= b)


class TestHalvingPlan:
    def test_matches_full_breakpoint_scan(self):
        values = [0.5, 1.0 - 1.8e-9, 1.0, 1.0 + 1e-12, 1.5, 1e308, 2.0**53 + 2.0]
        for k in [*range(0, 1024, 7), 52, 53, 54, 1023]:
            c = 1.0 + 2.0**k
            values += [c, c - 5e-13, c + 5e-13, c - 2e-12, c + 2e-12]
            values += [math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
        for b in values:
            assert halving_plan(b) == (required_levels(b + LEVEL_SAFETY), reference_on_breakpoint(b))

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_invalid_bessel_constant(self, b):
        with pytest.raises(ArgumentError, match="Bessel constant must be finite"):
            halving_plan(b)


class TestBruteForceOracle:
    def test_duplicate_pair(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        j1, j2, value = brute_force_bipartition(a)
        assert {j1, j2} == {(0,), (1,)}
        assert value == 0.0

    def test_zero_matrix(self):
        _, _, value = brute_force_bipartition(np.zeros((4, 4)))
        assert value == 0.0

    def test_size_cap(self):
        with pytest.raises(TooLargeForOracle):
            brute_force_bipartition(np.zeros((21, 21)))

    def test_local_search_never_beats_oracle(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(15):
            n = int(rng.integers(3, 9))
            a = random_symmetric_weight(rng, n)
            _, _, optimum = brute_force_bipartition(a)
            j1, j2 = mills_bipartition(a)
            achieved = max(
                [0.0]
                + list(within_part_sums(a, j1).values())
                + list(within_part_sums(a, j2).values())
            )
            assert optimum <= achieved + 1e-12
            # both sides meet the half-row-sum bound the lemma promises
            row_max = a.sum(axis=0).max()
            assert optimum <= 0.5 * row_max + 1e-9
            assert achieved <= 0.5 * row_max + 1e-9


class TestFeichtingerPartition:
    def test_orthonormal_single_block(self):
        cert = feichtinger_partition(UnitVectorSequence(np.eye(4)))
        assert cert.global_bessel == 1.0
        assert cert.partition.levels == 0
        assert cert.partition.blocks == ((0, 1, 2, 3),)
        assert cert.per_block[0].sigma == 0.0
        assert cert.all_certified

    def test_three_duplicates_forced_apart(self):
        seq = generate(GeneratorSpec("duplicates", dim=2, multiplicity=3))
        cert = feichtinger_partition(seq)
        assert cert.global_bessel == 3.0
        assert cert.partition.levels == 2
        assert all(len(b) == 1 for b in cert.partition.blocks)
        assert all(bc.sigma == 0.0 for bc in cert.per_block)
        # exhaustive: any block holding two copies would have sigma >= 1 > target
        g = gram(seq)
        for i in range(3):
            for j in range(i + 1, 3):
                assert sigma(g, [i, j]) >= 1.0 > cert.target

    def test_harmonic_pipeline(self):
        seq = generate(GeneratorSpec("harmonic", dim=4, count=8))
        cert = feichtinger_partition(seq)
        assert cert.all_certified
        for bc in cert.per_block:
            assert bc.sigma < 1.0
            assert bc.lambda_min >= 1.0 - bc.sigma - 1e-8

    def test_duplicates_never_share_certified_block(self):
        seq = generate(GeneratorSpec("duplicates", dim=3, multiplicity=5))
        cert = feichtinger_partition(seq)
        assert cert.all_certified
        assert all(len(b) == 1 for b in cert.partition.blocks)

    def test_block_sums_meet_target(self):
        seq = generate(GeneratorSpec("random_unit", dim=6, count=24, seed=8, field="complex"))
        cert = feichtinger_partition(seq)
        g = gram(seq)
        for bc in cert.per_block:
            assert sigma(g, bc.indices) <= cert.target + 1e-9

    def test_single_vector(self):
        cert = feichtinger_partition(UnitVectorSequence(np.array([[1.0, 0.0]])))
        assert cert.partition.blocks == ((0,),)
        assert cert.all_certified
        assert cert.per_block[0].sigma == 0.0

    def test_no_certified_block_exceeds_dimension(self, corpus):
        # k > d vectors have rank < k, so lambda_min is 0 and such a block is no Riesz sequence;
        # the pair has sigma = 1 - 1.8e-9 < 1 and m = 0, so only lambda_min refuses it
        pair = UnitVectorSequence(np.array([[0.9999999991], [-0.9999999991]]), field="real")
        wrong = [
            (spec, bc.indices)
            for spec, seq in [*corpus, ("near-antipodal pair, d = 1", pair)]
            for bc in feichtinger_partition(seq).per_block
            if bc.certified and len(bc.indices) > seq.dim
        ]
        assert wrong == []


class TestUniformPartition:
    def test_orthonormal_single_block(self):
        cert = uniform_partition(UnitVectorSequence(np.eye(3)))
        assert cert.partition.blocks == ((0, 1, 2),)
        assert cert.per_block[0].eta == 0.0
        assert cert.all_certified

    def test_duplicate_pair(self):
        seq = generate(GeneratorSpec("duplicates", dim=2, multiplicity=2))
        cert = uniform_partition(seq)
        assert cert.global_bessel == pytest.approx(2.0, abs=1e-12)
        assert cert.partition.levels == 1
        assert cert.partition.blocks == ((0,), (1,))
        assert all(bc.eta == 0.0 for bc in cert.per_block)

    def test_random_blocks_uniformly_separated(self):
        seq = generate(GeneratorSpec("random_unit", dim=8, count=32, seed=10, field="complex"))
        cert = uniform_partition(seq)
        assert cert.all_certified
        g = gram(seq)
        for bc in cert.per_block:
            direct = eta(g, bc.indices)
            assert direct < 1.0
            assert direct <= cert.target + 1e-9

    def test_uses_spectral_bound(self):
        seq = generate(GeneratorSpec("random_unit", dim=4, count=16, seed=11))
        cert = uniform_partition(seq)
        assert cert.global_bessel == cert.spectral_bound
        assert cert.schur_bound >= cert.spectral_bound - 1e-9


class TestGoldenPartitions:
    """The fixture was written by tests/golden_partitions.py; output must not drift."""

    golden = json.loads(GOLDEN_PATH.read_text())

    def test_corpus_partitions_unchanged(self, corpus):
        digests = corpus_digests(seq for _, seq in corpus)
        mismatched = [
            (corpus[i // 2][0], ("feichtinger", "uniform")[i % 2])
            for i, (got, want) in enumerate(zip(digests, self.golden["corpus"]))
            if got != want
        ]
        assert len(digests) == len(self.golden["corpus"])
        assert mismatched == []

    def test_weight_matrix_searches_unchanged(self):
        results = weight_results()
        mismatched = [
            i for i, (got, want) in enumerate(zip(results, self.golden["weights"])) if got != want
        ]
        assert len(results) == len(self.golden["weights"])
        assert mismatched == []


def full_gram_spectra(g, idx, subs):
    """Stand-in for ``analysis._spectra``: ``eigvalsh`` of each k x k block Gram, also for k > d."""
    eigs = np.linalg.eigvalsh(subs)
    return eigs[:, 0].tolist(), eigs[:, -1].tolist()


class TestFullGramDifferential:
    """Every corpus report matches the one built from the full n x n Gram spectrum."""

    def test_corpus_reports_match(self, corpus, monkeypatch):
        partitioners = (feichtinger_partition, uniform_partition)
        certs = [[p(seq) for p in partitioners] for _, seq in corpus]
        monkeypatch.setattr(analysis_module, "_spectra", full_gram_spectra)
        mismatched = []
        for (spec, seq), got in zip(corpus, certs):
            full_b = float(np.linalg.eigvalsh(gram(seq).entries)[-1])
            for p, cert in zip(partitioners, got):
                ref = p(seq)
                close = all(
                    abs(a - b) <= 1e-14 * abs(b)
                    for a, b in (
                        (cert.spectral_bound, full_b),
                        (cert.global_bessel, ref.global_bessel),
                        (cert.target, ref.target),
                    )
                )
                same = (
                    halving_plan(cert.global_bessel) == halving_plan(ref.global_bessel)
                    and cert.partition == ref.partition
                    and [bc.certified for bc in cert.per_block]
                    == [bc.certified for bc in ref.per_block]
                    and [bc.borderline for bc in cert.per_block]
                    == [bc.borderline for bc in ref.per_block]
                    and (cert.all_certified, cert.borderline) == (ref.all_certified, ref.borderline)
                )
                if not (close and same):
                    mismatched.append((spec, p.__name__))
        assert mismatched == []
