import warnings

import numpy as np
import pytest

from frame_partition import ArgumentError, NormViolation, UnitVectorSequence, gram
from frame_partition.analysis import schur_bessel_bound
from frame_partition.generators import GeneratorSpec, generate
from frame_partition.linalg import GramMatrix, WeightMatrix, weight_matrix

from oracle import reference_gram, reference_schur_bound, reference_weights


# count x dim: a complex and a real wide-workload size, and count 12, where a
# float64 v @ v.T differs from the complex product, so a real-mode shortcut would show
BIT_SHAPES = [(288, 160, "complex"), (192, 96, "real")] + [
    (12, dim, field) for dim in (5, 100) for field in ("real", "complex")
]


def bit_check_sequences(corpus):
    """The corpus grid plus the sequences of ``BIT_SHAPES``."""
    yield from (seq for _, seq in corpus)
    for count, dim, field in BIT_SHAPES:
        yield generate(GeneratorSpec("random_unit", dim=dim, count=count, seed=7, field=field))


def same_bits(a, b):
    """Equal as raw float64 bits, so signed zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def seq_from(rows, field=None):
    """A sequence of ``rows``, in real mode when no row has an imaginary part."""
    v = np.array(rows, dtype=np.complex128)
    return UnitVectorSequence(v, field=field or ("real" if np.all(v.imag == 0.0) else "complex"))


class TestUnitVectorSequence:
    def test_accepts_orthonormal_basis(self):
        seq = seq_from(np.eye(3))
        assert seq.n == 3 and seq.dim == 3 and seq.field == "real"

    def test_rejects_non_unit_vector(self):
        with pytest.raises(NormViolation) as err:
            seq_from([[1.0, 0.0], [0.5, 0.0]])
        assert err.value.index == 1
        assert err.value.indices == (1,)

    def test_lists_all_offending_indices(self):
        with pytest.raises(NormViolation) as err:
            seq_from([[2.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        assert err.value.indices == (0, 2)

    def test_real_mode_rejects_imaginary_parts(self):
        with pytest.raises(ArgumentError):
            UnitVectorSequence(np.array([[1j]]), field="real")

    def test_rejects_nan(self):
        with pytest.raises(ArgumentError):
            seq_from([[np.nan, 0.0]])

    @pytest.mark.parametrize("row", [[np.inf, 0.0], [np.nan, 1.0], [complex(0.0, -np.inf), 1.0]])
    @pytest.mark.parametrize("real", [False, True])
    def test_rejects_non_finite_without_warning(self, row, real):
        # in real mode too, before the imaginary parts and the norms are looked at
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="^vectors contain NaN or Inf entries$"):
                seq_from([row, [1.0, 0.0]], field="real" if real else "complex")

    def test_field_inferred(self):
        # the constructor defaults to complex; real mode is asked for, here by seq_from
        assert UnitVectorSequence(np.eye(2)).field == "complex"
        assert seq_from([[1.0, 0.0]]).field == "real"
        assert seq_from([[1j, 0.0]]).field == "complex"

    def test_vectors_immutable(self):
        seq = seq_from(np.eye(2))
        with pytest.raises(ValueError):
            seq.vectors[0, 0] = 2.0


class TestGram:
    def test_orthonormal_basis_gives_identity(self):
        g = gram(seq_from(np.eye(3)))
        np.testing.assert_array_equal(g.entries, np.eye(3))

    def test_duplicate_vector(self):
        g = gram(seq_from([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(g.entries.real, [[1, 1], [1, 1]])

    def test_sixty_degree_pair(self):
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        g = gram(seq_from([[1.0, 0.0], [c, s]]))
        np.testing.assert_allclose(g.entries.real, [[1, 0.5], [0.5, 1]], atol=1e-15)

    def test_hermitian_exactly(self, corpus):
        # gram() does not re-check what it builds: the invariants hold by construction
        assert {seq.field for _, seq in corpus} == {"real", "complex"}
        for _, seq in corpus:
            g = gram(seq)
            assert g.entries.dtype == np.complex128 and not g.entries.flags.writeable
            assert np.array_equal(g.entries, g.entries.conj().T)
            assert np.all(np.isfinite(g.entries))

    def test_positive_semidefinite(self):
        for seed in range(5):
            seq = generate(
                GeneratorSpec("random_unit", dim=4, count=10, seed=seed, field="complex")
            )
            eigs = np.linalg.eigvalsh(gram(seq).entries)
            assert eigs[0] >= -1e-10

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_factor(self, field):
        seq = generate(GeneratorSpec("random_unit", dim=4, count=7, seed=2, field=field))
        g = gram(seq)
        assert g.factor.dtype == (np.float64 if field == "real" else np.complex128)
        assert np.array_equal(g.factor, seq.vectors)

    def test_matches_three_temporary_formula(self, corpus):
        for seq in bit_check_sequences(corpus):
            assert same_bits(gram(seq).entries, reference_gram(seq.vectors)), seq.vectors.shape

    def test_built_from_a_sequence_only(self):
        assert gram is GramMatrix
        msg = "^GramMatrix takes a UnitVectorSequence, got ndarray$"
        with pytest.raises(ArgumentError, match=msg):  # an array of entries is not a Gram matrix
            GramMatrix(np.eye(2))


class TestWeightMatrix:
    def test_identity_gram_gives_zero_matrix(self):
        w = weight_matrix(gram(seq_from(np.eye(3))), power=1)
        np.testing.assert_array_equal(w.entries, np.zeros((3, 3)))

    def test_squared_entries(self):
        g = gram(seq_from([[1.0, 0.0], [0.5, np.sqrt(0.75)]]))
        w = weight_matrix(g, power=2)
        np.testing.assert_array_equal(w.entries, [[0, 0.25], [0.25, 0]])

    def test_matches_elementwise_oracle(self):
        seq = generate(GeneratorSpec("random_unit", dim=3, count=5, seed=11, field="complex"))
        g = gram(seq)
        for power in (1, 2):
            w = weight_matrix(g, power)
            for i in range(5):
                for j in range(5):
                    expected = 0.0 if i == j else abs(g.entries[i, j]) ** power
                    # scalar and vectorized complex abs may differ in the last ulp
                    assert abs(w.entries[i, j] - expected) <= 1e-15

    def test_symmetric_zero_diagonal_exactly(self, corpus):
        # weight_matrix() does not re-check what it builds from gram()
        assert {seq.field for _, seq in corpus} == {"real", "complex"}
        for _, seq in corpus:
            g = gram(seq)
            for power in (1, 2):
                w = weight_matrix(g, power)
                assert w.entries.dtype == np.float64 and not w.entries.flags.writeable
                assert np.array_equal(w.entries, w.entries.T)
                assert np.all(np.isfinite(w.entries)) and np.all(w.entries >= 0.0)
                assert np.all(np.diagonal(w.entries) == 0.0)
                checked = WeightMatrix(w.entries)
                assert checked.entries.tobytes() == w.entries.tobytes()

    def test_shared_magnitudes_match_abs_formulas(self, corpus):
        # schur_bessel_bound and weight_matrix share one cached |G|
        for seq in bit_check_sequences(corpus):
            g = gram(seq)
            for power in (1, 2):
                want = reference_weights(g.entries, power)
                assert same_bits(weight_matrix(g, power).entries, want), (seq.vectors.shape, power)
            assert schur_bessel_bound(g) == reference_schur_bound(g.entries)
            assert g.magnitudes is g.magnitudes and not g.magnitudes.flags.writeable
            assert same_bits(g.magnitudes, np.abs(g.entries))

    def test_bad_power(self):
        with pytest.raises(ArgumentError):
            weight_matrix(gram(seq_from(np.eye(2))), power=3)

    def test_constructor_rejects_asymmetric(self):
        with pytest.raises(ArgumentError, match="weight matrix is not symmetric"):
            WeightMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_constructor_rejects_negative(self):
        with pytest.raises(ArgumentError, match="weight matrix has negative entries"):
            WeightMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_constructor_rejects_nonzero_diagonal(self):
        with pytest.raises(ArgumentError, match="weight matrix diagonal must be zero"):
            WeightMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestOperators:
    """Synthesis T c = sum_k c_k f_k and analysis T* x = (<x, f_i>)_i, through
    the factor V that ``gram`` stores: T c = c V and T* x = conj(V) x."""

    def test_gram_identity(self):
        # ||T c||^2 == c^H G c
        rng = np.random.Generator(np.random.PCG64(5))
        g = gram(generate(GeneratorSpec("random_unit", dim=6, count=10, seed=5, field="complex")))
        for _ in range(20):
            c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            lhs = np.linalg.norm(c @ g.factor) ** 2
            rhs = (c.conj() @ g.entries.T @ c).real
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_adjointness(self):
        # <T c, x> == sum_i c_i * conj(<x, f_i>), so V* V and G share their nonzero spectrum
        rng = np.random.Generator(np.random.PCG64(8))
        for field in ("real", "complex"):
            g = gram(generate(GeneratorSpec("random_unit", dim=5, count=9, seed=9, field=field)))
            v = g.factor
            for _ in range(20):
                c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
                x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                lhs = np.vdot(x, c @ v)
                rhs = np.sum(c * (v.conj() @ x).conj())
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            frame_op = np.linalg.eigvalsh(v.conj().T @ v)
            nonzero = np.linalg.eigvalsh(g.entries)[-5:]
            np.testing.assert_allclose(frame_op, nonzero, rtol=1e-12, atol=1e-12)


class TestHermitianEigenvalues:
    """The LAPACK Hermitian eigensolver that ``analysis._spectra`` relies on."""

    def test_matches_characteristic_polynomial_oracle(self):
        seq = generate(GeneratorSpec("random_unit", dim=6, count=8, seed=21, field="complex"))
        g = gram(seq).entries
        eigs = np.linalg.eigvalsh(g)
        oracle = np.sort(np.roots(np.poly(g)).real)
        np.testing.assert_allclose(eigs, oracle, atol=1e-8)

    def test_residuals(self):
        seq = generate(GeneratorSpec("random_unit", dim=4, count=8, seed=13, field="complex"))
        g = gram(seq).entries
        eigs, vecs = np.linalg.eigh(g)
        scale = np.linalg.norm(g, 2)
        for k in range(8):
            assert np.linalg.norm(g @ vecs[:, k] - eigs[k] * vecs[:, k]) <= 1e-8 * scale
