import pathlib
import re

import numpy as np
import pytest

from thermofield import linalg
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import (
    Operator,
    dagger,
    hermitian_eig,
    hermiticity_residual,
    identity,
    kronecker_product,
    require_hermitian,
    svd,
    trace,
)
from thermofield.models import build_random_hermitian, random_complex_matrix


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            Operator(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(ValidationError):
            Operator(np.zeros(4))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            Operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(CapacityError):
            Operator(np.zeros((4097, 4097)))

    def test_accepts_real_input_as_complex(self):
        op = Operator(np.eye(3))
        assert op.matrix.dtype == np.complex128
        assert op.dim == 3

    def test_matrix_is_read_only(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestDaggerIdentityTrace:
    def test_dagger_involution(self):
        m = random_complex_matrix(4, 4, seed=101)
        np.testing.assert_array_equal(dagger(dagger(m)), m)

    def test_dagger_entries(self):
        m = np.array([[1.0 + 2.0j, 3.0], [4.0j, 5.0]])
        d = dagger(m)
        assert d[0, 1] == np.conj(m[1, 0])

    def test_identity_trace_is_dim(self):
        for d in (1, 2, 7):
            assert trace(Operator(np.eye(d))) == pytest.approx(d)
            np.testing.assert_array_equal(identity(d).matrix, np.eye(d))

    def test_trace_half_half(self):
        assert trace(Operator(np.diag([0.5, 0.5]))) == pytest.approx(1.0)

    def test_trace_matches_eigenvalue_sum_seed_3(self):
        h = build_random_hermitian(4, seed=3)
        eig = hermitian_eig(h)
        assert abs(trace(h) - float(np.sum(eig.eigenvalues))) <= 1e-10


class TestHermiticity:
    def test_zero_residual_for_hermitian(self):
        h = build_random_hermitian(5, seed=11)
        assert hermiticity_residual(h.matrix) == 0.0

    def test_residual_detects_asymmetry(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_residual(m) == pytest.approx(np.sqrt(2.0))

    def test_require_hermitian_raises_with_residual(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="residual"):
            require_hermitian(m, "test matrix")

    def test_relative_scaling(self):
        # perturbation tiny relative to a huge matrix: accepted
        h = 1e8 * build_random_hermitian(3, seed=12).matrix
        noise = np.zeros((3, 3), dtype=complex)
        noise[0, 1] = 1e-3
        require_hermitian(h + noise, "scaled")
        # the same absolute perturbation on a unit-scale matrix: rejected
        with pytest.raises(ValidationError):
            require_hermitian(np.eye(3, dtype=complex) + noise, "unit scale")

    def test_rejects_asymmetry_near_float_limit(self):
        # ||M||_F overflows here; the bound must stay finite
        with pytest.raises(ValidationError, match="not Hermitian"):
            require_hermitian(np.array([[1e308, 1e308], [0.0, 0.0]]))
        require_hermitian(np.array([[1e308, 1e308], [1e308, -1e308]]))
        require_hermitian(np.full((2, 2), 5e-324))

    def test_residual_past_float_range_named_not_printed(self):
        # ||M - M^dagger||_F = 2.8e308 is not a float
        with pytest.raises(ValidationError) as info:
            require_hermitian(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        message = str(info.value)
        assert message == "operator is not Hermitian: residual exceeds the float range"
        assert "inf" not in message

    def test_operator_checked_once_with_each_label(self, monkeypatch):
        calls = []
        original = linalg.scaled_hermiticity

        def counting(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(linalg, "scaled_hermiticity", counting)
        op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="^first is not Hermitian: residual 1.414e"):
            require_hermitian(op, "first")
        with pytest.raises(ValidationError, match="^second is not Hermitian: residual 1.414e"):
            require_hermitian(op, "second")
        with pytest.raises(ValidationError, match="^operator is not Hermitian"):
            hermitian_eig(op)
        good = build_random_hermitian(4, seed=5)
        require_hermitian(good, "observable")
        hermitian_eig(good)
        assert len(calls) == 2

    def test_operator_and_matrix_verdicts_agree(self):
        h = 1e8 * build_random_hermitian(3, seed=12).matrix
        noise = np.zeros((3, 3), dtype=complex)
        noise[0, 1] = 1e-3
        require_hermitian(Operator(h + noise), "scaled")
        with pytest.raises(ValidationError, match="unit scale is not Hermitian"):
            require_hermitian(Operator(np.eye(3, dtype=complex) + noise), "unit scale")


def test_factorizations_only_in_linalg():
    # every eigh / eigvalsh / svd of the package runs through linalg
    src = pathlib.Path(linalg.__file__).parent
    kernel = re.compile(r"np\.linalg\.(eigh|eigvalsh|svd)\b")
    offenders = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "linalg.py" and kernel.search(path.read_text())
    ]
    assert offenders == []


class TestKroneckerProduct:
    def test_identity_times_identity(self):
        out = kronecker_product(identity(2), identity(2))
        np.testing.assert_array_equal(out.matrix, np.eye(4))

    def test_a_major_diagonal_layout(self):
        a = Operator(np.diag([3.0, 7.0]))
        out = kronecker_product(a, identity(2))
        np.testing.assert_allclose(out.matrix, np.diag([3.0, 3.0, 7.0, 7.0]))

    def test_matrix_vector_factorization_seed_7(self):
        a = random_complex_matrix(2, 2, seed=7)
        b = random_complex_matrix(2, 2, seed=8)
        v = random_complex_matrix(2, 1, seed=71)[:, 0]
        w = random_complex_matrix(2, 1, seed=72)[:, 0]
        big = kronecker_product(Operator(a), Operator(b)).matrix
        lhs = big @ np.kron(v, w)
        rhs = np.kron(a @ v, b @ w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associativity(self):
        a = Operator(random_complex_matrix(2, 2, seed=21))
        b = Operator(random_complex_matrix(3, 3, seed=22))
        c = Operator(random_complex_matrix(2, 2, seed=23))
        left = kronecker_product(kronecker_product(a, b), c).matrix
        right = kronecker_product(a, kronecker_product(b, c)).matrix
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_trace_multiplicative(self):
        a = Operator(random_complex_matrix(3, 3, seed=24))
        b = Operator(random_complex_matrix(4, 4, seed=25))
        product = trace(kronecker_product(a, b))
        separate = trace(a) * trace(b)
        assert abs(product - separate) <= 1e-12 * max(1.0, abs(separate))

    def test_capacity_guard(self):
        a = Operator(np.eye(70))
        with pytest.raises(CapacityError):
            kronecker_product(a, a)


class TestHermitianEig:
    def test_diagonal_permutation(self):
        eig = hermitian_eig(Operator(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors are the standard basis, permuted to match
        mods = np.abs(eig.eigenvectors)
        np.testing.assert_allclose(mods[:, 0], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(mods[:, 1], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(mods[:, 2], [1, 0, 0], atol=1e-12)

    def test_flip_matrix(self):
        eig = hermitian_eig(Operator(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0])
        for k in range(2):
            np.testing.assert_allclose(np.abs(eig.eigenvectors[:, k]), [2**-0.5] * 2, atol=1e-12)

    def test_residual_contracts_seed_42(self):
        h = build_random_hermitian(8, seed=42)
        eig = hermitian_eig(h)
        v = eig.eigenvectors
        recon = np.linalg.norm(h.matrix @ v - v * eig.eigenvalues[np.newaxis, :])
        assert recon <= 1e-10 * max(1.0, np.linalg.norm(h.matrix))
        ortho = np.linalg.norm(dagger(v) @ v - np.eye(8))
        assert ortho <= 1e-10

    def test_eigenvalues_ascending(self):
        for seed in range(30, 40):
            eig = hermitian_eig(build_random_hermitian(6, seed=seed))
            assert np.all(np.diff(eig.eigenvalues) >= 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_rejects_non_finite_spectrum(self):
        # finite entries whose eigenvalue 2e308 overflows
        with pytest.raises(ValidationError, match="not finite"):
            hermitian_eig(Operator(np.full((2, 2), 1e308)))

    def test_cached_arrays_read_only(self):
        eig = hermitian_eig(build_random_hermitian(4, seed=43))
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 0.0


class TestSvd:
    def test_signed_diagonal(self):
        u, s, v = svd(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(s, [3.0, 2.0])

    def test_rank_one(self):
        a = random_complex_matrix(3, 1, seed=51)[:, 0]
        a = a / np.linalg.norm(a)
        b = random_complex_matrix(3, 1, seed=52)[:, 0]
        b = b / np.linalg.norm(b)
        u, s, v = svd(np.outer(a, b.conj()))
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-12)

    def test_reconstruction_seed_11(self):
        m = random_complex_matrix(3, 4, seed=11)
        u, s, v = svd(m)
        recon = (u * s[np.newaxis, :]) @ dagger(v)
        assert np.linalg.norm(m - recon) <= 1e-10

    def test_descending(self):
        _, s, _ = svd(random_complex_matrix(5, 3, seed=53))
        assert np.all(np.diff(s) <= 0.0)

    def test_psd_singular_values_equal_eigenvalues(self):
        g = random_complex_matrix(4, 4, seed=54)
        psd = g @ dagger(g)
        eig = hermitian_eig(Operator(psd))
        _, s, _ = svd(psd)
        np.testing.assert_allclose(s, eig.eigenvalues[::-1], atol=1e-10)
