import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from thermofield import linalg
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import (
    Operator,
    bound_exceeded,
    dagger,
    hermitian_eig,
    hermiticity_residual,
    real_value,
    require_hermitian,
    svd,
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

    def test_capacity_checked_before_copy(self):
        # a read-only broadcast view: the side is checked before as_matrix copies
        tracemalloc.start()
        try:
            with pytest.raises(
                CapacityError, match="^operator dimension 4097 exceeds the maximum 4096$"
            ):
                Operator(np.broadcast_to(0.0, (4097, 4097)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_empty_side(self):
        message = r"^matrix dimensions must be positive, got \(0, 3\)$"
        with pytest.raises(ValidationError, match=message):
            linalg.as_matrix(np.zeros((0, 3)))

    def test_real_input_stays_float64(self):
        op = Operator(np.eye(3))
        assert op.matrix.dtype == np.float64
        assert op.dim == 3
        assert Operator(np.eye(3, dtype=int)).matrix.dtype == np.float64
        # imaginary parts that are all +0.0 or -0.0 count as real
        signed_zeros = np.array(
            [[1.0 + 0.0j, complex(2.0, -0.0)], [complex(2.0, 0.0), -1.0 - 0.0j]]
        )
        real = Operator(signed_zeros).matrix
        assert real.dtype == np.float64
        assert real.tobytes() == signed_zeros.real.tobytes()
        # any other imaginary part keeps the matrix complex, bit for bit
        tiny = signed_zeros + np.array([[0.0, 1e-300j], [-1e-300j, 0.0]])
        kept = Operator(tiny).matrix
        assert kept.dtype == np.complex128
        assert kept.tobytes() == tiny.tobytes()

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
            op = Operator(np.eye(d))
            assert np.trace(op.matrix) == pytest.approx(d)
            np.testing.assert_array_equal(op.matrix, np.eye(d))

    def test_trace_half_half(self):
        assert np.trace(Operator(np.diag([0.5, 0.5])).matrix) == pytest.approx(1.0)

    def test_trace_matches_eigenvalue_sum_seed_3(self):
        h = build_random_hermitian(4, seed=3)
        eig = hermitian_eig(h)
        assert abs(np.trace(h.matrix) - float(np.sum(eig.eigenvalues))) <= 1e-10


class TestHermiticity:
    def test_zero_residual_for_hermitian(self):
        h = build_random_hermitian(5, seed=11)
        assert hermiticity_residual(h.matrix) == 0.0

    def test_residual_detects_asymmetry(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_residual(m) == pytest.approx(np.sqrt(2.0))

    def test_require_hermitian_raises_with_residual(self):
        op = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="residual"):
            require_hermitian(op, "test matrix")

    def test_relative_scaling(self):
        # perturbation tiny relative to a huge matrix: accepted
        h = 1e8 * build_random_hermitian(3, seed=12).matrix
        noise = np.zeros((3, 3), dtype=complex)
        noise[0, 1] = 1e-3
        require_hermitian(Operator(h + noise), "scaled")
        # the same absolute perturbation on a unit-scale matrix: rejected
        with pytest.raises(ValidationError, match="unit scale is not Hermitian"):
            require_hermitian(Operator(np.eye(3, dtype=complex) + noise), "unit scale")

    def test_rejects_asymmetry_near_float_limit(self):
        # ||M||_F overflows here; the bound must stay finite
        with pytest.raises(ValidationError, match="not Hermitian"):
            require_hermitian(Operator(np.array([[1e308, 1e308], [0.0, 0.0]])))
        require_hermitian(Operator(np.array([[1e308, 1e308], [1e308, -1e308]])))
        require_hermitian(Operator(np.full((2, 2), 5e-324)))

    def test_residual_past_float_range_named_not_printed(self):
        # ||M - M^dagger||_F = 2.8e308 is not a float
        with pytest.raises(ValidationError) as info:
            require_hermitian(Operator(np.array([[0.0, 1e308], [-1e308, 0.0]])))
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


class TestBoundRule:
    def test_absolute_without_operator(self):
        assert bound_exceeded(2e-10, 1e-10) == 1e-10
        assert bound_exceeded(-2e-10, 1e-10) == 1e-10
        assert bound_exceeded(1e-10, 1e-10) is None  # at the bound is within it
        assert bound_exceeded(1e-300, 0.0) == 0.0  # a zero bound is still a bound

    def test_relative_to_frobenius_norm(self):
        op = Operator(1e6 * np.eye(4))  # ||M||_F = 2e6
        assert bound_exceeded(3e-4, 1e-10, op) == pytest.approx(2e-4, rel=1e-15)
        assert bound_exceeded(1e-4, 1e-10, op) is None
        small = Operator(1e-3 * np.eye(4))  # ||M||_F < 1: the bound is tol itself
        assert bound_exceeded(2e-10, 1e-10, small) == pytest.approx(1e-10, rel=1e-15)

    def test_norm_past_float_range(self):
        op = Operator(np.full((4, 4), 1e308))  # ||M||_F = 4e308 is not a float
        assert bound_exceeded(1e299, 1e-9, op) is None
        assert bound_exceeded(1e300, 1e-9, op) == pytest.approx(4e299, rel=1e-15)
        assert bound_exceeded(np.inf, 1e-9, op) == pytest.approx(4e299, rel=1e-15)

    def test_real_value_within_admission_bound(self):
        op = Operator((1.0 + 3e-10j) * np.eye(2))
        require_hermitian(op)
        assert real_value(1.0 + 3e-10j, op, "value") == 1.0
        with pytest.raises(ValidationError, match="^value has imaginary residue 2.000e-09$"):
            real_value(1.0 + 2e-9j, op, "value")

    @pytest.mark.parametrize("value", [complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_real_value_past_float_range(self, value):
        with pytest.raises(ValidationError, match="^value exceeds the float range$"):
            real_value(value, Operator(np.eye(2)), "value")


def test_bound_rule_only_in_linalg():
    # tol * max(1, ||M||_F) in scaled form is written once, the CLI reads
    # no cached norms, and no imaginary part is held to a literal of its own
    src = pathlib.Path(linalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name != "linalg.py":
            assert "1.0 / scale" not in text, path.name
        assert not re.search(r"\.imag\)? > \d", text), path.name
    assert "_hermiticity" not in (src / "cli.py").read_text()


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

    @staticmethod
    def assert_contract_scaled(h: np.ndarray, eig) -> None:
        """The EigResult contract, on H divided by its largest entry modulus."""
        scale = float(np.max(np.abs(h)))
        v, w = eig.eigenvectors, eig.eigenvalues / scale
        assert np.all(eig.eigenvalues[1:] >= eig.eigenvalues[:-1])
        assert np.linalg.norm((h / scale) @ v - v * w[np.newaxis, :]) <= 1e-10
        assert np.linalg.norm(dagger(v) @ v - np.eye(len(h))) <= 1e-10

    def test_entries_spread_over_the_float_range(self):
        # LAPACK's eigh does not converge on this one as it is (LinAlgError);
        # it does at a power-of-two scale
        h = np.zeros((4, 4))
        h[1, 1] = -4.395931908336816e191
        h[0, 2] = h[2, 0] = 1.0
        h[0, 3] = h[3, 0] = -2.504731103369256e214
        for m in (h, h + 1j * (np.triu(np.ones((4, 4)), 1) - np.tril(np.ones((4, 4)), -1))):
            eig = hermitian_eig(Operator(m))
            self.assert_contract_scaled(m, eig)
        assert eig.eigenvalues[0] == pytest.approx(-2.504731103369256e214, rel=1e-12)

    def test_misordered_spectrum_sorted(self):
        # LAPACK's eigh returns this spectrum out of order, [0, -x, x, y, -y, 0]
        h = np.zeros((6, 6))
        h[1, 4] = h[4, 1] = 2.0794865e244
        h[2, 3] = h[3, 2] = 5.36623743e16
        h[3, 4] = h[4, 3] = 2.68435453e8
        phased = h.astype(complex)
        phased[1, 4], phased[4, 1] = 2.0794865e244j, -2.0794865e244j
        for m in (h, phased):
            eig = hermitian_eig(Operator(m))
            self.assert_contract_scaled(m, eig)
            assert eig.eigenvalues[[0, -1]] == pytest.approx([-2.0794865e244, 2.0794865e244])

    def test_cached_arrays_read_only(self):
        eig = hermitian_eig(build_random_hermitian(4, seed=43))
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 0.0


class TestSvd:
    def test_signed_diagonal(self):
        _, s, _ = svd(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(s, [3.0, 2.0])

    def test_rank_one(self):
        a = random_complex_matrix(3, 1, seed=51)[:, 0]
        a = a / np.linalg.norm(a)
        b = random_complex_matrix(3, 1, seed=52)[:, 0]
        b = b / np.linalg.norm(b)
        _, s, _ = svd(np.outer(a, b.conj()))
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-12)

    def test_reconstruction_seed_11(self):
        m = random_complex_matrix(3, 4, seed=11)
        u, s, vh = svd(m)
        recon = (u * s[np.newaxis, :]) @ vh
        assert np.linalg.norm(m - recon) <= 1e-10

    def test_returns_numpys_factors(self):
        m = random_complex_matrix(4, 6, seed=12)
        got = svd(m)
        want = np.linalg.svd(m, full_matrices=False)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_descending(self):
        _, s, _ = svd(random_complex_matrix(5, 3, seed=53))
        assert np.all(np.diff(s) <= 0.0)

    def test_psd_singular_values_equal_eigenvalues(self):
        g = random_complex_matrix(4, 4, seed=54)
        psd = g @ dagger(g)
        eig = hermitian_eig(Operator(psd))
        _, s, _ = svd(psd)
        np.testing.assert_allclose(s, eig.eigenvalues[::-1], atol=1e-10)
