import math

import numpy as np
import pytest

import oracles
from thermofield import bipartite
from thermofield.bipartite import (
    BipartitePureState,
    DensityMatrix,
    entanglement_entropy,
    environment_density,
    expectation,
    from_product,
    joint_density,
    purify,
    reduced_density,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_from_factors,
)
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import Operator, dagger
from thermofield.models import (
    build_random_hermitian,
    random_bipartite_state,
    random_complex_matrix,
    random_unit_vector,
)


def bell_state() -> BipartitePureState:
    return BipartitePureState(np.eye(2) / np.sqrt(2.0))


class TestBipartitePureState:
    def test_rejects_bad_norm(self):
        with pytest.raises(ValidationError):
            BipartitePureState(np.eye(2))

    def test_no_silent_renormalization(self):
        # off by more than 1e-9: rejected, not rescaled
        amp = np.eye(2) / np.sqrt(2.0) * (1.0 + 1e-6)
        with pytest.raises(ValidationError):
            BipartitePureState(amp)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValidationError):
            BipartitePureState(np.array([1.0, 0.0]))

    def test_capacity_guard(self):
        # a read-only broadcast view: the size is checked before any copy
        with pytest.raises(CapacityError):
            BipartitePureState(np.broadcast_to(0.0, (4097, 4096)))

    def test_capacity_checked_before_copy(self, monkeypatch):
        copies = []
        monkeypatch.setattr(bipartite, "as_complex_matrix", lambda m: copies.append(m))
        with pytest.raises(CapacityError, match="16781312 amplitudes exceeds the maximum 16777216"):
            BipartitePureState(np.broadcast_to(0.0, (4097, 4096)))
        assert copies == []

    def test_dims(self):
        state = random_bipartite_state(3, 4, seed=1)
        assert (state.dim_a, state.dim_b) == (3, 4)
        assert state.amplitudes.shape == (3, 4)


class TestFromProduct:
    def test_basis_pair(self):
        state = from_product(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected)

    def test_superposed_a(self):
        a = np.array([1.0, 1.0]) / np.sqrt(2.0)
        b = np.array([0.0, 1.0])
        state = from_product(a, b)
        np.testing.assert_allclose(state.amplitudes[:, 1], a)
        np.testing.assert_allclose(state.amplitudes[:, 0], [0.0, 0.0])

    def test_random_product_has_rank_one(self):
        state = from_product(random_unit_vector(3, seed=5), random_unit_vector(4, seed=6))
        assert schmidt_decompose(state).rank == 1

    def test_rejects_unnormalized_factor(self):
        with pytest.raises(ValidationError):
            from_product(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestExpectation:
    def test_product_basis_case(self):
        state = from_product(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert expectation(state, Operator(np.diag([5.0, 7.0]))) == pytest.approx(5.0)

    def test_bell_balanced(self):
        assert expectation(bell_state(), Operator(np.diag([1.0, -1.0]))) == pytest.approx(0.0)

    def test_against_partial_trace_oracle_seed_9(self):
        state = random_bipartite_state(3, 4, seed=9)
        f = build_random_hermitian(3, seed=10)
        joint = np.outer(state.amplitudes.ravel(), state.amplitudes.ravel().conj())
        rho_a = oracles.partial_trace_b(joint, 3, 4)
        want = np.trace(rho_a @ f.matrix).real
        assert abs(expectation(state, f) - want) <= 1e-12

    def test_against_partial_trace_oracle_dims_2_to_64(self):
        for d in range(2, 65):
            dim_b = 1 + d % 4
            state = random_bipartite_state(d, dim_b, seed=5000 + d)
            f = build_random_hermitian(d, seed=6000 + d)
            joint = np.outer(state.amplitudes.ravel(), state.amplitudes.ravel().conj())
            want = np.trace(oracles.partial_trace_b(joint, d, dim_b) @ f.matrix).real
            bound = 1e-12 * max(1.0, np.linalg.norm(f.matrix))
            assert abs(expectation(state, f) - want) <= bound, d

    def test_dimension_mismatch(self):
        state = random_bipartite_state(3, 4, seed=9)
        with pytest.raises(ValidationError):
            expectation(state, Operator(np.eye(4)))

    def test_environment_basis_invariance(self):
        f = build_random_hermitian(3, seed=61)
        for seed in range(20):
            state = random_bipartite_state(3, 4, seed=600 + seed)
            u = oracles.random_unitary(4, seed=700 + seed)
            rotated = BipartitePureState(state.amplitudes @ u.T)
            assert abs(expectation(rotated, f) - expectation(state, f)) <= 1e-12


class TestReducedDensity:
    def test_product_state(self):
        a = random_unit_vector(3, seed=31)
        state = from_product(a, random_unit_vector(2, seed=32))
        np.testing.assert_allclose(
            reduced_density(state).matrix, np.outer(a, a.conj()), atol=1e-12
        )

    def test_bell_gives_maximally_mixed(self):
        np.testing.assert_allclose(reduced_density(bell_state()).matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_spectrum_equals_squared_schmidt_seed_13(self):
        state = random_bipartite_state(4, 3, seed=13)
        eigs = np.linalg.eigvalsh(reduced_density(state).matrix)
        coeffs = schmidt_decompose(state).coefficients
        padded = np.zeros(4)
        padded[: coeffs.size] = coeffs**2
        np.testing.assert_allclose(np.sort(eigs), np.sort(padded), atol=1e-10)

    def test_environment_density_shares_nonzero_spectrum(self):
        state = random_bipartite_state(3, 5, seed=14)
        pa = np.linalg.eigvalsh(reduced_density(state).matrix)[::-1]
        pb = np.linalg.eigvalsh(environment_density(state).matrix)[::-1]
        np.testing.assert_allclose(pa[:3], pb[:3], atol=1e-10)
        np.testing.assert_allclose(pb[3:], 0.0, atol=1e-10)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="[Hh]ermit"):
            DensityMatrix(Operator(m))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(Operator(np.eye(2)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(Operator(np.diag([1.5, -0.5])))

    def test_accepts_boundary_noise(self):
        # tolerances admit rounding-scale violations
        m = np.diag([1.0 + 4e-10, -4e-10])
        DensityMatrix(Operator(m))


class TestSchmidt:
    def test_product_rank_one(self):
        state = from_product(random_unit_vector(2, seed=41), random_unit_vector(3, seed=42))
        result = schmidt_decompose(state)
        assert result.rank == 1
        assert result.coefficients[0] == pytest.approx(1.0)

    def test_bell_coefficients(self):
        result = schmidt_decompose(bell_state())
        np.testing.assert_allclose(result.coefficients, [2**-0.5, 2**-0.5], atol=1e-12)
        assert result.rank == 2

    def test_random_state_seed_17(self):
        state = random_bipartite_state(3, 5, seed=17)
        result = schmidt_decompose(state)
        eigs = np.linalg.eigvalsh(reduced_density(state).matrix)[::-1]
        np.testing.assert_allclose(result.coefficients**2, eigs, atol=1e-10)
        recon = (result.basis_a * result.coefficients[np.newaxis, :]) @ result.basis_b.T
        assert np.linalg.norm(recon - state.amplitudes) <= 1e-10

    def test_bases_orthonormal_up_to_rank(self):
        state = random_bipartite_state(4, 6, seed=18)
        result = schmidt_decompose(state)
        r = result.rank
        ua = result.basis_a
        ub = result.basis_b[:, :r]
        np.testing.assert_allclose(dagger(ua) @ ua, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(dagger(ub) @ ub, np.eye(r), atol=1e-10)

    def test_zero_padding_beyond_rank(self):
        state = from_product(random_unit_vector(2, seed=43), random_unit_vector(4, seed=44))
        result = schmidt_decompose(state)
        assert result.rank == 1
        np.testing.assert_array_equal(result.basis_b[:, 1:], 0.0)

    def test_phase_convention_deterministic(self):
        state = random_bipartite_state(3, 3, seed=19)
        first = schmidt_decompose(state)
        second = schmidt_decompose(state)
        np.testing.assert_array_equal(first.basis_a, second.basis_a)
        np.testing.assert_array_equal(first.basis_b, second.basis_b)
        for k in range(first.rank):
            col = first.basis_a[:, k]
            lead = int(np.argmax(np.abs(col)))
            assert abs(col[lead].imag) <= 1e-12
            assert col[lead].real >= 0.0

    def test_phase_convention_matches_column_loop(self):
        # reference: the rephase written one column at a time
        state = random_bipartite_state(5, 7, seed=22)
        u, s, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
        want_a, want_b = u.copy(), vh.T.copy()
        for k in range(u.shape[1]):
            col = want_a[:, k]
            lead = int(np.argmax(np.abs(col)))
            phase = col[lead] / abs(col[lead])
            want_a[:, k] = col * phase.conjugate()
            want_b[:, k] = want_b[:, k] * phase
        result = schmidt_from_factors(state, s, u, vh.T)
        assert result.basis_a.tobytes() == want_a.tobytes()
        assert result.basis_b.tobytes() == want_b.tobytes()

    def test_from_factors_rejects_swapped_columns(self):
        state = random_bipartite_state(4, 4, seed=23)
        u, s, vh = np.linalg.svd(state.amplitudes)
        schmidt_from_factors(state, s, u, vh.T)
        swapped = u[:, [1, 0, 2, 3]]
        with pytest.raises(ValidationError, match="reconstruction residual"):
            schmidt_from_factors(state, s, swapped, vh.T)

    def test_schmidt_basis_double_sum_collapses(self):
        # double sum over the lifted observable in the Schmidt basis equals
        # the single diagonal sum
        state = random_bipartite_state(4, 4, seed=20)
        f = build_random_hermitian(4, seed=21)
        result = schmidt_decompose(state)
        c, ua, ub = result.coefficients, result.basis_a, result.basis_b
        double_sum = 0.0 + 0.0j
        for i in range(c.size):
            for j in range(c.size):
                overlap_b = np.vdot(ub[:, j], ub[:, i])
                double_sum += c[i] * c[j] * np.vdot(ua[:, j], f.matrix @ ua[:, i]) * overlap_b
        diagonal = sum(
            c[i] ** 2 * np.vdot(ua[:, i], f.matrix @ ua[:, i]).real for i in range(c.size)
        )
        assert abs(double_sum - diagonal) <= 1e-10
        assert abs(diagonal - expectation(state, f)) <= 1e-10


class TestPurify:
    def test_pure_projector(self):
        state = purify(DensityMatrix(Operator(np.diag([1.0, 0.0]))))
        amp = np.zeros((2, 2))
        amp[0, 0] = 1.0
        np.testing.assert_allclose(np.abs(state.amplitudes), amp, atol=1e-12)

    def test_maximally_mixed_qubit(self):
        state = purify(DensityMatrix(Operator(np.eye(2) / 2.0)))
        coeffs = schmidt_decompose(state).coefficients
        np.testing.assert_allclose(coeffs, [2**-0.5, 2**-0.5], atol=1e-12)

    def test_round_trip_seed_21(self):
        g = random_complex_matrix(3, 3, seed=21)
        raw = g @ dagger(g)
        rho = DensityMatrix(Operator(raw / np.trace(raw).real))
        state = purify(rho)
        assert state.dim_b == 3
        assert np.linalg.norm(reduced_density(state).matrix - rho.matrix) <= 1e-10


class TestEntropy:
    def test_product_zero(self):
        state = from_product(random_unit_vector(4, seed=45), random_unit_vector(3, seed=46))
        assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_single_coefficient_is_positive_zero(self):
        entropy = schmidt_entropy(np.array([1.0, 0.0]))
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_bell_ln2(self):
        assert entanglement_entropy(bell_state()) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_level_thermal_point(self):
        # amplitudes sqrt(2/3), sqrt(1/3) on the diagonal
        amp = np.diag([math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)])
        want = -(2.0 / 3.0) * math.log(2.0 / 3.0) - (1.0 / 3.0) * math.log(1.0 / 3.0)
        assert entanglement_entropy(BipartitePureState(amp)) == pytest.approx(want, abs=1e-12)

    def test_purity_criterion_both_directions(self):
        product = from_product(random_unit_vector(3, seed=47), random_unit_vector(3, seed=48))
        assert schmidt_decompose(product).rank == 1
        assert entanglement_entropy(product) < 1e-9
        entangled = bell_state()
        assert schmidt_decompose(entangled).rank > 1
        assert entanglement_entropy(entangled) > 1e-9


class TestJointDensity:
    def test_product_corner(self):
        state = from_product(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        joint = joint_density(state).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(joint, expected, atol=1e-15)

    def test_bell_corners(self):
        joint = joint_density(bell_state()).matrix
        expected = np.zeros((4, 4))
        for r in (0, 3):
            for c in (0, 3):
                expected[r, c] = 0.5
        np.testing.assert_allclose(joint, expected, atol=1e-15)

    def test_partial_trace_matches_reduced_seed_25(self):
        state = random_bipartite_state(3, 4, seed=25)
        joint = joint_density(state).matrix
        by_sum = oracles.partial_trace_b(joint, 3, 4)
        np.testing.assert_allclose(by_sum, reduced_density(state).matrix, atol=1e-12)
        env = oracles.partial_trace_a(joint, 3, 4)
        np.testing.assert_allclose(env, environment_density(state).matrix, atol=1e-12)

    def test_idempotent_unit_trace(self):
        state = random_bipartite_state(2, 3, seed=26)
        joint = joint_density(state).matrix
        np.testing.assert_allclose(joint @ joint, joint, atol=1e-12)
        assert np.trace(joint).real == pytest.approx(1.0, abs=1e-12)
