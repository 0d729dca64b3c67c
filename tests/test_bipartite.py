import cmath
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thermofield import bipartite
from thermofield.bipartite import (
    NORM_TOL,
    BipartitePureState,
    DensityMatrix,
    SchmidtResult,
    entanglement_entropy,
    environment_density,
    expectation,
    joint_density,
    purify,
    reduced_density,
    schmidt_coefficients,
    schmidt_decompose,
    schmidt_entropy,
    schmidt_rank,
)
from thermofield.errors import CapacityError, ValidationError
from thermofield.linalg import Operator, dagger
from thermofield.models import (
    build_ising,
    build_model,
    build_random_hermitian,
    parse_model_spec,
    random_bipartite_state,
    random_complex_matrix,
)
from thermofield.serialize import dump_state, load_state
from thermofield.thermal import thermofield_double


def unit_vector(dim: int, seed: int) -> np.ndarray:
    """A seeded complex Gaussian vector scaled to unit norm."""
    v = random_complex_matrix(dim, 1, seed)[:, 0]
    return v / np.linalg.norm(v)


GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"


def bell_state() -> BipartitePureState:
    return BipartitePureState(np.eye(2) / np.sqrt(2.0))


def assert_same_spectrum(coefficients: np.ndarray, result) -> None:
    """Values-only coefficients match a full decomposition's: 1e-12 of c_0, same rank."""
    assert coefficients.shape == result.coefficients.shape
    np.testing.assert_allclose(
        coefficients, result.coefficients, rtol=0.0, atol=1e-12 * result.coefficients[0]
    )
    assert schmidt_rank(coefficients) == result.rank


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

    def test_norm_past_float_range_rejected_without_warning(self):
        # each sum of squares is past the float range; the last modulus is too
        message = (
            "^state is not normalized: sum of squared amplitudes deviates from 1 "
            "by more than the float range$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for amp in ([[1e200, 0.0]], [[-1.7976931348623157e308]], [[1.5e308 - 1.5e308j, 0.5]]):
                with pytest.raises(ValidationError, match=message):
                    BipartitePureState(np.array(amp))

    def test_capacity_guard(self):
        # a read-only broadcast view: the size is checked before any copy
        with pytest.raises(CapacityError):
            BipartitePureState(np.broadcast_to(0.0, (4097, 4096)))

    def test_capacity_checked_before_copy(self, monkeypatch):
        copies = []
        monkeypatch.setattr(bipartite, "as_matrix", lambda m: copies.append(m))
        with pytest.raises(CapacityError, match="16781312 amplitudes exceeds the maximum 16777216"):
            BipartitePureState(np.broadcast_to(0.0, (4097, 4096)))
        assert copies == []

    def test_dims(self):
        state = random_bipartite_state(3, 4, seed=1)
        assert (state.dim_a, state.dim_b) == (3, 4)
        assert state.amplitudes.shape == (3, 4)


class TestExpectation:
    def test_product_basis_case(self):
        state = BipartitePureState(np.outer(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
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

    def test_admitted_imaginary_residue_accepted(self):
        # F - F^dagger = 6e-10 i I is within 1e-9 ||F||_F, so <F> = 1 + 3e-10 i is real enough
        f = Operator((1.0 + 3e-10j) * np.eye(2))
        assert expectation(bell_state(), f) == pytest.approx(1.0, abs=1e-15)

    def test_value_past_float_range_rejected_without_warning(self):
        state = BipartitePureState(np.full((2, 1), 2**-0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^expectation value exceeds the float range$"):
                expectation(state, Operator(np.full((2, 2), 1.7e308)))

    def test_environment_basis_invariance(self):
        f = build_random_hermitian(3, seed=61)
        for seed in range(20):
            state = random_bipartite_state(3, 4, seed=600 + seed)
            u = oracles.random_unitary(4, seed=700 + seed)
            rotated = BipartitePureState(state.amplitudes @ u.T)
            assert abs(expectation(rotated, f) - expectation(state, f)) <= 1e-12


class TestReducedDensity:
    def test_product_state(self):
        a = unit_vector(3, seed=31)
        state = BipartitePureState(np.outer(a, unit_vector(2, seed=32)))
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

    def test_trace_past_float_range_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (np.diag([1.7e308, 1.7e308]), np.full((2, 2), 1.7e308)):
                with pytest.raises(
                    ValidationError,
                    match="^density matrix trace deviates from 1 by more than the float range$",
                ):
                    DensityMatrix(Operator(m))

    def test_trace_summed_without_overflow(self):
        # a plain sum of this diagonal runs past the float range; its trace is 0
        m = np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308])
        with pytest.raises(ValidationError, match="^density matrix trace deviates from 1 by 1.000e"):
            DensityMatrix(Operator(m))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(Operator(np.diag([1.5, -0.5])))

    def test_accepts_boundary_noise(self):
        # tolerances admit rounding-scale violations
        m = np.diag([1.0 + 4e-10, -4e-10])
        DensityMatrix(Operator(m))

    def test_dim(self):
        assert DensityMatrix(Operator(np.eye(3) / 3.0)).dim == 3

    def test_joint_density_capacity_before_outer(self, monkeypatch):
        outer = []
        monkeypatch.setattr(np, "outer", lambda *args: outer.append(args))
        state = BipartitePureState(np.full((65, 64), 1.0 / math.sqrt(65 * 64)))
        with pytest.raises(CapacityError, match="^joint dimension 4160 exceeds the maximum 4096$"):
            joint_density(state)
        assert outer == []


class TestSchmidt:
    def test_nan_coefficients_rejected(self):
        eye = np.eye(2)
        with pytest.raises(ValidationError, match="must be finite, nonnegative and descending"):
            SchmidtResult(np.array([math.nan, math.nan]), eye, eye)

    def test_rank_read_from_coefficients(self):
        eye = np.eye(3)
        assert SchmidtResult(np.array([1.0, 0.0, 0.0]), eye, eye).rank == 1
        assert SchmidtResult(np.full(3, 3**-0.5), eye, eye).rank == 3

    def test_product_rank_one(self):
        state = BipartitePureState(
            np.outer(unit_vector(2, seed=41), unit_vector(3, seed=42))
        )
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
        state = BipartitePureState(
            np.outer(unit_vector(2, seed=43), unit_vector(4, seed=44))
        )
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
        result = schmidt_decompose(state)
        assert result.basis_a.tobytes() == want_a.tobytes()
        assert result.basis_b.tobytes() == want_b.tobytes()

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


class TestSchmidtCoefficients:
    """The values-only route agrees with :func:`schmidt_decompose`."""

    @pytest.mark.parametrize("kind", ["two_level", "oscillator", "ising", "random_hermitian"])
    def test_golden_models(self, kind):
        spec = parse_model_spec(json.loads((GOLDEN_MODELS / f"{kind}.json").read_text()))
        hamiltonian = build_model(spec)
        for beta in (0.0, 1.0, 10.0, 1e4):
            state = thermofield_double(hamiltonian, beta)
            assert_same_spectrum(schmidt_coefficients(state), schmidt_decompose(state))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_ising_chains(self, n):
        for h_field in (0.0, 1.1):  # h = 0 has degenerate levels
            hamiltonian = build_ising(n, 0.9, h_field)
            for beta in (0.0, 0.7, 5.0):
                state = thermofield_double(hamiltonian, beta)
                assert_same_spectrum(schmidt_coefficients(state), schmidt_decompose(state))

    @pytest.mark.parametrize(
        "dim_a, dim_b, rank",
        [(1, 1, 1), (1, 7, 1), (7, 1, 1), (5, 9, 2), (9, 5, 3), (16, 16, 4), (16, 16, 16),
         (40, 24, 24), (24, 40, 1)],
    )
    def test_random_states(self, dim_a, dim_b, rank):
        seed = 100 * dim_a + dim_b
        g = random_complex_matrix(dim_a, rank, seed) @ random_complex_matrix(rank, dim_b, seed + 1)
        state = BipartitePureState(g / np.linalg.norm(g))
        assert_same_spectrum(schmidt_coefficients(state), schmidt_decompose(state))

    def test_rejects_sum_off_one(self, monkeypatch):
        # an admitted state's squares sum to 1 within NORM_TOL; the check is shared
        monkeypatch.setattr(bipartite, "singular_values", lambda a: np.array([1.0, 0.1]))
        with pytest.raises(ValidationError, match="must sum to 1"):
            schmidt_coefficients(bell_state())


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
        state = BipartitePureState(
            np.outer(unit_vector(4, seed=45), unit_vector(3, seed=46))
        )
        assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_single_coefficient_is_positive_zero(self):
        # a leading coefficient one rounding step above 1 gives -sum p ln p < 0,
        # as the deep-cold thermal double of this random model has
        cold = thermofield_double(build_random_hermitian(6, seed=3), 1e4)
        for entropy in (
            schmidt_entropy(np.array([1.0, 0.0])),
            schmidt_entropy(np.array([1.0000000000000002, 0.0])),
            entanglement_entropy(cold),
        ):
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    def test_bell_ln2(self):
        assert entanglement_entropy(bell_state()) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_level_thermal_point(self):
        # amplitudes sqrt(2/3), sqrt(1/3) on the diagonal
        amp = np.diag([math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)])
        want = -(2.0 / 3.0) * math.log(2.0 / 3.0) - (1.0 / 3.0) * math.log(1.0 / 3.0)
        assert entanglement_entropy(BipartitePureState(amp)) == pytest.approx(want, abs=1e-12)

    def test_purity_criterion_both_directions(self):
        product = BipartitePureState(
            np.outer(unit_vector(3, seed=47), unit_vector(3, seed=48))
        )
        assert schmidt_decompose(product).rank == 1
        assert entanglement_entropy(product) < 1e-9
        entangled = bell_state()
        assert schmidt_decompose(entangled).rank > 1
        assert entanglement_entropy(entangled) > 1e-9


@st.composite
def near_bound_amplitudes(draw):
    """Amplitudes of sides 1..8, real or complex, entries spread over 1e-8..1.

    The squared norm is off from 1 by 0.999e-9 to 1e-9, either way, so
    admission's own sum lands on both sides of ``NORM_TOL``.
    """
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**62)))

    def part():
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 0.0, shape)

    a = part() if draw(st.booleans()) else part() + 1j * part()
    deviation = draw(st.floats(0.999e-9, 1e-9)) * draw(st.sampled_from([1.0, -1.0]))
    return a * (math.sqrt(1.0 + deviation) / np.linalg.norm(a))


class TestAdmittedIsAccepted:
    """A state that ``BipartitePureState`` admits, every later step accepts.

    The chain is admission, ``schmidt_decompose`` and
    ``schmidt_coefficients``, then ``dump_state`` and ``load_state``; the
    norm may be off by up to 0.99 ``NORM_TOL``.  At the bound itself, every
    step that sums the normalization again accepts the state too.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=near_bound_amplitudes())
    def test_property_near_bound_state_accepted(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                state = BipartitePureState(a)
            except ValidationError as exc:
                assert str(exc).startswith("state is not normalized"), exc
                return
            schmidt_coefficients(state)
            schmidt_decompose(state)
            entanglement_entropy(state)
            reduced_density(state)
            environment_density(state)
            joint_density(state)

    @pytest.mark.parametrize(
        "diagonal",
        [
            [0.5616013865654373, 0.5801106380621368, 0.5489479561099015, 0.2161750926857217],
            [0.422052949800261, 0.44936687833064975, 0.4706602014669008, 0.6312049508514661],
        ],
    )
    def test_states_at_the_bound_accepted(self, diagonal):
        # admission reads a norm deviation of 0.99999997e-9 for both; the
        # first one's Schmidt squares and both reductions' traces read
        # 1.00000008e-9, one rounding step past 1e-9
        state = load_state(dump_state(BipartitePureState(np.diag(diagonal))))
        assert np.array_equal(schmidt_coefficients(state), np.sort(diagonal)[::-1])
        assert schmidt_decompose(state).rank == 4
        reduced_density(state)
        environment_density(state)

    def test_sums_off_past_the_allowance_rejected(self):
        # direct inputs hold the admission tolerance; the allowance is
        # far below 1e-11
        with pytest.raises(
            ValidationError,
            match="^squared Schmidt coefficients must sum to 1, deviation 1.010e-09$",
        ):
            SchmidtResult(np.sqrt([0.5 + 1.01e-9, 0.5]), np.eye(2), np.eye(2))
        with pytest.raises(
            ValidationError, match="^density matrix trace deviates from 1 by 1.010e-09$"
        ):
            DensityMatrix(Operator(np.diag([0.5 - 1.01e-9, 0.5])))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        dim_a=st.integers(min_value=1, max_value=12),
        dim_b=st.integers(min_value=1, max_value=12),
        rank=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**62),
        deviation=st.floats(min_value=-0.99e-9, max_value=0.99e-9),
    )
    def test_property_state_schmidt_file(self, dim_a, dim_b, rank, seed, deviation):
        g = random_complex_matrix(dim_a, rank, seed) @ random_complex_matrix(rank, dim_b, seed + 1)
        state = BipartitePureState(g * (math.sqrt(1.0 + deviation) / np.linalg.norm(g)))
        result = schmidt_decompose(state)
        assert abs(float(np.sum(result.coefficients**2)) - 1.0) <= NORM_TOL
        again = load_state(dump_state(state))
        assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert schmidt_decompose(again).coefficients.tobytes() == result.coefficients.tobytes()
        coefficients = schmidt_coefficients(state)
        assert_same_spectrum(coefficients, result)
        assert schmidt_coefficients(again).tobytes() == coefficients.tobytes()


@st.composite
def density_inputs(draw):
    """Exactly Hermitian unit-trace matrices of side 1..8, real or complex.

    Two kinds: a positive diagonal summing to 1 under off-diagonal entries
    whose moduli spread over 1e-30..1e300 (or are zero); and a spectrum
    whose smallest eigenvalue lies near the -1e-9 admission bound, in a
    random orthonormal basis.
    """
    d = draw(st.integers(min_value=1, max_value=8))
    real = draw(st.booleans())
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))) + 1e-3
    if d > 1 and draw(st.booleans()):
        lowest = draw(st.floats(min_value=-2e-9, max_value=0.0))
        rest = weights[1:] * ((1.0 - lowest) / np.sum(weights[1:]))
        g = random_complex_matrix(d, d, draw(st.integers(min_value=0, max_value=2**62)))
        q = np.linalg.qr(g.real if real else g)[0]
        m = (q * np.concatenate([[lowest], rest])[np.newaxis, :]) @ dagger(q)
        return (m + dagger(m)) / 2.0
    m = np.diag(weights / np.sum(weights)).astype(float if real else complex)
    modulus = st.one_of(st.just(0.0), st.floats(-30.0, 300.0).map(lambda e: 10.0**e))
    angles = st.floats(0.0, 2 * math.pi)
    phase = st.sampled_from([1.0, -1.0]) if real else angles.map(lambda t: cmath.rect(1.0, t))
    for i, j in zip(*np.tril_indices(d, -1)):
        m[i, j] = draw(modulus) * draw(phase)
        m[j, i] = np.conj(m[i, j])
    return m


class TestAdmittedIsFactorized:
    """A matrix that ``DensityMatrix`` admits carries its eigendecomposition.

    Admission raises ``ValidationError`` or leaves a finite, ascending
    eigendecomposition with no eigenvalue below -1e-9, cached on the
    operator; ``purify`` reads it and factorizes nothing again.  Nothing
    else raises and nothing warns.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(m=density_inputs())
    def test_property_admission_caches_eigh(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = Operator(m)
            try:
                rho = DensityMatrix(op)
            except ValidationError:
                return
            assert "_eig" in vars(op)  # the cached_property's slot
            eigenvalues, eigenvectors = op._eig
            assert np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(eigenvectors))
            assert np.all(eigenvalues[1:] >= eigenvalues[:-1])
            assert eigenvalues[0] >= -1e-9
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                try:
                    purify(rho)
                except ValidationError as exc:  # clipping lifts the norm past NORM_TOL
                    assert str(exc).startswith("state is not normalized"), exc
            assert eigh.call_count == 0


class TestJointDensity:
    def test_product_corner(self):
        state = BipartitePureState(np.outer(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
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
