import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import thermofield
from thermofield.bipartite import (
    BipartitePureState,
    DensityMatrix,
    SchmidtResult,
    entanglement_entropy,
    reduced_density,
    schmidt_decompose,
    schmidt_entropy,
)
from thermofield.errors import ValidationError
from thermofield.linalg import RANK_CUTOFF, Operator, dagger, hermitian_eig, require_hermitian
from thermofield.models import (
    build_ising,
    build_random_hermitian,
    build_two_level,
    standard_normals,
)
from thermofield.thermal import (
    ThermalSpectrum,
    decohere_tfd,
    gibbs_density,
    thermal_spectrum,
    thermofield_double,
    verify_equivalence,
)

LN2 = math.log(2.0)


class TestThermalSpectrum:
    def test_flat_hamiltonian_uniform(self):
        spec = thermal_spectrum(Operator(np.zeros((3, 3))), beta=4.2)
        np.testing.assert_allclose(spec.probabilities, [1 / 3] * 3, atol=1e-15)
        assert spec.log_partition == pytest.approx(math.log(3.0), abs=1e-12)

    def test_infinite_temperature(self):
        spec = thermal_spectrum(build_two_level(1.0), beta=0.0)
        np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-15)
        assert spec.log_partition == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_level_ln2(self):
        # weights 1 and 1/2, normalization 3/2
        spec = thermal_spectrum(build_two_level(1.0), beta=LN2)
        np.testing.assert_allclose(spec.probabilities, [2 / 3, 1 / 3], atol=1e-14)
        assert spec.log_partition == pytest.approx(math.log(1.5), abs=1e-12)

    def test_energies_ascending_and_normalized(self):
        for seed in range(5):
            spec = thermal_spectrum(build_random_hermitian(6, seed=80 + seed), beta=1.3)
            assert np.all(np.diff(spec.energies) >= 0.0)
            assert np.sum(spec.probabilities) == pytest.approx(1.0, abs=1e-12)
            assert np.all(spec.probabilities >= 0.0)

    def test_log_ratio_identity(self):
        spec = thermal_spectrum(build_random_hermitian(5, seed=85), beta=2.0)
        logs = np.log(spec.probabilities)
        for m in range(5):
            for n in range(5):
                gap = spec.energies[m] - spec.energies[n]
                assert abs(logs[m] - logs[n] + 2.0 * gap) <= 1e-9

    def test_extreme_beta_stability(self):
        h = Operator(np.diag(np.linspace(0.0, 100.0, 6)))
        spec = thermal_spectrum(h, beta=1e4)
        assert np.all(np.isfinite(spec.probabilities))
        assert np.isfinite(spec.log_partition)
        assert spec.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(spec.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_beta_by_default(self):
        with pytest.raises(ValidationError):
            thermal_spectrum(build_two_level(1.0), beta=-1.0)

    def test_rejects_nan_beta(self):
        with pytest.raises(ValidationError):
            thermal_spectrum(build_two_level(1.0), beta=float("nan"))

    def test_type_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ThermalSpectrum(
                beta=1.0,
                energies=np.array([0.0, 1.0]),
                probabilities=np.array([0.7, 0.7]),
                log_partition=0.0,
            )
        with pytest.raises(ValidationError):
            ThermalSpectrum(
                beta=1.0,
                energies=np.array([1.0, 0.0]),
                probabilities=np.array([0.5, 0.5]),
                log_partition=0.0,
            )

    def test_vector_invariants_named(self):
        with pytest.raises(ValidationError, match="^energies and probabilities must be matching"):
            ThermalSpectrum(1.0, np.array([0.0, 1.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValidationError, match="^probabilities must be nonnegative$"):
            ThermalSpectrum(1.0, np.array([0.0, 1.0]), np.array([1.5, -0.5]), 0.0)

    def test_non_finite_probabilities_rejected(self):
        with pytest.raises(ValidationError, match="^energies, probabilities and log partition"):
            ThermalSpectrum(0.0, np.array([0.0, 1.0]), np.array([math.nan, math.nan]), 0.0)

    def test_log_partition_past_float_range_rejected(self):
        # log Z = -beta * E_0 = 1e309 is not a float
        with pytest.raises(ValidationError, match="log partition sum must be finite"):
            thermal_spectrum(Operator(np.diag([-1e308, 0.0])), 10.0)


class TestGibbsDensity:
    def test_infinite_temperature_is_maximally_mixed(self):
        rho = gibbs_density(build_random_hermitian(4, seed=90), beta=0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-12)

    def test_cold_limit_is_ground_projector(self):
        rho = gibbs_density(build_two_level(1.0), beta=50.0)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-20)

    def test_two_level_ln2(self):
        rho = gibbs_density(build_two_level(1.0), beta=LN2)
        np.testing.assert_allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-14)

    def test_matches_expm_oracle(self):
        for seed, beta in ((91, 0.3), (92, 1.0), (93, 7.0)):
            h = build_random_hermitian(5, seed=seed)
            rho = gibbs_density(h, beta)
            np.testing.assert_allclose(
                rho.matrix, oracles.gibbs_expm(h.matrix, beta), atol=1e-12
            )

    def test_commutes_with_hamiltonian(self):
        h = build_random_hermitian(6, seed=94)
        rho = gibbs_density(h, beta=1.7)
        comm = rho.matrix @ h.matrix - h.matrix @ rho.matrix
        assert np.linalg.norm(comm) <= 1e-12 * max(1.0, np.linalg.norm(h.matrix))


class TestThermalAverage:
    """The ensemble side of the equivalence check, ``trace_average``."""

    def test_identity_observable(self):
        h = build_random_hermitian(4, seed=95)
        average = verify_equivalence(h, 2.2, Operator(np.eye(4))).trace_average
        assert average == pytest.approx(1.0, abs=1e-12)

    def test_infinite_temperature_mean(self):
        f = Operator(np.diag([1.0, 2.0, 6.0]))
        h = build_random_hermitian(3, seed=96)
        assert verify_equivalence(h, 0.0, f).trace_average == pytest.approx(3.0, abs=1e-12)

    def test_two_level_third(self):
        h = build_two_level(1.0)
        assert verify_equivalence(h, LN2, h).trace_average == pytest.approx(1 / 3, abs=1e-14)

    def test_against_expm_oracle(self):
        h = build_random_hermitian(5, seed=97)
        f = build_random_hermitian(5, seed=98)
        want = np.trace(oracles.gibbs_expm(h.matrix, 1.4) @ f.matrix).real
        assert verify_equivalence(h, 1.4, f).trace_average == pytest.approx(want, abs=1e-12)

    def test_against_expm_oracle_dims_2_to_64(self):
        for d in range(2, 65):
            h = build_random_hermitian(d, seed=3000 + d)
            f = build_random_hermitian(d, seed=4000 + d)
            want = np.trace(oracles.gibbs_expm(h.matrix, 0.7) @ f.matrix).real
            bound = 1e-12 * max(1.0, np.linalg.norm(f.matrix))
            assert abs(verify_equivalence(h, 0.7, f).trace_average - want) <= bound, d

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            verify_equivalence(build_two_level(1.0), 1.0, Operator(np.eye(3)))


def test_no_einsum_in_package():
    # the O(d^3) contractions run as BLAS matrix products, not einsum loops
    for path in pathlib.Path(thermofield.__file__).parent.glob("*.py"):
        assert "np.einsum" not in path.read_text(encoding="utf-8"), path.name


class TestThermofieldDouble:
    def test_infinite_temperature_maximally_entangled(self):
        for d in (2, 3, 5):
            state = thermofield_double(build_random_hermitian(d, seed=100 + d), beta=0.0)
            coeffs = schmidt_decompose(state).coefficients
            np.testing.assert_allclose(coeffs, [d**-0.5] * d, atol=1e-12)
            assert entanglement_entropy(state) == pytest.approx(math.log(d), abs=1e-10)

    def test_cold_limit_ground_pair(self):
        state = thermofield_double(build_two_level(1.0), beta=50.0)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.linalg.norm(np.abs(state.amplitudes) - expected) <= 1e-10

    def test_two_level_ln2_coefficients(self):
        state = thermofield_double(build_two_level(1.0), beta=LN2)
        coeffs = schmidt_decompose(state).coefficients
        np.testing.assert_allclose(
            coeffs, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12
        )

    def test_proportional_identity_uniform_at_any_beta(self):
        h = Operator(3.7 * np.eye(4))
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            state = thermofield_double(h, beta)
            coeffs = schmidt_decompose(state).coefficients
            np.testing.assert_allclose(coeffs, [0.5] * 4, atol=1e-14)
            assert entanglement_entropy(state) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_reduction_is_gibbs(self):
        h = build_random_hermitian(6, seed=105)
        state = thermofield_double(h, beta=0.8)
        np.testing.assert_allclose(
            reduced_density(state).matrix, gibbs_density(h, 0.8).matrix, atol=1e-12
        )


class TestVerifyEquivalence:
    def test_identity_residual_zero(self):
        h = build_random_hermitian(5, seed=110)
        report = verify_equivalence(h, 1.1, Operator(np.eye(5)), "identity")
        assert report.residual <= 1e-12
        assert report.trace_average == pytest.approx(1.0, abs=1e-12)

    def test_bell_point(self):
        h = build_two_level(1.0)
        report = verify_equivalence(h, 0.0, Operator(np.diag([1.0, -1.0])), "z")
        assert report.trace_average == pytest.approx(0.0, abs=1e-12)
        assert report.doubled_expectation == pytest.approx(0.0, abs=1e-12)

    def test_seeded_sweep_dim_6(self):
        h = build_random_hermitian(6, seed=31)
        f = build_random_hermitian(6, seed=32)
        for beta in (0.1, 1.0, 10.0):
            report = verify_equivalence(h, beta, f, "f")
            assert report.residual <= 1e-10
            assert report.beta == beta
            assert report.observable_name == "f"
            assert report.residual == abs(report.trace_average - report.doubled_expectation)

    def test_report_carries_schmidt_and_entropy(self):
        h = build_two_level(1.0)
        report = verify_equivalence(h, LN2, h, "energy")
        np.testing.assert_allclose(
            report.schmidt_coefficients, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12
        )
        want = oracles.shannon_entropy([2 / 3, 1 / 3])
        assert report.entropy == pytest.approx(want, abs=1e-12)

    def test_schmidt_spectrum_matches_svd_dims_2_to_64(self):
        # verify takes the spectrum from the construction; an SVD measures it
        cases = [
            (build_random_hermitian(d, seed=600 + d), build_random_hermitian(d, seed=700 + d), ())
            for d in range(2, 65)
        ]
        cases.append((Operator(3.7 * np.eye(5)), Operator(np.eye(5)), ()))
        cases.append((build_two_level(1.0), build_two_level(1.0), (LN2,)))
        for h, f, extra_betas in cases:
            for beta in (0.0, 0.1, 1.0, 10.0, 100.0) + extra_betas:
                report = verify_equivalence(h, beta, f)
                state = thermofield_double(h, beta)
                measured = np.linalg.svd(state.amplitudes, compute_uv=False)
                c = report.schmidt_coefficients
                np.testing.assert_allclose(c, measured, rtol=0.0, atol=1e-12)
                assert int(np.sum(c > RANK_CUTOFF * c[0])) == schmidt_decompose(state).rank
                assert report.entropy == pytest.approx(schmidt_entropy(measured), abs=1e-12)

    def test_span_past_float_range_at_infinite_temperature(self):
        h = Operator(np.diag([-1e308, 1e308]))
        report = verify_equivalence(h, 0.0, Operator(np.eye(2)))
        np.testing.assert_array_equal(report.schmidt_coefficients, [2**-0.5, 2**-0.5])
        assert report.entropy == pytest.approx(LN2, abs=1e-12)


class TestDecohere:
    def test_infinite_temperature(self):
        rho = decohere_tfd(build_random_hermitian(3, seed=115), beta=0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-12)

    def test_cold_limit(self):
        rho = decohere_tfd(build_two_level(1.0), beta=50.0)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-20)

    def test_matches_gibbs_seed_37(self):
        h = build_random_hermitian(5, seed=37)
        delta = decohere_tfd(h, beta=2.0).matrix - gibbs_density(h, 2.0).matrix
        assert np.linalg.norm(delta) <= 1e-10


# one instance of each value type, made afresh on every call
VALUE_TYPES = {
    "Operator": lambda: Operator(np.eye(2)),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "BipartitePureState": lambda: BipartitePureState(np.eye(1)),
    "SchmidtResult": lambda: SchmidtResult(np.ones(1), np.eye(1), np.eye(1)),
    "ThermalSpectrum": lambda: thermal_spectrum(build_two_level(1.0), 1.0),
    "ThermalReport": lambda: verify_equivalence(build_two_level(1.0), 1.0, Operator(np.eye(2))),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_types_compare_and_hash_by_identity(make):
    # the per-instance caches assume identity; array fields have no truth value
    x, equal_valued = make(), make()
    assert x == x
    assert x != equal_valued
    assert len({x, x}) == 1
    assert len({x, equal_valued}) == 2


class TestTildeConjugation:
    """The paper's claim: on the thermal double, F acting on the system equals
    its tilde conjugate acting on the surroundings.

    With amplitudes ``a = V rho^{1/2}`` in the eigenbasis ``V``,
    ``(F (x) 1)|psi> = (1 (x) F~)|psi>`` for
    ``F~ = (rho^{-1/2} V^dagger F V rho^{1/2})^T``; in amplitude form
    ``F @ a == a @ F~^T``.  Drawn with ``beta * (E_max - E_min) <= 20`` so
    that ``rho^{-1/2}`` stays well conditioned.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        model=st.one_of(
            st.tuples(
                st.just("ising"),
                st.integers(min_value=1, max_value=5),
                st.floats(min_value=-3.0, max_value=3.0),
                st.floats(min_value=-3.0, max_value=3.0),
            ),
            st.tuples(
                st.just("random_hermitian"),
                st.integers(min_value=2, max_value=32),
                st.integers(min_value=0, max_value=2**62),
            ),
        ),
        observable_seed=st.integers(min_value=0, max_value=2**62),
        heat=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_property_system_action_is_tilde_action(self, model, observable_seed, heat):
        if model[0] == "ising":
            h = build_ising(*model[1:])
            g = standard_normals(observable_seed, h.dim * h.dim).reshape(h.dim, h.dim)
            f = (g + g.T) / 2.0  # real, like the chain
        else:
            h = build_random_hermitian(*model[1:])
            f = build_random_hermitian(h.dim, observable_seed).matrix
        eig = hermitian_eig(h)
        span = float(eig.eigenvalues[-1] - eig.eigenvalues[0])
        beta = heat / span if span > 0.0 else heat  # beta * span <= 20
        a = thermofield_double(h, beta).amplitudes
        root = np.sqrt(thermal_spectrum(h, beta).probabilities)
        v = eig.eigenvectors
        tilde = ((dagger(v) @ f @ v) * root[np.newaxis, :] / root[:, np.newaxis]).T
        gap = float(np.linalg.norm(f @ a - a @ tilde.T))
        assert gap <= 1e-9 * max(1.0, float(np.linalg.norm(f))), (model, beta, gap)


@st.composite
def hermitian_inputs(draw):
    """Exactly Hermitian matrices of side 1..6, entries over the whole float range.

    Three kinds: real symmetric; complex with nonzero imaginary parts; and
    complex whose imaginary parts are all +0.0 or -0.0, which ``Operator``
    keeps as float64.
    """
    kind = draw(st.sampled_from(["real", "complex", "signed_zero_imag"]))
    d = draw(st.integers(min_value=1, max_value=6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    entries = st.lists(finite, min_size=d * d, max_size=d * d).map(
        lambda x: np.array(x).reshape(d, d)
    )
    lower = np.tril(draw(entries))
    m = lower + np.tril(lower, -1).T
    if kind == "real":
        return m
    h = np.empty((d, d), dtype=np.complex128)
    h.real = m
    if kind == "complex":
        strict = np.tril(draw(entries), -1)
        h.imag = strict - strict.T
    else:
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d * d, max_size=d * d))
        h.imag = np.copysign(0.0, np.array(signs).reshape(d, d))
    return h


class TestAdmittedIsAccepted:
    """An operator that ``Operator`` and ``require_hermitian`` admit,
    ``hermitian_eig`` and ``thermal_spectrum`` accept at beta 0, 1 and 1e3.

    The failures allowed are the two documented ones: an eigendecomposition
    that overflows to a non-finite value, and a log partition sum past the
    float range, which happens exactly when ``beta * E_min`` is past it.
    Nothing warns.
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(h=hermitian_inputs())
    def test_property_operator_eig_spectrum(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = Operator(h)
            require_hermitian(op)
            try:
                eig = hermitian_eig(op)
            except ValidationError as exc:
                assert str(exc).startswith("eigendecomposition is not finite"), exc
                return
            for beta in (0.0, 1.0, 1e3):
                try:
                    spec = thermal_spectrum(op, beta)
                except ValidationError as exc:
                    assert not math.isfinite(beta * float(eig.eigenvalues[0])), exc
                    assert "log partition sum must be finite" in str(exc), exc
                    continue
                assert spec.energies is eig.eigenvalues
                assert math.isfinite(spec.log_partition)

    def test_signed_zero_imaginary_parts_are_real(self):
        h = np.array([[2.0 + 0.0j, complex(1.0, -0.0)], [complex(1.0, 0.0), -2.0 - 0.0j]])
        op = Operator(h)
        assert op.matrix.dtype == np.float64
        spec = thermal_spectrum(op, 1.0)
        np.testing.assert_allclose(spec.energies, [-math.sqrt(5.0), math.sqrt(5.0)], atol=1e-14)
