"""Real-valued input stays float64 and is factored in real arithmetic.

A matrix whose imaginary parts are all exactly zero becomes float64 at the
``Operator`` / ``BipartitePureState`` boundary and reaches LAPACK as such;
anything else stays complex128.  Eigenvectors and singular vectors keep
the dtype of their matrix, and the real results agree with the complex
driver at rounding level.
"""

import json
import math

import numpy as np
import pytest

from thermofield import cli
from thermofield.bipartite import BipartitePureState
from thermofield.linalg import (
    Operator,
    dagger,
    hermitian_eig,
    singular_values,
    svd,
)
from thermofield.models import (
    build_ising,
    build_oscillator,
    build_random_hermitian,
    build_two_level,
    random_bipartite_state,
)
from thermofield.serialize import dump_matrix, dump_state
from thermofield.thermal import gibbs_density

ISING_9 = '{"kind": "ising", "params": {"n": 9, "j": 0.7, "h": 1.3}}'
ISING_4 = '{"kind": "ising", "params": {"n": 4, "j": 0.9, "h": 1.1}}'
RANDOM_8 = '{"kind": "random_hermitian", "params": {"dim": 8, "seed": 2}}'


def record_dtypes(monkeypatch) -> list:
    """Log ``(kernel, dtype of its matrix argument)`` for every LAPACK call."""
    seen = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _original=original, **kwargs):
            seen.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


def real_symmetric(dim: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).normal(size=(dim, dim))
    return (g + g.T) / 2.0


def real_generic_state(dim_a: int, dim_b: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).normal(size=(dim_a, dim_b))
    return g / np.linalg.norm(g)


def real_cases():
    cases = [(f"ising n={n}", build_ising(n, 0.9, 1.1).matrix) for n in range(1, 9)]
    cases += [
        ("degenerate ising", build_ising(5, 1.0, 0.0).matrix),
        ("3.7 I", 3.7 * np.eye(6, dtype=complex)),
        ("two_level", build_two_level(1.5).matrix),
        ("oscillator", build_oscillator(0.7, 12).matrix),
        ("real symmetric", real_symmetric(40, seed=5).astype(complex)),
    ]
    return cases


class TestDriverChoice:
    def test_real_commands_reach_lapack_as_float64(self, monkeypatch, capsys, tmp_path):
        state = tmp_path / "state.json"
        gibbs = tmp_path / "gibbs.json"
        gibbs.write_text(dump_matrix(gibbs_density(build_ising(4, 0.9, 1.1), 0.5).matrix))
        seen = record_dtypes(monkeypatch)
        assert cli.main(["tfd", "--model", ISING_4, "--beta", "0.5", "--emit-state", str(state)]) == 0
        assert cli.main(["schmidt", str(state)]) == 0
        assert cli.main(["purify", str(gibbs)]) == 0
        # a generic real state: not in Schmidt form, so its coefficients take the SVD
        generic = tmp_path / "generic.json"
        generic.write_text(dump_state(BipartitePureState(real_generic_state(6, 4, seed=3))))
        assert cli.main(["schmidt", str(generic)]) == 0
        kernels = sorted(name for name, _ in seen)
        # tfd and schmidt of its state: one eigh, the Schmidt form certified
        # without an SVD; purify: one eigh, made by admission and reused
        assert kernels == ["eigh", "eigh", "svd"]
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    def test_complex_model_stays_complex(self, monkeypatch, capsys, tmp_path):
        generic = tmp_path / "generic.json"
        generic.write_text(dump_state(random_bipartite_state(6, 4, seed=3)))
        seen = record_dtypes(monkeypatch)
        assert cli.main(["tfd", "--model", RANDOM_8, "--beta", "0.5"]) == 0
        assert cli.main(["schmidt", str(generic)]) == 0
        assert [name for name, _ in seen] == ["eigh", "svd"]
        assert {dtype for _, dtype in seen} == {np.dtype(np.complex128)}

    def test_tiny_imaginary_part_stays_complex(self, monkeypatch):
        m = real_symmetric(5, seed=9).astype(complex)
        m[0, 1] += 1e-300j
        m[1, 0] -= 1e-300j
        seen = record_dtypes(monkeypatch)
        hermitian_eig(Operator(m))
        svd(m)
        singular_values(m)
        assert len(seen) == 3
        assert {dtype for _, dtype in seen} == {np.dtype(np.complex128)}


class TestAgreementWithComplexDriver:
    @pytest.mark.parametrize("name,m", real_cases(), ids=[name for name, _ in real_cases()])
    def test_spectra_and_reconstructions(self, name, m):
        tol = 1e-12 * max(1.0, float(np.linalg.norm(m, 2)))
        c = np.asarray(m, dtype=complex)
        want_w = np.linalg.eigvalsh(c)  # complex driver on the complex matrix
        want_s = np.linalg.svd(c, compute_uv=False)

        op = Operator(m)
        m = op.matrix
        assert m.dtype == np.float64
        eig = hermitian_eig(op)
        np.testing.assert_allclose(eig.eigenvalues, want_w, rtol=0.0, atol=tol)
        v = eig.eigenvectors
        rebuilt = (v * eig.eigenvalues[np.newaxis, :]) @ dagger(v)
        assert np.max(np.abs(rebuilt - m)) <= tol
        assert np.max(np.abs(dagger(v) @ v - np.eye(len(m)))) <= 1e-12

        u, s, vh = svd(m)
        np.testing.assert_allclose(s, want_s, rtol=0.0, atol=tol)
        np.testing.assert_allclose(singular_values(m), want_s, rtol=0.0, atol=tol)
        assert np.max(np.abs((u * s[np.newaxis, :]) @ vh - m)) <= tol

    def test_rectangular_svd(self):
        m = np.random.default_rng(6).normal(size=(7, 5)).astype(complex)
        u, s, vh = svd(m)
        np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False), rtol=0.0, atol=1e-12)
        assert np.max(np.abs((u * s[np.newaxis, :]) @ vh - m)) <= 1e-12


class TestContracts:
    def test_eig_result_dtype_and_read_only(self):
        eig = hermitian_eig(build_ising(4, 0.9, 1.1))
        assert eig.eigenvalues.dtype == eig.eigenvectors.dtype == np.float64
        assert hermitian_eig(build_random_hermitian(4, seed=1)).eigenvectors.dtype == np.complex128
        with pytest.raises(ValueError):
            eig.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            eig.eigenvectors[0, 0] = 0.0

    def test_svd_factors_keep_input_dtype(self):
        u, s, vh = svd(real_symmetric(6, seed=3))
        assert u.dtype == vh.dtype == s.dtype == np.float64
        u, s, vh = svd(real_symmetric(6, seed=3) + 1j * real_symmetric(6, seed=4))
        assert u.dtype == vh.dtype == np.complex128
        assert s.dtype == np.float64

    def test_complex_input_unchanged(self):
        h = build_random_hermitian(12, seed=8)
        w, v = np.linalg.eigh(h.matrix)
        eig = hermitian_eig(h)
        assert eig.eigenvalues.tobytes() == w.tobytes()
        assert eig.eigenvectors.tobytes() == v.tobytes()


class TestCommands:
    def test_schmidt_repeats_tfd_bytes_ising_9(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        assert cli.main(["tfd", "--model", ISING_9, "--beta", "0.5", "--emit-state", str(state)]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert cli.main(["schmidt", str(state)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == entry["schmidt_coefficients"]
        assert report["entropy"] == entry["entropy"]

    def test_edge_purify_still_rejected(self, capsys, tmp_path):
        # admitted (smallest eigenvalue -5e-10), but clipping the negative
        # eigenvalues lifts the norm by 1.5e-9, above the 1e-9 tolerance
        eigenvalues = [0.3, 0.25, 0.2, 0.15, 0.1 + 1.5e-9, -5e-10, -5e-10, -5e-10]
        hadamard = np.array([[(-1) ** bin(r & c).count("1") for c in range(8)] for r in range(8)])
        q = hadamard / math.sqrt(8)
        rho = q @ np.diag(eigenvalues) @ q.T
        path = tmp_path / "edge.json"
        path.write_text(dump_matrix((rho + rho.T) / 2.0))
        assert cli.main(["purify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "state is not normalized" in err
        assert "1.500e-09" in err
