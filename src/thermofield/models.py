"""Seeded, reproducible builders for Hamiltonians, observables, and states.

Every random builder draws from the same fixed scheme, so identical
parameters give bit-identical output on any platform:

1. Philox4x64-10 counter-based generator, keyed with the seed reduced
   modulo 2**64, streaming raw 64-bit words ``x_0, x_1, ...``.
2. Uniforms ``u_k = (x_k >> 11) * 2**-53`` in ``[0, 1)``.
3. Standard normals via the Box-Muller transform on consecutive pairs:
   ``r = sqrt(-2 ln(1 - u_{2k}))``, ``theta = 2 pi u_{2k+1}``,
   ``z_{2k} = r cos(theta)``, ``z_{2k+1} = r sin(theta)``.
4. Complex arrays are filled row-major, entry ``m`` taking
   ``z_{2m} + i z_{2m+1}``.

Changing any step silently invalidates golden files; the scheme is pinned
by test vectors in the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import MAX_OPERATOR_DIM, Operator, dagger
from .bipartite import BipartitePureState

__all__ = [
    "ModelSpec",
    "MODEL_KINDS",
    "OBSERVABLE_NAMES",
    "parse_model_spec",
    "build_model",
    "build_two_level",
    "build_oscillator",
    "build_ising",
    "build_random_hermitian",
    "build_observable",
    "random_complex_matrix",
    "random_unit_vector",
    "random_bipartite_state",
]

MODEL_KINDS = ("two_level", "oscillator", "ising", "random_hermitian")
OBSERVABLE_NAMES = ("identity", "energy", "occupation", "magnetization")

MAX_ISING_SITES = 10

# Required JSON parameters per model kind.
_REQUIRED_PARAMS = {
    "two_level": ("gap",),
    "oscillator": ("omega", "cutoff"),
    "ising": ("n", "j", "h"),
    "random_hermitian": ("dim", "seed"),
}


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus its named parameters, as parsed from JSON."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )
        required = _REQUIRED_PARAMS[self.kind]
        missing = [k for k in required if k not in self.params]
        if missing:
            raise ValidationError(f"model {self.kind!r} is missing parameters {missing}")
        unknown = [k for k in self.params if k not in required]
        if unknown:
            raise ValidationError(f"model {self.kind!r} has unknown parameters {unknown}")
        object.__setattr__(self, "params", _validated_params(self.kind, self.params))


def parse_model_spec(obj: dict) -> ModelSpec:
    """Validate a ``{"kind": ..., "params": {...}}`` mapping."""
    if not isinstance(obj, dict) or set(obj) != {"kind", "params"}:
        raise ValidationError('model JSON must be an object with keys "kind" and "params"')
    if not isinstance(obj["params"], dict):
        raise ValidationError('model "params" must be an object')
    return ModelSpec(str(obj["kind"]), dict(obj["params"]))


def _positive_real(params: dict, key: str, kind: str) -> float:
    value = params[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be a number")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"model {kind!r} parameter {key!r} must be positive and finite")
    return value


def _finite_real(params: dict, key: str, kind: str) -> float:
    value = params[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be finite")
    return value


def _integer(params: dict, key: str, kind: str, lo: int, hi: int) -> int:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be an integer")
    if not lo <= value <= hi:
        raise ValidationError(
            f"model {kind!r} parameter {key!r} must be in [{lo}, {hi}], got {value}"
        )
    return value


def _validated_params(kind: str, params: dict) -> dict:
    """Range-check and normalize the parameters for one model kind."""
    if kind == "two_level":
        return {"gap": _positive_real(params, "gap", kind)}
    if kind == "oscillator":
        return {
            "omega": _positive_real(params, "omega", kind),
            "cutoff": _integer(params, "cutoff", kind, 2, MAX_OPERATOR_DIM),
        }
    if kind == "ising":
        return {
            "n": _integer(params, "n", kind, 1, MAX_ISING_SITES),
            "j": _finite_real(params, "j", kind),
            "h": _finite_real(params, "h", kind),
        }
    return {
        "dim": _integer(params, "dim", kind, 2, MAX_OPERATOR_DIM),
        "seed": _integer(params, "seed", kind, 0, 2**64 - 1),
    }


def build_model(spec: ModelSpec) -> Operator:
    """Build the Hamiltonian described by a validated ModelSpec."""
    params = spec.params
    if spec.kind == "two_level":
        return build_two_level(params["gap"])
    if spec.kind == "oscillator":
        return build_oscillator(params["omega"], params["cutoff"])
    if spec.kind == "ising":
        return build_ising(params["n"], params["j"], params["h"])
    return build_random_hermitian(params["dim"], params["seed"])


def build_two_level(gap: float) -> Operator:
    """Two-level Hamiltonian ``diag(0, gap)``."""
    gap = float(gap)
    if not math.isfinite(gap) or gap <= 0.0:
        raise ValidationError(f"gap must be positive and finite, got {gap}")
    return Operator(np.diag([0.0, gap]).astype(np.complex128))


def build_oscillator(omega: float, cutoff: int) -> Operator:
    """Truncated harmonic ladder ``diag(omega * (n + 1/2))``, n < cutoff."""
    omega = float(omega)
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValidationError(f"omega must be positive and finite, got {omega}")
    if cutoff < 2 or cutoff > MAX_OPERATOR_DIM:
        raise ValidationError(f"cutoff must be in [2, {MAX_OPERATOR_DIM}], got {cutoff}")
    levels = omega * (np.arange(cutoff) + 0.5)
    return Operator(np.diag(levels).astype(np.complex128))


def build_ising(n: int, j: float, h_field: float) -> Operator:
    """Open-boundary transverse-field chain on ``n`` spins.

    ``H = -j * sum_k Z_k Z_{k+1} - h_field * sum_k X_k`` with site 0 as
    the most significant bit of the 2**n dimensional basis index.  Built
    from bit arithmetic: ``Z_k Z_{k+1}`` is diagonal with sign ``-1`` where
    bits k and k + 1 of the index differ, and ``X_k`` moves index ``i`` to
    ``i ^ (1 << (n - 1 - k))``.  The terms are added in the order of the
    sum, so the matrix equals the Kronecker-product assembly bit for bit.
    """
    if not 1 <= n <= MAX_ISING_SITES:
        raise ValidationError(f"site count must be in [1, {MAX_ISING_SITES}], got {n}")
    j = float(j)
    h_field = float(h_field)
    if not (math.isfinite(j) and math.isfinite(h_field)):
        raise ValidationError("couplings must be finite")

    dim = 2**n
    index = np.arange(dim)
    diagonal = np.zeros(dim)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected by Operator
        for k in range(n - 1):
            differ = ((index >> (n - 1 - k)) ^ (index >> (n - 2 - k))) & 1
            diagonal -= j * (1.0 - 2.0 * differ)
    total = np.diag(diagonal).astype(np.complex128)
    for k in range(n):
        total[index, index ^ (1 << (n - 1 - k))] -= h_field
    return Operator(total)


def _raw_uniforms(seed: int, count: int) -> np.ndarray:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError("seed must be an integer")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    generator = np.random.Philox(key=seed)
    raw = generator.random_raw(count)
    return (raw >> np.uint64(11)) * 2.0**-53


def standard_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of the documented normal stream."""
    pairs = (count + 1) // 2
    u = _raw_uniforms(seed, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def random_complex_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of independent standard complex normals, filled row-major."""
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {rows}x{cols}")
    z = standard_normals(seed, 2 * rows * cols)
    return (z[0::2] + 1j * z[1::2]).reshape(rows, cols)


def build_random_hermitian(dim: int, seed: int) -> Operator:
    """Hermitian matrix ``(G + G^dagger) / 2`` for a seeded Gaussian ``G``."""
    if dim < 2 or dim > MAX_OPERATOR_DIM:
        raise ValidationError(f"dim must be in [2, {MAX_OPERATOR_DIM}], got {dim}")
    g = random_complex_matrix(dim, dim, seed)
    return Operator((g + dagger(g)) / 2.0)


def random_unit_vector(dim: int, seed: int) -> np.ndarray:
    """Seeded complex Gaussian vector scaled to unit norm."""
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    z = standard_normals(seed, 2 * dim)
    v = z[0::2] + 1j * z[1::2]
    return v / np.linalg.norm(v)


def random_bipartite_state(dim_a: int, dim_b: int, seed: int) -> BipartitePureState:
    """Seeded Gaussian amplitude matrix scaled to a normalized state."""
    g = random_complex_matrix(dim_a, dim_b, seed)
    return BipartitePureState(g / np.linalg.norm(g))


def build_observable(name: str, hamiltonian: Operator) -> Operator:
    """Named observable matched to a model Hamiltonian.

    ``identity`` and ``energy`` work for any model; ``occupation`` is the
    level-index ladder ``diag(0, 1, ..., d-1)``; ``magnetization`` is the
    mean single-site Z and requires a power-of-two dimension.
    """
    dim = hamiltonian.dim
    if name == "identity":
        return Operator(np.eye(dim, dtype=np.complex128))
    if name == "energy":
        return hamiltonian
    if name == "occupation":
        return Operator(np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128))
    if name == "magnetization":
        n = dim.bit_length() - 1
        if 2**n != dim or n < 1:
            raise ValidationError(
                f"magnetization needs a power-of-two dimension, got {dim}"
            )
        diag = np.zeros(dim)
        for site in range(n):
            bit = 1 << (n - 1 - site)  # site 0 is the most significant bit
            signs = np.where(np.arange(dim) & bit, -1.0, 1.0)
            diag += signs
        return Operator(np.diag(diag / n).astype(np.complex128))
    raise ValidationError(
        f"unknown observable {name!r}; expected one of {OBSERVABLE_NAMES} or a file path"
    )
