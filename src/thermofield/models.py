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

Each model kind is described once, in ``_MODELS``: its builder and its
parameters with their checks.  ``ModelSpec`` applies the checks when a
model is parsed, and each builder applies the same checks when called
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .linalg import MAX_OPERATOR_DIM, Operator, dagger
from .bipartite import MAX_STATE_AMPLITUDES, BipartitePureState

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
    "random_bipartite_state",
]

OBSERVABLE_NAMES = ("identity", "energy", "occupation", "magnetization")

MAX_ISING_SITES = 10


def _number(value, key: str, kind: str) -> float:
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        return math.inf


def _positive_real(value, key: str, kind: str) -> float:
    value = _number(value, key, kind)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"model {kind!r} parameter {key!r} must be positive and finite")
    return value


def _finite_real(value, key: str, kind: str) -> float:
    value = _number(value, key, kind)
    if not math.isfinite(value):
        raise ValidationError(f"model {kind!r} parameter {key!r} must be finite")
    return value


def _integer(lo: int, hi: int):
    """Check for an integer parameter in ``[lo, hi]``."""

    def check(value, key: str, kind: str) -> int:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValidationError(f"model {kind!r} parameter {key!r} must be an integer")
        if not lo <= value <= hi:
            raise ValidationError(
                f"model {kind!r} parameter {key!r} must be in [{lo}, {hi}], got {value}"
            )
        return int(value)

    return check


# The one description of each model kind: the name of its builder in this
# module, and its parameters in the builder's argument order, each with its
# check.  Adding a kind takes one entry here and one builder below.
_MODELS = {
    "two_level": ("build_two_level", (("gap", _positive_real),)),
    "oscillator": (
        "build_oscillator",
        (("omega", _positive_real), ("cutoff", _integer(2, MAX_OPERATOR_DIM))),
    ),
    "ising": (
        "build_ising",
        (("n", _integer(1, MAX_ISING_SITES)), ("j", _finite_real), ("h", _finite_real)),
    ),
    "random_hermitian": (
        "build_random_hermitian",
        (("dim", _integer(2, MAX_OPERATOR_DIM)), ("seed", _integer(0, 2**64 - 1))),
    ),
}

MODEL_KINDS = tuple(_MODELS)


def _checked(kind: str, *values) -> tuple:
    """``values`` in the builder's argument order, each through its table check."""
    _, params = _MODELS[kind]
    return tuple(check(value, key, kind) for (key, check), value in zip(params, values))


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus its named parameters, as parsed from JSON."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _MODELS:
            raise ValidationError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )
        _, params = _MODELS[self.kind]
        names = [key for key, _ in params]
        missing = [k for k in names if k not in self.params]
        if missing:
            raise ValidationError(f"model {self.kind!r} is missing parameters {missing}")
        unknown = [k for k in self.params if k not in names]
        if unknown:
            raise ValidationError(f"model {self.kind!r} has unknown parameters {unknown}")
        values = _checked(self.kind, *(self.params[k] for k in names))
        object.__setattr__(self, "params", dict(zip(names, values)))


def parse_model_spec(obj: dict) -> ModelSpec:
    """Validate a ``{"kind": ..., "params": {...}}`` mapping."""
    if not isinstance(obj, dict) or set(obj) != {"kind", "params"}:
        raise ValidationError('model JSON must be an object with keys "kind" and "params"')
    if not isinstance(obj["params"], dict):
        raise ValidationError('model "params" must be an object')
    return ModelSpec(str(obj["kind"]), dict(obj["params"]))


def build_model(spec: ModelSpec) -> Operator:
    """Build the Hamiltonian described by a validated ModelSpec."""
    # the builder is looked up by name, so a rebound module attribute is used
    builder, _ = _MODELS[spec.kind]
    return globals()[builder](*spec.params.values())


def build_two_level(gap: float) -> Operator:
    """Two-level Hamiltonian ``diag(0, gap)``."""
    (gap,) = _checked("two_level", gap)
    return Operator(np.diag([0.0, gap]))


def build_oscillator(omega: float, cutoff: int) -> Operator:
    """Truncated harmonic ladder ``diag(omega * (n + 1/2))``, n < cutoff."""
    omega, cutoff = _checked("oscillator", omega, cutoff)
    with np.errstate(over="ignore"):  # an overflowing level is rejected by Operator
        levels = omega * (np.arange(cutoff) + 0.5)
    return Operator(np.diag(levels))


def build_ising(n: int, j: float, h_field: float) -> Operator:
    """Open-boundary transverse-field chain on ``n`` spins.

    ``H = -j * sum_k Z_k Z_{k+1} - h_field * sum_k X_k`` with site 0 as
    the most significant bit of the 2**n dimensional basis index.  Built
    from bit arithmetic: ``Z_k Z_{k+1}`` is diagonal with sign ``-1`` where
    bits k and k + 1 of the index differ, and ``X_k`` moves index ``i`` to
    ``i ^ (1 << (n - 1 - k))``.  The terms are added in the order of the
    sum, so the matrix equals the Kronecker-product assembly bit for bit.
    """
    n, j, h_field = _checked("ising", n, j, h_field)
    dim = 2**n
    index = np.arange(dim)
    diagonal = np.zeros(dim)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected by Operator
        for k in range(n - 1):
            differ = ((index >> (n - 1 - k)) ^ (index >> (n - 2 - k))) & 1
            diagonal -= j * (1.0 - 2.0 * differ)
    total = np.diag(diagonal)
    for k in range(n):
        total[index, index ^ (1 << (n - 1 - k))] -= h_field
    return Operator(total)


# Complex entries drawn per block, in whole rows: a matrix of up to
# 1024 x 1024 is one block.  Blocks are a multiple of 64 rows, so block
# edges fall on the same multiples of the SIMD width as in one whole draw.
_DRAW_BLOCK = 1 << 20
# Side of the tiles that build_random_hermitian forms G + G^dagger in.
_TILE = 256


def _philox(seed: int) -> np.random.Philox:
    """The generator of step 1, from a checked seed."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError("seed must be an integer")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Philox(key=seed)


def _raw_uniforms(generator: np.random.Philox, count: int) -> np.ndarray:
    """The next ``count`` uniforms of the stream (step 2)."""
    return (generator.random_raw(count) >> np.uint64(11)) * 2.0**-53


def _normals_into(out: np.ndarray, generator: np.random.Philox) -> None:
    """Fill ``out``, float64 of even size, with the next normals (step 3).

    Successive calls continue the stream, each from the word where the last
    one stopped.
    """
    u = _raw_uniforms(generator, out.size)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)


def standard_normals(seed: int, count: int) -> np.ndarray:
    """The first ``count`` values of the documented normal stream."""
    z = np.empty(2 * ((count + 1) // 2))
    _normals_into(z, _philox(seed))
    return z[:count]


def random_complex_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of independent standard complex normals, filled row-major (step 4).

    The stream is drawn in blocks of whole rows, straight into the matrix.
    """
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if rows * cols > MAX_STATE_AMPLITUDES:  # checked before anything is drawn
        raise CapacityError(
            f"random matrix with {rows * cols} entries exceeds the maximum {MAX_STATE_AMPLITUDES}"
        )
    generator = _philox(seed)
    m = np.empty((rows, cols), dtype=np.complex128)
    step = max(64, _DRAW_BLOCK // cols // 64 * 64)
    for start in range(0, rows, step):
        _normals_into(m[start : start + step].reshape(-1).view(np.float64), generator)
    return m


def build_random_hermitian(dim: int, seed: int) -> Operator:
    """Hermitian matrix ``(G + G^dagger) / 2`` for a seeded Gaussian ``G``.

    The sum is formed in ``G`` itself, a pair of mirrored tiles at a time,
    with the same operations as on the whole matrix, so the bits are the same.
    """
    dim, seed = _checked("random_hermitian", dim, seed)
    g = random_complex_matrix(dim, dim, seed)
    for i in range(0, dim, _TILE):
        rows = slice(i, i + _TILE)
        diagonal = g[rows, rows]
        diagonal[...] = (diagonal + dagger(diagonal)) / 2.0
        for j in range(i + _TILE, dim, _TILE):
            cols = slice(j, j + _TILE)
            upper = g[rows, cols].copy()
            g[rows, cols] = (upper + dagger(g[cols, rows])) / 2.0
            g[cols, rows] = (g[cols, rows] + dagger(upper)) / 2.0
    return Operator(g)


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
        return Operator(np.eye(dim))
    if name == "energy":
        return hamiltonian
    if name == "occupation":
        return Operator(np.diag(np.arange(dim, dtype=np.float64)))
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
        return Operator(np.diag(diag / n))
    raise ValidationError(
        f"unknown observable {name!r}; expected one of {OBSERVABLE_NAMES} or a file path"
    )
