"""Command-line front door.

One executable with five subcommands (``spectrum``, ``verify``, ``tfd``,
``purify``, ``schmidt``).  Data goes to stdout or ``--out``; diagnostics go
to stderr.  Exit codes: 0 success, 1 a residual exceeded the tolerance,
2 bad input, config, or I/O.  Output for a fixed config is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bipartite, models, serialize, thermal
from .bipartite import DensityMatrix
from .errors import ValidationError
from .linalg import Operator, dagger, hermitian_eig

__all__ = ["RunConfig", "main"]

CSV_HEADER = "beta,quantity,value"


@dataclass
class RunConfig:
    """Validated bundle of the common command-line options."""

    model: models.ModelSpec | None = None
    observable: str = "identity"
    betas: list[float] = field(default_factory=list)
    output_format: str = "json"
    output_path: str | None = None
    tolerance: float = 1e-10
    emit_state: str | None = None

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        if not math.isfinite(self.tolerance) or self.tolerance < 0.0:
            raise ValidationError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        for b in self.betas:
            if not math.isfinite(b) or b < 0.0:
                raise ValidationError(f"beta values must be finite and nonnegative, got {b}")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _load_model(arg: str, seed_override: int | None) -> models.ModelSpec:
    """Accept inline JSON (leading '{') or a path to a model file."""
    text = arg if arg.lstrip().startswith("{") else _read_text(arg)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid model JSON: {exc}") from exc
    if seed_override is not None:
        if not isinstance(obj, dict) or obj.get("kind") != "random_hermitian":
            raise ValidationError("--seed only applies to the random_hermitian model")
        params = obj.get("params")
        if isinstance(params, dict):
            params["seed"] = seed_override
    return models.parse_model_spec(obj)


def _resolve_observable(arg: str, hamiltonian: Operator) -> Operator:
    """A documented observable name, or a path to a matrix file."""
    if arg in models.OBSERVABLE_NAMES:
        return models.build_observable(arg, hamiltonian)
    matrix = serialize.load_matrix(_read_text(arg))
    if matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"observable file must hold a square matrix, got {matrix.shape}")
    return Operator(matrix)


def _parse_betas(arg: str) -> list[float]:
    try:
        betas = [float(part) for part in arg.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"invalid beta list {arg!r}") from exc
    if not betas:
        raise ValidationError("beta list must not be empty")
    return betas


def _render_csv(rows: list[tuple[str, str, str]]) -> str:
    return "\n".join([CSV_HEADER] + [",".join(row) for row in rows]) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path is not None:
        _write_text(config.output_path, text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(config: RunConfig) -> int:
    """Print the eigenvalues of the configured model, ascending."""
    hamiltonian = models.build_model(config.model)
    eigenvalues = hermitian_eig(hamiltonian).eigenvalues
    if config.output_format == "json":
        body = serialize.render_object(
            [("eigenvalues", serialize.render_number_array(eigenvalues))]
        )
        _emit(config, body + "\n")
    else:
        rows = [
            ("", f"eigenvalue_{n}", serialize.render_number(value))
            for n, value in enumerate(eigenvalues)
        ]
        _emit(config, _render_csv(rows))
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the equivalence check once per beta, in input order."""
    hamiltonian = models.build_model(config.model)
    observable = _resolve_observable(config.observable, hamiltonian)
    reports = thermal.verify_betas(hamiltonian, config.betas, observable, config.observable)
    if config.output_format == "json":
        body = "[" + ", ".join(serialize.dump_report(r) for r in reports) + "]"
        _emit(config, body + "\n")
    else:
        rows: list[tuple[str, str, str]] = []
        for r in reports:
            beta_cell = serialize.render_number(r.beta)
            rows.append((beta_cell, "trace_average", serialize.render_number(r.trace_average)))
            rows.append(
                (beta_cell, "doubled_expectation", serialize.render_number(r.doubled_expectation))
            )
            rows.append((beta_cell, "residual", serialize.render_number(r.residual)))
            rows.append((beta_cell, "entropy", serialize.render_number(r.entropy)))
            for k, c in enumerate(r.schmidt_coefficients):
                rows.append((beta_cell, f"schmidt_coefficient_{k}", serialize.render_number(c)))
        _emit(config, _render_csv(rows))
    worst = max(r.residual for r in reports)
    if worst > config.tolerance:
        print(
            f"equivalence residual {worst:.3e} exceeds tolerance "
            f"{config.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_tfd(config: RunConfig) -> int:
    """Report the doubled-state spectrum per beta; optionally save the state."""
    hamiltonian = models.build_model(config.model)
    if config.emit_state is not None and len(config.betas) != 1:
        raise ValidationError("--emit-state requires exactly one beta value")
    entries = []
    for beta in config.betas:
        state = thermal.thermofield_double(hamiltonian, beta)
        schmidt = bipartite.schmidt_decompose(state)
        entropy = bipartite.schmidt_entropy(schmidt.coefficients)
        entries.append((beta, schmidt.coefficients, entropy))
        if config.emit_state is not None:
            _write_text(config.emit_state, serialize.dump_state(state) + "\n")
    if config.output_format == "json":
        body = "[" + ", ".join(
            serialize.render_object(
                [
                    ("beta", serialize.render_number(beta)),
                    ("schmidt_coefficients", serialize.render_number_array(coeffs)),
                    ("entropy", serialize.render_number(entropy)),
                ]
            )
            for beta, coeffs, entropy in entries
        ) + "]"
        _emit(config, body + "\n")
    else:
        rows = []
        for beta, coeffs, entropy in entries:
            beta_cell = serialize.render_number(beta)
            for k, c in enumerate(coeffs):
                rows.append((beta_cell, f"schmidt_coefficient_{k}", serialize.render_number(c)))
            rows.append((beta_cell, "entropy", serialize.render_number(entropy)))
        _emit(config, _render_csv(rows))
    return 0


def cmd_purify(config: RunConfig, density_path: str) -> int:
    """Purify a density-matrix file and report the round-trip residual."""
    rho = DensityMatrix(Operator(serialize.load_matrix(_read_text(density_path))))
    state = bipartite.purify(rho)
    a = state.amplitudes
    residual = float(np.linalg.norm(a @ dagger(a) - rho.matrix))
    state_json = serialize.dump_state(state)
    if config.emit_state is not None:
        _write_text(config.emit_state, state_json + "\n")
    if config.output_format == "json":
        body = serialize.render_object(
            [
                ("round_trip_residual", serialize.render_number(residual)),
                ("state", state_json),
            ]
        )
        _emit(config, body + "\n")
    else:
        _emit(config, _render_csv([("", "round_trip_residual", serialize.render_number(residual))]))
    if residual > config.tolerance:
        print(
            f"round-trip residual {residual:.3e} exceeds tolerance {config.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_schmidt(config: RunConfig, state_path: str) -> int:
    """Schmidt spectrum, rank, and entropy of a state file."""
    state = serialize.load_state(_read_text(state_path))
    schmidt = bipartite.schmidt_decompose(state)
    entropy = bipartite.schmidt_entropy(schmidt.coefficients)
    if config.output_format == "json":
        body = serialize.render_object(
            [
                ("coefficients", serialize.render_number_array(schmidt.coefficients)),
                ("rank", str(schmidt.rank)),
                ("entropy", serialize.render_number(entropy)),
            ]
        )
        _emit(config, body + "\n")
    else:
        rows = [
            ("", f"schmidt_coefficient_{k}", serialize.render_number(c))
            for k, c in enumerate(schmidt.coefficients)
        ]
        rows.append(("", "rank", str(schmidt.rank)))
        rows.append(("", "entropy", serialize.render_number(entropy)))
        _emit(config, _render_csv(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofield",
        description="Schmidt decomposition, Gibbs ensembles, and thermal double states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model: bool, betas: bool):
        if model:
            p.add_argument("--model", required=True, help="model file path or inline JSON")
            p.add_argument("--seed", type=int, default=None, help="seed override for random models")
        if betas:
            p.add_argument("--beta", required=True, help="comma-separated inverse temperatures")
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format")
        p.add_argument("--out", default=None, dest="output_path", help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=1e-10, dest="tolerance", help="residual tolerance")

    p = sub.add_parser("spectrum", help="eigenvalues of a model Hamiltonian")
    add_common(p, model=True, betas=False)

    p = sub.add_parser("verify", help="ensemble average vs doubled-space expectation")
    add_common(p, model=True, betas=True)
    p.add_argument("--observable", default="identity", help="observable name or matrix file")

    p = sub.add_parser("tfd", help="doubled-state Schmidt spectrum and entropy")
    add_common(p, model=True, betas=True)
    p.add_argument("--emit-state", default=None, dest="emit_state", help="write the state file")

    p = sub.add_parser("purify", help="purify a density-matrix file")
    p.add_argument("density", help="density-matrix file (shared matrix format)")
    add_common(p, model=False, betas=False)
    p.add_argument("--emit-state", default=None, dest="emit_state", help="write the state file")

    p = sub.add_parser("schmidt", help="Schmidt spectrum of a state file")
    p.add_argument("state", help="state file path")
    add_common(p, model=False, betas=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            model=_load_model(args.model, args.seed) if hasattr(args, "model") else None,
            observable=getattr(args, "observable", "identity"),
            betas=_parse_betas(args.beta) if hasattr(args, "beta") else [],
            output_format=args.output_format,
            output_path=args.output_path,
            tolerance=args.tolerance,
            emit_state=getattr(args, "emit_state", None),
        )
        if args.command == "spectrum":
            return cmd_spectrum(config)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "tfd":
            return cmd_tfd(config)
        if args.command == "purify":
            return cmd_purify(config, args.density)
        if args.command == "schmidt":
            return cmd_schmidt(config, args.state)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
