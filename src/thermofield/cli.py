"""Command-line front door.

One executable with five subcommands (``spectrum``, ``verify``, ``tfd``,
``purify``, ``schmidt``).  Data goes to stdout or ``--out``; diagnostics go
to stderr.  Exit codes: 0 success, 1 a residual exceeded the tolerance,
2 bad input, config, or I/O.  Output for a fixed config is byte-identical
across runs.
Each command returns its records, and :func:`_render` writes them in the
chosen format.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bipartite, models, serialize, thermal
from .bipartite import DensityMatrix
from .errors import ValidationError
from .linalg import Operator, bound_exceeded, dagger, hermitian_eig

__all__ = ["main"]

CSV_HEADER = "beta,quantity,value"


def _read_file(path: str) -> bytes:
    """The bytes of a file, line ends translated as a text-mode read does."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _write_text(path: str, *texts: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(texts)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _load_model(arg: str, seed_override: int | None) -> models.ModelSpec:
    """Accept inline JSON (leading '{') or a path to a model file."""
    # a byte-order mark is kept, so the JSON parser rejects it as in a file
    text = arg if arg.lstrip().lstrip("\ufeff").startswith("{") else _read_file(arg)
    obj = serialize.parse_json(text, "model JSON")
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
    matrix = serialize.load_matrix(_read_file(arg))
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


def _check_nonnegative(what: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"{what} must be finite and nonnegative, got {value}")


def _over_tolerance(
    what: str, residual: float, tolerance: float, op: Operator | None = None
) -> str | None:
    """The stderr line for a residual over ``bound_exceeded``'s bound, else None."""
    bound = bound_exceeded(residual, tolerance, op)
    return None if bound is None else f"{what} residual {residual:.3e} exceeds tolerance {bound:.3e}"


def _render(records: list, output_format: str, array: bool) -> str:
    """The records as JSON (one object, or an array of them) or as CSV rows.

    A record is a list of fields ``(JSON key, CSV quantity, value)``.  In
    CSV each field with a quantity is one ``beta,quantity,value`` row (an
    array one row ``<quantity>_<k>`` per entry), and the record's ``beta``
    field fills the beta column.  The document has no final newline.
    """
    if output_format == "json":
        objects = [serialize.render_object((key, value) for key, _, value in r) for r in records]
        return "[" + ", ".join(objects) + "]" if array else objects[0]
    lines = [CSV_HEADER]
    for fields in records:
        beta = next((serialize.render_number(v) for key, _, v in fields if key == "beta"), "")
        for _, quantity, value in fields:
            if quantity is None:
                continue
            if isinstance(value, np.ndarray):
                lines += [
                    f"{beta},{quantity}_{k},{serialize.render_number(x)}" for k, x in enumerate(value)
                ]
            else:
                lines.append(f"{beta},{quantity},{serialize.render_number(value)}")
    return "\n".join(lines)


# Every command takes the parsed arguments, with ``model`` loaded and ``beta``
# a checked list of floats, and returns its records and the stderr line of a
# residual over --tol (or None).


def cmd_spectrum(args: argparse.Namespace) -> tuple[list, str | None]:
    """The eigenvalues of the configured model, ascending."""
    eigenvalues = hermitian_eig(models.build_model(args.model)).eigenvalues
    return [[("eigenvalues", "eigenvalue", eigenvalues)]], None


def cmd_verify(args: argparse.Namespace) -> tuple[list, str | None]:
    """The equivalence check once per beta, in input order."""
    hamiltonian = models.build_model(args.model)
    observable = _resolve_observable(args.observable, hamiltonian)
    reports = thermal.verify_betas(hamiltonian, args.beta, observable, args.observable)
    worst = max(r.residual for r in reports)
    failure = _over_tolerance("equivalence", worst, args.tolerance, observable)
    return [serialize.report_fields(r) for r in reports], failure


def cmd_tfd(args: argparse.Namespace) -> tuple[list, str | None]:
    """The doubled-state Schmidt spectrum per beta; optionally save the state."""
    hamiltonian = models.build_model(args.model)
    if args.emit_state is not None and len(args.beta) != 1:
        raise ValidationError("--emit-state requires exactly one beta value")
    records = []
    for beta in args.beta:
        state = thermal.thermofield_double(hamiltonian, beta)
        coefficients = bipartite.schmidt_coefficients(state)
        records.append(
            [
                ("beta", None, beta),
                ("schmidt_coefficients", "schmidt_coefficient", coefficients),
                ("entropy", "entropy", bipartite.schmidt_entropy(coefficients)),
            ]
        )
        if args.emit_state is not None:
            _write_text(args.emit_state, serialize.dump_state(state), "\n")
    return records, None


def cmd_purify(args: argparse.Namespace) -> tuple[list, str | None]:
    """Purify a density-matrix file and report the round-trip residual."""
    rho = DensityMatrix(Operator(serialize.load_matrix(_read_file(args.density))))
    state = bipartite.purify(rho)
    a = state.amplitudes
    residual = float(np.linalg.norm(a @ dagger(a) - rho.matrix))
    record = [("round_trip_residual", "round_trip_residual", residual)]
    if args.output_format == "json" or args.emit_state is not None:  # CSV has no state row
        state_json = serialize.dump_state(state)
        record.append(("state", None, state_json))
        if args.emit_state is not None:
            _write_text(args.emit_state, state_json, "\n")
    return [record], _over_tolerance("round-trip", residual, args.tolerance)


def cmd_schmidt(args: argparse.Namespace) -> tuple[list, str | None]:
    """Schmidt spectrum, rank, and entropy of a state file."""
    coefficients = bipartite.schmidt_coefficients(serialize.load_state(_read_file(args.state)))
    record = [
        ("coefficients", "schmidt_coefficient", coefficients),
        ("rank", "rank", bipartite.schmidt_rank(coefficients)),
        ("entropy", "entropy", bipartite.schmidt_entropy(coefficients)),
    ]
    return [record], None


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "tfd": cmd_tfd,
    "purify": cmd_purify,
    "schmidt": cmd_schmidt,
}


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
        p.add_argument(
            "--tol",
            type=float,
            default=1e-10,
            dest="tolerance",
            help="residual tolerance; verify's is relative to max(1, ||F||_F) of the observable",
        )

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
        if hasattr(args, "model"):
            args.model = _load_model(args.model, args.seed)
        if hasattr(args, "beta"):
            args.beta = _parse_betas(args.beta)
        _check_nonnegative("tolerance", args.tolerance)
        for beta in getattr(args, "beta", ()):
            _check_nonnegative("beta values", beta)
        records, failure = _COMMANDS[args.command](args)
        # a command over a beta list writes one record per beta, as a JSON array
        text = _render(records, args.output_format, hasattr(args, "beta"))
        if args.output_path is not None:
            _write_text(args.output_path, text, "\n")
        else:
            print(text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
