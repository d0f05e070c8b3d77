"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 invalid
input, 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .cy import cy_check
from .differential import DGModel, check_d_squared, check_grading
from .errors import InvalidInputError, ResourceLimitError, path_cap
from .ginzburg import ginzburg_model, restrict_potential
from .homology import cohomology_dims, compare_h0
from .koszul import McKayData, deleted_mckay_model, mckay_model, polynomial_model


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidInputError(f"bad weight list {text!r}") from None


def _write(args, text: str) -> None:
    """text to the --out file, or to stdout without one."""
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.out}: {exc}") from exc


def _emit(args, doc):
    _write(args, serialize.dumps(doc))


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def _checks(model: DGModel) -> list[dict]:
    """The model checks of the CLI: grading, then d^2 only when grading
    passes, as the d^2 check needs hdeg-homogeneous d(a)."""
    reports = [check_grading(model.differential)]
    if reports[0]["status"] == "pass":
        reports.append(check_d_squared(model.differential))
    return reports


def _first_failure(model: DGModel) -> dict | None:
    """The first failing report of _checks, or None when both pass."""
    return next((r for r in _checks(model) if r["status"] != "pass"), None)


def _mckay_data(args) -> McKayData:
    if args.m < 2:
        raise InvalidInputError(f"--m must be >= 2, got {args.m}")
    weights = _parse_weights(args.weights)
    reduced = tuple(a % args.m for a in weights)
    warnings = []
    if reduced != weights:
        warnings.append(f"weights reduced mod {args.m}: {list(weights)} -> {list(reduced)}")
    data = McKayData(args.m, reduced)
    warnings += list(data.warnings)
    if warnings:
        if args.strict:
            raise InvalidInputError("; ".join(warnings))
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    return data


def _emit_model(args, model: DGModel) -> int:
    """The model on stdout or --out; with --verify, _checks on it and a
    failing report on stderr."""
    reports = _checks(model) if args.verify else []
    _emit(args, serialize.model_to_json(model))
    return _report_status(reports)


def cmd_model_poly(args) -> int:
    return _emit_model(args, polynomial_model(args.n))


def cmd_model_mckay(args) -> int:
    data = _mckay_data(args)
    return _emit_model(args, deleted_mckay_model(data, 0) if args.delete_zero else mckay_model(data))


def cmd_ginzburg(args) -> int:
    quiver = serialize.quiver_from_json(_load(args.quiver))
    w = serialize.potential_from_json(quiver, _load(args.potential))
    if args.delete_vertex is not None:
        w = restrict_potential(w, _coerce_vertex(quiver, args.delete_vertex))
    return _emit_model(args, ginzburg_model(w))


def _coerce_vertex(quiver, text: str):
    if text in quiver.vertices:
        return text
    try:
        v = int(text)
    except ValueError:
        v = text
    if v not in quiver.vertices:
        raise InvalidInputError(f"unknown vertex {text!r}")
    return v


def cmd_cohomology(args) -> int:
    if args.hmin > 0:
        raise InvalidInputError(f"--hmin must be <= 0, got {args.hmin}")
    if args.adams_max < 1:
        raise InvalidInputError(f"--adams-max must be >= 1, got {args.adams_max}")
    model = serialize.model_from_json(_load(args.model))
    failed = _first_failure(model)
    if failed:
        _emit(args, failed)
        return 1
    # refused before it is made, as the table is dense in (h, a)
    entries = (1 - args.hmin) * (args.adams_max + 1)
    if entries > (cap := path_cap()):
        raise ResourceLimitError(f"a table of {entries} entries exceeds the path cap {cap}; raise DGQ_PATH_CAP")
    table = cohomology_dims(model, args.hmin, args.adams_max)
    if args.format == "table":
        lines = ["h\\a " + " ".join(f"{a:>4}" for a in range(args.adams_max + 1))]
        for h in range(0, args.hmin - 1, -1):
            lines.append(f"{h:>4} " + " ".join(f"{table[(h, a)]:>4}" for a in range(args.adams_max + 1)))
        _write(args, "\n".join(lines) + "\n")
    else:
        doc = {f"{h},{a}": v for (h, a), v in table.items()}
        _emit(args, {"check": "cohomology", "hmin": args.hmin, "adams_max": args.adams_max, "dims": doc})
    return 0


def cmd_compare_h0(args) -> int:
    if args.adams_max < 0:
        raise InvalidInputError(f"--adams-max must be >= 0, got {args.adams_max}")
    model = serialize.model_from_json(_load(args.model))
    pres = serialize.presentation_from_json(_load(args.presentation))
    failed = _first_failure(model)
    if failed:
        _emit(args, failed)
        return 1
    arrow_map = vertex_map = None
    if args.map:
        doc = _load(args.map)
        if not isinstance(doc, dict):
            raise InvalidInputError("malformed map document: not an object")
        arrow_map = doc.get("arrows")
        vertex_map = doc.get("vertices")
        for part in (arrow_map, vertex_map):
            # a vertex id is a string or a JSON integer, not a float or a bool, as in serialize
            if part is not None and not (isinstance(part, dict) and all(type(v) in (int, str) for v in part.values())):
                raise InvalidInputError("malformed map document: arrows and vertices must map ids to ids")
        if vertex_map is not None:
            vertex_map = {_coerce_vertex(model.quiver, k): v for k, v in vertex_map.items()}
    report = compare_h0(model, pres, args.adams_max, arrow_map, vertex_map)
    _emit(args, report)
    return 0 if report["status"] == "pass" else 1


def cmd_cy_check(args) -> int:
    report = cy_check(_mckay_data(args), args.adams_max)
    _emit(args, report)
    return 0 if report["status"] == "pass" else 1


def cmd_verify(args) -> int:
    model = serialize.model_from_json(_load(args.model))
    reports = _checks(model)
    _emit(args, {"checks": reports})
    return _report_status(reports)


def _report_status(reports) -> int:
    for r in reports:
        if r["status"] != "pass":
            sys.stderr.write(serialize.dumps(r))
            return 1
    return 0


def _model_poly_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="run the checks of verify on the model")
    p.add_argument("--out")


def _model_mckay_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma separated, e.g. 1,1,1,1")
    p.add_argument("--delete-zero", action="store_true", help="delete vertex 0")
    p.add_argument("--verify", action="store_true", help="run the checks of verify on the model")
    p.add_argument("--strict", action="store_true", help="escalate hypothesis warnings to errors")
    p.add_argument("--out")


def _ginzburg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiver", required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--delete-vertex")
    p.add_argument("--verify", action="store_true", help="run the checks of verify on the model")
    p.add_argument("--out")


def _cohomology_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--hmin", type=int, required=True)
    p.add_argument("--adams-max", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")


def _compare_h0_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--presentation", required=True)
    p.add_argument("--map", help="JSON {arrows: {...}, vertices: {...}}")
    p.add_argument("--adams-max", type=int, required=True)
    p.add_argument("--out")


def _cy_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--adams-max", type=int, default=5)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--out")


# command -> (help, handler, adder of its arguments), in the order of --help
_COMMANDS = {
    "model-poly": ("minimal model of a polynomial ring", cmd_model_poly, _model_poly_args),
    "model-mckay": ("McKay minimal model for Z/m with weights", cmd_model_mckay, _model_mckay_args),
    "ginzburg": ("Ginzburg DG algebra from a quiver with potential", cmd_ginzburg, _ginzburg_args),
    "cohomology": ("truncated cohomology dimension table", cmd_cohomology, _cohomology_args),
    "compare-h0": ("compare H^0 of a model with a presented algebra", cmd_compare_h0, _compare_h0_args),
    "cy-check": ("weight-sum split, C Koszulity and omega checks", cmd_cy_check, _cy_check_args),
    "verify": ("grading check, then d^2 once grading passes, on a model file", cmd_verify, _verify_args),
}


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with only the parser of that one command.
    Its usage still lists every command, through the metavar, so each
    message it prints is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="dgquiver",
        description="Exact symbolic computation with differential graded path algebras",
    )
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else (only,):
        text, func, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command.  When the first argument names a command, only
    that command's parser is built; otherwise (no command, an unknown
    one, -h) the full one, whose messages name the command argument."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
