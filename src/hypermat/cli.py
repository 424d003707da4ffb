"""Command-line interface.

Commands operate on JSON tensor documents (see hypermat.documents) and
print exact rational results. Exit codes: 0 success or all checks passed,
1 identity failure, 2 input or usage error, 3 singular input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, evenrank, invariants, oddrank, suites
from .documents import load_tensor, tensor_to_document
from .errors import SingularTensorError
from .rational import format_scalar
from .report import VerificationReport

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermat",
        description="Exact invariants and identity checks for completely "
                    "symmetric higher-rank matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="determinant of a tensor file")
    det.add_argument("file")

    inv = sub.add_parser("invariants",
                         help="invariant sequence relative to a metric file")
    inv.add_argument("file")
    inv.add_argument("--metric", required=True)

    inverse = sub.add_parser("inverse", help="contravariant inverse tensor")
    inverse.add_argument("file")

    verify = sub.add_parser("verify", help="run a seeded identity suite")
    verify.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    verify.add_argument("--dim", required=True, type=int)
    verify.add_argument("--seed", required=True, type=int)
    verify.add_argument("--samples", type=int, default=5)

    lift = sub.add_parser("lift",
                          help="symmetrized outer square of a rank-3 tensor")
    lift.add_argument("file")

    for command in (det, inv, inverse, verify, lift):
        command.add_argument("--pretty", action="store_true",
                             help="human-readable output")
    return parser


def _cmd_det(args) -> int:
    tensor = load_tensor(args.file)
    if tensor.rank % 2 == 0:
        value = format_scalar(engine.epsilon_determinant(tensor))
        print(f"det: {value}" if args.pretty else value)
        return EXIT_OK
    cayley = format_scalar(evenrank.cayley_det(tensor))
    lines = ["epsilon: 0 (identically zero for odd rank)", f"cayley: {cayley}"]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    tensor = load_tensor(args.file)
    metric = load_tensor(args.metric)
    rendered = [format_scalar(v)
                for v in invariants.invariant_values(tensor, metric)]
    if args.pretty:
        print("\n".join(f"c_{s} = {v}" for s, v in enumerate(rendered)))
    else:
        print(json.dumps(rendered))
    return EXIT_OK


def _cmd_inverse(args) -> int:
    tensor = load_tensor(args.file)
    if tensor.rank % 2 == 0:
        result = engine.epsilon_inverse(tensor)
    elif tensor.rank == 3 and tensor.dim == 2:
        result = oddrank.inverse_odd_d2(tensor)
    else:
        raise ValueError("no inverse construction for this shape: odd rank "
                         "is only supported at rank 3 in two dimensions")
    doc = tensor_to_document(result)
    print(json.dumps(doc, indent=2) if args.pretty else json.dumps(doc))
    return EXIT_OK


def _render_report(report: VerificationReport, pretty: bool) -> str:
    if not pretty:
        return json.dumps(report.to_dict())
    width = max(len(c.identity) for c in report.checks) if report.checks else 0
    lines = [f"suite: {report.suite}"]
    for c in report.checks:
        seed = "-" if c.seed is None else str(c.seed)
        lines.append(f"{c.status:>8}  {c.identity:<{width}}  "
                     f"residual={c.residual}  seed={seed}")
    for key, value in report.notes.items():
        lines.append(f"note: {key} = {value}")
    lines.append("all checks passed" if report.all_pass else "FAILURES present")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    report = suites.run_suite(args.suite, args.dim, args.seed, args.samples)
    print(_render_report(report, args.pretty))
    return EXIT_OK if report.all_pass else EXIT_IDENTITY_FAILURE


def _cmd_lift(args) -> int:
    tensor = load_tensor(args.file)
    if tensor.rank != 3:
        raise ValueError("lift takes a rank-3 tensor")
    result = oddrank.lift(tensor)
    out = {"tensor": tensor_to_document(result.tensor),
           "det": format_scalar(result.det)}
    if result.cubic_disc is not None:
        out["cubic_discriminant"] = format_scalar(result.cubic_disc)
        out["ratio"] = (format_scalar(result.ratio)
                        if result.ratio is not None else None)
    print(json.dumps(out, indent=2) if args.pretty else json.dumps(out))
    return EXIT_OK


_HANDLERS = {"det": _cmd_det, "invariants": _cmd_invariants,
             "inverse": _cmd_inverse, "verify": _cmd_verify,
             "lift": _cmd_lift}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except SingularTensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
