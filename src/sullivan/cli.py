"""Command line front end.

Every subcommand reads the plain-text document format of :mod:`sullivan.dsl`
and prints either a rendered document or a small report.  Exit codes are
uniform across subcommands:

* 0: success.
* 2: bad input (parse errors, validation failures, malformed options).
* 3: a mathematical check failed (a morphism is not a quasi-isomorphism,
  or a verification case reports FAIL).
* 4: a computation hit the basis-size cap (see RHT_MAX_BASIS) or ran out
  of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from sullivan.cdga import FreeCDGA, validate
from sullivan.cohomology import (
    RingPresentation,
    betti,
    check_bound,
    is_quasi_iso,
    quotient_ring_dims,
)
from sullivan.constructors import biquotient_model, projectivize
from sullivan.dsl import (
    DslError,
    ModelDocument,
    check_document,
    parse_expression,
    parse_model,
    parse_morphism,
    parse_pontryagin,
    parse_source,
    render_model,
)
from sullivan.errors import EngineError, ResourceLimitError, VerificationFailedError
from sullivan.gradedalg import Generator
from sullivan.reduction import DEFAULT_CHECK_DEGREE, reduce
from sullivan.verify import SHIPPED_INSTANCES, render_reports, run_all, run_case
from sullivan.presets import CASES


class _InputFailure(Exception):
    """An input problem whose diagnostics were already printed."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DslError(f"cannot read {path}: {exc.strerror or exc}", 1, 1) from exc


def _load_model(path: str) -> tuple[ModelDocument, FreeCDGA]:
    """Parse, resolve and fully validate the single model document of a file."""
    doc = parse_model(_read_text(path))
    model = doc.to_model()
    if validate(model):
        for line in check_document(doc):
            print(f"{path}: {line}", file=sys.stderr)
        raise _InputFailure()
    return doc, model


def _print_betti_text(report, label: str) -> None:
    print(f"{label}: cohomology up to degree {report.max_degree}")
    reps_by_degree = report.representatives or {}
    for degree in sorted(report.nonzero()):
        line = f"  H^{degree}: dim {report.betti[degree]}"
        if degree in reps_by_degree:
            reps = ", ".join(str(p) for p in reps_by_degree[degree])
            line += f"   [{reps}]"
        print(line)
    print(f"total dimension {report.total_dim()}")


def cmd_cohomology(args: argparse.Namespace) -> int:
    check_bound(args.max_degree, "--max-degree")
    doc, model = _load_model(args.model)
    report = betti(model, args.max_degree, representatives=args.representatives)
    if args.json:
        payload: dict[str, object] = {
            "betti": {str(d): report.betti[d] for d in sorted(report.nonzero())}
        }
        if args.representatives:
            payload["representatives"] = {
                str(d): [str(p) for p in report.representatives[d]]
                for d in sorted(report.representatives)
                if report.representatives[d]
            }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        _print_betti_text(report, doc.name)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    check_bound(args.check_degree, "--check-degree")
    doc, model = _load_model(args.model)
    reduced, log = reduce(model, check_degree=args.check_degree)
    if args.log:
        print(log.render())
        print()
    sys.stdout.write(render_model(reduced, name=f"{doc.name}_reduced"))
    return 0


def cmd_biquotient(args: argparse.Namespace) -> int:
    doc = parse_source(_read_text(args.config)).only("biquotient")
    model = biquotient_model(doc.to_classifying_data())
    sys.stdout.write(render_model(model, name=f"{doc.name}_model"))
    return 0


def cmd_projectivize(args: argparse.Namespace) -> int:
    doc, base = _load_model(args.base)
    if args.rank < 1:  # not a degree bound: only an exponent, of any size
        raise ValueError(f"rank must be >= 1, got {args.rank}")
    data = parse_pontryagin(_read_text(args.pontryagin), base, args.rank)
    model = projectivize(data)
    sys.stdout.write(render_model(model, name=f"{doc.name}_pe"))
    return 0


def cmd_quasi_iso(args: argparse.Namespace) -> int:
    check_bound(args.max_degree, "--max-degree")
    morphism = parse_morphism(_read_text(args.morphism))
    report = is_quasi_iso(morphism, args.max_degree)
    for degree in sorted(report.per_degree):
        print(f"  degree {degree}: {report.per_degree[degree].describe()}")
    if report.ok:
        print(f"quasi-isomorphism up to degree {report.max_degree}: yes")
        return 0
    bad = ", ".join(str(d) for d in report.failing_degrees())
    print(f"quasi-isomorphism up to degree {report.max_degree}: no (degrees {bad})")
    return 3


def _parse_gens_option(spec: str) -> tuple[Generator, ...]:
    gens = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, degree_text = chunk.partition(":")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad generator {chunk!r}, expected name:degree")
        try:
            degree = int(degree_text)
        except ValueError:
            raise ValueError(f"bad degree {degree_text.strip()!r} for {name}") from None
        gens.append(Generator(name, degree))
    if not gens:
        raise ValueError("no generators given")
    return tuple(gens)


def _parse_relations(path: str, gens: Sequence[Generator]) -> tuple:
    env = {g.name: g for g in gens}
    relations = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip().rstrip(";").strip()
        if not line:
            continue
        indent = len(code) - len(code.lstrip())
        try:
            relations.append(parse_expression(line, env))
        except DslError as exc:
            raise DslError(exc.message, lineno, indent + exc.col) from None
    return tuple(relations)


def cmd_quotient_dims(args: argparse.Namespace) -> int:
    check_bound(args.max_degree, "--max-degree")
    gens = _parse_gens_option(args.gens)
    relations = _parse_relations(args.relations, gens)
    pres = RingPresentation(gens, relations)
    dims = quotient_ring_dims(pres, args.max_degree)
    for degree in sorted(dims):
        print(f"  degree {degree}: dim {dims[degree]}")
    print(f"total dimension {sum(dims.values())} up to degree {args.max_degree}")
    return 0


def _verify_instances(case: Optional[str], n: Optional[int]):
    if case is None:
        if n is not None:
            raise ValueError("--n requires --case")
        return run_all()
    if n is not None:
        return (run_case(case, n),)
    return tuple(run_case(c, k) for c, k in SHIPPED_INSTANCES if c == case)


def cmd_paper_verify(args: argparse.Namespace) -> int:
    reports = _verify_instances(args.case, args.n)
    print(render_reports(reports))
    return 0 if all(r.ok for r in reports) else 3


@functools.cache  # one parser per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact rational cohomology of free commutative differential graded algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="betti numbers of a model file")
    p.add_argument("model", help="model document file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--representatives", action="store_true", help="print class representatives")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("reduce", help="eliminate acyclic generator pairs")
    p.add_argument("model", help="model document file")
    p.add_argument(
        "--check-degree",
        type=int,
        default=DEFAULT_CHECK_DEGREE,
        help="verify betti numbers up to this degree before and after (0 disables)",
    )
    p.add_argument("--log", action="store_true", help="print the step log")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("biquotient", help="build the model of a biquotient document")
    p.add_argument("--config", required=True, help="biquotient document file")
    p.set_defaults(func=cmd_biquotient)

    p = sub.add_parser("projectivize", help="model of a projectivized bundle over a base")
    p.add_argument("--base", required=True, help="base model document file")
    p.add_argument("--rank", required=True, type=int, help="fibre rank n (fibre HP^{n-1})")
    p.add_argument("--pontryagin", required=True, help="pontryagin document file")
    p.set_defaults(func=cmd_projectivize)

    p = sub.add_parser("quasi-iso", help="check a morphism file degree by degree")
    p.add_argument("morphism", help="morphism document file")
    p.add_argument("--max-degree", type=int, default=16)
    p.set_defaults(func=cmd_quasi_iso)

    p = sub.add_parser("quotient-dims", help="graded dimensions of a polynomial quotient")
    p.add_argument("--gens", required=True, help="comma list of name:degree, e.g. x4:4,y4:4")
    p.add_argument("--relations", required=True, help="file with one relation per line")
    p.add_argument("--max-degree", type=int, default=20)
    p.set_defaults(func=cmd_quotient_dims)

    p = sub.add_parser("paper-verify", help="run the recorded verification cases")
    p.add_argument("--case", choices=CASES, default=None)
    p.add_argument("--n", type=int, default=None, help="parameter for the scalable cases")
    p.set_defaults(func=cmd_paper_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputFailure:
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except VerificationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DslError, EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
