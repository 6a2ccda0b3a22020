"""Command-line surface: input parsing, report rendering, subcommands.

Classes cross the CLI boundary in the classical multiplicity notation:
{"h": "3", "e": ["1", ..., "1"]} means 3H - sum(E_i), the anticanonical
class.  Internally the lattice stores signed coefficients, so the boundary
negates the e-list in both directions.  ``parse_input`` only parses: each
command hands the class to the public computation it asks for (``verdict``,
``mu``; ``alpha-bound`` calls the ampleness test before the verdict's
certificate core), which tests ampleness once.

All JSON output serializes rationals as "p/q" strings and is rendered with
sorted keys, so identical inputs give byte-identical reports.  Exit codes:
0 a verdict or report was produced, 1 the input was rejected, 2 an internal
invariant failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import lcm
from operator import neg

from .alphabound import Certificate
from .appendix import grid_oracle
from .cones import _ample_signs, mu
from .curves import _tables, fiber_classes, minus_one_curves
from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    SurfaceModel,
    _from_row,
    _ratio_str,
    _rational_row,
    rational_str,
)
from .stability import (
    STATUS_INAPPLICABLE,
    STATUS_MAIN,
    STATUS_SIX_LINE,
    Verdict,
    _upper_bound,
    cubic_line_family_report,
    verdict,
)

# At most this many characters of an --L file are read; a valid document
# (nine coordinates of at most 3 * lattice.MAX_DIGITS characters) is a few KB.
MAX_INPUT_CHARS = 1 << 20

_CRITERION_NAMES = {
    STATUS_MAIN: "the low-degree nef-residual criterion",
    STATUS_SIX_LINE: "the cubic six-line family bound",
    STATUS_INAPPLICABLE: "the middle-degree certificate construction",
}


def _class_from_json(obj, s: SurfaceModel) -> DivClass:
    if not isinstance(obj, dict) or set(obj) != {"h", "e"}:
        raise DomainError('class must be an object with exactly "h" and "e"')
    if not isinstance(obj["e"], list):
        raise DomainError('"e" must be a list of rationals')
    if len(obj["e"]) != s.r:
        raise DomainError(
            f'"e" must have length {s.r} for degree {s.degree}, got {len(obj["e"])}'
        )
    den, (h, *e) = _rational_row([obj["h"], *obj["e"]])
    return _from_row(den, (h, *map(neg, e)))


def _expand_family(doc, s: SurfaceModel) -> DivClass:
    family = doc["family"]
    if family == "six-line":
        if s.degree != 3:
            raise DomainError('family "six-line" needs degree 3')
        if set(doc) != {"degree", "family", "x"}:
            raise DomainError('family "six-line" takes exactly "x"')
        q, (x,) = _rational_row([doc["x"]])
        return _anticanonical_plus(s, (1, 0), (q, (x,) * s.r))
    if family == "anticanonical-plus":
        if set(doc) != {"degree", "family", "delta", "a"}:
            raise DomainError('family "anticanonical-plus" takes "delta" and "a"')
        p, (delta,) = _rational_row([doc["delta"]])
        if delta < 0:
            raise DomainError('"delta" must be nonnegative')
        # with a fiber term the last basis curve is taken by the fiber, so
        # the weights cover E_1 .. E_{r-1} only; short lists pad with zero
        cap = s.r - 1 if delta > 0 else s.r
        if not isinstance(doc["a"], list) or len(doc["a"]) > cap:
            raise DomainError(f'"a" must be a list of at most {cap} rationals here')
        return _anticanonical_plus(s, (p, delta), _rational_row(doc["a"]))
    raise DomainError(f"unknown family {family!r}")


def _anticanonical_plus(s: SurfaceModel, delta, a) -> DivClass:
    """-K + delta*(H - E_r) + sum(a_i * E_i) over i <= len(a), built as one
    integer row over the lcm q of the weights' denominators.  delta is a
    (denominator, numerator) pair and a a (denominator, row) pair, as
    lattice._rational_row gives them."""
    (p, d), (m, a) = delta, a
    q = lcm(p, m)
    d *= q // p
    row = [3 * q + d, *(x * (q // m) - q for x in a)]
    row += [-q] * (s.r - len(a))
    row[-1] -= d
    return _from_row(q, tuple(row))


def parse_input(document) -> tuple[SurfaceModel, DivClass]:
    """Validate a JSON input document and expand it to an explicit class.
    Ampleness is left to the computation the class is for, which tests it
    once."""
    if isinstance(document, str):
        document = _parse_json(document)
    if not isinstance(document, dict):
        raise DomainError("input must be a JSON object")
    if "degree" not in document:
        raise DomainError('input needs a "degree"')
    s = SurfaceModel(document["degree"])
    if "family" in document:
        l = _expand_family(document, s)
    elif "L" in document:
        if set(document) != {"degree", "L"}:
            raise DomainError('explicit input takes exactly "degree" and "L"')
        l = _class_from_json(document["L"], s)
    else:
        raise DomainError('input needs either "L" or "family"')
    return s, l


def _class_to_json(c: DivClass) -> dict:
    h, *e = c.row
    return {"h": _ratio_str(h, c.den), "e": [_ratio_str(-x, c.den) for x in e]}


@lru_cache(maxsize=None)
def _line_json(degree: int) -> dict:
    """_class_to_json of each (-1)-curve of the degree, keyed by its row.
    The rendered payload is only read, so one dict serves every report."""
    tables = _tables(degree)
    return {row: _class_to_json(c) for row, c in zip(tables.rows, tables.lines)}


def _component_json(c: DivClass) -> dict:
    """_class_to_json(c), from _line_json when c is a (-1)-curve: a
    certificate's components are, though the public Certificate may hold
    any class."""
    degree = 10 - len(c.row)
    if c.den == 1 and 1 <= degree <= 8:
        found = _line_json(degree).get(c.row)
        if found is not None:
            return found
    return _class_to_json(c)


def _fmt_class(c: DivClass) -> str:
    h, *e = c.row
    return f"({_ratio_str(h, c.den)}; {', '.join(_ratio_str(-x, c.den) for x in e)})"


def _echo(s: SurfaceModel, l: DivClass) -> dict:
    return {"degree": s.degree, "L": _class_to_json(l)}


def _certificate_to_json(cert: Certificate) -> dict:
    return {
        "divisor": [
            {"class": _component_json(cls), "coefficient": rational_str(coeff)}
            for cls, coeff in cert.divisor
        ],
        "witness_index": cert.witness_index,
        "bound": rational_str(cert.bound),
    }


# json.dumps(payload, sort_keys=True, separators=(", ", ": ")), built once
_dumps = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


def _opt(value) -> str:
    return rational_str(value) if value is not None else "none"


def _certificate_lines(cert: Certificate) -> list[str]:
    return [f"  {rational_str(coeff)} x {_fmt_class(cls)}" for cls, coeff in cert.divisor]


def render_report(v: Verdict, format: str, echo: dict | None = None) -> str:
    """Deterministic rendering of a verdict, as text or a JSON document."""
    if format == "json":
        payload = {
            "status": v.status,
            "condition_a": v.condition_a,
            "nu": rational_str(v.nu),
            "alpha_lower": None if v.alpha_lower is None else rational_str(v.alpha_lower),
            "certificate": None
            if v.certificate is None
            else _certificate_to_json(v.certificate),
            "notes": v.notes,
        }
        if echo is not None:
            payload["input"] = echo
        return _dumps(payload)
    if format != "text":
        raise DomainError(f"unknown format {format!r}")
    lines = [f"status: {v.status}"]
    if v.status in _CRITERION_NAMES:
        lines.append(f"applies: {_CRITERION_NAMES[v.status]}")
    lines.append(f"slope nu: {rational_str(v.nu)}")
    lines.append(f"nef residual condition: {'yes' if v.condition_a else 'no'}")
    lines.append(f"alpha lower bound: {_opt(v.alpha_lower)}")
    if v.certificate is not None:
        lines.append(f"alpha upper bound certificate: {rational_str(v.certificate.bound)}")
        lines += _certificate_lines(v.certificate)
    lines.append(f"notes: {v.notes}")
    return "\n".join(lines)


def _load_document(args) -> dict:
    raw = args.L
    if raw is None:
        raise DomainError("--L is required")
    doc = _parse_json(raw if raw.lstrip().startswith("{") else _read_file(raw))
    if not isinstance(doc, dict):
        raise DomainError("input must be a JSON object")
    if "degree" not in doc and args.degree is not None:
        if "h" in doc:
            doc = {"degree": args.degree, "L": doc}
        else:
            doc = {"degree": args.degree, **doc}
    if args.degree is not None and doc.get("degree") != args.degree:
        raise DomainError(
            f"--degree {args.degree} conflicts with the document degree {doc.get('degree')}"
        )
    return doc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an int literal of over 4300 digits
        raise DomainError(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError("input is not valid JSON: it is nested too deeply") from exc


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_INPUT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if len(text) > MAX_INPUT_CHARS:
        raise DomainError(f"cannot read {path}: it has over {MAX_INPUT_CHARS} characters")
    return text


def _cmd_check(args) -> str:
    s, l = parse_input(_load_document(args))
    v = verdict(s, l)
    fmt = "json" if args.json else "text"
    return render_report(v, fmt, echo=_echo(s, l))


def _cmd_alpha_bound(args) -> str:
    s, l = parse_input(_load_document(args))
    signs = _ample_signs(l, s)
    if s.degree not in (4, 5, 6, 7):
        raise DomainError("alpha-bound applies in degrees 4 to 7")
    scale, cd, cert, comparison = _upper_bound(s, l, signs)
    if args.json:
        return _dumps(
            {
                "input": _echo(s, l),
                "mu": rational_str(scale),
                "kind": cd.kind,
                "delta": rational_str(cd.delta),
                "a": [rational_str(x) for x in cd.a],
                "certificate": _certificate_to_json(cert),
                "bound_for_input": rational_str(scale * cert.bound),
                "strict": comparison["strict"],
                "equality": comparison["equality"],
            }
        )
    lines = [
        f"normalization mu: {rational_str(scale)}",
        f"contraction kind: {cd.kind}",
        f"delta: {rational_str(cd.delta)}",
        f"a: ({', '.join(rational_str(x) for x in cd.a)})",
        f"alpha upper bound (normalized class): {rational_str(cert.bound)}",
        f"alpha upper bound (input class): {rational_str(scale * cert.bound)}",
        f"strictly below two thirds of the slope: {'yes' if comparison['strict'] else 'no'}",
    ]
    return "\n".join(lines + _certificate_lines(cert))


def _cmd_curves(args) -> str:
    if args.degree is None:
        raise DomainError("--degree is required")
    if not 1 <= args.degree <= 8:
        raise DomainError(f"degree must be in 1..8, got {args.degree}")
    s = SurfaceModel(args.degree)
    curves = fiber_classes(s) if args.fibers else minus_one_curves(s)
    if args.json:
        return _dumps(
            {
                "degree": s.degree,
                "kind": "fiber" if args.fibers else "exceptional",
                "count": len(curves),
                "classes": [_class_to_json(c) for c in curves],
            }
        )
    return "\n".join(_fmt_class(c) for c in curves)


def _cmd_mu(args) -> str:
    s, l = parse_input(_load_document(args))
    value = mu(l, s)
    if args.json:
        return _dumps({"input": _echo(s, l), "mu": rational_str(value)})
    return rational_str(value)


def _cmd_example_cubic(args) -> str:
    if args.x is None:
        raise DomainError("--x is required")
    report = cubic_line_family_report(args.x)
    if args.json:
        return _dumps(
            {
                "x": rational_str(report["x"]),
                "nu": rational_str(report["nu"]),
                "condition_a": report["condition_a"],
                "alpha_upper": rational_str(report["alpha_upper"]),
                "in_window": report["in_window"],
            }
        )
    return "\n".join(
        [
            f"x: {rational_str(report['x'])}",
            f"slope nu: {rational_str(report['nu'])}",
            f"nef residual condition: {'yes' if report['condition_a'] else 'no'}",
            f"alpha upper bound: {rational_str(report['alpha_upper'])}",
            f"inconclusive window: {'yes' if report['in_window'] else 'no'}",
        ]
    )


def _cmd_verify_appendix(args) -> str:
    report = grid_oracle(args.max_denominator, args.delta_max)
    payload = {
        "max_denominator": report.max_denominator,
        "delta_max": rational_str(report.delta_max),
        "total": report.total,
        "failures": [
            {"a": [rational_str(x) for x in p.a], "delta": rational_str(p.delta)}
            for p in report.failures
        ],
        "equality_points": [
            {"a": [rational_str(x) for x in p.a], "delta": rational_str(p.delta)}
            for p in report.equality_points
        ],
    }
    if report.failures:
        raise InvariantError(
            f"grid check found {len(report.failures)} counterexamples: "
            + _dumps(payload["failures"])
        )
    if args.json:
        return _dumps(payload)
    return "\n".join(
        [
            f"grid points checked: {report.total}",
            "counterexamples: 0",
            f"equality points: {len(payload['equality_points'])}",
        ]
        + [
            f"  a = ({', '.join(p['a'])}), delta = {p['delta']}"
            for p in payload["equality_points"]
        ]
    )


@lru_cache(maxsize=None)  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstab",
        description="Exact K-stability checks and alpha-invariant bound "
        "certificates for polarized del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--degree", type=int, help="surface degree in 1..8")
        p.add_argument("--L", help="polarization: JSON file path or inline JSON")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="full K-stability verdict")
    add_input_flags(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("alpha-bound", help="alpha upper-bound certificate, degrees 4-7")
    add_input_flags(p)
    p.set_defaults(run=_cmd_alpha_bound)

    p = sub.add_parser("curves", help="list exceptional or fiber classes")
    p.add_argument("--degree", type=int)
    p.add_argument("--fibers", action="store_true", help="list fiber classes instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_curves)

    p = sub.add_parser("mu", help="normalization constant of a polarization")
    add_input_flags(p)
    p.set_defaults(run=_cmd_mu)

    p = sub.add_parser("example-cubic", help="one-parameter cubic family report")
    p.add_argument("--x", help="family parameter in [0, 1), e.g. 1/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_example_cubic)

    p = sub.add_parser("verify-appendix", help="brute-force inequality grid check")
    p.add_argument("--max-denominator", type=int, default=4)
    p.add_argument("--delta-max", default="1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        print(args.run(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; as the Python docs advise, silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
