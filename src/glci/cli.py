"""Command line front end: reports, quiver/matrix exports and the invariant suite.

Exit codes: 0 success, 1 verification or invariant failure, 2 invalid input.
Output is deterministic byte for byte for a fixed invocation.  Each command
imports the modules it uses, so a run loads only those.  Each `cmd_*`
returns its exit code and its whole stdout text, and `run` alone writes
stdout: once per call, after the command has finished.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .grading import (
    GroupElement,
    Trichotomy,
    WeightSystem,
    interval,
    normal_form,
)

if TYPE_CHECKING:
    from . import classify
    from .algebra import Quiver


def parse_int(text: str) -> int:
    """An integer written as an optional sign and ASCII digits, with surrounding
    whitespace; `int` alone would also take underscores and other scripts' digits."""
    value = int(text)
    body = text.strip()
    if "_" in body or not body.isascii():
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return value


parse_int.__name__ = "int"  # argparse refuses an option's text as "invalid int value"


def parse_weights(text: str) -> tuple[int, ...]:
    if text.strip() in ("-", ""):
        return ()
    try:
        weights = tuple(parse_int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weights {text!r}") from exc
    return weights


def parse_element(ws: WeightSystem, text: str) -> GroupElement:
    """'a1,...,an;a' in normal-form coordinates; torsion may be omitted when n=0."""
    try:
        if ";" in text:
            tors_text, free_text = text.split(";")
        else:
            tors_text, free_text = "", text
        tors = [parse_int(v) for v in tors_text.split(",") if v.strip() != ""]
        return normal_form(ws, tors + [0] * (ws.n - len(tors)), parse_int(free_text))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse group element {text!r}: {exc}") from exc


def _text(lines) -> str:
    """What `print` writes for each line in turn."""
    return "".join(f"{line}\n" for line in lines)


def _vertices_json(q: Quiver) -> list[dict]:
    return [{"torsion": list(v.torsion), "free": v.free} for v in q.vertices]


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": _vertices_json(q),
        "arrows": [
            {"from": a.source, "to": a.target, "label": a.label} for a in q.arrows
        ],
        "relations": [
            {
                "coeffs": [str(c) for c in rel.coeffs],
                "paths": [list(path) for path in rel.paths],
            }
            for rel in q.relations
        ],
    }


def quiver_to_dot(q: Quiver) -> str:
    """Graphviz source of a quiver; cut arrows of an orbit quiver are dashed."""
    lines = ["digraph quiver {"]
    for i, v in enumerate(q.vertices):
        lines.append(f'  v{i} [label="{v}"];')
    for a in q.arrows:
        attrs = f'label="x{a.label}"'
        if a.cut:
            attrs += ", style=dashed"
        lines.append(f"  v{a.source} -> v{a.target} [{attrs}];")
    lines.append("}")
    return _text(lines)


def quiver_to_text(q: Quiver) -> str:
    out = [f"vertices ({len(q.vertices)}):"]
    for i, v in enumerate(q.vertices):
        out.append(f"  [{i}] {v}")
    out.append(f"arrows ({len(q.arrows)}):")
    for k, a in enumerate(q.arrows):
        out.append(f"  [{k}] {q.vertices[a.source]} --x{a.label}--> {q.vertices[a.target]}")
    out.append(f"relations ({len(q.relations)}):")
    for rel in q.relations:
        terms = [
            f"({str(c)}) * {'·'.join(str(ai) for ai in path)}"
            for c, path in zip(rel.coeffs, rel.paths)
        ]
        out.append("  " + " + ".join(terms))
    return _text(out)


def _ws_from_args(args) -> WeightSystem:
    return WeightSystem(args.dim, parse_weights(args.weights))


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_info(args) -> tuple[int, str]:
    from . import classify

    report = classify.classification_report(_ws_from_args(args))
    payload = {
        "dim": report.ws.d,
        "weights": list(report.ws.weights),
        "trichotomy": report.trichotomy.value,
        "is_regular": report.is_regular,
        "is_hypersurface": report.is_hypersurface,
        "cm_finite": report.cm_finite,
        "d_cm_finite": report.d_cm_finite.value,
        "vb_finite": report.vb_finite,
        "gldim_canonical": report.gldim_canonical,
        "frac_cy": _frac_cy_payload(report.frac_cy),
        "coset_count": report.coset_count if report.coset_count is not None else "infinite",
        "coset_invariant_factors": list(report.coset_invariant_factors),
        "k0_rank": report.k0_rank,
        "cm_rank": report.cm_rank,
        "orlov_delta": report.orlov_delta,
    }
    if args.format == "json":
        return 0, _json(payload)
    return 0, _text(f"{key}: {value}" for key, value in payload.items())


def _frac_cy_payload(data: classify.FracCY):
    if data.kind != "pair":
        return data.kind
    return {"m": data.m, "l": data.l, "reduced": str(data.reduced)}


def cmd_quiver(args) -> tuple[int, str]:
    from . import algebra

    ws = _ws_from_args(args)
    if args.interval == "canonical":
        elements = algebra.canonical_interval(ws)
    elif args.interval == "cm":
        elements = algebra.cm_interval(ws)
    else:
        try:
            lo_text, hi_text = args.interval.split("..")
        except ValueError as exc:
            raise ValueError(
                "interval must be 'canonical', 'cm' or 'LO..HI' in normal-form coordinates"
            ) from exc
        elements = interval(ws, parse_element(ws, lo_text), parse_element(ws, hi_text))
    q = algebra.i_canonical_quiver(ws, elements)
    if args.format == "json":
        return 0, _json(quiver_to_json(q))
    return 0, quiver_to_dot(q) if args.format == "dot" else quiver_to_text(q)


def cmd_coxeter(args) -> tuple[int, str]:
    from . import coxeter
    from .coxeter import format_poly

    ws = _ws_from_args(args)
    chi = coxeter.coxeter_polynomial(ws)
    factors = coxeter.coxeter_factors(ws)
    agrees = coxeter.matrix_route_check(ws, chi)[0] if args.check_matrix else None
    status = 1 if agrees is False else 0
    if args.format == "json":
        payload = {
            "coefficients": list(chi.coeffs),
            "degree": chi.degree,
            "k0_rank": coxeter.k0_rank(ws),
            "factors": [
                {"factor": format_poly(p), "exponent": e} for p, e in factors
            ],
        }
        if args.check_matrix:
            payload["matrix_route_agrees"] = agrees
        return status, _json(payload)
    pieces = []
    for p, e in factors:
        text = f"({format_poly(p)})"
        pieces.append(text if e == 1 else f"{text}^{e}")
    out = [" ".join(pieces), f"expanded: {format_poly(chi)}", f"degree: {chi.degree}"]
    if args.check_matrix:
        out.append(f"matrix route agrees: {agrees}")
    return status, _text(out)


def cmd_mf(args) -> tuple[int, str]:
    from . import matfac

    ws = _ws_from_args(args)
    if args.ell:
        try:
            ell = tuple(parse_int(v) for v in args.ell.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse --ell {args.ell!r}: {exc}") from exc
        ells = [ell]
    else:
        ells = matfac.mf_enumerate(ws)
    failures = 0
    payload = []
    for pair, report, nonsingular in matfac.mf_pairs(ws, ells, args.verify):
        entry = {"ell": list(pair.ell), "size": pair.size}
        if args.verify:
            entry["identity_ok"] = report.identity_ok
            entry["homogeneity_ok"] = report.homogeneity_ok
            entry["corner_minor_nonsingular"] = nonsingular
            if not (report.ok and nonsingular):
                failures += 1
        if args.format == "json":
            entry["M"] = [[repr(e) for e in row] for row in pair.m_rows]
            entry["N"] = [[repr(e) for e in row] for row in pair.n_rows]
            entry["shifts"] = {
                str(pos): [str(s) for s in labels]
                for pos, labels in sorted(pair.shifts.items())
            }
        payload.append(entry)
    status = 1 if failures else 0
    if args.format == "json":
        return status, _json(payload)
    out = []
    for entry in payload:
        line = f"ell={tuple(entry['ell'])} size={entry['size']}"
        if args.verify:
            line += (
                f" identity={entry['identity_ok']}"
                f" homogeneous={entry['homogeneity_ok']}"
                f" minor_nonsingular={entry['corner_minor_nonsingular']}"
            )
        out.append(line)
    if args.verify:
        out.append(
            f"{len(payload)} factorizations, "
            + ("all identities verified" if not failures else f"{failures} FAILED")
        )
    return status, _text(out)


def cmd_atilde(args) -> tuple[int, str]:
    from . import atilde

    ws = _ws_from_args(args)
    q = atilde.atilde_presentation(ws)
    report = atilde.verify_cut(ws, q)
    matches = atilde.noncut_matches_interval_quiver(ws, q)
    status = 0 if report.ok and matches else 1
    if args.format == "dot":
        return status, quiver_to_dot(q)
    if args.format == "json":
        payload = {
            "vertices": _vertices_json(q),
            "arrows": [
                {"from": a.source, "to": a.target, "label": a.label, "cut": a.cut}
                for a in q.arrows
            ],
            "cut_ok": report.ok,
            "noncut_matches_interval_quiver": matches,
            "walks_checked": report.walks_checked,
        }
        return status, _json(payload)
    out = [
        f"vertices: {len(q.vertices)}",
        f"arrows: {len(q.arrows)} ({sum(a.cut for a in q.arrows)} cut)",
        f"walks checked: {report.walks_checked}",
        f"cut axioms hold: {report.ok}",
        f"non-cut part equals interval quiver: {matches}",
    ]
    return status, _text(out)


def cmd_enumerate(args) -> tuple[int, str]:
    from . import classify

    cls = Trichotomy.FANO if args.cls == "fano" else Trichotomy.CALABI_YAU
    data = classify.enumerate_weight_systems(args.dim, args.count, cls)
    if args.format == "json":
        return 0, _json(
            {
                "infinite_families": [list(f) for f in data.infinite_families],
                "sporadic": [list(t) for t in data.sporadic],
            }
        )
    out = [f"infinite families ({len(data.infinite_families)}):"]
    for fam in data.infinite_families:
        stars = ",".join(["*"] * (args.count - len(fam)))
        body = ",".join(str(p) for p in fam)
        out.append(f"  ({body}{',' if body and stars else ''}{stars})")
    out.append(f"sporadic ({len(data.sporadic)}):")
    out.extend("  (" + ",".join(str(p) for p in tup) + ")" for tup in data.sporadic)
    return 0, _text(out)


def cmd_suite(args) -> tuple[int, str]:
    from . import suite

    ws = None
    if args.weights is not None or args.dim is not None:
        if args.weights is None or args.dim is None:
            raise ValueError("suite narrowing needs both --dim and --weights")
        ws = _ws_from_args(args)
    if args.only and not any(args.only in name for name in suite.BATTERIES):
        raise ValueError(
            f"--only {args.only!r} matches no battery; known: {', '.join(suite.BATTERIES)}"
        )
    results = suite.run_batteries(only=args.only, ws=ws)
    failed = [r for r in results if not r.ok]
    width = max((len(r.battery) for r in results), default=8)
    out = []
    for r in results:
        line = f"{'PASS' if r.ok else 'FAIL'}  {r.battery:<{width}}  {r.label}"
        if r.detail:
            line += f"  -- {r.detail}"
        out.append(line)
    out.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return (1 if failed else 0), _text(out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser is built once per process: parsing does not mutate it.
    Its `commands` attribute maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="glci",
        description="Exact invariants of Geigle-Lenzing complete intersections",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add_ws_args(p):
        p.add_argument("--dim", "-d", type=parse_int, required=True, help="ambient dimension d >= 1")
        p.add_argument(
            "--weights",
            "-w",
            required=True,
            help="comma separated weights, or '-' for none",
        )

    p = sub.add_parser("info", help="classification report")
    add_ws_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("quiver", help="interval algebra presentation")
    add_ws_args(p)
    p.add_argument(
        "--interval",
        default="canonical",
        help="'canonical', 'cm', or 'LO..HI' with elements as 'a1,..,an;a'",
    )
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("coxeter", help="Coxeter polynomial, factored and expanded")
    add_ws_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--check-matrix",
        action="store_true",
        help="also compare against the action-matrix characteristic polynomial",
    )
    p.set_defaults(fn=cmd_coxeter)

    p = sub.add_parser("mf", help="matrix factorizations for n = d + 2")
    add_ws_args(p)
    p.add_argument("--ell", help="comma separated exponents; defaults to all")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_mf)

    p = sub.add_parser("atilde", help="orbit quiver with cut for n <= d + 1")
    add_ws_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(fn=cmd_atilde)

    p = sub.add_parser("enumerate", help="Fano / Calabi-Yau weight tuples")
    p.add_argument("--dim", "-d", type=parse_int, required=True)
    p.add_argument("--count", "-n", type=parse_int, required=True, help="tuple length")
    p.add_argument("--class", dest="cls", choices=("fano", "calabiyau"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("suite", help="run the invariant batteries")
    p.add_argument("--only", help="substring filter on battery names")
    p.add_argument("--dim", "-d", type=parse_int, help="narrow to one weight system")
    p.add_argument("--weights", "-w", help="narrow to one weight system")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, a missing or unknown command: argparse reports it
        args = parser.parse_args(argv)
    else:
        # What the top-level pass ends in, without first classifying every
        # argument: the command's parser takes the rest, and anything it
        # leaves is reported in the top-level parser's own words.
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Run a parsed command and write its text: the one place this module
    writes stdout.  The exit code is known before any byte is written, so a
    reader that closes the pipe early ends the call silently with that code."""
    try:
        status, text = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten rest goes to the null device, so that the flush at
        # interpreter exit does not fail again and report it on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
