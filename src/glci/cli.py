"""Command line front end: reports, quiver/matrix exports and the invariant suite.

Exit codes: 0 success, 1 verification or invariant failure, 2 invalid input.
Output is deterministic byte for byte for a fixed invocation.  Each command
imports the modules it uses, so a run loads only those.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    from . import atilde, classify
    from .algebra import Quiver


class InputError(ValueError):
    """Unusable input; `main` exits 2 on it as on any other ValueError."""


def parse_weights(text: str) -> tuple[int, ...]:
    if text.strip() in ("-", ""):
        return ()
    try:
        weights = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {text!r}") from exc
    return weights


def parse_element(ws: WeightSystem, text: str) -> GroupElement:
    """'a1,...,an;a' in normal-form coordinates; torsion may be omitted when n=0."""
    try:
        if ";" in text:
            tors_text, free_text = text.split(";")
        else:
            tors_text, free_text = "", text
        tors = [int(v) for v in tors_text.split(",") if v.strip() != ""]
        return normal_form(ws, tors + [0] * (ws.n - len(tors)), int(free_text))
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse group element {text!r}: {exc}") from exc


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": [{"torsion": list(v.torsion), "free": v.free} for v in q.vertices],
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


def quiver_to_dot(q: Quiver | atilde.OrbitQuiverWithCut) -> str:
    """Graphviz source of a quiver; cut arrows of an orbit quiver are dashed."""
    lines = ["digraph quiver {"]
    for i, v in enumerate(q.vertices):
        lines.append(f'  v{i} [label="{v}"];')
    for a in q.arrows:
        attrs = f'label="x{a.label}"'
        if getattr(a, "cut", False):
            attrs += ", style=dashed"
        lines.append(f"  v{a.source} -> v{a.target} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    return "\n".join(out) + "\n"


def _ws_from_args(args) -> WeightSystem:
    return WeightSystem(args.dim, parse_weights(args.weights))


def cmd_info(args) -> int:
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
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _frac_cy_payload(data: classify.FracCY):
    if data.kind != "pair":
        return data.kind
    return {"m": data.m, "l": data.l, "reduced": str(data.reduced)}


def cmd_quiver(args) -> int:
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
            raise InputError(
                "interval must be 'canonical', 'cm' or 'LO..HI' in normal-form coordinates"
            ) from exc
        elements = interval(ws, parse_element(ws, lo_text), parse_element(ws, hi_text))
    q = algebra.i_canonical_quiver(ws, elements)
    if args.format == "json":
        print(json.dumps(quiver_to_json(q), indent=2))
    elif args.format == "dot":
        sys.stdout.write(quiver_to_dot(q))
    else:
        sys.stdout.write(quiver_to_text(q))
    return 0


def cmd_coxeter(args) -> int:
    from . import coxeter
    from .coxeter import format_poly

    ws = _ws_from_args(args)
    chi = coxeter.coxeter_polynomial(ws)
    factors = coxeter.coxeter_factors(ws)
    agrees = coxeter.matrix_route_check(ws, chi)[0] if args.check_matrix else None
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
        print(json.dumps(payload, indent=2))
    else:
        pieces = []
        for p, e in factors:
            text = f"({format_poly(p)})"
            pieces.append(text if e == 1 else f"{text}^{e}")
        print(" ".join(pieces))
        print(f"expanded: {format_poly(chi)}")
        print(f"degree: {chi.degree}")
        if args.check_matrix:
            print(f"matrix route agrees: {agrees}")
    return 1 if agrees is False else 0


def cmd_mf(args) -> int:
    from . import matfac

    ws = _ws_from_args(args)
    if args.ell:
        try:
            ell = tuple(int(v) for v in args.ell.split(","))
        except ValueError as exc:
            raise InputError(f"cannot parse --ell {args.ell!r}: {exc}") from exc
        indices = [matfac.MFIndex(ell)]
    else:
        indices = matfac.mf_enumerate(ws)
    failures = 0
    payload = []
    for index, pair, report, nonsingular in matfac.mf_pairs(ws, indices, args.verify):
        entry = {"ell": list(index.ell), "size": pair.size}
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
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for entry in payload:
            line = f"ell={tuple(entry['ell'])} size={entry['size']}"
            if args.verify:
                line += (
                    f" identity={entry['identity_ok']}"
                    f" homogeneous={entry['homogeneity_ok']}"
                    f" minor_nonsingular={entry['corner_minor_nonsingular']}"
                )
            print(line)
        if args.verify:
            print(
                f"{len(payload)} factorizations, "
                + ("all identities verified" if not failures else f"{failures} FAILED")
            )
    return 1 if failures else 0


def cmd_atilde(args) -> int:
    from . import atilde

    ws = _ws_from_args(args)
    q = atilde.atilde_presentation(ws)
    report = atilde.verify_cut(q)
    matches = atilde.noncut_matches_interval_quiver(q)
    if args.format == "dot":
        sys.stdout.write(quiver_to_dot(q))
    elif args.format == "json":
        payload = {
            "vertices": [{"torsion": list(v.torsion), "free": v.free} for v in q.vertices],
            "arrows": [
                {"from": a.source, "to": a.target, "label": a.label, "cut": a.cut}
                for a in q.arrows
            ],
            "cut_ok": report.ok,
            "noncut_matches_interval_quiver": matches,
            "walks_checked": report.walks_checked,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"vertices: {len(q.vertices)}")
        print(f"arrows: {len(q.arrows)} ({sum(a.cut for a in q.arrows)} cut)")
        print(f"walks checked: {report.walks_checked}")
        print(f"cut axioms hold: {report.ok}")
        print(f"non-cut part equals interval quiver: {matches}")
    return 0 if report.ok and matches else 1


def cmd_enumerate(args) -> int:
    from . import classify

    cls = Trichotomy.FANO if args.cls == "fano" else Trichotomy.CALABI_YAU
    data = classify.enumerate_weight_systems(args.dim, args.count, cls)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "infinite_families": [list(f) for f in data.infinite_families],
                    "sporadic": [list(t) for t in data.sporadic],
                },
                indent=2,
            )
        )
    else:
        print(f"infinite families ({len(data.infinite_families)}):")
        for fam in data.infinite_families:
            stars = ",".join(["*"] * (args.count - len(fam)))
            body = ",".join(str(p) for p in fam)
            print(f"  ({body}{',' if body and stars else ''}{stars})")
        print(f"sporadic ({len(data.sporadic)}):")
        for tup in data.sporadic:
            print("  (" + ",".join(str(p) for p in tup) + ")")
    return 0


def cmd_suite(args) -> int:
    from . import suite

    ws = None
    if args.weights is not None or args.dim is not None:
        if args.weights is None or args.dim is None:
            raise InputError("suite narrowing needs both --dim and --weights")
        ws = WeightSystem(args.dim, parse_weights(args.weights))
    if args.only and not any(args.only in name for name in suite.BATTERIES):
        raise InputError(
            f"--only {args.only!r} matches no battery; known: {', '.join(suite.BATTERIES)}"
        )
    results = suite.run_batteries(only=args.only, ws=ws)
    failed = [r for r in results if not r.ok]
    width = max((len(r.battery) for r in results), default=8)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status}  {r.battery:<{width}}  {r.label}"
        if r.detail:
            line += f"  -- {r.detail}"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser is built once per process: parsing does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="glci",
        description="Exact invariants of Geigle-Lenzing complete intersections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ws_args(p):
        p.add_argument("--dim", "-d", type=int, required=True, help="ambient dimension d >= 1")
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
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--count", "-n", type=int, required=True, help="tuple length")
    p.add_argument("--class", dest="cls", choices=("fano", "calabiyau"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("suite", help="run the invariant batteries")
    p.add_argument("--only", help="substring filter on battery names")
    p.add_argument("--dim", "-d", type=int, help="narrow to one weight system")
    p.add_argument("--weights", "-w", help="narrow to one weight system")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
