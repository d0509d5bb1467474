"""Command-line front end.

Subcommands read JSON documents (see serialize), dispatch to the library,
and emit either human-readable text or a canonical structured report.
Exit codes: 0 for any computed verdict, 2 for input errors, 3 when a
resource bound is exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import descent, exactnum, matgroup, plane, ramify, serialize, superell
from .errors import (BoundExceeded, HypothesisViolation, InputError, InternalInconsistency,
                     OddsigError, ParseError, ResourceError, SchemaError, UsageError)

_SIGNATURE_CITATION = ("quotient signature from exact fixed-point counts "
                       "and the Riemann-Hurwitz ledger")
_ODD_CITATION = ("odd-signature criterion: rational quotient with some "
                 "branch index of odd multiplicity certifies that the "
                 "field of moduli is a field of definition")
_GROUP_ASSUMPTION = ("the supplied generators are taken to generate the "
                     "full automorphism group")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _read_document(path: str, kinds: tuple[str, ...]):
    with open(path, "rb") as handle:
        data = handle.read(serialize.MAX_DOCUMENT_BYTES + 1)
    if len(data) > serialize.MAX_DOCUMENT_BYTES:
        raise BoundExceeded(f"{path}: longer than {serialize.MAX_DOCUMENT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    doc = serialize.parse_input(text)
    if doc.kind not in kinds:
        raise SchemaError(
            f"{path}: expected one of {', '.join(kinds)}, got {doc.kind}")
    return doc


def _lift_common(*items):
    """Lift every input into the single field Q(zeta_lcm) up front."""
    orders = []
    for item in items:
        group = item if isinstance(item, list) else [item]
        orders.extend(x.order for x in group)
    order = exactnum.common_order(*orders)
    lifted = [[x.lift_to(order) for x in item] if isinstance(item, list)
              else item.lift_to(order) for item in items]
    return order, lifted


def _fmt_element(value: exactnum.CyclotomicElement) -> str:
    if value.is_rational():
        return str(value.as_rational())
    return "[" + ", ".join(str(c) for c in value.coords) + f"] over Q(zeta_{value.order})"


def _signature_payload(sig: ramify.Signature) -> dict:
    return {"quotient_genus": sig.quotient_genus,
            "indices": list(sig.indices), "display": str(sig)}


def _verdict_payload(verdict: descent.DescentVerdict) -> dict:
    write_map = serialize.projective_map_document
    return {"status": verdict.status,
            "witness": None if verdict.witness is None else write_map(verdict.witness),
            # a plane candidate is a map, a family candidate a pair of Galois exponents
            "defects": [{"candidate": write_map(cand) if isinstance(cand, plane.ProjMap) else list(cand),
                         "defect": write_map(dft)} for cand, dft in verdict.defects],
            "assumptions": list(verdict.assumptions), "citation": verdict.citation,
            "field": verdict.field,
            "assignment": None if verdict.assignment is None else
            [{"exponent": k, "map": write_map(f)} for k, f in verdict.assignment]}


# handlers ------------------------------------------------------------------

def _cmd_aut_check(args):
    curve = _read_document(args.curve, ("plane_curve",)).value
    mapping = _read_document(args.map, ("projective_map",)).value
    _, (curve, mapping) = _lift_common(curve, mapping)
    ok, lam = plane.is_automorphism(curve, mapping)
    result = {"is_automorphism": ok,
              "lambda": None if lam is None else serialize.element_document(lam)}
    lines = ["automorphism: " + ("yes" if ok else "no")]
    if ok:
        lines.append(f"scaling factor: {_fmt_element(lam)}")
    return result, [], ["substitution test: F composed with the map equals "
                        "a scalar multiple of F"], lines


def _cmd_group_closure(args):
    generators = _read_document(args.group, ("group",)).value
    _, (generators,) = _lift_common(generators)
    bound = matgroup.DEFAULT_BOUND if args.bound is None else args.bound
    if bound < 1:
        raise SchemaError(f"the closure bound must be at least 1, got {bound}")
    # --bound only lowers the cap: an infinite group would grow to any cap
    if bound > matgroup.DEFAULT_BOUND:
        raise BoundExceeded(f"the closure bound {bound} exceeds the cap {matgroup.DEFAULT_BOUND}")
    group = matgroup.closure(generators, bound)
    elements = sorted(group, key=lambda g: g.key())
    result = {"order": len(group),
              "elements": [serialize.projective_map_document(g) for g in elements]}
    return result, [], ["breadth-first closure of the generators in PGL(3)"], [
        f"closure order: {len(group)}"]


def _group_order(sig: ramify.Signature, genus: int) -> int:
    """|G| read off Riemann-Hurwitz, 2g - 2 = |G| (2h - 2 + sum(1 - 1/c)),
    exact for the signature of a curve of genus g >= 2."""
    share = Fraction(2 * sig.quotient_genus - 2) + sum(Fraction(c - 1, c) for c in sig.indices)
    size = Fraction(2 * genus - 2) / share
    if size.denominator != 1:
        raise InternalInconsistency(f"Riemann-Hurwitz gives the group order {size}")
    return size.numerator


def _cmd_signature(args):
    curve = _read_document(args.curve, ("plane_curve",)).value
    generators = _read_document(args.group, ("group",)).value
    _, (curve, generators) = _lift_common(curve, generators)
    # signature checks the curve and the generators before it closes them
    sig = ramify.signature(curve, generators)
    order = _group_order(sig, curve.genus())
    verdict = ramify.odd_signature_verdict(sig)
    result = {"group_order": order, "curve_genus": curve.genus(),
              "signature": _signature_payload(sig), "verdict": verdict}
    lines = [f"group order: {order}", f"signature: {sig}",
             f"odd-signature verdict: {verdict}"]
    return result, [_GROUP_ASSUMPTION], [_SIGNATURE_CITATION, _ODD_CITATION], lines


def integer(text: str) -> int:
    """An integer option or index entry in the documents' ASCII grammar; int()
    alone also reads "1_0", surrounding whitespace and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_indices(text: str) -> tuple[int, ...]:
    """Comma-separated branch indices; a blank text is the empty list, and
    an empty entry is refused."""
    try:
        values = tuple(integer(part) for part in text.split(",")) if text.strip() else ()
    except ValueError as exc:
        raise SchemaError(f"bad index list {text!r}") from exc
    if any(v < 2 for v in values):
        raise SchemaError("branch indices must be at least 2")
    return tuple(sorted(values))


def _cmd_odd_signature(args):
    if args.curve or args.group:
        if not (args.curve and args.group):
            raise SchemaError("odd-signature needs both --curve and --group")
        if args.quotient_genus is not None or args.indices is not None:
            raise SchemaError("odd-signature takes --curve/--group or "
                              "--quotient-genus/--indices, not both")
        result, assumptions, _, _ = _cmd_signature(args)
        verdict, display = result["verdict"], result["signature"]["display"]
    else:
        if args.quotient_genus is None or args.indices is None:
            raise SchemaError("odd-signature needs --curve/--group or "
                              "--quotient-genus/--indices")
        if args.quotient_genus < 0:
            raise SchemaError(
                f"the quotient genus must be at least 0, got {args.quotient_genus}")
        sig = ramify.Signature(args.quotient_genus, _parse_indices(args.indices))
        # each term 1 - 1/c of the hyperbolic area is below 1, so with r
        # branch points 2h - 2 + r <= 0 leaves no curve of genus >= 2
        if 2 * sig.quotient_genus - 2 + len(sig.indices) <= 0:
            raise HypothesisViolation(f"signature {sig} is not hyperbolic: no curve "
                                      "of genus at least 2 has it")
        verdict, display = ramify.odd_signature_verdict(sig), str(sig)
        assumptions = []
        result = {"signature": _signature_payload(sig), "verdict": verdict}
    lines = [f"signature: {display}", f"verdict: {verdict}"]
    if verdict == "ODD":
        lines.append("the field of moduli is a field of definition")
    return result, assumptions, [_ODD_CITATION], lines


def _cmd_descend_real(args):
    curve = _read_document(args.curve, ("plane_curve",)).value
    mu = _read_document(args.mu, ("projective_map",)).value
    aut = []
    if args.aut:
        doc = _read_document(args.aut, ("group", "projective_map"))
        aut = doc.value if doc.kind == "group" else [doc.value]
    _, (curve, mu, aut) = _lift_common(curve, mu, aut)
    verdict = descent.weil_descent_order2(curve, mu, aut)
    result = _verdict_payload(verdict)
    lines = [f"verdict: {verdict.status}"]
    for cand, defect in verdict.defects:
        tag = "identity" if defect.is_identity() else "nontrivial"
        lines.append(f"candidate defect: {tag}")
    return result, list(verdict.assumptions), [verdict.citation], lines


def _cmd_qgonal_genus(args):
    curve = _read_document(args.curve, ("qgonal_curve",)).value
    result = {"q": curve.q, "genus": curve.genus,
              "curve": serialize.qgonal_curve_document(curve)}
    return result, [], ["Riemann-Hurwitz count for the degree-q projection "
                        "branched at the roots"], [
        f"q: {curve.q}", f"genus: {curve.genus}"]


def _cmd_qgonal_signature(args):
    sig = superell.qgonal_signature(args.q, args.n, args.shape, args.genus)
    verdict = ramify.odd_signature_verdict(sig)
    result = {"signature": _signature_payload(sig), "verdict": verdict}
    return result, ["the reduced symmetry group of the cover is cyclic of "
                    "the given order"], [_SIGNATURE_CITATION, _ODD_CITATION], [
        f"signature: {sig}", f"verdict: {verdict}"]


def _cmd_qgonal_family(args):
    curve = superell.family_curve(args.q, args.m, args.n)
    sig = superell.family_signature(curve)
    verdict = ramify.odd_signature_verdict(sig)
    result = {"q": args.q, "m": args.m, "n": args.n, "genus": curve.genus,
              "curve": serialize.qgonal_curve_document(curve),
              "signature": _signature_payload(sig), "verdict": verdict}
    lines = [f"genus: {curve.genus}", f"signature: {sig}",
             f"verdict: {verdict}"]
    return result, [], [_SIGNATURE_CITATION, _ODD_CITATION], lines


def _cmd_qgonal_descend(args):
    report = superell.qgonal_real_descent(args.q, args.m, args.n)
    result = {
        "q": report["q"], "m": report["m"], "n": report["n"],
        "genus": report["genus"],
        "signature": _signature_payload(report["signature"]),
        "odd_signature_verdict": report["odd_signature_verdict"],
        "verdict": report["verdict"],
        "method": report["method"],
        "witness": None if report["witness"] is None else {
            "j": report["witness"]["j"], "k": report["witness"]["k"],
            "map": serialize.qgonal_map_document(report["witness"]["map"])},
        "defects": None if report["defects"] is None else [
            {"j": d["j"], "k": d["k"], "is_identity": d["is_identity"],
             "defect": serialize.qgonal_map_document(d["defect"])} for d in report["defects"]],
    }
    citation = (_ODD_CITATION if report["method"] == "odd-signature" else
                "order-2 Weil cocycle defects enumerated over the full "
                "symmetry group of the cover")
    lines = [f"verdict: {report['verdict']}", f"method: {report['method']}"]
    if report["witness"] is not None:
        lines.append("witness found with identity cocycle defect")
    return result, [], [citation], lines


def _read_triple(path: str):
    return _read_document(path, ("family_triple",)).value


def _cmd_family_invariants(args):
    triple = _read_triple(args.triple)
    names = ("j1", "j2", "j3", "j4", "j5")
    values = descent.family_invariants(triple)
    result = {"triple": serialize.family_triple_document(triple),
              "invariants": {n: serialize.element_document(v) for n, v in zip(names, values)}}
    lines = [f"{n} = {_fmt_element(v)}" for n, v in zip(names, values)]
    return result, [], ["symmetric functions of the coefficient triple "
                        "invariant under the family symmetries"], lines


def _cmd_family_isomorphic(args):
    triple = _read_triple(args.triple)
    other = _read_triple(args.other)
    move = descent.family_isomorphic(triple, other,
                                     field_contains_i=not args.without_i)
    result = {"isomorphic": move is not None,
              "permutation": None if move is None else list(move.perm),
              "signs": None if move is None else list(move.signs),
              "map": None if move is None else serialize.projective_map_document(move.map)}
    lines = ["isomorphic: " + ("yes" if move is not None else "no")]
    return result, [], ["classification of family members by "
                        "sign-and-permutation moves on the triple"], lines


def _cmd_family_moduli(args):
    triple = _read_triple(args.triple)
    report = descent.family_moduli_field(triple, field_contains_i=not args.without_i)
    result = {"field": report["field"], "rational": report["rational"],
              "generators": {n: serialize.element_document(v)
                             for n, v in report["generators"].items()}}
    lines = [f"moduli field: {report['field']}"]
    lines += [f"{n} = {_fmt_element(v)}"
              for n, v in report["generators"].items()]
    return result, [], ["the moduli field is generated by the invariants "
                        "of the triple"], lines


def _cmd_family_descend(args):
    triple = _read_triple(args.triple)
    verdict = descent.family_real_definability(triple, case=args.case)
    result = _verdict_payload(verdict)
    lines = [f"verdict: {verdict.status}"]
    if verdict.witness is not None:
        lines.append("witness isomorphism has identity cocycle defect")
    return result, list(verdict.assumptions), [verdict.citation], lines


def _cmd_family_rational_descend(args):
    triple = _read_triple(args.triple)
    verdict = descent.family_rational_descent(triple)
    result = _verdict_payload(verdict)
    lines = [f"verdict: {verdict.status}"]
    if verdict.field:
        lines.append(f"field of definition: {verdict.field}")
    return result, list(verdict.assumptions), [verdict.citation], lines


# parser --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a refused command line ends in one stderr line; subparsers inherit the class
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the structured report to a file")
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", help="stdout format")

    parser = _Parser(
        prog="oddsig",
        description="Exact quotient signatures and Galois descent checks "
                    "for curves over cyclotomic fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aut-check", parents=[common],
                       help="test whether a map preserves a plane curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(handler=_cmd_aut_check)

    p = sub.add_parser("group-closure", parents=[common],
                       help="close a generator set in PGL(3)")
    p.add_argument("--group", required=True)
    p.add_argument("--bound", type=integer,
                   help="group closure size bound, at most matgroup.DEFAULT_BOUND (the default)")
    p.set_defaults(handler=_cmd_group_closure)

    p = sub.add_parser("signature", parents=[common],
                       help="quotient signature of a curve by a group")
    p.add_argument("--curve", required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_cmd_signature)

    p = sub.add_parser("odd-signature", parents=[common],
                       help="odd-signature verdict for a curve/group pair "
                            "or a literal signature")
    p.add_argument("--curve")
    p.add_argument("--group")
    p.add_argument("--quotient-genus", type=integer)
    p.add_argument("--indices", help="comma-separated branch indices")
    p.set_defaults(handler=_cmd_odd_signature)

    p = sub.add_parser("descend-real", parents=[common],
                       help="order-2 Weil descent check for a plane curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--mu", required=True,
                   help="isomorphism onto the conjugate curve")
    p.add_argument("--aut", help="automorphism generators (group or map)")
    p.set_defaults(handler=_cmd_descend_real)

    qg = sub.add_parser("qgonal", help="cyclic covers y^q = f(x)")
    qsub = qg.add_subparsers(dest="subcommand", required=True)

    p = qsub.add_parser("genus", parents=[common],
                        help="genus of a cyclic cover document")
    p.add_argument("--curve", required=True)
    p.set_defaults(handler=_cmd_qgonal_genus)

    p = qsub.add_parser("signature", parents=[common],
                        help="quotient signature from the branch shape")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--shape", choices=("N0", "N1", "N2"), required=True)
    p.add_argument("--genus", type=integer, required=True)
    p.set_defaults(handler=_cmd_qgonal_signature)

    p = qsub.add_parser("family", parents=[common],
                        help="build the two-parameter descent family")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(handler=_cmd_qgonal_family)

    p = qsub.add_parser("descend", parents=[common],
                        help="real-descent analysis of a family member")
    p.add_argument("--q", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(handler=_cmd_qgonal_descend)

    qf = sub.add_parser("quartic-family",
                        help="the symmetric quartic family x^4+y^4+z^4+"
                             "ax^2y^2+bx^2z^2+cy^2z^2")
    fsub = qf.add_subparsers(dest="subcommand", required=True)

    p = fsub.add_parser("invariants", parents=[common],
                        help="invariants of a coefficient triple")
    p.add_argument("--triple", required=True)
    p.set_defaults(handler=_cmd_family_invariants)

    p = fsub.add_parser("isomorphic", parents=[common],
                        help="decide isomorphism of two members")
    p.add_argument("--triple", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--without-i", action="store_true",
                   help="coefficient field does not contain i")
    p.set_defaults(handler=_cmd_family_isomorphic)

    p = fsub.add_parser("moduli", parents=[common],
                        help="generators of the moduli field")
    p.add_argument("--triple", required=True)
    p.add_argument("--without-i", action="store_true")
    p.set_defaults(handler=_cmd_family_moduli)

    p = fsub.add_parser("descend", parents=[common],
                        help="real definability of a member")
    p.add_argument("--triple", required=True)
    p.add_argument("--case",
                   choices=("swap", "cycle", "negate-ab", "negate-bc"),
                   help="assert which move matches conjugation")
    p.set_defaults(handler=_cmd_family_descend)

    p = fsub.add_parser("rational-descend", parents=[common],
                        help="descent to the invariant field")
    p.add_argument("--triple", required=True)
    p.set_defaults(handler=_cmd_family_rational_descend)

    return parser


def run_command(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    for arg in argv:
        try:
            arg.encode("utf-8")
        except UnicodeEncodeError:
            # a byte that is not UTF-8 reaches argv as a lone surrogate, which
            # neither the report nor stdout can encode; refuse it before any
            # handler runs or any --out file is opened
            print(f"input error: argument {arg!r} is not valid UTF-8", file=sys.stderr)
            return 2
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        result, assumptions, citations, lines = args.handler(args)
        report = {
            "command": argv,
            "assumptions": assumptions,
            "result": result,
            "citations": citations,
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
        rendered = serialize.dumps(report)
        if args.out:
            Path(args.out).write_text(rendered, encoding="utf-8")
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OddsigError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    if args.format == "structured":
        sys.stdout.write(rendered)
    else:
        for line in lines:
            print(line)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
