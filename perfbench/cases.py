"""Workload definitions: the CLI cases each workload runs and how each
report is checked.

A case is one `oddsig` command line. Fixed cases are checked byte for byte
against a golden report (stored without `command` and `timing_seconds`);
seeded cases, whose inputs the seed draws, are checked against verdict
rules computed here, independently of the library. Expected-failure cases
are checked by exit code and an empty stdout.

Inputs drawn from the seed are written as JSON documents into a work
directory; the seed also fixes the order in which a pass runs the cases.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
MALFORMED = HERE / "inputs" / "malformed.json"

WORKLOADS = ("signature-sweep", "descent-sweep", "cli-quick")

# curve fixture stem -> (group order, signature display) from the paper's
# tables and the acceptance suite; the golden reports carry the same values.
SIGNATURE_FIXTURES = {
    "klein_quartic": (168, "(0; 2, 3, 7)"),
    "fermat_quartic": (96, "(0; 2, 3, 8)"),
    "quartic_s4": (24, "(0; 2, 2, 2, 3)"),
    "quartic_c4_c2c2": (16, "(0; 2, 2, 2, 4)"),
    "quartic_d4": (8, "(0; 2, 2, 2, 2, 2)"),
    "quartic_s3": (6, "(0; 2, 2, 2, 2, 3)"),
    "quartic_c6": (6, "(0; 2, 3, 3, 6)"),
    "quartic_c9": (9, "(0; 3, 9, 9)"),
    "quartic_c3": (3, "(0; 3, 3, 3, 3, 3)"),
    "quartic_c2c2": (4, "(0; 2, 2, 2, 2, 2, 2)"),
}

# A case runs REPEATS times per pass, so that every time a run reports is a
# statistic over samples spread across the run: a case of under a few seconds
# runs wholly inside one of the host's fast or slow spells, so one sample
# says little. Cases of a second or more run LONG_REPEATS times, and each
# workload's heavy case HEAVY_REPEATS times. Klein (about 20 s) and qgonal
# descend (5,5,5) (about 6 s) are too long to repeat; a single sample of
# that length follows the host's spells (Klein took 17.6-27.2 s in ten
# runs), so they run only in the traced run, where their counts are exact.
REPEATS = 3
LONG_REPEATS = 2
HEAVY_REPEATS = {"signature-sweep": 6, "descent-sweep": 3, "cli-quick": 10}
TRACED_ONLY = {"signature.klein_quartic", "qgonal-descend.5-5-5"}
# cli-quick's calls are short: four runs of each make its pass about as long
# as a pass of the other workloads
QUICK_REPEATS = 4

# (q, m, n) for `qgonal descend`; (3, 2, 2) takes the odd-signature shortcut.
QGONAL_DESCEND = ((3, 2, 2), (3, 3, 3), (3, 4, 3), (3, 6, 2), (3, 3, 4),
                  (5, 5, 2), (5, 5, 5))

# The fixed case whose mean time is reported as `case_s.max`.
HEAVY_CASE = {
    "signature-sweep": "signature.fermat_quartic",
    "descent-sweep": "qgonal-descend.3-4-3",
    "cli-quick": "qgonal-family.3-3-3",
}


@dataclass
class Case:
    id: str
    argv: list[str]
    expect_exit: int = 0
    golden: bool = True
    rule: Optional[Callable[[dict], bool]] = None
    repeats: int = REPEATS


# independent verdict rules --------------------------------------------------

def parity_verdict(quotient_genus: int, indices) -> str:
    """Odd-signature rule: genus-0 quotient with some index of odd count."""
    odd = quotient_genus == 0 and any(
        count % 2 for count in Counter(indices).values())
    return "ODD" if odd else "INCONCLUSIVE"


def _signature_rule(order: int, shown: str) -> Callable[[dict], bool]:
    def check(report: dict) -> bool:
        result = report["result"]
        sig = result["signature"]
        return (result["group_order"] == order and sig["display"] == shown
                and result["verdict"] == parity_verdict(
                    sig["quotient_genus"], sig["indices"]))
    return check


def _literal_odd_rule(genus: int, indices: list[int]) -> Callable[[dict], bool]:
    expected = sorted(indices)

    def check(report: dict) -> bool:
        result = report["result"]
        return (result["signature"]["indices"] == expected
                and result["signature"]["quotient_genus"] == genus
                and result["verdict"] == parity_verdict(genus, expected))
    return check


def _qgonal_rule(q: int, m: int, n: int) -> Callable[[dict], bool]:
    """Criterion 6: when q | mn the member descends to R exactly when n is
    odd; otherwise the odd signature settles it."""
    shortcut = (m * n) % q != 0
    definable = shortcut or n % 2 == 1

    def check(report: dict) -> bool:
        result = report["result"]
        return (result["verdict"] == ("DEFINABLE" if definable else "OBSTRUCTED")
                and result["method"] == ("odd-signature" if shortcut
                                         else "weil-cocycle"))
    return check


def _swap_rule(rational: bool) -> Callable[[dict], bool]:
    """Criterion 8: a swap-conjugate triple (a, conj a, c), c rational,
    is real-definable and descends to Q."""
    def check(report: dict) -> bool:
        result = report["result"]
        if result["status"] != "DEFINABLE":
            return False
        return result.get("field") == "Q" if rational else True
    return check


# seeded inputs --------------------------------------------------------------

def _negate(coords: list[str]) -> list[str]:
    return [str(-Fraction(c)) for c in coords]


def conjugate_pair(curve: dict, group: dict, perm: list[int],
                   signs: list[int]) -> tuple[dict, dict]:
    """Conjugate by the signed permutation P with P[i][perm[i]] = signs[i].

    The curve F becomes F o P and each generator g becomes P^-1 g P, so the
    group order, the signature and the report are unchanged."""
    terms = []
    for term in curve["terms"]:
        exps = [0, 0, 0]
        sign = 1
        for i, a in enumerate(term["exponents"]):
            exps[perm[i]] = a
            sign *= signs[i] ** a
        coeff = term["coefficient"] if sign == 1 else _negate(term["coefficient"])
        terms.append({"coefficient": coeff, "exponents": exps})
    new_curve = dict(curve, terms=terms)
    inv = [perm.index(i) for i in range(3)]
    gens = []
    for g in group["generators"]:
        entries = g["entries"]
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                coords = entries[inv[i]][inv[j]]
                sign = signs[inv[i]] * signs[inv[j]]
                row.append(coords if sign == 1 else _negate(coords))
            rows.append(row)
        gens.append(dict(g, entries=rows))
    return new_curve, dict(group, generators=gens)


def swap_conjugate_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """(r, s, c) with a = r + s i, b = r - s i and c rational, drawn until
    the member is smooth with pairwise distinct coefficient squares."""
    while True:
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        # r and s are nonzero, so a^2 and b^2 are distinct and not real;
        # that leaves c^2 != 4 and a^2 + b^2 + c^2 - abc != 4.
        if c * c == 4:
            continue
        if 2 * (r * r - s * s) + c * c - (r * r + s * s) * c == 4:
            continue
        return r, s, c


def _triple_document(r: Fraction, s: Fraction, c: Fraction) -> dict:
    return {"kind": "family_triple", "order": 4,
            "values": [[str(r), str(s)], [str(r), str(-s)], [str(c), "0"]]}


def _write(workdir: Path, name: str, obj: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def _fixture(root: Path, stem: str) -> str:
    return str(root / "fixtures" / f"{stem}.json")


# workloads ------------------------------------------------------------------

def signature_sweep(root: Path, workdir: Path, rng: random.Random) -> list[Case]:
    cases = []
    for stem, (order, shown) in SIGNATURE_FIXTURES.items():
        perm = rng.sample(range(3), 3)
        signs = [rng.choice([-1, 1]) for _ in range(3)]
        curve = json.loads(Path(_fixture(root, stem)).read_text(encoding="utf-8"))
        group = json.loads(Path(_fixture(root, stem + "_gens")).read_text(encoding="utf-8"))
        curve, group = conjugate_pair(curve, group, perm, signs)
        curve_path = _write(workdir, f"{stem}.json", curve)
        group_path = _write(workdir, f"{stem}_gens.json", group)
        cases.append(Case(f"signature.{stem}",
                          ["signature", "--curve", curve_path, "--group", group_path],
                          rule=_signature_rule(order, shown)))
    return cases


def descent_sweep(root: Path, workdir: Path, rng: random.Random) -> list[Case]:
    cases = [Case(f"qgonal-descend.{q}-{m}-{n}",
                  ["qgonal", "descend", "--q", str(q), "--m", str(m), "--n", str(n)],
                  rule=_qgonal_rule(q, m, n),
                  repeats=REPEATS if (q, m, n) == (3, 2, 2) else LONG_REPEATS)
             for q, m, n in QGONAL_DESCEND]
    cases.append(Case("descend-real.bielliptic",
                      ["descend-real", "--curve", _fixture(root, "bielliptic_quartic"),
                       "--mu", _fixture(root, "bielliptic_quartic_mu"),
                       "--aut", _fixture(root, "bielliptic_quartic_nu")]))
    triples = [("triple_conjugate_swap", _fixture(root, "triple_conjugate_swap"), True)]
    for k in range(2):
        r, s, c = swap_conjugate_triple(rng)
        path = _write(workdir, f"swap_triple_{k}.json", _triple_document(r, s, c))
        triples.append((f"swap_triple_{k}", path, False))
    for name, path, golden in triples:
        cases.append(Case(f"family-descend.{name}",
                          ["quartic-family", "descend", "--triple", path],
                          golden=golden, rule=_swap_rule(False)))
        cases.append(Case(f"family-rational-descend.{name}",
                          ["quartic-family", "rational-descend", "--triple", path],
                          golden=golden, rule=_swap_rule(True)))
    return cases


def cli_quick(root: Path, workdir: Path, rng: random.Random) -> list[Case]:
    fx = partial(_fixture, root)
    cases = [
        Case("aut-check.fermat", ["aut-check", "--curve", fx("fermat_quartic"),
                                  "--map", fx("sign_flip_x")]),
        Case("group-closure.s4", ["group-closure", "--group", fx("quartic_s4_gens")]),
        Case("odd-signature.c2c2", ["odd-signature", "--curve", fx("quartic_c2c2"),
                                    "--group", fx("quartic_c2c2_gens")]),
        Case("qgonal-genus.3-3-2", ["qgonal", "genus", "--curve",
                                    fx("qgonal_family_q3_m3_n2")]),
        Case("qgonal-genus.3-3-3", ["qgonal", "genus", "--curve",
                                    fx("qgonal_family_q3_m3_n3")]),
        Case("qgonal-signature.5-2-N1", ["qgonal", "signature", "--q", "5", "--n", "2",
                                         "--shape", "N1", "--genus", "14"]),
        Case("qgonal-signature.3-2-N0", ["qgonal", "signature", "--q", "3", "--n", "2",
                                         "--shape", "N0", "--genus", "4"]),
        Case("qgonal-family.3-3-2", ["qgonal", "family", "--q", "3", "--m", "3",
                                     "--n", "2"]),
        Case("qgonal-family.3-3-3", ["qgonal", "family", "--q", "3", "--m", "3",
                                     "--n", "3"]),
        Case("family-invariants.swap", ["quartic-family", "invariants", "--triple",
                                        fx("triple_conjugate_swap")]),
        Case("family-invariants.135", ["quartic-family", "invariants", "--triple",
                                       fx("triple_135")]),
        Case("family-isomorphic.off-orbit", ["quartic-family", "isomorphic",
                                             "--triple", fx("triple_135"),
                                             "--other", fx("triple_off_orbit")]),
        Case("family-isomorphic.off-orbit-without-i",
             ["quartic-family", "isomorphic", "--triple", fx("triple_135"),
              "--other", fx("triple_off_orbit"), "--without-i"]),
        Case("family-moduli.swap", ["quartic-family", "moduli", "--triple",
                                    fx("triple_conjugate_swap")]),
        Case("family-moduli.135-without-i", ["quartic-family", "moduli", "--triple",
                                             fx("triple_135"), "--without-i"]),
        # expected failures: an input error (2) or a resource bound (3)
        Case("signature.mismatched-pair", ["signature", "--curve", fx("quartic_c4_a4"),
                                           "--group", fx("quartic_c4_c2c2_gens")],
             expect_exit=2, golden=False),
        Case("group-closure.klein-bound-10", ["group-closure", "--group",
                                              fx("klein_quartic_gens"), "--bound", "10"],
             expect_exit=3, golden=False),
        Case("aut-check.malformed", ["aut-check", "--curve", str(MALFORMED),
                                     "--map", fx("sign_flip_x")],
             expect_exit=2, golden=False),
        Case("family-descend.cycle", ["quartic-family", "descend", "--triple",
                                      fx("triple_135"), "--case", "cycle"],
             expect_exit=2, golden=False),
    ]
    for k in range(6):
        genus = rng.choice([0, 0, 0, 1])
        indices = [rng.randint(2, 12) for _ in range(rng.randint(3, 6))]
        cases.append(Case(f"odd-signature.literal-{k}",
                          ["odd-signature", "--quotient-genus", str(genus),
                           "--indices", ",".join(map(str, indices))],
                          golden=False, rule=_literal_odd_rule(genus, indices)))
    return [replace(case, repeats=QUICK_REPEATS) for case in cases]


BUILDERS = {
    "signature-sweep": signature_sweep,
    "descent-sweep": descent_sweep,
    "cli-quick": cli_quick,
}


def build_cases(workload: str, root: Path, workdir: Path, seed: int,
                traced: bool = False) -> list[Case]:
    """The cases of one pass, each repeated, in seeded order; the cases of
    TRACED_ONLY are left out unless the run is traced."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for case in BUILDERS[workload](root, workdir, rng):
        if case.id in TRACED_ONLY:
            if traced:
                cases.append(replace(case, repeats=1))
        elif case.id == HEAVY_CASE[workload]:
            cases.append(replace(case, repeats=HEAVY_REPEATS[workload]))
        else:
            cases.append(case)
    cases = [case for case in cases for _ in range(case.repeats)]
    rng.shuffle(cases)
    return cases


# report checking ------------------------------------------------------------

def canonical(obj) -> str:
    """The layout `oddsig.serialize.dumps` promises."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def deterministic_part(stdout: str) -> str:
    report = json.loads(stdout)
    report.pop("command", None)
    report.pop("timing_seconds", None)
    return canonical(report)


def golden_path(case: Case) -> Path:
    return GOLDEN_DIR / f"{case.id}.json"


def check(case: Case, argv: list[str], code: int, stdout: str) -> Optional[str]:
    """None when the run is correct, else the reason it is not."""
    if code != case.expect_exit:
        return f"exit {code}, expected {case.expect_exit}"
    if case.expect_exit != 0:
        return None if stdout == "" else "a failing command printed a report"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    if canonical(report) != stdout:
        return "report is not in canonical layout"
    if report.get("command") != argv:
        return "report echoes another command line"
    if case.golden and deterministic_part(stdout) != golden_path(case).read_text(encoding="utf-8"):
        return "report differs from the golden copy"
    if case.rule is not None and not case.rule(report):
        return "verdict breaks the independent rule"
    return None
