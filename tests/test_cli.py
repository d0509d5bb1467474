"""Document parsing and the command-line front end."""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oddsig import cli, exactnum, polyring, serialize
from oddsig.cli import build_parser, run_command
from oddsig.descent import FamilyTriple
from oddsig.errors import (BoundExceeded, HypothesisViolation, InputError, InternalInconsistency,
                           ParseError, ResourceError, SchemaError)
from oddsig.exactnum import MAX_ORDER, CyclotomicElement
from oddsig.plane import PlaneCurve, ProjMap
from oddsig.polyring import SparsePoly
from oddsig.ramify import signature
from oracles import product

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_structured(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err
    return json.loads(out)


# parsing -------------------------------------------------------------------

def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as info:
        serialize.parse_input("{not json")
    assert "line 1 column" in str(info.value)


def test_parse_refuses_oversized_json_literals(tmp_path, capsys):
    huge_int = '{"kind": "family_triple", "order": 1' + "0" * 5000 + ', "values": [["1"], ["3"], ["5"]]}'
    deep = "[" * 100000 + "]" * 100000
    for text in (huge_int, deep):
        with pytest.raises(ParseError):
            serialize.parse_input(text)
    path = tmp_path / "huge.json"
    path.write_text(huge_int, encoding="utf-8")
    code, _, err = run(capsys, "quartic-family", "invariants", "--triple", str(path))
    assert code == 2 and "Traceback" not in err


def test_parse_rejects_bad_schemas(tmp_path, capsys):
    with pytest.raises(SchemaError):
        serialize.parse_input("[1, 2, 3]")
    with pytest.raises(SchemaError):
        serialize.parse_input(json.dumps({"kind": "mystery"}))
    # coords of the wrong length for the stated order
    bad = {"kind": "projective_map", "order": 4,
           "entries": [[["1"], ["0"], ["0"]],
                       [["0"], ["1"], ["0"]],
                       [["0"], ["0"], ["1"]]]}
    with pytest.raises(SchemaError):
        serialize.parse_input(json.dumps(bad))
    # degenerate family triple
    with pytest.raises(SchemaError):
        serialize.parse_input(json.dumps(
            {"kind": "family_triple", "order": 1,
             "values": [["1"], ["1"], ["5"]]}))
    # singular plane curve is still a curve; a zero polynomial is not
    with pytest.raises(SchemaError):
        serialize.parse_input(json.dumps(
            {"kind": "plane_curve", "order": 1,
             "variables": ["x", "y", "z"], "terms": []}))
    # a kind that is not a string is a schema error, not an unhashable key
    for kind in ([1], {"a": 1}):
        with pytest.raises(SchemaError):
            serialize.parse_input(json.dumps({"kind": kind, "order": 1}))
    bad_kind = tmp_path / "bad_kind.json"
    bad_kind.write_text(json.dumps({"kind": [1], "order": 1}), encoding="utf-8")
    code, _, err = run(capsys, "group-closure", "--group", str(bad_kind))
    assert code == 2 and "Traceback" not in err
    # a JSON boolean is not an integer, although bool subclasses int
    identity = [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    quartic = {"order": 1, "variables": ["x"],
               "terms": [{"exponents": [4], "coefficient": ["1"]},
                         {"exponents": [0], "coefficient": ["1"]}]}
    for doc in (
        {"kind": "projective_map", "order": True, "entries": identity},
        {"kind": "plane_curve", "order": 1, "variables": ["x", "y", "z"],
         "terms": [{"exponents": [True, 3, 0], "coefficient": ["1"]}]},
        {"kind": "qgonal_curve", "q": 3, "poly": quartic, "m": True},
        {"kind": "qgonal_curve", "q": 3, "poly": quartic, "n": True},
    ):
        with pytest.raises(SchemaError):
            serialize.parse_input(json.dumps(doc))
    with pytest.raises(SchemaError, match="'q' has the wrong type"):
        serialize.parse_input(json.dumps({"kind": "qgonal_curve", "q": True, "poly": quartic}))
    assert serialize.parse_input(json.dumps({"kind": "qgonal_curve", "q": 3, "poly": quartic,
                                             "m": 1, "n": 3})).value.m == 1


def test_field_order_above_the_cap_is_refused(monkeypatch):
    phi_args = []
    original = exactnum.euler_phi

    def spy(n):
        phi_args.append(n)
        return original(n)

    monkeypatch.setattr(exactnum, "euler_phi", spy)
    big = 2**61 - 1
    entries = [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    docs = [
        {"kind": "plane_curve", "order": big, "variables": ["x", "y", "z"], "terms": []},
        {"kind": "projective_map", "order": big, "entries": entries},
        {"kind": "group", "generators": [{"kind": "projective_map", "order": big,
                                          "entries": entries}]},
        {"kind": "family_triple", "order": big, "values": [["1"], ["3"], ["5"]]},
        {"kind": "qgonal_map", "order": big, "mobius": [[["1"], ["0"]], [["0"], ["1"]]],
         "multiplier_num": [["1"]], "multiplier_den": [["1"]]},
    ]
    for doc in docs:
        with pytest.raises(BoundExceeded):
            serialize.parse_input(json.dumps(doc))
    assert all(n <= MAX_ORDER for n in phi_args)
    # an order computed inside the program is refused before any factoring
    with pytest.raises(BoundExceeded):
        exactnum.CyclotomicElement.zero(MAX_ORDER + 1)
    # the cap is above every order in use
    assert serialize.check_order(MAX_ORDER) == MAX_ORDER
    assert len(exactnum.CyclotomicElement.zero(840).num) == 192


def test_field_order_above_the_cap_exits_3(tmp_path, capsys):
    curve = json.loads(Path(fx("fermat_quartic")).read_text(encoding="utf-8"))
    curve["order"] = 2**61 - 1
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve), encoding="utf-8")
    started = time.perf_counter()
    code, _, err = run(capsys, "signature", "--curve", str(path),
                       "--group", fx("fermat_quartic_gens"))
    assert code == 3 and "exceeds the bound" in err
    code, _, err = run(capsys, "qgonal", "descend", "--q", "3", "--m", str(2**61 - 1), "--n", "2")
    assert code == 3 and "exceeds the bound" in err
    assert time.perf_counter() - started < 1.0


def test_field_orders_whose_lcm_passes_the_cap_exit_3_up_front(tmp_path, capsys):
    """Inputs over Q(zeta_1024) and Q(zeta_3) need Q(zeta_3072). Each library
    entry point lifts its inputs into one field before any exact work, so it
    stops at once; a smoothness test of the dense quartic alone takes far
    longer."""
    rng = random.Random(1024)
    zeta = CyclotomicElement.zeta(1024)
    dense = SparsePoly.build(1024, 3, [(rng.randint(-2, 2) + rng.randint(-2, 2) * zeta, (i, j, 4 - i - j))
                                       for i in range(5) for j in range(5 - i)])
    w = CyclotomicElement.zeta(3)
    map3, map1024 = ProjMap.diagonal(3, w, 1, 1), ProjMap.diagonal(1024, zeta, 1, 1)
    docs = {"curve": serialize.to_document(PlaneCurve(dense)),
            "map3": serialize.to_document(map3),
            "group3": serialize.to_document([map3]),
            "group_mixed": serialize.to_document([map1024, map3]),
            "triple1024": serialize.family_triple_document(FamilyTriple(1 + zeta, 3, 5)),
            "triple3": serialize.family_triple_document(FamilyTriple(1 + w, 3, 5))}
    path = {}
    for name, doc in docs.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["aut-check", "--curve", path["curve"], "--map", path["map3"]],
                 ["group-closure", "--group", path["group_mixed"]],
                 ["signature", "--curve", path["curve"], "--group", path["group3"]],
                 ["odd-signature", "--curve", path["curve"], "--group", path["group3"]],
                 ["descend-real", "--curve", path["curve"], "--mu", path["map3"]],
                 ["quartic-family", "isomorphic", "--triple", path["triple1024"],
                  "--other", path["triple3"]]):
        started = time.perf_counter()
        code, out, err = run(capsys, *map(str, argv))
        assert code == 3 and out == "" and "field order 3072 exceeds the bound 1024" in err, (argv, err)
        assert time.perf_counter() - started < 1.0, argv


def _value(stem):
    return serialize.parse_input(Path(fx(stem)).read_text(encoding="utf-8")).value


def test_lcm_above_the_cap_exits_3_before_any_exact_work(tmp_path, monkeypatch, capsys):
    """A curve over Q(zeta_1024) with a generator over Q(zeta_1023) needs
    Q(zeta_1047552): signature refuses it before its smoothness test, and
    group-closure before its finite-order test."""
    from oddsig import matgroup, plane
    work = []
    monkeypatch.setattr(plane, "is_smooth", lambda curve: work.append(curve))
    monkeypatch.setattr(matgroup, "_require_finite_order", lambda g: work.append(g))
    flip = _value("sign_flip_x").lift_to(1023)
    docs = {"curve": _value("fermat_quartic").lift_to(1024), "group": [flip],
            "mixed": [ProjMap.diagonal(1024, CyclotomicElement.zeta(1024), 1, 1), flip]}
    for name, value in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(serialize.to_document(value)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in (["signature", "--curve", "curve.json", "--group", "group.json"],
                 ["group-closure", "--group", "mixed.json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "resource bound exceeded: field order 1047552 "
                                           "exceeds the bound 1024\n"), argv
    assert work == []


def _own_order_inputs():
    """(argv, {file name: value}) for the commands that read maps and plane
    curves, each value at its own field order; a group is a list of maps.
    The bielliptic involution nu is rational, so it is written over Q."""
    klein_gens = _value("klein_quartic_gens")
    nu = _value("bielliptic_quartic_nu")[0]
    nu_over_q = ProjMap(1, [[c.as_rational() for c in row] for row in nu.entries])
    assert nu_over_q.lift_to(nu.order) == nu
    pairs = [(["aut-check", "--curve", "curve.json", "--map", "map.json"],
              {"curve.json": _value("klein_quartic"), "map.json": klein_gens[2]}),
             (["aut-check", "--curve", "curve.json", "--map", "map.json"],
              {"curve.json": _value("fermat_quartic"), "map.json": klein_gens[0]}),
             (["group-closure", "--group", "group.json"],
              {"group.json": [_value("sign_flip_x")] + _value("fermat_quartic_gens")}),
             (["descend-real", "--curve", "curve.json", "--mu", "mu.json", "--aut", "aut.json"],
              {"curve.json": _value("bielliptic_quartic"),
               "mu.json": _value("bielliptic_quartic_mu"), "aut.json": [nu_over_q]})]
    for stem in ("klein_quartic", "fermat_quartic", "quartic_c4_a4", "quartic_c2c2"):
        for command in ("signature", "odd-signature"):
            pairs.append(([command, "--curve", "curve.json", "--group", "group.json"],
                          {"curve.json": _value(stem), "group.json": _value(f"{stem}_gens")}))
    return pairs


def test_reports_do_not_depend_on_the_documents_field_orders(tmp_path, monkeypatch, capsys):
    """The library lifts its inputs to the lcm of their orders, so documents
    at their own orders and the same documents lifted to the lcm print the
    same reports, apart from timing_seconds."""
    timing = re.compile(r'"timing_seconds": [^,\n]*')
    for n, (argv, values) in enumerate(_own_order_inputs()):
        flat = [v for value in values.values() for v in (value if isinstance(value, list) else [value])]
        lcm = exactnum.common_order(*[v.order for v in flat])
        assert any(v.order != lcm for v in flat), argv
        outputs = []
        for lifted in (False, True):
            where = tmp_path / f"{n}-{lifted}"
            where.mkdir()
            for name, value in values.items():
                if lifted:
                    value = [g.lift_to(lcm) for g in value] if isinstance(value, list) else value.lift_to(lcm)
                (where / name).write_text(json.dumps(serialize.to_document(value)), encoding="utf-8")
            monkeypatch.chdir(where)
            for fmt in ("text", "structured"):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert code == 0, (argv, err)
                outputs.append(timing.sub("", out))
        assert outputs[:2] == outputs[2:], argv


def test_oversized_qgonal_inputs_exit_3(tmp_path, capsys):
    # a huge prime cover degree, a huge family degree and a huge exponent used
    # to run past any timeout
    curve = {"kind": "qgonal_curve", "q": 3,
             "poly": {"order": 1, "variables": ["x"],
                      "terms": [{"exponents": [e], "coefficient": [c]}
                                for e, c in ((20000, "1"), (1, "-1"), (0, "1"))]}}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve), encoding="utf-8")
    q = str(2**61 - 1)
    for argv in (["qgonal", "descend", "--q", q, "--m", "3", "--n", "3"],
                 ["qgonal", "signature", "--q", q, "--n", "2", "--shape", "N0", "--genus", "5"],
                 ["qgonal", "descend", "--q", "3", "--m", "3", "--n", "50000000"],
                 ["qgonal", "genus", "--curve", str(path)]):
        started = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 3 and "exceeds the bound" in err, argv
        assert time.perf_counter() - started < 1.0, argv


def test_dense_curve_above_the_verdict_degree_exits_3(tmp_path, capsys):
    # all 8 385 monomials of degree 128, inside polyring.MAX_DEGREE
    curve = {"kind": "plane_curve", "order": 1, "variables": ["x", "y", "z"],
             "terms": [{"exponents": [i, j, 128 - i - j], "coefficient": ["1"]}
                       for i in range(129) for j in range(129 - i)]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve), encoding="utf-8")
    started = time.perf_counter()
    code, _, err = run(capsys, "signature", "--curve", str(path), "--group", fx("quartic_s3_gens"))
    assert code == 3 and "exceeds the bound" in err
    assert time.perf_counter() - started < 1.0


def test_curves_outside_the_theorem_exit_2(tmp_path, capsys):
    w = exactnum.CyclotomicElement.zeta(3, 1)
    swap, cycle = ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [1, 2, 0])

    def poly(order, items):
        return SparsePoly.build(order, 3, items)

    cases = {
        "conic": (poly(1, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]), [swap, cycle], "genus 0"),
        # the lines x +- y +- z = 0
        "four_lines": (poly(1, [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
                                (-2, (2, 2, 0)), (-2, (0, 2, 2)), (-2, (2, 0, 2))]),
                       [swap, cycle], "singular"),
        # 2(x^2 y^2 + y^2 z^2 + z^2 x^2) + xyz(x + y + z)
        "c3_quartic": (poly(1, [(2, tuple(2 * (i != k) for i in range(3))) for k in range(3)]
                            + [(1, tuple(1 + (i == k) for i in range(3))) for k in range(3)]),
                       [cycle], "singular"),
        "fermat_cubic": (poly(3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]),
                         [ProjMap.diagonal(3, w, 1, 1), ProjMap.diagonal(3, 1, w, 1),
                          swap.lift_to(3), cycle.lift_to(3)], "genus 1"),
    }
    for name, (f, gens, message) in cases.items():
        curve_path, group_path = tmp_path / f"{name}.json", tmp_path / f"{name}_gens.json"
        curve_path.write_text(json.dumps(serialize.to_document(PlaneCurve(f))), encoding="utf-8")
        group_path.write_text(json.dumps(serialize.to_document(gens)), encoding="utf-8")
        for command in ("signature", "odd-signature"):
            code, out, err = run(capsys, command, "--curve", str(curve_path),
                                 "--group", str(group_path))
            assert code == 2 and out == "" and message in err, (name, command, err)
    mu = tmp_path / "identity.json"
    mu.write_text(json.dumps(serialize.to_document(ProjMap.identity(1))), encoding="utf-8")
    code, out, err = run(capsys, "descend-real", "--curve", str(tmp_path / "four_lines.json"),
                         "--mu", str(mu))
    assert code == 2 and "singular" in err


def test_singular_curve_runs_its_whole_pencil_and_exits_2(tmp_path, monkeypatch, capsys):
    """(x^2 - z^2)^2 + (y + z)^2 (x^2 + xy - xz + yz) is singular at
    (+-1 : -1 : 1). Every gcd of the pencil's resultants keeps the roots
    x = +-1, so is_smooth runs all d = 4 of them before it refuses the curve."""
    results, original = [], polyring.resultant

    def spy(f, g):
        results.append(original(f, g))
        return results[-1]

    monkeypatch.setattr(polyring, "resultant", spy)
    x2_minus_z2 = SparsePoly.build(1, 3, [(1, (2, 0, 0)), (-1, (0, 0, 2))])
    y_plus_z = SparsePoly.build(1, 3, [(1, (0, 1, 0)), (1, (0, 0, 1))])
    quadric = SparsePoly.build(1, 3, [(1, (2, 0, 0)), (1, (1, 1, 0)), (-1, (1, 0, 1)), (1, (0, 1, 1))])
    form = SparsePoly.build(1, 3, [(c, e) for p in (product(x2_minus_z2, x2_minus_z2),
                                                    product(y_plus_z, y_plus_z, quadric))
                                   for e, c in p.terms.items()])
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(serialize.to_document(PlaneCurve(form))), encoding="utf-8")
    code, out, err = run(capsys, "signature", "--curve", str(path), "--group", fx("quartic_s4_gens"))
    assert code == 2 and out == "" and "plane curve is singular" in err
    assert len(results) == 4


def test_cover_document_refusals_keep_their_exit_code_and_message(tmp_path, capsys):
    """A cover map's Moebius matrix and multiplier, and a cover's f, are
    document shapes that serialize reads: each malformed one is refused when
    read, with exit 2 and one stderr line."""
    one, zero = ["1"], ["0"]
    cover_map = {"kind": "qgonal_map", "order": 1, "mobius": [[one, zero], [zero, one]],
                 "multiplier_num": [one], "multiplier_den": [one]}
    not_moebius = "not a cover map: moebius part must be an invertible diagonal or antidiagonal matrix"
    not_monomial = "not a cover map: multiplier parts must be monomials: one nonzero coefficient each"
    cases = {
        "dense_matrix": (dict(cover_map, mobius=[[one, one], [one, one]]), not_moebius),
        "singular_diagonal": (dict(cover_map, mobius=[[one, zero], [zero, zero]]), not_moebius),
        "zero_multiplier": (dict(cover_map, multiplier_num=[zero]), not_monomial),
        "two_term_multiplier": (dict(cover_map, multiplier_den=[one, one]), not_monomial),
        "two_variable_f": ({"kind": "qgonal_curve", "q": 3,
                            "poly": {"order": 1, "variables": ["x", "t"],
                                     "terms": [{"exponents": [4, 0], "coefficient": one},
                                               {"exponents": [0, 0], "coefficient": one}]}},
                           "not a cyclic cover: a univariate list needs a polynomial in one "
                           "variable, not 2"),
    }
    for name, (doc, message) in cases.items():
        with pytest.raises(SchemaError) as info:
            serialize.parse_input(json.dumps(doc))
        assert str(info.value) == message, name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "qgonal", "genus", "--curve", str(path))
        assert (code, out, err) == (2, "", f"input error: {message}\n"), name


def test_redundant_generator_list_exits_3(tmp_path, capsys):
    """All 168 elements of the Klein quartic's group as generators would cost
    168 * 168 products in closure; the generator-count bound refuses them
    with exit 3 before any product."""
    report = run_structured(capsys, "group-closure", "--group", fx("klein_quartic_gens"))
    group = tmp_path / "klein_168_generators.json"
    group.write_text(json.dumps({"kind": "group", "generators": report["result"]["elements"]}),
                     encoding="utf-8")
    for argv in (["signature", "--curve", fx("klein_quartic"), "--group", str(group)],
                 ["group-closure", "--group", str(group)]):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 5.0, argv
        assert code == 3 and out == "" and len(err.splitlines()) == 1, argv
        assert err.startswith("resource bound exceeded: 168 generators") and "redundant" in err


def test_long_generator_list_is_refused_before_any_automorphism_check(tmp_path, monkeypatch, capsys):
    """signature applies closure's generator-count bound before it checks
    that a single generator is an automorphism: the 168 Klein elements are
    refused with exit 3 and no check, and so are they behind a map that is
    no automorphism, which exits 3 rather than 2."""
    from oddsig import plane
    report = run_structured(capsys, "group-closure", "--group", fx("klein_quartic_gens"))
    elements = report["result"]["elements"]
    not_an_automorphism = json.loads(Path(fx("sign_flip_x")).read_text(encoding="utf-8"))
    checks, real = [], plane.is_automorphism

    def spy(curve, mapping):
        checks.append(mapping)
        return real(curve, mapping)

    monkeypatch.setattr(plane, "is_automorphism", spy)
    for name, generators in (("all", elements), ("mixed", [not_an_automorphism] + elements)):
        group = tmp_path / f"{name}.json"
        group.write_text(json.dumps({"kind": "group", "generators": generators}), encoding="utf-8")
        code, out, err = run(capsys, "signature", "--curve", fx("klein_quartic"), "--group", str(group))
        assert code == 3 and out == "" and err.startswith("resource bound exceeded"), name
        assert checks == [], name


def test_long_aut_list_is_refused_before_any_isomorphism_check(tmp_path, monkeypatch, capsys):
    """descend-real applies closure's generator-count bound before it checks
    the isomorphism or any --aut generator: nine copies of the bielliptic
    involution exit 3 with no check, and so do they behind a map that is no
    automorphism, which exits 3 rather than 2."""
    from oddsig import plane
    nu = json.loads(Path(fx("bielliptic_quartic_nu")).read_text(encoding="utf-8"))["generators"][0]
    not_an_automorphism = json.loads(Path(fx("sign_flip_x")).read_text(encoding="utf-8"))
    checks, real = [], plane.is_isomorphism_onto

    def spy(source, target, mapping):
        checks.append(mapping)
        return real(source, target, mapping)

    monkeypatch.setattr(plane, "is_isomorphism_onto", spy)
    for name, generators in (("nine", [nu] * 9), ("mixed", [not_an_automorphism] + [nu] * 8)):
        group = tmp_path / f"{name}.json"
        group.write_text(json.dumps({"kind": "group", "generators": generators}), encoding="utf-8")
        code, out, err = run(capsys, "descend-real", "--curve", fx("bielliptic_quartic"),
                             "--mu", fx("bielliptic_quartic_mu"), "--aut", str(group))
        assert code == 3 and out == "" and err.startswith("resource bound exceeded"), name
        assert checks == [], name


def test_descend_real_checks_the_aut_generators_before_mu(capsys):
    """An --aut map that is no automorphism is refused as a group element,
    as signature refuses it, and before mu is checked: with a bad mu as well,
    the generator's refusal is the one reported."""
    for mu, aut in (("bielliptic_quartic_mu", "sign_flip_x"), ("sign_flip_x", "sign_flip_x"),
                    ("sign_flip_x", "bielliptic_quartic_nu")):
        code, out, err = run(capsys, "descend-real", "--curve", fx("bielliptic_quartic"),
                             "--mu", fx(mu), "--aut", fx(aut))
        assert (code, out) == (2, ""), (mu, aut)
        assert err == ("input error: map does not carry the source curve onto the target curve\n"
                       if aut == "bielliptic_quartic_nu" else
                       "input error: group element does not preserve the curve\n"), (mu, aut)


def test_aut_check_refuses_a_degree_above_the_plane_bound(tmp_path, monkeypatch, capsys):
    """aut-check substitutes into a curve only up to MAX_PLANE_DEGREE = 7:
    the Fermat octic and a dense curve of degree 128 under a dense map exit
    3 at once, with no substitution."""
    from oddsig import polyring
    substitutions = []
    real = polyring.SparsePoly.substitute_linear
    monkeypatch.setattr(polyring.SparsePoly, "substitute_linear",
                        lambda poly, rows: substitutions.append(poly) or real(poly, rows))
    dense_map = tmp_path / "dense_map.json"
    dense_map.write_text(json.dumps({"kind": "projective_map", "order": 1, "entries": [
        [[str(v)] for v in row] for row in ((1, 1, 1), (1, 2, 3), (1, 3, 7))]}), encoding="utf-8")
    for degree, dense in ((8, False), (128, True)):
        exponents = ([(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
                     if dense else [(degree, 0, 0), (0, degree, 0), (0, 0, degree)])
        curve = tmp_path / f"degree_{degree}.json"
        curve.write_text(json.dumps({"kind": "plane_curve", "order": 1, "variables": ["x", "y", "z"],
                                     "terms": [{"exponents": list(e), "coefficient": ["1"]}
                                               for e in exponents]}), encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "aut-check", "--curve", str(curve),
                             "--map", str(dense_map) if dense else fx("sign_flip_x"))
        assert time.perf_counter() - started < 5.0, degree
        assert (code, out) == (3, ""), degree
        assert err == f"resource bound exceeded: plane curve degree {degree} exceeds the bound 7\n"
    assert substitutions == []
    code, out, _ = run(capsys, "aut-check", "--curve", fx("fermat_quartic"), "--map", fx("sign_flip_x"))
    assert code == 0 and "automorphism: yes" in out and len(substitutions) == 1


def test_singular_map_exits_2(tmp_path, capsys):
    gens = json.loads(Path(fx("fermat_quartic_gens")).read_text(encoding="utf-8"))
    entries = gens["generators"][0]["entries"]
    entries[1] = entries[0]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens), encoding="utf-8")
    code, _, err = run(capsys, "group-closure", "--group", str(path))
    assert code == 2 and "invertible" in err


def test_every_fixture_round_trips():
    files = sorted(FIXTURES.glob("*.json"))
    assert len(files) >= 30
    kinds = set()
    for path in files:
        doc = serialize.parse_input(path.read_text(encoding="utf-8"))
        kinds.add(doc.kind)
        emitted = serialize.to_document(doc.value)
        again = serialize.parse_document(emitted)
        assert again.value == doc.value, path.name
        assert serialize.dumps(emitted) == path.read_text(encoding="utf-8"), path.name
    assert kinds == set(serialize.KINDS)


def test_qgonal_curve_in_two_variables_is_refused_when_read(tmp_path, capsys):
    """x^4 - x + 1 written in the variables x and t, with no t in any term,
    is not a cyclic cover y^q = f(x): it is refused when read, not after the
    genus is computed, when the report is written."""
    doc = {"kind": "qgonal_curve", "q": 3,
           "poly": {"order": 1, "variables": ["x", "t"],
                    "terms": [{"exponents": e, "coefficient": [c]}
                              for e, c in (([4, 0], "1"), ([1, 0], "-1"), ([0, 0], "1"))]}}
    with pytest.raises(SchemaError, match="not a cyclic cover"):
        serialize.parse_input(json.dumps(doc))
    path = tmp_path / "two_variables.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "qgonal", "genus", "--curve", str(path))
    assert code == 2 and out == "" and err.startswith("input error: not a cyclic cover")
    doc["poly"]["variables"] = ["x"]
    doc["poly"]["terms"] = [dict(t, exponents=t["exponents"][:1]) for t in doc["poly"]["terms"]]
    assert serialize.parse_input(json.dumps(doc)).value.genus == 3


def test_input_document_is_an_immutable_value():
    text = json.dumps({"kind": "family_triple", "order": 4, "values": [["1", "0"], ["3", "0"], ["5", "0"]]})
    doc = serialize.parse_input(text)
    assert doc == serialize.parse_input(text) == serialize.InputDocument("family_triple", FamilyTriple(1, 3, 5).lift_to(4))
    assert len({doc, serialize.parse_input(text)}) == 1
    assert doc != serialize.InputDocument("family_triple", FamilyTriple(1, 3, 7))
    with pytest.raises(AttributeError):
        doc.kind = "group"


def test_inexact_coordinates_exit_2(tmp_path, capsys):
    """A JSON float or boolean is not an exact coordinate: 0.1 would read as
    3602879701896397/36028797018963968, and true as 1."""
    triple = {"kind": "family_triple", "order": 4, "values": [[0.1, "0"], ["1/3", "0"], ["5", "0"]]}
    path = tmp_path / "float_triple.json"
    path.write_text(json.dumps(triple), encoding="utf-8")
    code, out, err = run(capsys, "quartic-family", "invariants", "--triple", str(path))
    assert code == 2 and out == "" and "0.1" in err
    triple["values"][0][0] = "1/10"
    path.write_text(json.dumps(triple), encoding="utf-8")
    code, out, _ = run(capsys, "quartic-family", "invariants", "--triple", str(path))
    assert code == 0 and "j1 = 1/6" in out


# arbitrary JSON inside each document kind: a fixture (every kind has one)
# with one or two of its nodes replaced by drawn JSON or deleted
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2)
    | st.sampled_from(["0", "1", "-1/2", "3/0", "1e3", "x", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_FUZZ_BASES = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.json"))]


def _node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@st.composite
def _mutated_documents(draw, bases=_FUZZ_BASES):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 2))):
        *walk, last = draw(st.sampled_from(list(_node_paths(doc))[1:]))
        parent = doc
        for key in walk:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(_json)
    return doc


def test_fuzz_bases_cover_every_kind():
    assert {doc["kind"] for doc in _FUZZ_BASES} == set(serialize.KINDS)


@settings(max_examples=200, deadline=None)
@given(_mutated_documents())
def test_parse_input_fuzz_raises_only_typed_input_errors(doc):
    """A drawn document is refused with a typed error, or it loads, and then
    it writes back to a document that loads to an equal value."""
    try:
        parsed = serialize.parse_input(json.dumps(doc))
    except (InputError, ResourceError):
        return
    assert parsed.kind == doc["kind"]
    assert serialize.parse_document(serialize.to_document(parsed.value)) == parsed


# drawn command lines for every subcommand: an option value is a string, a
# flag (True), absent, or the bytes of an input file. Files come from
# fixtures that fit together, so that a fair share of the calls computes
@st.composite
def _input_file(draw, name):
    """The fixture `name` as it is (half the time), with a node or two
    mutated, or raw bytes."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    how = draw(st.sampled_from(["as is", "as is", "mutated", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=24))
    return json.dumps(doc if how == "as is" else draw(_mutated_documents([doc]))).encode()


def _input_files(*names):
    return st.sampled_from(names).flatmap(_input_file)


def _number(*values):
    return st.sampled_from([str(v) for v in values])


_PLANE_PAIRS = st.sampled_from(["quartic_c2c2", "quartic_c3", "quartic_s3", "quartic_d4", "fermat_quartic"])
_GROUPS = _PLANE_PAIRS.flatmap(lambda name: _input_file(name + "_gens"))
_TRIPLE = _input_files("triple_135", "triple_conjugate_swap", "triple_off_orbit",
                       "triple_conjugate_negate_ab", "triple_conjugate_negate_bc")
_QMN = st.fixed_dictionaries({"--q": _number(-1, 0, 2, 3, 4, 5), "--m": _number(-1, 1, 2, 3, 4),
                              "--n": _number(-1, 1, 2, 3, 4)})
_WITHOUT_I = {"--without-i": st.just(True)}
_FUZZ_COMMANDS = {
    "aut-check": st.fixed_dictionaries({
        "--curve": _input_files("quartic_c2c2", "fermat_quartic", "klein_quartic"),
        "--map": _input_file("sign_flip_x")}),
    "group-closure": st.fixed_dictionaries({"--group": _GROUPS},
                                           optional={"--bound": _number(-5, 0, 1, 24, 400)}),
    "signature": _PLANE_PAIRS.flatmap(lambda name: st.fixed_dictionaries({
        "--curve": _input_file(name), "--group": _input_file(name + "_gens")})),
    "odd-signature": _PLANE_PAIRS.flatmap(lambda name: st.fixed_dictionaries({}, optional={
        "--curve": _input_file(name), "--group": _input_file(name + "_gens"),
        "--quotient-genus": _number(-3, 0, 1, 2),
        "--indices": st.text("0123456789,- x", max_size=8)})),
    "descend-real": st.fixed_dictionaries({
        "--curve": _input_file("bielliptic_quartic"), "--mu": _input_file("bielliptic_quartic_mu")},
        optional={"--aut": _input_files("bielliptic_quartic_nu", "sign_flip_x")}),
    "qgonal genus": st.fixed_dictionaries({
        "--curve": _input_files("qgonal_family_q3_m3_n2", "qgonal_family_q3_m3_n3")}),
    "qgonal signature": st.fixed_dictionaries({
        "--q": _number(-1, 0, 2, 3, 4, 5, 7), "--n": _number(-1, 0, 1, 2, 3, 6),
        "--shape": st.sampled_from(["N0", "N1", "N2"]), "--genus": _number(-2, 0, 2, 3, 4, 6, 10, 12)}),
    "qgonal family": _QMN,
    "qgonal descend": _QMN,
    "quartic-family invariants": st.fixed_dictionaries({"--triple": _TRIPLE}),
    "quartic-family isomorphic": st.fixed_dictionaries({"--triple": _TRIPLE, "--other": _TRIPLE},
                                                       optional=_WITHOUT_I),
    "quartic-family moduli": st.fixed_dictionaries({"--triple": _TRIPLE}, optional=_WITHOUT_I),
    "quartic-family descend": st.fixed_dictionaries({"--triple": _TRIPLE}, optional={
        "--case": st.sampled_from(["swap", "cycle", "negate-ab", "negate-bc"])}),
    "quartic-family rational-descend": st.fixed_dictionaries({"--triple": _TRIPLE}),
}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    options = draw(_FUZZ_COMMANDS[command])
    options["--format"] = draw(st.sampled_from(["text", "structured"]))
    options["--out"] = draw(st.sampled_from([None, "report.json", "."]))
    return command.split(), options


def test_fuzz_commands_cover_every_subcommand():
    def leaves(parser, prefix=""):
        nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not nested:
            return {prefix.strip()}
        return set().union(*(leaves(sub, f"{prefix} {name}") for name, sub in nested[0].choices.items()))
    assert leaves(build_parser()) == set(_FUZZ_COMMANDS)


@settings(max_examples=150, deadline=None)
@given(_command_lines())
def test_cli_fuzz_exits_0_2_or_3(command_line):
    """Every subcommand on drawn options and input files ends with exit 0, 2
    or 3; exit 1 or a traceback is a bug. A failed call prints nothing on
    stdout."""
    command, options = command_line
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(command)
        for name, value in options.items():
            if value is None:
                continue
            if value is True:
                argv.append(name)
                continue
            if isinstance(value, bytes):
                path = Path(tmp) / f"input{len(argv)}.json"
                path.write_bytes(value)
                value = str(path)
            elif name == "--out":
                value = str(Path(tmp) / value)
            argv += [name, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "", argv


def _probe(code: str) -> str:
    """stdout of a fresh interpreter running `code` from the repository root;
    a fresh process, because this one has already run every layer."""
    env = dict(os.environ, PYTHONPATH=str(Path(serialize.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=FIXTURES.parent,
                          check=True, capture_output=True, text=True).stdout


_TRACED_MODULES = {"oddsig." + name for name in ("cli", "descent", "exactnum", "matgroup", "plane",
                                                 "polyring", "ramify", "serialize", "superell")}

# prints the oddsig modules that have run: a registered module that has not
# run yet is of LazyLoader's subclass of the module type
_RAN = ("import types; print(' '.join(name for name, module in sys.modules.items()"
        " if name.startswith('oddsig') and type(module) is types.ModuleType))")


def _layers_run_by(argv, code=0) -> list[str]:
    return _probe("import io, sys, contextlib, oddsig.cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    assert oddsig.cli.run_command({argv!r}) == {code}\n" + _RAN).split()


def test_cli_import_loads_no_dataclasses_chain():
    """Every CLI call is a fresh process, so what `import oddsig.cli` loads
    is paid on every verdict; the traced benchmark patches the nine layer
    modules right after that import, so all of them must be registered by it."""
    loaded = set(_probe("import sys, oddsig.cli; print(' '.join(sys.modules))").split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "cmath"}
    assert _TRACED_MODULES <= loaded


def test_cli_import_runs_no_layer():
    registered, ran = _probe("import sys, oddsig.cli; print(' '.join(sys.modules)); " + _RAN).splitlines()
    assert _TRACED_MODULES <= set(registered.split())
    assert set(ran.split()) == {"oddsig", "oddsig.cli", "oddsig.errors"}


@pytest.mark.parametrize("argv", [
    ["odd-signature", "--quotient-genus", "0", "--indices", "2,3,7"],
    ["signature", "--curve", "fixtures/fermat_quartic.json", "--group", "fixtures/fermat_quartic_gens.json"],
])
def test_plane_commands_skip_descent_and_superell(argv):
    ran = _layers_run_by(argv)
    assert {"oddsig.ramify", "oddsig.serialize"} <= set(ran)
    assert not {"oddsig.descent", "oddsig.superell"} & set(ran)


# the layer that each command's handler enters
_ENTRY_LAYER = {"odd-signature": "ramify", "qgonal": "ramify", "quartic-family": "descent",
                "group-closure": "matgroup"}


@pytest.mark.parametrize("argv, skips", [
    (["odd-signature", "--quotient-genus", "0", "--indices", "2,3,7"], {"plane", "matgroup", "polyring"}),
    (["qgonal", "signature", "--q", "3", "--n", "2", "--shape", "N0", "--genus", "4"],
     {"descent", "plane", "matgroup", "polyring"}),
    (["qgonal", "descend", "--q", "3", "--m", "3", "--n", "3"], {"descent", "plane", "matgroup"}),
    (["quartic-family", "invariants", "--triple", "fixtures/triple_135.json"],
     {"ramify", "plane", "matgroup", "polyring"}),
    (["quartic-family", "moduli", "--triple", "fixtures/triple_135.json"],
     {"ramify", "plane", "matgroup", "polyring"}),
    (["quartic-family", "descend", "--triple", "fixtures/triple_135.json", "--case", "cycle"],
     {"ramify", "plane", "matgroup", "polyring"}),
    (["group-closure", "--group", "fixtures/klein_quartic_gens.json"], {"polyring"}),
])
def test_ramify_and_superell_reach_lower_layers_through_their_modules(argv, skips):
    """ramify, superell, descent and plane call exactnum, matgroup, plane and
    polyring as module attributes, so a layer runs only when a call reaches it."""
    # the cycle case is refused with exit 2 before any move is built
    ran = _layers_run_by(argv, 2 if "cycle" in argv else 0)
    assert {"oddsig." + _ENTRY_LAYER[argv[0]], "oddsig.serialize"} <= set(ran)
    assert not {"oddsig." + name for name in skips} & set(ran)


def test_star_import_binds_each_name_of_its_layer():
    import importlib
    import oddsig
    namespace = {}
    exec("from oddsig import *", namespace)
    assert oddsig.__all__ == sorted(set(oddsig.__all__))
    for name in oddsig.__all__:
        layer = importlib.import_module("oddsig." + oddsig._HOME[name])
        assert namespace[name] is getattr(layer, name), name
    with pytest.raises(AttributeError):
        oddsig.no_such_name


def test_tracer_patches_reach_the_cli():
    """A function the benchmark's tracer patches in its layer module after
    `import oddsig.cli` is the one the CLI calls: each command records the
    span of its layer entry point."""
    commands = [["signature", "--curve", "fixtures/quartic_c3.json", "--group", "fixtures/quartic_c3_gens.json"],
                ["aut-check", "--curve", "fixtures/quartic_c2c2.json", "--map", "fixtures/sign_flip_x.json"],
                ["qgonal", "descend", "--q", "3", "--m", "3", "--n", "3"],
                ["quartic-family", "rational-descend", "--triple", "fixtures/triple_conjugate_swap.json"]]
    spans = _probe("import io, sys, contextlib, oddsig.cli\n"
                   "sys.path.insert(0, 'perfbench')\n"
                   "from tracer import Recorder\n"
                   "recorder = Recorder()\n"
                   "recorder.install()\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    for argv in {commands!r}:\n"
                   "        assert oddsig.cli.run_command(argv) == 0\n"
                   "print(' '.join(sorted({span[0] for span in recorder.spans})))").split()
    assert {"ramify.signature", "ramify.fixed_point_count", "plane.is_automorphism",
            "superell.qgonal_real_descent", "descent.family_rational_descent",
            "serialize.parse_input", "serialize.dumps", "exactnum.mul"} <= set(spans)


# commands ------------------------------------------------------------------

def test_aut_check(capsys):
    report = run_structured(capsys, "aut-check",
                            "--curve", fx("quartic_c2c2"),
                            "--map", fx("sign_flip_x"))
    assert report["result"]["is_automorphism"] is True
    assert report["citations"]
    code, out, _ = run(capsys, "aut-check",
                       "--curve", fx("klein_quartic"),
                       "--map", fx("sign_flip_x"))
    assert code == 0 and "no" in out


def test_group_closure(capsys):
    report = run_structured(capsys, "group-closure",
                            "--group", fx("fermat_quartic_gens"))
    assert report["result"]["order"] == 96
    for element in report["result"]["elements"]:
        assert serialize.parse_document(element).kind == "projective_map"


def test_group_closure_bound_exceeded(capsys):
    code, _, err = run(capsys, "group-closure",
                       "--group", fx("fermat_quartic_gens"), "--bound", "10")
    assert code == 3 and "bound" in err


def test_non_automorphism_of_infinite_order_exits_2(tmp_path, capsys):
    # the shear is no automorphism of the Fermat quartic and generates an
    # infinite group: the generator check must come before the closure
    shear = [[["1"], ["1"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    group = tmp_path / "shear.json"
    group.write_text(json.dumps({"kind": "group", "generators": [
        {"kind": "projective_map", "order": 1, "entries": shear}]}), encoding="utf-8")
    for command in ("signature", "odd-signature"):
        code, out, err = run(capsys, command, "--curve", fx("fermat_quartic"), "--group", str(group))
        assert code == 2 and out == ""
        assert "does not preserve" in err


def test_unramified_signature_reads_group_order_1(tmp_path, capsys):
    # the identity alone gives the signature (3) with no branch indices, so
    # Riemann-Hurwitz has no index term
    identity = [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    group = tmp_path / "identity.json"
    group.write_text(json.dumps({"kind": "group", "generators": [
        {"kind": "projective_map", "order": 1, "entries": identity}]}), encoding="utf-8")
    for command in ("signature", "odd-signature"):
        report = run_structured(capsys, command, "--curve", fx("fermat_quartic"), "--group", str(group))
        assert report["result"]["group_order"] == 1
        assert report["result"]["signature"] == {"quotient_genus": 3, "indices": [], "display": "(3)"}
        assert report["result"]["verdict"] == "INCONCLUSIVE"


def test_only_group_closure_takes_bound(capsys):
    code, out, _ = run(capsys, "group-closure", "--group", fx("quartic_s4_gens"), "--bound", "24")
    assert code == 0 and "24" in out
    for argv in (["signature", "--curve", fx("fermat_quartic"), "--group", fx("fermat_quartic_gens")],
                 ["odd-signature", "--curve", fx("quartic_c2c2"), "--group", fx("quartic_c2c2_gens")],
                 ["descend-real", "--curve", fx("bielliptic_quartic"),
                  "--mu", fx("bielliptic_quartic_mu")]):
        code, out, err = run(capsys, *argv, "--bound", "400")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bound" in err
        assert len(err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    # argparse refusals are input errors, but --help is no refusal
    for argv in (["--help"], ["qgonal", "signature", "--help"]):
        with pytest.raises(SystemExit) as info:
            run_command(argv)
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: oddsig") and err == ""


def test_readme_cli_usage_commands_exit_0(monkeypatch, capsys):
    """Every command of README's CLI usage block runs and exits 0, so a
    documented flag cannot outlive its code."""
    root = FIXTURES.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert len(commands) >= 12 and all(argv[0] == "oddsig" for argv in commands)
    monkeypatch.chdir(root)
    for argv in commands:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_readme_library_quick_tour_prints_its_comments():
    """The README's "Library quick tour" block runs and prints the values its
    comments promise."""
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == ["96", "(0; 2, 3, 8)", "DEFINABLE Q"]


def test_signature_fermat(capsys):
    report = run_structured(capsys, "signature",
                            "--curve", fx("fermat_quartic"),
                            "--group", fx("fermat_quartic_gens"))
    assert report["result"]["group_order"] == 96
    assert report["result"]["signature"]["display"] == "(0; 2, 3, 8)"
    assert report["result"]["verdict"] == "ODD"
    assert report["assumptions"] and report["citations"]


def test_argument_that_is_not_utf8_is_refused(tmp_path, monkeypatch, capsys):
    # a non-UTF-8 byte in argv arrives as a lone surrogate (PEP 383)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "odd-signature", "--quotient-genus", "0", "--indices", "2,3,7",
                         "--out", "\udcff.json")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
    env = dict(os.environ, PYTHONPATH=str(Path(serialize.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "oddsig.cli", "odd-signature", "--quotient-genus", "0",
                           "--indices", "2,3,7", "--out", b"\xff.json"],
                          env=env, cwd=tmp_path, capture_output=True)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"input error:") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_internal_inconsistency_exits_1(monkeypatch, capsys):
    from oddsig import plane
    # a wrong lambda in F o A = lambda * F trips the trace formula's guard
    lam = CyclotomicElement.from_rational(2, 3)
    monkeypatch.setattr(plane, "is_automorphism", lambda curve, mapping: (True, lam))
    code, out, err = run(capsys, "signature", "--curve", fx("quartic_c3"),
                         "--group", fx("quartic_c3_gens"))
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency:")


def test_riemann_hurwitz_guard_exits_1(monkeypatch, capsys):
    from oddsig import errors, ramify
    # the curve and the generators are verified before the guards run, so a
    # failed guard is a defect: three fixed points of the involution leave
    # 2g - 2 - 3 = 1, which |G| = 2 does not divide
    for name in ("NonIntegerBranchCount", "NonIntegerGenus", "NegativeGenus"):
        assert issubclass(getattr(errors, name), InternalInconsistency)
    monkeypatch.setattr(ramify, "fixed_point_count", lambda curve, mapping: 3)
    code, out, err = run(capsys, "signature", "--curve", fx("quartic_c2"),
                         "--group", fx("quartic_c2_gens"))
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency:") and "Riemann-Hurwitz" in err
    assert len(err.splitlines()) == 1


def test_generator_of_infinite_order_exits_2(tmp_path, capsys):
    huge = "7" * 4290
    entries = [[[huge], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    group = tmp_path / "huge.json"
    group.write_text(json.dumps({"kind": "group", "generators": [
        {"kind": "projective_map", "order": 1, "entries": entries}]}), encoding="utf-8")
    for bound in ("60", "360"):
        started = time.perf_counter()
        code, out, err = run(capsys, "group-closure", "--group", str(group), "--bound", bound)
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err.startswith("input error: generator of infinite order") and len(err.splitlines()) == 1


def test_qgonal_descend_failed_generator_check_exits_1(monkeypatch, capsys):
    from oddsig import superell
    real, rotation = superell.qgonal_is_isomorphism, superell.rotation_map(3)
    monkeypatch.setattr(superell, "qgonal_is_isomorphism",
                        lambda source, target, phi: phi != rotation.lift_to(phi.order) and real(source, target, phi))
    with pytest.raises(InternalInconsistency, match="rotation"):
        superell.qgonal_real_descent(3, 3, 3)
    code, out, err = run(capsys, "qgonal", "descend", "--q", "3", "--m", "3", "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency:")


def test_qgonal_family_builds_once(monkeypatch, capsys):
    from oddsig import superell
    calls, real = [], superell.build_family
    monkeypatch.setattr(superell, "build_family",
                        lambda m, n: calls.append((m, n)) or real(m, n))
    report = run_structured(capsys, "qgonal", "family", "--q", "3", "--m", "3", "--n", "3")
    assert report["result"]["genus"] == 16
    assert calls == [(3, 3)]


def test_signature_curve_containing_fixed_line(tmp_path, capsys):
    # x^3 y + x y^3 + x z^3 = x (x^2 y + y^3 + z^3): diag(-1, 1, 1) fixes x = 0 pointwise
    curve = {"kind": "plane_curve", "order": 1, "variables": ["x", "y", "z"],
             "terms": [{"coefficient": ["1"], "exponents": exps}
                       for exps in ([3, 1, 0], [1, 3, 0], [1, 0, 3])]}
    flip = [[["-1"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    group = {"kind": "group",
             "generators": [{"kind": "projective_map", "order": 1, "entries": flip}]}
    (tmp_path / "curve.json").write_text(json.dumps(curve), encoding="utf-8")
    (tmp_path / "group.json").write_text(json.dumps(group), encoding="utf-8")
    code, out, err = run(capsys, "signature", "--curve", str(tmp_path / "curve.json"),
                         "--group", str(tmp_path / "group.json"))
    # the reducible curve is singular, so the hypothesis check refuses it first
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "singular" in err
    assert len(err.strip().splitlines()) == 1
    # the library refuses it the same way, before any fixed point is counted
    doc_curve = serialize.parse_input(json.dumps(curve)).value
    (doc_flip,) = serialize.parse_input(json.dumps(group)).value
    with pytest.raises(HypothesisViolation, match="singular"):
        signature(doc_curve, [doc_flip])


def test_signature_missing_file(capsys):
    code, _, err = run(capsys, "signature", "--curve", "missing.json",
                       "--group", fx("fermat_quartic_gens"))
    assert code == 2 and "input error" in err


def test_signature_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "signature", "--curve", str(bad),
                       "--group", fx("fermat_quartic_gens"))
    assert code == 2 and "line 1 column" in err


def test_undecodable_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="UTF-8"):
        cli._read_document(str(bad), ("plane_curve",))
    code, out, err = run(capsys, "aut-check", "--curve", str(bad), "--map", fx("sign_flip_x"))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and len(err.strip().splitlines()) == 1


def test_long_document_file_exits_3(monkeypatch, tmp_path, capsys):
    # the reader stops one byte past the cap, so a file that never ends
    # (/dev/zero) is refused as well as a long one
    size = Path(fx("fermat_quartic")).stat().st_size
    assert Path(fx("sign_flip_x")).stat().st_size < size
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size)
    code, out, err = run(capsys, "aut-check", "--curve", fx("fermat_quartic"), "--map", fx("sign_flip_x"))
    assert code == 0, err
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size - 1)
    with pytest.raises(BoundExceeded, match=f"longer than {size - 1} bytes"):
        cli._read_document(fx("fermat_quartic"), ("plane_curve",))
    code, out, err = run(capsys, "aut-check", "--curve", fx("fermat_quartic"), "--map", fx("sign_flip_x"))
    assert code == 3 and out == ""
    assert err.startswith("resource bound exceeded:") and len(err.splitlines()) == 1
    # invalid UTF-8 under the cap is still a parse error
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "aut-check", "--curve", str(bad), "--map", fx("fermat_quartic"))
    assert code == 2 and "not UTF-8" in err


def test_integer_options_read_one_ascii_grammar(capsys):
    # int() reads "1_0", surrounding whitespace and non-ASCII digits; the
    # command line refuses them, as the documents do
    for bad in ("1_0", "\u0667", "\uff17", " 7", "7 ", "", "+", "0x7", "7.0"):
        code, out, err = run(capsys, "odd-signature", "--quotient-genus", "0", "--indices", f"2,3,{bad}")
        assert (code, out) == (2, ""), bad
        assert err == f"input error: bad index list {f'2,3,{bad}'!r}\n", bad
        for argv in (["odd-signature", "--quotient-genus", bad, "--indices", "2,3,7"],
                     ["qgonal", "signature", "--q", bad, "--n", "2", "--shape", "N0", "--genus", "4"],
                     ["qgonal", "signature", "--q", "3", "--n", "2", "--shape", "N0", "--genus", bad],
                     ["qgonal", "family", "--q", "3", "--m", bad, "--n", "2"],
                     ["qgonal", "descend", "--q", "3", "--m", "3", "--n", bad],
                     ["group-closure", "--group", fx("fermat_quartic_gens"), "--bound", bad]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "invalid integer value" in err, argv
            assert len(err.splitlines()) == 1, argv
    report = run_structured(capsys, "odd-signature", "--quotient-genus", "+0", "--indices", "+2,03,7")
    assert report["result"]["signature"]["display"] == "(0; 2, 3, 7)"
    code, out, err = run(capsys, "qgonal", "signature", "--q", "3", "--n", "+2", "--shape", "N0", "--genus", "04")
    assert code == 0 and "signature: (0; 2, 2, 3, 3, 3)" in out


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "odd-signature", "--quotient-genus", "0", "--indices", "2,3,7",
                         "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and len(err.strip().splitlines()) == 1


def test_nonsense_numbers_exit_2(capsys):
    for argv, message in ((["group-closure", "--group", fx("fermat_quartic_gens"), "--bound", "-5"], "bound"),
                          (["group-closure", "--group", fx("fermat_quartic_gens"), "--bound", "0"], "bound"),
                          (["odd-signature", "--quotient-genus", "-3", "--indices", "2,3,7"], "genus")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error:") and message in err, argv
    code, _, err = run(capsys, "group-closure", "--group", fx("fermat_quartic_gens"), "--bound", "1")
    assert code == 3 and "bound 1" in err


def test_closure_bound_above_the_cap_exits_3(capsys, tmp_path):
    # diag(2, 1, 1) has infinite order: --bound may only lower the cap, so a
    # larger N is refused before any closure runs
    entries = [[["2"], ["0"], ["0"]], [["0"], ["1"], ["0"]], [["0"], ["0"], ["1"]]]
    infinite = tmp_path / "infinite.json"
    infinite.write_text(json.dumps({"kind": "group", "generators": [
        {"kind": "projective_map", "order": 1, "entries": entries}]}), encoding="utf-8")
    for bound in ("361", "1000000000"):
        started = time.perf_counter()
        for group in (fx("fermat_quartic_gens"), str(infinite)):
            code, out, err = run(capsys, "group-closure", "--group", group, "--bound", bound)
            assert code == 3 and out == "", (group, bound)
            assert err.startswith("resource bound exceeded:") and err.count("\n") == 1
            assert f"bound {bound} exceeds the cap 360" in err
        assert time.perf_counter() - started < 1.0
    code, _, _ = run(capsys, "group-closure", "--group", fx("fermat_quartic_gens"), "--bound", "360")
    assert code == 0


def test_odd_signature_literal(capsys):
    report = run_structured(capsys, "odd-signature",
                            "--quotient-genus", "0", "--indices", "8,3,2")
    assert report["result"]["verdict"] == "ODD"
    assert report["result"]["signature"]["display"] == "(0; 2, 3, 8)"
    code, out, _ = run(capsys, "odd-signature",
                       "--quotient-genus", "1", "--indices", "2,2,2,2")
    assert code == 0 and "INCONCLUSIVE" in out
    code, _, err = run(capsys, "odd-signature", "--indices", "2,3")
    assert code == 2
    # 2h - 2 + r <= 0 with r branch points: no curve of genus >= 2 has it
    for genus, indices, shown in (("0", "2,3", "(0; 2, 3)"), ("0", "2", "(0; 2)"),
                                  ("0", "", "(0)"), ("1", "", "(1)")):
        code, out, err = run(capsys, "odd-signature",
                             "--quotient-genus", genus, "--indices", indices)
        assert code == 2 and out == "" and f"signature {shown} is not hyperbolic" in err
        assert "Traceback" not in err
    code, _, err = run(capsys, "odd-signature",
                       "--quotient-genus", "0", "--indices", "2,x")
    assert code == 2


def test_odd_signature_refuses_an_empty_index_entry(capsys):
    # an empty entry is a typo, not a skipped index; a blank list stays empty
    for indices in ("2,,3,7", "2,3,7,", ",2,3,7"):
        code, out, err = run(capsys, "odd-signature", "--quotient-genus", "0", "--indices", indices)
        assert (code, out) == (2, ""), indices
        assert err == f"input error: bad index list {indices!r}\n", indices
    code, out, err = run(capsys, "odd-signature", "--quotient-genus", "0", "--indices", "")
    assert code == 2 and "signature (0) is not hyperbolic" in err


def test_odd_signature_from_curve(capsys):
    report = run_structured(capsys, "odd-signature",
                            "--curve", fx("quartic_c2c2"),
                            "--group", fx("quartic_c2c2_gens"))
    assert report["result"]["signature"]["display"] == "(0; 2, 2, 2, 2, 2, 2)"
    assert report["result"]["verdict"] == "INCONCLUSIVE"


def test_odd_signature_refuses_curve_and_literal_together(tmp_path, capsys):
    report = tmp_path / "report.json"
    for literal in (["--quotient-genus", "1", "--indices", "2,2"], ["--quotient-genus", "1"],
                    ["--indices", "2,2"]):
        code, out, err = run(capsys, "odd-signature", "--curve", fx("quartic_c3"),
                             "--group", fx("quartic_c3_gens"), *literal, "--out", str(report))
        assert code == 2 and out == "" and not report.exists(), literal
        assert err.count("\n") == 1 and "not both" in err, literal


def test_descend_real_obstructed(capsys):
    report = run_structured(capsys, "descend-real",
                            "--curve", fx("bielliptic_quartic"),
                            "--mu", fx("bielliptic_quartic_mu"),
                            "--aut", fx("bielliptic_quartic_nu"))
    assert report["result"]["status"] == "OBSTRUCTED"
    assert len(report["result"]["defects"]) == 2
    for item in report["result"]["defects"]:
        assert serialize.parse_document(item["defect"]).kind == "projective_map"
    assert report["citations"] and report["assumptions"]


def test_qgonal_genus(capsys):
    report = run_structured(capsys, "qgonal", "genus",
                            "--curve", fx("qgonal_family_q3_m3_n3"))
    assert report["result"]["q"] == 3
    assert report["result"]["genus"] == 16


def test_qgonal_signature_table(capsys):
    report = run_structured(capsys, "qgonal", "signature", "--q", "5",
                            "--n", "2", "--shape", "N1", "--genus", "14")
    assert report["result"]["signature"]["display"] == "(0; 2, 5, 5, 5, 5, 10)"
    code, _, err = run(capsys, "qgonal", "signature", "--q", "5",
                       "--n", "5", "--shape", "N1", "--genus", "8")
    assert code == 2


def test_qgonal_family_and_descend(capsys):
    report = run_structured(capsys, "qgonal", "family",
                            "--q", "3", "--m", "3", "--n", "2")
    assert report["result"]["genus"] == 10
    assert report["result"]["signature"]["display"] == "(0; 2, 2, 3, 3, 3, 3, 3, 3)"
    report = run_structured(capsys, "qgonal", "descend",
                            "--q", "3", "--m", "3", "--n", "3")
    assert report["result"]["verdict"] == "DEFINABLE"
    assert report["result"]["method"] == "weil-cocycle"
    assert report["result"]["witness"]["k"] == 1
    report = run_structured(capsys, "qgonal", "descend",
                            "--q", "3", "--m", "3", "--n", "2")
    assert report["result"]["verdict"] == "OBSTRUCTED"
    assert all(not d["is_identity"] for d in report["result"]["defects"])
    report = run_structured(capsys, "qgonal", "descend",
                            "--q", "5", "--m", "2", "--n", "2")
    assert report["result"]["verdict"] == "DEFINABLE"
    assert report["result"]["method"] == "odd-signature"
    code, _, _ = run(capsys, "qgonal", "descend", "--q", "2",
                     "--m", "3", "--n", "3")
    assert code == 2


def test_family_commands(capsys):
    report = run_structured(capsys, "quartic-family", "invariants",
                            "--triple", fx("triple_conjugate_swap"))
    inv = report["result"]["invariants"]
    assert inv["j1"]["coords"][0] == "15"
    report = run_structured(capsys, "quartic-family", "isomorphic",
                            "--triple", fx("triple_135"),
                            "--other", fx("triple_off_orbit"))
    assert report["result"]["isomorphic"] is False
    report = run_structured(capsys, "quartic-family", "moduli",
                            "--triple", fx("triple_conjugate_swap"))
    assert report["result"]["field"] == "Q"
    report = run_structured(capsys, "quartic-family", "descend",
                            "--triple", fx("triple_conjugate_negate_bc"))
    assert report["result"]["status"] == "DEFINABLE"
    report = run_structured(capsys, "quartic-family", "descend",
                            "--triple", fx("triple_off_orbit"))
    assert report["result"]["status"] == "INCONCLUSIVE"
    report = run_structured(capsys, "quartic-family", "rational-descend",
                            "--triple", fx("triple_conjugate_swap"))
    assert report["result"]["status"] == "DEFINABLE"
    assert report["result"]["field"] == "Q"
    code, _, err = run(capsys, "quartic-family", "descend",
                       "--triple", fx("triple_135"), "--case", "cycle")
    assert code == 2 and "cycle" in err
    code, _, err = run(capsys, "quartic-family", "rational-descend",
                       "--triple", fx("triple_conjugate_negate_ab"))
    assert code == 2


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        code, _, _ = run(capsys, "signature",
                         "--curve", fx("quartic_d4"),
                         "--group", fx("quartic_d4_gens"),
                         "--out", str(path))
        assert code == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert "timing_seconds" in obj
        del obj["timing_seconds"]
        reports.append(serialize.dumps(obj))
    assert reports[0] == reports[1]


def test_out_file_matches_structured_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "odd-signature", "--quotient-genus", "0",
                       "--indices", "3,3,3", "--out", str(target),
                       "--format", "structured")
    assert code == 0
    assert target.read_text(encoding="utf-8") == out
