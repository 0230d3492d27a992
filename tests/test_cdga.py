"""Builtin cdga models, tensor L-infinity structures, AKSZ pairings."""
import hashlib
import json

import pytest

from bvkit.cdga import (CdgaModel, aksz_symplectic, cdga_from_products,
                        check_cdga, interval_model, laurent_dolbeault_model,
                        point_model, split_label, tensor_label, tensor_linfty,
                        tensor_space, torus_model)
from bvkit.errors import InputError
from bvkit.examples import get_example
from bvkit.graded import GradedVectorSpace, MultilinearMap
from bvkit.linfty import (LInftyStructure, check_relations, strict_map_check)
from bvkit.symplectic import ShiftedSymplecticStructure, check_symplectic
from bvkit.theoryfile import parse, realize, serialize

from gen import random_invariant_structure, seeded
from oracles import dense_tensor_brackets


def sl2():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2), (("h", "f"), "f", -2)]})


def broken_sl2():
    # [h, e] = 3e destroys the Jacobi identity
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 3), (("h", "f"), "f", -2)]})


def trace_form(space):
    return ShiftedSymplecticStructure(space, 2, {("e", "f"): 1, ("h", "h"): 2})


def test_builtin_models_pass_all_axioms():
    for m in (point_model(), interval_model(), torus_model(),
              laurent_dolbeault_model(2)):
        rep = check_cdga(m)
        assert rep.passed, (m.name, rep)


def test_interval_integral():
    m = interval_model()
    assert m.integrate(m.one()) == 0
    assert m.integrate({"dt": 1}) == 1
    assert m.product({"dt": 1}, {"dt": 1}) == ({}, False)


def test_torus_sign_and_pairing():
    m = torus_model()
    ab, _ = m.product({"a": 1}, {"b": 1})
    ba, _ = m.product({"b": 1}, {"a": 1})
    assert ab == {"ab": 1}
    assert ba == {"ab": -1}
    assert m.integrate(ab) == 1


def test_laurent_residue_normalization():
    m = laurent_dolbeault_model(2)
    assert m.integrate({"z-1w-1dzdw": 1}) == 1
    assert m.integrate({"z0w0dzdw": 1}) == 0


def test_laurent_residue_pairing_partner():
    # <z^a w^b, z^(-1-a) w^(-1-b) dz dw> = 1 for every in-window pair
    m = laurent_dolbeault_model(2)
    for a in range(-2, 2):
        for b in range(-2, 2):
            u = {f"z{a}w{b}": 1}
            v = {f"z{-1 - a}w{-1 - b}dzdw": 1}
            prod, fl = m.product(u, v)
            assert not fl
            assert m.integrate(prod) == 1


def test_laurent_window_flags():
    m = laurent_dolbeault_model(2)
    out, fl = m.product({"z1w0": 1}, {"z1w0": 1})  # z^2 leaves [-2, 1]
    assert fl and out == {}
    # bottom-edge derivative exits the window
    dz, fl2 = m.d({"z0w-2": 1})
    assert fl2 and dz == {}
    # interior derivative is exact
    dz3, fl3 = m.d({"z0w1": 1})
    assert not fl3 and dz3 == {"z0w0dw": 1}


def test_laurent_del_stokes():
    # I(del u) = 0: a z-derivative has no z^-1 coefficient
    m = laurent_dolbeault_model(2)
    for lab in m.space.labels:
        du, _ = m.derivation("del", {lab: 1})
        assert m.integrate(du) == 0


def test_laurent_derivations_anticommute():
    m = laurent_dolbeault_model(3)
    for lab in m.space.labels:
        du, f1 = m.derivation("del", {lab: 1})
        ddu, f2 = m.derivation("delbar", du)
        dv, f3 = m.derivation("delbar", {lab: 1})
        ddv, f4 = m.derivation("del", dv)
        if f1 or f2 or f3 or f4:
            continue
        total = dict(ddu)
        for k, c in ddv.items():
            total[k] = total.get(k, 0) + c
        assert not any(total.values()), lab


def test_laurent_window_radius_validation():
    with pytest.raises(InputError):
        laurent_dolbeault_model(1)


def test_unit_validation():
    sp = GradedVectorSpace({1: ["u"]})
    with pytest.raises(InputError):
        cdga_from_products(sp, "u", {}, {}, {"u": 1}, 1)


def test_tensor_point_is_identity():
    g = sl2()
    t = tensor_linfty(point_model(), g)
    assert list(t.brackets) == [2]
    want = {tuple(tensor_label("1", x) for x in key):
            {tensor_label("1", o): c for o, c in row.items()}
            for key, row in g.brackets[2].coefficients.items()}
    assert t.brackets[2].coefficients == want


def test_tensor_relations_and_symmetry():
    g = sl2()
    for m in (interval_model(), torus_model()):
        t = tensor_linfty(m, g)
        assert check_relations(t).passed, m.name
        for n, b in t.brackets.items():
            assert not b.check_symmetry(), (m.name, n)


def test_tensor_interval_sl2_shape():
    t = tensor_linfty(interval_model(), sl2())
    assert t.space.dim == 6
    # dg Lie algebra: only l_2 (d = 0 on the interval model)
    assert list(t.brackets) == [2]


def test_tensor_laurent_sl2():
    t = tensor_linfty(laurent_dolbeault_model(2), sl2())
    assert t.space.dim == 192
    assert list(t.brackets) == [1, 2]
    assert t.brackets[1].flags      # bottom-edge differentials
    assert t.brackets[2].flags      # out-of-window products
    rep = check_relations(t)
    assert rep.passed
    assert len(rep.indeterminate) == 475816


def test_tensor_laurent_broken_sl2_pinned():
    """[h, e] = 3e on Laurent window 2: the violations and the undecided
    tuples, pinned to the values of the sorted-list implementation."""
    rep = check_relations(tensor_linfty(laurent_dolbeault_model(2),
                                        broken_sl2()))
    assert not rep.passed
    assert len(rep.violations) == 12544
    assert len(rep.indeterminate) == 475816
    assert rep.violations[0] == (
        3, ("z-1w-1|e", "z-1w-1dw|f", "z0w0dz|h"), "z-2w-2dzdw|h", 1)
    assert hashlib.sha256(repr(rep.violations).encode()).hexdigest() == \
        "50881db0d5e3a8d23c6046b525d9bf5fb9bfc9402454ef43e824407ce58cf619"


def test_tensor_mixed_degree_relations():
    rng = seeded(41)
    done = 0
    while done < 6:
        alg, _ = random_invariant_structure(rng, max_dim=4)
        if not alg.brackets or not check_relations(alg).passed:
            continue
        done += 1
        for m in (interval_model(), torus_model()):
            t = tensor_linfty(m, alg)
            assert check_relations(t).passed, (m.name, alg)


def test_aksz_shifts():
    g = sl2()
    tr = trace_form(g.space)
    assert aksz_symplectic(point_model(), tr).shift == 2
    assert aksz_symplectic(interval_model(), tr).shift == 1
    assert aksz_symplectic(torus_model(), tr).shift == 0
    assert aksz_symplectic(laurent_dolbeault_model(2), tr).shift == 0


def test_aksz_point_is_identity():
    g = sl2()
    tr = trace_form(g.space)
    om = aksz_symplectic(point_model(), tr)
    want = {(tensor_label("1", x), tensor_label("1", y)): c
            for (x, y), c in tr.entries.items()}
    assert om.entries == want


def test_aksz_passes_check_symplectic_builtin():
    g = sl2()
    tr = trace_form(g.space)
    for m in (interval_model(), torus_model(), laurent_dolbeault_model(2)):
        t = tensor_linfty(m, g)
        om = aksz_symplectic(m, tr)
        assert check_symplectic(t, om).passed, m.name


def test_aksz_property_random():
    rng = seeded(43)
    models = (interval_model(), torus_model())
    done = 0
    while done < 10:
        alg, om = random_invariant_structure(rng, max_dim=4)
        if not om.entries:
            continue
        done += 1
        for m in models:
            t = tensor_linfty(m, alg)
            rep = check_symplectic(t, aksz_symplectic(m, om))
            assert rep.passed, (m.name, om.shift, rep)


def test_tensor_functorial_in_strict_maps():
    # h = span(h) in sl2 is an abelian subalgebra; tensoring the inclusion
    # with the interval model stays a strict morphism
    g = sl2()
    H = GradedVectorSpace({0: ["t"]})
    sub = LInftyStructure(H, {})
    phi = MultilinearMap((H,), g.space, 0, {("t",): {"h": 1}})
    assert strict_map_check(phi, sub, g).passed
    A = interval_model()
    tsub, tg = tensor_linfty(A, sub), tensor_linfty(A, g)
    coeffs = {}
    for a in A.space.labels:
        coeffs[(tensor_label(a, "t"),)] = {tensor_label(a, "h"): 1}
    tphi = MultilinearMap((tsub.space,), tg.space, 0, coeffs)
    assert strict_map_check(tphi, tsub, tg).passed


def test_split_label_roundtrip():
    assert split_label(tensor_label("z-1w-1dzdw", "e")) == ("z-1w-1dzdw", "e")


def cubic(*keys):
    """x, u in degree 1 (even in shifted degree) and y in degree 2, with
    l_3(key) = y for each given key."""
    V = GradedVectorSpace({1: ["x", "u"], 2: ["y"]})
    return LInftyStructure.from_entries(V, {3: [(k, "y", 1) for k in keys]})


def assert_matches_dense_oracle(model, alg):
    """Coefficients, the order of keys and rows, and flags all equal the
    reference loop over every A-tuple."""
    t = tensor_linfty(model, alg)
    want = dense_tensor_brackets(model, alg)
    assert sorted(n for n in t.brackets if n != 1) == sorted(want)
    for n, (coeffs, flags) in want.items():
        got = t.brackets[n]
        assert got.coefficients == coeffs, (model.name, n)
        assert list(got.coefficients) == list(coeffs), (model.name, n)
        for key, row in coeffs.items():
            assert list(got.coefficients[key].items()) == list(row.items())
        assert got.flags == flags, (model.name, n)


@pytest.mark.parametrize("model", [point_model(), interval_model(),
                                   torus_model(), laurent_dolbeault_model(2)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("alg", [sl2, broken_sl2], ids=["sl2", "broken"])
def test_tensor_matches_dense_oracle(model, alg):
    assert_matches_dense_oracle(model, alg())


def test_tensor_matches_dense_oracle_random_arity3():
    rng = seeded(47)
    models = (point_model(), interval_model(), torus_model())
    done = 0
    while done < 8:
        alg, _ = random_invariant_structure(rng, max_dim=4)
        if 3 not in alg.brackets:
            continue
        done += 1
        for m in models:
            assert_matches_dense_oracle(m, alg)


def test_tensor_laurent_arity3_left_to_right_flags():
    """z^1 z^1 leaves window 2 although z^1 z^1 z^-2 = z^0 does not: the
    tuple stays flagged, because the product is taken left to right."""
    m = laurent_dolbeault_model(2)
    alg = cubic(("x", "x", "x"))
    assert_matches_dense_oracle(m, alg)
    b3 = tensor_linfty(m, alg).brackets[3]
    key = ("z1w0|x", "z1w0|x", "z-2w0|x")
    assert key in b3.flags and key not in b3.coefficients
    # in the other order every partial product stays inside the window
    inside = ("z-2w0|x", "z1w0|x", "z1w0|x")
    assert inside not in b3.flags
    assert b3.coefficients[inside] == {"z0w0|y": 1}


def test_tensor_products_once_per_a_tuple(monkeypatch):
    """A second arity-3 generator adds g keys but no A-products: the table
    of A-products is built once per arity.  The loop over every A-tuple of
    each g key made 192 product calls per g key here, 192 with one
    generator and 768 with two; the table makes 56 with either."""
    calls = []
    product = CdgaModel.product

    def counted(self, u, v):
        calls.append(1)
        return product(self, u, v)
    monkeypatch.setattr(CdgaModel, "product", counted)
    m = torus_model()
    one = cubic(("x", "x", "x"))
    two = cubic(("x", "x", "x"), ("x", "x", "u"))
    assert len(two.brackets[3].coefficients) > len(one.brackets[3].coefficients)
    counts = []
    for alg in (one, two):
        calls.clear()
        tensor_linfty(m, alg)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_tensor_propagates_coefficient_flags():
    """A flag on a g key flags every tensor tuple over a nonzero A-product
    and leaves the zero ones zero; a flagged (x,) of l_1 flags (a|x,) for
    every a."""
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    g = LInftyStructure.from_entries(
        V, {2: [(("e", "h"), "e", -2), (("f", "h"), "f", 2)]},
        flags={2: [("e", "f")], 1: [("h",)]})
    m = torus_model()
    t = tensor_linfty(m, g)
    b2 = t.brackets[2]
    nonzero = [(a, b) for a in m.space.labels for b in m.space.labels
               if m.product({a: 1}, {b: 1})[0]]
    want = {(tensor_label(a, x), tensor_label(b, y))
            for a, b in nonzero for x, y in (("e", "f"), ("f", "e"))}
    assert b2.flags == want
    assert ("a|e", "a|f") not in b2.flags
    assert ("a|e", "a|f") not in b2.coefficients
    assert ("1|e", "1|h") in b2.coefficients
    assert t.brackets[1].flags == {(tensor_label(a, "h"),)
                                   for a in m.space.labels}
    assert check_relations(t).indeterminate


def test_realized_flags_survive_the_model_recipe():
    doc = json.loads(serialize(get_example("chern-simons")))
    doc["flags"] = {"2": [["e", "f"]]}
    th = realize(parse(json.dumps(doc)))
    assert len(th.algebra.brackets[2].flags) == 18   # 9 nonzero A-products
    rep = check_relations(th.algebra)
    assert rep.passed and rep.indeterminate
