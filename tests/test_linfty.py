"""Bracket relations, the vector-field dictionary, modules, MC, CE."""
import itertools
import random
from fractions import Fraction

import pytest

from bvkit.errors import InputError, StructureError
from bvkit.graded import (GradedVectorSpace, MultilinearMap, symmetric_closure,
                          symmetrize)
from bvkit.linfty import (ArtinCoefficients, CeComplex, LInftyModule,
                          LInftyStructure, abelian, adjoint_module, apply_vf,
                          brackets_to_vf, ce_differential, check_module,
                          check_relations, mc_residual, semidirect_total_space,
                          strict_map_check, vf_to_brackets)


def sl2():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2), (("h", "f"), "f", -2)]})


def broken_sl2():
    # [h,e] = 3e destroys the Jacobi identity
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 3), (("h", "f"), "f", -2)]})


def two_term_dgla():
    # u, v in degree 0, w in degree 1; the symmetric-convention image of the
    # classical dg Lie algebra d(u) = w, [u,v] = u, [v,w] = -w, which
    # satisfies the graded Leibniz rule d[u,v] = [du,v] + [u,dv]
    V = GradedVectorSpace({0: ["u", "v"], 1: ["w"]})
    return LInftyStructure.from_entries(
        V, {1: [(("u",), "w", 1)],
            2: [(("u", "v"), "u", 1), (("v", "w"), "w", -1)]})


def random_structure(rng, dim_bound=4, arity_bound=3):
    """A random graded-symmetric bracket collection (usually not flat)."""
    degs = [rng.randint(-1, 2) for _ in range(rng.randint(2, dim_bound))]
    comps = {}
    for i, d in enumerate(degs):
        comps.setdefault(d, []).append(f"x{i}")
    V = GradedVectorSpace(comps)
    entries = {}
    for n in range(1, arity_bound + 1):
        ents = []
        for _ in range(rng.randint(0, 3)):
            key = tuple(rng.choice(V.labels) for _ in range(n))
            out_deg = sum(V.degree(l) for l in key) + 2 - n
            outs = V.component(out_deg)
            if not outs:
                continue
            ents.append((key, rng.choice(outs), rng.randint(1, 3)))
        if ents:
            try:
                entries[n] = ents
            except InputError:
                continue
    try:
        return LInftyStructure.from_entries(V, entries)
    except InputError:
        return LInftyStructure(V, {})


def test_sl2_relations_pass():
    rep = check_relations(sl2())
    assert rep.passed and not rep.indeterminate
    assert rep.arities_checked == [3]


def test_broken_sl2_fails():
    rep = check_relations(broken_sl2())
    assert not rep.passed
    ks = {v[1] for v in rep.violations}
    assert ("e", "f", "h") in ks


def test_dgla_relations():
    rep = check_relations(two_term_dgla())
    assert rep.passed
    # flipping the sign of l2(v,w) breaks the Leibniz compatibility
    V = GradedVectorSpace({0: ["u", "v"], 1: ["w"]})
    twisted = LInftyStructure.from_entries(
        V, {1: [(("u",), "w", 1)],
            2: [(("u", "v"), "u", 1), (("v", "w"), "w", 1)]})
    assert not check_relations(twisted).passed


def test_abelian_passes():
    V = GradedVectorSpace({0: ["a"], 1: ["b"]})
    assert check_relations(abelian(V)).passed


def test_vf_roundtrip_sl2():
    g = sl2()
    ring, comps = brackets_to_vf(g)
    back = vf_to_brackets(g.space, comps)
    assert back.brackets[2].coefficients == g.brackets[2].coefficients


def test_vf_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        g = random_structure(rng)
        if not g.brackets:
            continue
        ring, comps = brackets_to_vf(g)
        back = vf_to_brackets(g.space, comps)
        for n, m in g.brackets.items():
            assert back.bracket(n).coefficients == m.coefficients
        for n in back.brackets:
            assert n in g.brackets


def test_vf_components_have_derivation_degree():
    g = two_term_dgla()
    ring, comps = brackets_to_vf(g)
    for c, poly in comps.items():
        want = ring.degrees[ring.gen_index(c)] + 1
        for d in poly.cohomological_degrees():
            assert d == want


def test_relations_agree_with_vf_square():
    """check_relations and Q^2 = 0 are the same condition, coefficient-wise:
    the arity-k piece of Q^2(xi_c) is the polynomial of the residual k-form
    (up to the global 1/k! bookkeeping handled by vf_to_brackets)."""
    rng = random.Random(17)
    cases = [sl2(), broken_sl2(), two_term_dgla()]
    cases += [random_structure(rng) for _ in range(30)]
    for g in cases:
        if g.is_flagged():
            continue
        rep = check_relations(g)
        ring, comps = brackets_to_vf(g)
        sq = {c: apply_vf(ring, comps, poly) for c, poly in comps.items()}
        vf_zero = all(p.is_zero() for p in sq.values())
        assert rep.passed == vf_zero, (g, rep.violations)


def test_strict_map_borel_passes():
    g = sl2()
    B = GradedVectorSpace({0: ["H", "E"]})
    borel = LInftyStructure.from_entries(B, {2: [(("H", "E"), "E", 2)]})
    phi = MultilinearMap((B,), g.space, 0, {("H",): {"h": 1}, ("E",): {"e": 1}})
    rep = strict_map_check(phi, borel, g, injective=True)
    assert rep.passed


def test_strict_map_ef_fails():
    g = sl2()
    A = GradedVectorSpace({0: ["E", "F"]})
    ab = abelian(A)  # e, f do not span a subalgebra: [e,f] = h escapes
    phi = MultilinearMap((A,), g.space, 0, {("E",): {"e": 1}, ("F",): {"f": 1}})
    rep = strict_map_check(phi, ab, g)
    assert not rep.passed
    assert any(v[0] == 2 for v in rep.violations)


def test_strict_map_kernel_witness():
    g = sl2()
    A = GradedVectorSpace({0: ["X", "Y"]})
    phi = MultilinearMap((A,), g.space, 0, {("X",): {"e": 1}, ("Y",): {"e": 2}})
    rep = strict_map_check(phi, abelian(A), g, injective=True)
    assert rep.kernel is not None
    # the witness is in the kernel: sum c_i phi(x_i) = 0
    acc = {}
    for lab, c in rep.kernel:
        for t, c2 in phi.coefficients.get((lab,), {}).items():
            acc[t] = acc.get(t, 0) + c * c2
    assert all(v == 0 for v in acc.values()) and any(c for _, c in rep.kernel)


def test_strict_map_into_zero_space_is_not_injective():
    """The zero map has no stored rows at all; every source vector is in its
    kernel, and the witness is the first basis vector."""
    A = GradedVectorSpace({0: ["X", "Y"]})
    Z = GradedVectorSpace({})
    phi = MultilinearMap((A,), Z, 0, {})
    rep = strict_map_check(phi, abelian(A), LInftyStructure(Z, {}),
                           injective=True)
    assert not rep.passed
    assert rep.kernel == [("X", 1), ("Y", 0)]


def test_adjoint_module_sl2():
    g = sl2()
    mod = adjoint_module(g, {"e": "e'", "f": "f'", "h": "h'"})
    rep = check_module(mod)
    assert rep.passed


def test_semidirect_total_space_contents():
    g = sl2()
    mod = adjoint_module(g, {"e": "e'", "f": "f'", "h": "h'"})
    tot = semidirect_total_space(mod)
    b2 = tot.brackets[2]
    assert b2.coefficient(("e", "f"), "h") == 1
    assert b2.coefficient(("h", "e'"), "e'") == 2
    assert b2.coefficient(("e'", "h"), "e'") == -2  # closure filled the swap
    assert b2.coefficient(("e'", "f'"), "h'") == 0  # the ideal is abelian


def test_broken_module_fails():
    g = sl2()
    V = GradedVectorSpace({0: ["m"]})
    # "action" h.m = m, e.m = m: not a representation of sl2
    act = MultilinearMap((g.space, V), V, 0,
                         {("h", "m"): {"m": 1}, ("e", "m"): {"m": 1}})
    rep = check_module(LInftyModule(g, V, {2: act}))
    assert not rep.passed


def test_artin_dual_numbers():
    m = ArtinCoefficients.dual_numbers()
    assert m.multiply({"eps": 1}, {"eps": 1}) == {}


def test_artin_validation_catches_broken_leibniz():
    # t*t = t2 but d(t2) = s while (dt)t + t(dt) = 0: Leibniz fails
    sp = GradedVectorSpace({0: ["t", "t2"], 1: ["s"]})
    prods = {("t", "t"): {"t2": 1}, ("t", "t2"): {}, ("t2", "t2"): {},
             ("t", "s"): {}, ("t2", "s"): {}, ("s", "s"): {}}
    with pytest.raises(StructureError):
        ArtinCoefficients(sp, prods, differential={"t2": {"s": 1}}, nilpotency=3)
    # with the differential killed instead, everything validates
    ArtinCoefficients(sp, prods, nilpotency=3)


def test_artin_nilpotency_enforced():
    sp = GradedVectorSpace({0: ["t"]})
    with pytest.raises(StructureError):
        ArtinCoefficients(sp, {("t", "t"): {"t": 1}}, nilpotency=3)


def test_mc_flat_and_perturbed():
    g = sl2()
    # two odd parameters whose product survives: eps1*eps2 = delta
    sp = GradedVectorSpace({1: ["eps1", "eps2"], 2: ["delta"]})
    m = ArtinCoefficients(
        sp, {("eps1", "eps2"): {"delta": 1}, ("eps1", "eps1"): {},
             ("eps2", "eps2"): {}, ("eps1", "delta"): {}, ("eps2", "delta"): {},
             ("delta", "delta"): {}},
        nilpotency=3)
    flat = mc_residual(g, m, {("eps1", "e"): 1, ("eps2", "e"): 1})
    assert flat == {}
    res = mc_residual(g, m, {("eps1", "e"): 1, ("eps2", "f"): 1})
    assert set(res) == {("delta", "h")}
    assert res[("delta", "h")] in (1, -1)


def test_mc_differential_term():
    g = sl2()
    sp = GradedVectorSpace({1: ["eps"], 2: ["delta"]})
    m = ArtinCoefficients(
        sp, {("eps", "eps"): {}, ("eps", "delta"): {}, ("delta", "delta"): {}},
        differential={"eps": {"delta": 1}}, nilpotency=2)
    res = mc_residual(g, m, {("eps", "e"): 1})
    assert res == {("delta", "e"): 1}


def test_mc_degree_validation():
    g = sl2()
    m = ArtinCoefficients.dual_numbers()
    with pytest.raises(InputError):
        mc_residual(g, m, {("eps", "e"): 1})  # total degree 0, not 1


def test_ce_sl2_d_squared_zero():
    ce = ce_differential(sl2())
    assert ce.verify(4) == {}


def test_ce_broken_sl2_fails():
    ce = ce_differential(broken_sl2())
    assert ce.verify(3) != {}


def test_ce_matrix_products_vanish():
    ce = ce_differential(sl2())
    for k in range(0, 4):
        src = ce.monomials(k)
        mid = ce.monomials(k + 1)
        dst = ce.monomials(k + 2)
        if not src or not mid or not dst:
            continue
        m1 = ce.matrix(src, mid)
        m2 = ce.matrix(mid, dst)
        # explicit matrix product
        for i in range(len(dst)):
            for j in range(len(src)):
                assert sum(m2[i][t] * m1[t][j] for t in range(len(mid))) == 0


def test_ce_dgla_generator_images():
    g = two_term_dgla()
    ce = ce_differential(g)
    # d xi must land in degree deg(xi) + 1 and reproduce the brackets
    back = vf_to_brackets(g.space, ce.components)
    for n, m in g.brackets.items():
        assert back.bracket(n).coefficients == m.coefficients
