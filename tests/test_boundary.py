"""Lagrangian splittings, action decomposition, boundary Poisson structures."""
import pytest

from bvkit.boundary import (IntervalBulk, LagrangianSplitting, boundary_theory,
                            check_splitting, decompose_action,
                            extract_phase_space, reassemble,
                            suggest_complement)
from bvkit.cdga import (aksz_symplectic, interval_model, tensor_label,
                        tensor_linfty, torus_model)
from bvkit.errors import InputError, StructureError
from bvkit.graded import GradedVectorSpace
from bvkit.linfty import LInftyStructure, check_relations
from bvkit.polyvectors import check_homotopy_poisson
from bvkit.symplectic import (ShiftedSymplecticStructure, action_from_brackets,
                              check_symplectic)

from gen import random_invariant_structure, seeded


def sl2():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2), (("h", "f"), "f", -2)]})


def trace_form(space):
    return ShiftedSymplecticStructure(space, 2, {("e", "f"): 1, ("h", "h"): 2})


def interval_sl2():
    g = sl2()
    m = interval_model()
    t = tensor_linfty(m, g)
    om = aksz_symplectic(m, trace_form(g.space))
    plus = [tensor_label("1", x) for x in "efh"]
    minus = [tensor_label("dt", x) for x in "efh"]
    return t, om, plus, minus


def torus_sl2():
    g = sl2()
    m = torus_model()
    t = tensor_linfty(m, g)
    om = aksz_symplectic(m, trace_form(g.space))
    plus = [tensor_label(a, x) for a in ("b", "ab") for x in "efh"]
    minus = [tensor_label(a, x) for a in ("1", "a") for x in "efh"]
    return t, om, plus, minus


def test_splitting_rejects_unknown_labels():
    t, om, plus, minus = interval_sl2()
    with pytest.raises(InputError):
        LagrangianSplitting(t, om, plus + ["nope"], minus)


def test_check_splitting_failure_witnesses():
    # span{e} against span{f,h} under the trace form: wrong dimensions and
    # (h, h) pairs nontrivially inside the complement
    g = sl2()
    om = trace_form(g.space)
    s = LagrangianSplitting(g, om, ["e"], ["f", "h"])
    rep = check_splitting(s)
    assert not rep.passed
    assert ("minus", "h", "h", 2) in rep.isotropy
    assert ("shape", 1, 2) in rep.pairing


def test_check_splitting_empty_plus():
    g = sl2()
    om = trace_form(g.space)
    s = LagrangianSplitting(g, om, [], ["e", "f", "h"])
    rep = check_splitting(s)
    assert not rep.passed and rep.pairing


def test_check_splitting_reports_missing_labels():
    t, om, plus, minus = interval_sl2()
    rep = check_splitting(LagrangianSplitting(t, om, plus, minus[:-1]))
    assert ("missing", minus[-1]) in rep.complementarity


def test_check_splitting_closure_failure():
    # l_1(a) = B leaves span{a, b}
    V = GradedVectorSpace({0: ["a", "b"], 1: ["A", "B"]})
    alg = LInftyStructure.from_entries(V, {1: [(("a",), "B", 1)]})
    om = ShiftedSymplecticStructure(V, 1, {("a", "A"): 1, ("b", "B"): 1})
    rep = check_splitting(LagrangianSplitting(alg, om, ["a", "b"], ["A", "B"]))
    assert not rep.passed
    assert rep.closure.violations
    with pytest.raises(StructureError):
        decompose_action(LagrangianSplitting(alg, om, ["a", "b"], ["A", "B"]))


def test_interval_splitting_passes():
    t, om, plus, minus = interval_sl2()
    assert check_splitting(LagrangianSplitting(t, om, plus, minus)).passed


def test_decompose_reassemble_identity():
    t, om, plus, minus = interval_sl2()
    s = LagrangianSplitting(t, om, plus, minus)
    pieces = decompose_action(s)
    S = action_from_brackets(t, om)
    assert (reassemble(s, pieces) + S.polynomial.scale(-1)).is_zero()


def test_decompose_max_j():
    t, om, plus, minus = interval_sl2()
    s = LagrangianSplitting(t, om, plus, minus)
    padded = decompose_action(s, max_j=3)
    assert len(padded) == 4 and padded[2].is_zero() and padded[3].is_zero()
    # padding goes on a fresh list, never into the stored decomposition
    assert len(decompose_action(s)) == 2
    with pytest.raises(InputError):
        decompose_action(s, max_j=0)


def test_interval_boundary_is_the_target():
    # phase-space splitting of the topological bulk: the boundary theory is
    # the target algebra itself with no Poisson tail
    t, om, plus, minus = interval_sl2()
    bt = boundary_theory(LagrangianSplitting(t, om, plus, minus))
    assert bt.poisson.is_zero()
    g = sl2()
    want = {tuple(tensor_label("1", x) for x in key):
            {tensor_label("1", o): c for o, c in row.items()}
            for key, row in g.brackets[2].coefficients.items()}
    assert bt.algebra.brackets[2].coefficients == want


def test_swapped_splitting_gives_lie_poisson():
    # the opposite Lagrangian dt (x) sl2 is abelian and closed; the whole
    # cubic action becomes a bivector -- the linear Lie-Poisson structure
    t, om, plus, minus = interval_sl2()
    bt = boundary_theory(LagrangianSplitting(t, om, minus, plus))
    assert not bt.algebra.brackets
    assert list(bt.poisson.components) == [2]
    assert check_homotopy_poisson(bt.algebra, bt.poisson).passed
    # linear in the base coordinates
    assert bt.poisson.components[2].bidegrees == [(1, 2)]


def test_torus_boundary_strict_poisson():
    t, om, plus, minus = torus_sl2()
    s = LagrangianSplitting(t, om, plus, minus)
    assert check_splitting(s).passed
    bt = boundary_theory(s)
    assert list(bt.poisson.components) == [2]
    assert check_homotopy_poisson(bt.algebra, bt.poisson).passed
    assert check_relations(bt.algebra).passed


def test_boundary_random_invariant_structures():
    # decomposition theorem on random ambients: S_0 = 0 and S_1 matching are
    # asserted inside boundary_theory; the tail is homotopy Poisson
    rng = seeded(47)
    done = 0
    while done < 10:
        alg, eta = random_invariant_structure(rng, max_dim=3)
        if not eta.entries or not check_relations(alg).passed:
            continue
        done += 1
        for m, plus_labs, minus_labs in (
                (interval_model(), ("1",), ("dt",)),
                (torus_model(), ("b", "ab"), ("1", "a"))):
            t = tensor_linfty(m, alg)
            om = aksz_symplectic(m, eta)
            plus = [tensor_label(a, x) for a in plus_labs
                    for x in alg.space.labels]
            minus = [tensor_label(a, x) for a in minus_labs
                     for x in alg.space.labels]
            s = LagrangianSplitting(t, om, plus, minus)
            assert check_splitting(s).passed
            bt = boundary_theory(s)
            assert check_homotopy_poisson(bt.algebra, bt.poisson).passed
            pieces = decompose_action(s)
            S = action_from_brackets(t, om)
            assert (reassemble(s, pieces)
                    + S.polynomial.scale(-1)).is_zero()


def test_suggest_complement():
    t, om, plus, minus = interval_sl2()
    got = suggest_complement(t, om, plus)
    assert got is not None
    s = LagrangianSplitting(t, om, plus, got)
    assert check_splitting(s).passed


def test_suggest_complement_none_when_impossible():
    # one-dimensional plus cannot be complemented inside sl2's trace form
    # without using h, which pairs with itself
    g = sl2()
    om = trace_form(g.space)
    assert suggest_complement(g, om, ["e", "h"]) is None


def test_interval_bulk_roundtrip():
    g = sl2()
    tr = trace_form(g.space)
    bulk = IntervalBulk(g, tr)
    assert bulk.omega.shift == 1
    Y, om = extract_phase_space(bulk)
    assert Y is g and om is tr


def test_extract_phase_space_requires_presentation():
    t, om, _, _ = interval_sl2()
    with pytest.raises(InputError):
        extract_phase_space(t)


def test_bulk_boundary_pipeline():
    # CS-type pipeline: interval bulk over the torus phase space, canonical
    # splitting of the recorded factorization recovers the target
    g = sl2()
    m = torus_model()
    Y = tensor_linfty(m, g)
    omY = aksz_symplectic(m, trace_form(g.space))
    bulk = IntervalBulk(Y, omY)
    assert bulk.omega.shift == -1
    phase, om = extract_phase_space(bulk)
    assert check_symplectic(phase, om).passed
    plus = [tensor_label(a, x) for a in ("b", "ab") for x in g.space.labels]
    minus = [tensor_label(a, x) for a in ("1", "a") for x in g.space.labels]
    bt = boundary_theory(LagrangianSplitting(phase, om, plus, minus))
    assert check_homotopy_poisson(bt.algebra, bt.poisson).passed
