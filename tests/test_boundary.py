"""Lagrangian splittings, action decomposition, boundary Poisson structures."""
import pytest

from bvkit.boundary import (IntervalBulk, LagrangianSplitting, boundary_theory,
                            check_splitting, decompose_action,
                            extract_phase_space, reassemble,
                            suggest_complement)
from bvkit.cdga import (aksz_symplectic, interval_model,
                        laurent_dolbeault_model, tensor_label, tensor_linfty,
                        torus_model)
from bvkit.errors import InputError, StructureError
from bvkit.examples import get_example, toda_splitting, wzw_splitting
from bvkit.graded import GradedVectorSpace, MultilinearMap
from bvkit.linfty import LInftyStructure, check_relations, strict_map_check
from bvkit.polyvectors import check_homotopy_poisson
from bvkit.symplectic import (ShiftedSymplecticStructure, action_from_brackets,
                              check_symplectic)
from bvkit.theoryfile import connection_tensor, realize

from gen import random_invariant_structure, seeded
from oracles import scan_strict_map_check, trial_splitting_complement


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


def _wzw_window_2():
    tf = get_example("wzw")
    tf.model = dict(tf.model, window=2)
    tf.splitting = wzw_splitting(laurent_dolbeault_model(2))
    return realize(tf)


def test_strict_map_check_matches_scan_on_open_plus():
    """Three dz-forms of l_+ swapped for their partners: l_+ is no longer
    closed, and the preimage index finds what the full scan finds."""
    th = _wzw_window_2()
    s = th.splitting
    s = LagrangianSplitting(th.algebra, th.omega, s.plus[3:] + s.minus[:3],
                            s.minus[3:] + s.plus[:3])
    args = (s.inclusion_plus, s.induced_structure(), s.alg)
    rep = strict_map_check(*args, injective=True)
    assert rep.violations and rep.kernel is None
    assert (rep.violations, rep.kernel) == \
        scan_strict_map_check(*args, injective=True)


def test_strict_map_check_matches_scan_on_non_injective_map():
    """l_+ plus one label k sent to 2a - b, into the full structure from an
    abelian source; l_1 is nonzero on a and b, so k has violations too."""
    th = _wzw_window_2()
    plus = th.splitting.plus
    space = th.algebra.space
    a, b = [p for p in plus if (p,) in th.algebra.brackets[1].coefficients][:2]
    d = space.degree(a)
    assert space.degree(b) == d
    comps = {}
    for p in plus:
        comps.setdefault(space.degree(p), []).append(p)
    comps[d].append("k")
    source = GradedVectorSpace(comps)
    coeffs = {(p,): {p: 1} for p in plus}
    coeffs[("k",)] = {a: 2, b: -1}
    phi = MultilinearMap((source,), space, 0, coeffs)
    args = (phi, LInftyStructure(source, {}), th.algebra)
    rep = strict_map_check(*args, injective=True)
    assert any(v[1] == ("k",) for v in rep.violations)
    assert {(lab, c) for lab, c in rep.kernel if c} == \
        {("k", 1), (a, -2), (b, 1)}
    assert (rep.violations, rep.kernel) == \
        scan_strict_map_check(*args, injective=True)


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


@pytest.mark.parametrize("recipe", [("del", None, wzw_splitting),
                                    ("del", "f", toda_splitting)],
                         ids=["wzw", "toda"])
def test_suggest_complement_matches_trial_splittings(recipe):
    """The growing pairing block picks the labels that one trial splitting
    per candidate picks, on the window-2 wzw and toda l_+."""
    derivation, twist, split = recipe
    m = laurent_dolbeault_model(2)
    g = sl2()
    t = connection_tensor(m, g, derivation, twist)
    om = aksz_symplectic(m, trace_form(g.space))
    plus, _ = split(m)
    got = suggest_complement(t, om, plus)
    assert got is not None
    assert got == trial_splitting_complement(t, om, plus)


def test_suggest_complement_matches_trial_splittings_random():
    rng = seeded(53)
    done = 0
    while done < 10:
        alg, om = random_invariant_structure(rng, max_dim=4)
        if not om.entries:
            continue
        done += 1
        for m in (interval_model(), torus_model()):
            t = tensor_linfty(m, alg)
            tom = aksz_symplectic(m, om)
            labels = t.space.labels
            for plus in (labels[:len(labels) // 2], labels[::2],
                         labels[1::3]):
                assert suggest_complement(t, tom, plus) == \
                    trial_splitting_complement(t, tom, plus)
    g = sl2()
    assert trial_splitting_complement(g, trace_form(g.space),
                                      ["e", "h"]) is None


def test_suggest_complement_skips_dependent_labels():
    """m2 pairs with p, but only in the direction m1 already covers."""
    V = GradedVectorSpace({0: ["p", "m1", "m2"]})
    om = ShiftedSymplecticStructure(V, 2, {("p", "m1"): 1, ("p", "m2"): 2})
    alg = LInftyStructure(V, {})
    assert suggest_complement(alg, om, ["p"]) == ("m1",)
    assert trial_splitting_complement(alg, om, ["p"]) == ("m1",)


def test_suggest_complement_input_checks():
    t, om, plus, _ = interval_sl2()
    with pytest.raises(InputError):
        suggest_complement(t, om, plus + ["nope"])
    g = sl2()
    with pytest.raises(InputError):
        suggest_complement(t, trace_form(g.space), ["e"])


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
