"""Pairings, invariance, actions, CME, Hamiltonian round trip, P0 bracket."""
import random
from fractions import Fraction

import pytest

from bvkit.errors import InputError, StructureError
from bvkit.formal import PolynomialRing
from bvkit.graded import GradedVectorSpace
from bvkit.linfty import LInftyStructure, abelian, check_relations
from bvkit.symplectic import (ActionFunctional, ShiftedSymplecticStructure,
                              TruncatedObservable, action_from_brackets,
                              check_symplectic, cme_residual,
                              graded_poisson, hamiltonian_components,
                              hamiltonian_vf, poisson_bracket, poisson_tensor)

import oracles
from gen import (random_homogeneous_polynomial, random_invariant_structure,
                 random_paired_space, seeded)


def sl2():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2), (("h", "f"), "f", -2)]})


def trace_form(space):
    return ShiftedSymplecticStructure(
        space, 2, {("e", "f"): 1, ("h", "h"): 2})


def mixed_dg():
    """x(0) -> y1(1), y2(1) -> z(2) with shift-0 pairing (x,z), (y1,y2):
    a non-degenerate invariant dg structure with both coordinate parities."""
    V = GradedVectorSpace({0: ["x"], 1: ["y1", "y2"], 2: ["z"]})
    alg = LInftyStructure.from_entries(
        V, {1: [(("x",), "y1", 1), (("y2",), "z", 1)]})
    om = ShiftedSymplecticStructure(V, 0, {("x", "z"): 1, ("y1", "y2"): 1})
    return alg, om


def test_trace_form_passes():
    g = sl2()
    rep = check_symplectic(g, trace_form(g.space))
    assert rep.passed


def test_transpose_autoclose():
    g = sl2()
    om = trace_form(g.space)
    assert om.pairing("f", "e") == 1  # even degrees: plain symmetric


def test_transpose_sign_flips_with_shift_parity():
    # omega(y, x) = (-1)^(deg x deg y + n) omega(x, y): antisymmetric at odd
    # shift even between even degrees
    V = GradedVectorSpace({0: ["a"], 3: ["b"]})
    om_odd = ShiftedSymplecticStructure(V, -1, {("a", "b"): 1})
    assert om_odd.pairing("b", "a") == -1
    W = GradedVectorSpace({0: ["a"], 2: ["b"]})
    om_even = ShiftedSymplecticStructure(W, 0, {("a", "b"): 1})
    assert om_even.pairing("b", "a") == 1


def test_degenerate_pairing_reported():
    g = sl2()
    om = ShiftedSymplecticStructure(g.space, 2, {("e", "f"): 1})  # h unpaired
    rep = check_symplectic(g, om)
    assert rep.nondegeneracy_witnesses
    with pytest.raises(StructureError):
        om.inverse()


def test_wrong_shift_reported():
    g = sl2()
    om = ShiftedSymplecticStructure(g.space, 1, {("e", "f"): 1, ("h", "h"): 2})
    rep = check_symplectic(g, om)
    assert rep.degree_violations


def test_invariance_detects_broken_bracket():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    broken = LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 3), (("h", "f"), "f", -2)]})
    rep = check_symplectic(broken, trace_form(V))
    assert rep.invariance_violations


def test_mixed_dg_symplectic_passes():
    alg, om = mixed_dg()
    assert check_symplectic(alg, om).passed


def test_action_sl2_cubic_coefficient():
    g = sl2()
    act = action_from_brackets(g, trace_form(g.space))
    assert list(act.components) == [3]
    ring = act.ring
    mono = tuple(ring.gen_index(l) for l in ("e", "f", "h"))
    assert act.components[3].terms == {mono: -2}


def test_action_quadratic_from_l1():
    alg, om = mixed_dg()
    act = action_from_brackets(alg, om)
    assert list(act.components) == [2]
    for mono in act.components[2].terms:
        assert om.space is alg.space
        assert act.ring.monomial_degree(mono) == om.shift + 1


def test_action_zero_brackets():
    V = GradedVectorSpace({0: ["a"], 2: ["b"]})
    om = ShiftedSymplecticStructure(V, 0, {("a", "b"): 1})
    act = action_from_brackets(abelian(V), om)
    assert act.is_zero()


def test_action_rejects_low_arity():
    V = GradedVectorSpace({0: ["a"], 2: ["b"]})
    from bvkit.formal import PolynomialRing, Polynomial
    R = PolynomialRing.functions_on(V)
    with pytest.raises(InputError):
        ActionFunctional(V, 0, {1: R.generator("a")})


def test_hamiltonian_roundtrip_sl2():
    g = sl2()
    om = trace_form(g.space)
    back = hamiltonian_vf(action_from_brackets(g, om), om)
    assert back.brackets[2].coefficients == g.brackets[2].coefficients
    assert list(back.brackets) == [2]


def test_hamiltonian_roundtrip_mixed():
    alg, om = mixed_dg()
    back = hamiltonian_vf(action_from_brackets(alg, om), om)
    assert back.brackets[1].coefficients == alg.brackets[1].coefficients
    assert list(back.brackets) == [1]


def test_hamiltonian_roundtrip_random_invariant():
    rng = seeded(101)
    done = 0
    while done < 25:
        alg, om = random_invariant_structure(rng, max_dim=6)
        if not alg.brackets:
            continue
        done += 1
        act = action_from_brackets(alg, om)
        back = hamiltonian_vf(act, om)
        for n, m in alg.brackets.items():
            assert back.bracket(n).coefficients == m.coefficients, (n, alg, om.shift)
        for n in back.brackets:
            assert n in alg.brackets


def test_cme_zero_for_sl2():
    g = sl2()
    om = trace_form(g.space)
    assert cme_residual(action_from_brackets(g, om), om).is_zero()


def test_cme_zero_for_mixed_dg():
    alg, om = mixed_dg()
    assert cme_residual(action_from_brackets(alg, om), om).is_zero()


def test_cme_iff_relations_random():
    """Prop-style equivalence: {S,S} = 0 iff the Hamiltonian brackets of S
    satisfy the generalized Jacobi relations."""
    rng = seeded(202)
    seen_fail = 0
    seen_pass = 0
    done = 0
    while done < 30:
        alg, om = random_invariant_structure(rng, max_dim=6)
        if not alg.brackets:
            continue
        done += 1
        act = action_from_brackets(alg, om)
        res = cme_residual(act, om)
        rep = check_relations(hamiltonian_vf(act, om))
        assert res.is_zero() == rep.passed, (alg, om.shift)
        seen_pass += rep.passed
        seen_fail += not rep.passed
    assert seen_fail >= 3  # the suite exercised genuine failures
    assert seen_pass >= 1  # and genuine passes


def test_cme_nonzero_arity_four():
    """A non-Poisson cubic action on a mixed-degree space leaves an arity-4
    residual."""
    V = GradedVectorSpace({0: ["x1", "x2"], 1: ["y1", "y2"], 2: ["z1", "z2"]})
    om = ShiftedSymplecticStructure(
        V, 0, {("x1", "z1"): 1, ("x2", "z2"): 1, ("y1", "y2"): 1})
    from bvkit.formal import PolynomialRing, Polynomial
    R = PolynomialRing.functions_on(V)
    ix1, ix2 = R.gen_index("x1"), R.gen_index("x2")
    iy1, iy2 = R.gen_index("y1"), R.gen_index("y2")
    # two degree-1 cubics whose y-contractions survive (xi_y are even)
    S = Polynomial(R, {(ix1, iy1, iy2): 1, (ix2, iy1, iy1): 3})
    act = ActionFunctional(V, 0, {3: S})
    res = cme_residual(act, om)
    assert not res.is_zero()
    assert 4 in res.by_arity()


def test_poisson_tensor_is_inverse():
    g = sl2()
    om = trace_form(g.space)
    inv = om.inverse()
    # sum_y inv[(x,y)] omega(y,z) = delta
    for x in g.space.labels:
        for z in g.space.labels:
            s = sum(c * om.pairing(y, z) for (xx, y), c in inv.items() if xx == x)
            assert s == (1 if x == z else 0)


def test_observable_linear_bracket_is_tensor():
    g = sl2()
    om = trace_form(g.space)
    R = action_from_brackets(g, om).ring
    tensor = poisson_tensor(om, R)
    for a in g.space.labels:
        for b in g.space.labels:
            f = TruncatedObservable(R.generator(a), 3)
            h = TruncatedObservable(R.generator(b), 3)
            got = poisson_bracket(f, h, om).poly
            want = tensor.get((R.gen_index(a), R.gen_index(b)), 0)
            assert got.terms == ({(): want} if want else {})


def test_observable_constants_central():
    g = sl2()
    om = trace_form(g.space)
    R = action_from_brackets(g, om).ring
    one = TruncatedObservable(R.one(), 3)
    f = TruncatedObservable(R.generator("e") * R.generator("f"), 3)
    assert poisson_bracket(f, one, om).poly.is_zero()


def random_quadratic(R, rng):
    from bvkit.formal import Polynomial
    terms = {}
    for _ in range(3):
        i, j = rng.randrange(3), rng.randrange(3)
        terms[(min(i, j), max(i, j))] = rng.randint(-3, 3)
    return Polynomial(R, terms)


def test_observable_jacobi_quadratics():
    g = sl2()
    om = trace_form(g.space)
    R = action_from_brackets(g, om).ring
    rng = random.Random(7)
    for _ in range(20):
        f, gg, h = (TruncatedObservable(random_quadratic(R, rng), 6)
                    for _ in range(3))
        ab = poisson_bracket(poisson_bracket(f, gg, om), h, om).poly
        ba = poisson_bracket(f, poisson_bracket(gg, h, om), om).poly
        ca = poisson_bracket(gg, poisson_bracket(f, h, om), om).poly
        # quadratic observables on an even space have even bracket entries;
        # degrees here: ring gens are odd, quadratics are even elements
        lhs = ba - ab
        # Jacobi in Leibniz form: {f,{g,h}} = {{f,g},h} + {g,{f,h}}... with
        # even f, g the sign is +1
        assert (ba.terms == (ab + ca).terms) or (lhs - ca).is_zero()


def test_observable_leibniz():
    g = sl2()
    om = trace_form(g.space)
    R = action_from_brackets(g, om).ring
    rng = random.Random(9)
    for _ in range(20):
        f = TruncatedObservable(random_quadratic(R, rng), 8)
        a = TruncatedObservable(random_quadratic(R, rng), 8)
        b = TruncatedObservable(random_quadratic(R, rng), 8)
        lhs = poisson_bracket(f, a.product(b), om).poly
        rhs = (poisson_bracket(f, a, om).product(b).poly
               + a.product(poisson_bracket(f, b, om)).poly)
        assert lhs.terms == rhs.terms  # f is even: no Koszul correction


def test_observable_truncation_flags():
    alg, om = mixed_dg()
    from bvkit.formal import PolynomialRing
    R = PolynomialRing.functions_on(alg.space)
    q = R.generator("y1") * R.generator("y2")  # even generators: q^2 survives
    f = TruncatedObservable(q, 2)
    p = f.product(f)
    assert p.flagged  # arity 4 exceeds the bound 2
    assert all(len(m) <= 2 for m in p.poly.terms)
    # bracketing flagged observables keeps the flag
    assert poisson_bracket(p, f, om).flagged


def test_poisson_kernel_matches_per_entry_oracle():
    """The derivative-table kernel against the bracket taken one tensor
    entry and one generator at a time, exactly, at shifts -1..3; the
    Hamiltonian components of F against {F, xi_c} for every c."""
    rng = seeded(23)
    seen = {"odd": 0, "repeated_even": 0, "nonzero": 0}
    for shift in range(-1, 4):
        for _ in range(12):
            space, om = random_paired_space(rng, shift)
            R = PolynomialRing.functions_on(space)
            tensor = poisson_tensor(om, R)
            f, g = (random_homogeneous_polynomial(R, rng) for _ in range(2))
            for mono in f.terms:
                seen["odd"] += any(R.parity[i] for i in mono)
                seen["repeated_even"] += any(
                    a == b and not R.parity[a] for a, b in zip(mono, mono[1:]))
            for j in range(len(R.names)):
                assert f.left_derivative(j) == oracles.left_derivative(f, j)
                assert f.right_derivative(j) == oracles.right_derivative(f, j)
            got = graded_poisson(f, g, tensor)
            assert got == oracles.graded_poisson(f, g, tensor)
            assert graded_poisson(f, f, tensor) == \
                oracles.graded_poisson(f, f, tensor)
            seen["nonzero"] += not got.is_zero()
            comps = hamiltonian_components(f, tensor, space.labels)
            for c in space.labels:
                assert comps.get(c, R.zero()) == \
                    graded_poisson(f, R.generator(c), tensor)
    assert min(seen.values()) > 0, seen
