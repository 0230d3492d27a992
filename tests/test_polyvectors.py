"""Cotangent models, the Schouten bracket, and homotopy Poisson checks."""
import itertools
import random
from fractions import Fraction

import pytest

from bvkit.errors import InputError
from bvkit.formal import Polynomial, PolynomialRing
from bvkit.graded import GradedVectorSpace
from bvkit.linfty import LInftyStructure, abelian, check_relations
from bvkit.polyvectors import (CotangentModel, HomotopyPoissonStructure,
                               PolyvectorField, check_homotopy_poisson,
                               poisson_from_symplectic,
                               poisson_structure_from_function,
                               polyvector_from_function, schouten,
                               structure_polyvector, vector_field,
                               vf_components, zero_poisson)
from bvkit.symplectic import ShiftedSymplecticStructure, poisson_tensor, \
    graded_poisson

from gen import random_invariant_structure, seeded


def sl2():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2), (("h", "f"), "f", -2)]})


def trace_form(space):
    return ShiftedSymplecticStructure(space, 2, {("e", "f"): 1, ("h", "h"): 2})


def mixed_dg():
    V = GradedVectorSpace({0: ["x"], 1: ["y1", "y2"], 2: ["z"]})
    alg = LInftyStructure.from_entries(
        V, {1: [(("x",), "y1", 1), (("y2",), "z", 1)]})
    om = ShiftedSymplecticStructure(V, 0, {("x", "z"): 1, ("y1", "y2"): 1})
    return alg, om


def rand_monomial(ring, rng, size):
    mono = tuple(sorted(rng.randrange(len(ring.names)) for _ in range(size)))
    cm, sg = ring.canonical(mono)
    if cm is None:
        return None
    return Polynomial(ring, {cm: sg * rng.choice([1, 2, -1])})


def test_model_fiber_degrees():
    V = GradedVectorSpace({0: ["a"], 1: ["b"]})
    m = CotangentModel(V, 3)
    # deg a* = 2 - 3 - 0 = -1, deg b* = -2; ring degrees n - 1 + d
    assert m.fiber_space.degree("a*") == -1
    assert m.fiber_space.degree("b*") == -2
    assert m.ring.degrees[m.ring.gen_index("a*")] == 2
    assert m.ring.degrees[m.ring.gen_index("b*")] == 3
    assert m.omega.pairing("a", "a*") == 1


def test_model_label_collision():
    V = GradedVectorSpace({0: ["a", "a*"]})
    with pytest.raises(InputError):
        CotangentModel(V, 1)


def test_polyvector_mixed_arity_rejected():
    V = GradedVectorSpace({0: ["a"], 2: ["b"]})
    m = CotangentModel(V, 0)
    F = m.ring.generator("a*") + m.ring.generator("a*") * m.ring.generator("b*")
    with pytest.raises(InputError):
        PolyvectorField(m, F)
    parts = polyvector_from_function(m, F)
    assert sorted(parts) == [1, 2]
    back = m.ring.zero()
    for p in parts.values():
        back = back + p.poly
    assert (back - F).is_zero()


def test_polyvector_bidegrees():
    V = GradedVectorSpace({0: ["a"], 1: ["b"]})  # xi_b is even: b*b survives
    m = CotangentModel(V, 0)
    F = (m.ring.generator("a") * m.ring.generator("a*")
         + m.ring.generator("b") * m.ring.generator("b")
         * m.ring.generator("a*"))
    p = PolyvectorField(m, F)
    assert p.j == 1
    assert p.bidegrees == [(1, 1), (2, 1)]


def test_vector_field_roundtrip():
    alg, om = mixed_dg()
    m = CotangentModel(alg.space, 1)
    R = PolynomialRing.functions_on(alg.space)
    comps = {"y1": R.generator("x"), "z": R.generator("y2") * R.generator("x")}
    p = vector_field(m, comps)
    back = vf_components(p)
    assert set(back) == set(comps)
    for c in comps:
        assert (back[c] - m.lift(comps[c])).is_zero()


def test_vf_components_zero():
    V = GradedVectorSpace({0: ["a"], 2: ["b"]})
    m = CotangentModel(V, 0)
    assert vf_components(PolyvectorField(m, m.ring.zero())) == {}


def test_hamiltonian_action_is_right_derivation():
    # {F_X, f} = sum_c dr_c(f) X^c
    rng = seeded(7)
    V = GradedVectorSpace({0: ["a"], 1: ["b", "c"], 2: ["d"]})
    R = PolynomialRing.functions_on(V)
    m = CotangentModel(V, 1)
    comps = {"c": R.generator("b"), "d": R.generator("a") * R.generator("b")}
    F = vector_field(m, comps)
    for _ in range(15):
        f = rand_monomial(R, rng, rng.randint(1, 3))
        if f is None:
            continue
        lhs = m.bracket(F.poly, m.lift(f))
        rhs = m.ring.zero()
        for c, q in comps.items():
            d = f.right_derivative(R.gen_index(c))
            if not d.is_zero():
                rhs = rhs + m.lift(d * q)
        assert (lhs - rhs).is_zero()


def apply_right(ring, comps, f):
    out = ring.zero()
    for c, q in comps.items():
        d = f.right_derivative(ring.gen_index(c))
        if not d.is_zero():
            out = out + d * q
    return out


def test_schouten_vector_field_commutator():
    """Restricted to arity 1 the bracket is the commutator of the associated
    (right) derivations, at every shift and coordinate parity."""
    rng = seeded(11)
    V = GradedVectorSpace({0: ["a"], 1: ["b"], 2: ["c"], 3: ["d"]})
    R = PolynomialRing.functions_on(V)
    labs = V.labels
    for shift in (-1, 0, 1, 2):
        m = CotangentModel(V, shift)
        for _ in range(25):
            X = {rng.choice(labs): rand_monomial(R, rng, rng.randint(0, 2))}
            Y = {rng.choice(labs): rand_monomial(R, rng, rng.randint(0, 2))}
            X = {c: q for c, q in X.items() if q is not None}
            Y = {c: q for c, q in Y.items() if q is not None}
            FX, FY = vector_field(m, X), vector_field(m, Y)
            if FX.is_zero() or FY.is_zero():
                continue
            wx = FX.poly.cohomological_degrees()[0] + shift
            wy = FY.poly.cohomological_degrees()[0] + shift
            sgn = -1 if (wx * wy) % 2 else 1
            comm = {}
            for c in labs:
                t = apply_right(R, X, Y.get(c, R.zero())) \
                    - apply_right(R, Y, X.get(c, R.zero())).scale(sgn)
                if not t.is_zero():
                    comm[c] = t
            lhs = schouten(FX, FY)
            rhs = vector_field(m, comm)
            assert (lhs.poly - rhs.poly).is_zero(), (shift, X, Y)


def test_schouten_graded_antisymmetry_and_jacobi():
    """{p,r} = -(-1)^((|p|+n)(|r|+n)) {r,p} and the matching Jacobi identity
    on random monomial polyvectors."""
    rng = seeded(13)
    V = GradedVectorSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    for shift in (-1, 0, 1, 2):
        m = CotangentModel(V, shift)
        for _ in range(40):
            polys = [rand_monomial(m.ring, rng, rng.randint(1, 3))
                     for _ in range(3)]
            if any(q is None for q in polys):
                continue
            f, g, h = polys
            df = f.cohomological_degrees()[0]
            dg = g.cohomological_degrees()[0]
            s = -1 if ((df + shift) * (dg + shift)) % 2 else 1
            assert (m.bracket(f, g) + m.bracket(g, f).scale(s)).is_zero()
            lhs = m.bracket(f, m.bracket(g, h))
            rhs = (m.bracket(m.bracket(f, g), h)
                   + m.bracket(g, m.bracket(f, h)).scale(s))
            assert (lhs - rhs).is_zero()


def test_structure_polyvector_squares_iff_relations():
    rng = seeded(17)
    done = 0
    while done < 20:
        alg, om = random_invariant_structure(rng, max_dim=6)
        if not alg.brackets:
            continue
        done += 1
        for shift in (0, 1, 3):
            Q = structure_polyvector(alg, CotangentModel(alg.space, shift))
            qq = schouten(Q, Q)
            assert qq.poly.is_zero() == check_relations(alg).passed


def test_schouten_with_q_squares_on_flat_structure():
    # adjoint action of a flat Q is a differential on polyvectors
    g = sl2()
    rng = seeded(19)
    for shift in (1, 2):
        Q = structure_polyvector(g, CotangentModel(g.space, shift))
        m = Q.model
        assert schouten(Q, Q).poly.is_zero()
        for _ in range(10):
            p = rand_monomial(m.ring, rng, rng.randint(1, 3))
            if p is None:
                continue
            once = m.bracket(Q.poly, p)
            assert m.bracket(Q.poly, once).is_zero()


def sn_bracket(m, R, labs, A, B):
    """Schouten-Nijenhuis sum over decomposables A = [xi_0..xi_k],
    B = [eta_0..eta_l] (lists of vector-field component dicts on an all-even
    base), realized in the cotangent ring: sum (-1)^(i+j) [xi_i, eta_j] ^
    (the remaining factors in order)."""
    def lie(X, Y):
        out = {}
        for c in labs:
            t = R.zero()
            for a, Xa in X.items():
                if c in Y:
                    t = t + Xa * Y[c].left_derivative(R.gen_index(a))
            for a, Ya in Y.items():
                if c in X:
                    t = t - Ya * X[c].left_derivative(R.gen_index(a))
            if not t.is_zero():
                out[c] = t
        return out

    def wedge(vfs):
        out = m.ring.one()
        for X in vfs:
            out = out * vector_field(m, X).poly
        return out

    total = m.ring.zero()
    for i in range(len(A)):
        for j in range(len(B)):
            br = lie(A[i], B[j])
            if not br:
                continue
            rest = [br] + [A[a] for a in range(len(A)) if a != i] \
                + [B[b] for b in range(len(B)) if b != j]
            total = total + wedge(rest).scale(-1 if (i + j) % 2 else 1)
    return total


def test_sn_worked_term():
    """[xi_0 ^ xi_1, eta_0] with only [xi_1, eta_0] nonzero is the single
    term xi_0 ^ [xi_1, eta_0] (= -[xi_1, eta_0] ^ xi_0)."""
    V = GradedVectorSpace({1: ["x0", "x1", "x2"]})
    R = PolynomialRing.functions_on(V)
    m = CotangentModel(V, 1)
    xi0 = {"x2": R.one()}
    xi1 = {"x1": R.generator("x0")}
    eta0 = {"x0": R.one()}
    P = PolyvectorField(
        m, vector_field(m, xi0).poly * vector_field(m, xi1).poly)
    got = schouten(P, vector_field(m, eta0))
    # [xi_1, eta_0] = [x0 d1, d0] = -d1
    br = vector_field(m, {"x1": R.one().scale(-1)})
    want = vector_field(m, xi0).poly * br.poly
    assert (got.poly - want).is_zero()
    # single term, a bivector
    assert got.j == 2
    assert len(got.poly.terms) == 1


def test_schouten_matches_sn_formula_on_decomposables():
    """On an even base the bracket agrees with the SN sum under
    xi_0 ^ .. ^ xi_k  ->  (-1)^(k(k-1)/2) F_0 .. F_k."""
    V = GradedVectorSpace({1: ["x0", "x1", "x2"]})
    R = PolynomialRing.functions_on(V)
    m = CotangentModel(V, 1)
    labs = V.labels
    rng = seeded(23)

    def rand_vf():
        comps = {}
        for c in labs:
            if rng.random() < 0.6:
                q = rand_monomial(R, rng, rng.randint(0, 2))
                if q is not None:
                    comps[c] = q
        return comps

    def eps(k):
        return -1 if (k * (k - 1) // 2) % 2 else 1

    def phi(vfs):
        out = m.ring.one()
        for X in vfs:
            out = out * vector_field(m, X).poly
        return out.scale(eps(len(vfs) - 1))

    checked = 0
    while checked < 30:
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        A = [rand_vf() for _ in range(k + 1)]
        B = [rand_vf() for _ in range(l + 1)]
        PA, PB = phi(A), phi(B)
        if PA.is_zero() or PB.is_zero():
            continue
        lhs = m.bracket(PA, PB)
        rhs = sn_bracket(m, R, labs, A, B).scale(eps(k + l))
        assert (lhs - rhs).is_zero(), (k, l)
        checked += 1


def test_as_map_of_vector_field():
    alg, om = mixed_dg()
    m = CotangentModel(alg.space, 1)
    R = PolynomialRing.functions_on(alg.space)
    p = vector_field(m, {"y1": R.generator("x")})
    mp = p.as_map()
    assert mp == {("x",): {"y1": 1}}


def test_as_map_needs_fibers():
    V = GradedVectorSpace({0: ["a"], 2: ["b"]})
    m = CotangentModel(V, 0)
    p = PolyvectorField(m, m.ring.generator("a"))
    with pytest.raises(InputError):
        p.as_map()


def test_check_homotopy_poisson_zero_passes():
    g = sl2()
    m = CotangentModel(g.space, 3)
    rep = check_homotopy_poisson(g, zero_poisson(m))
    assert rep.passed


def test_pi_omega_passes_sl2():
    g = sl2()
    pb = poisson_from_symplectic(g, trace_form(g.space))
    assert pb.shift == 3
    rep = check_homotopy_poisson(g, pb)
    assert rep.passed


def test_pi_omega_passes_mixed_dg():
    alg, om = mixed_dg()
    rep = check_homotopy_poisson(alg, poisson_from_symplectic(alg, om))
    assert rep.passed


def test_pi_omega_lie_part_vanishes_even_without_jacobi():
    """L_Q Pi_omega = 0 needs only invariance of omega, not flatness; the
    base residual tracks the Jacobi failure."""
    rng = seeded(29)
    done = 0
    while done < 15:
        alg, om = random_invariant_structure(rng, max_dim=6)
        if not alg.brackets or not om.entries:
            continue
        done += 1
        rep = check_homotopy_poisson(alg, poisson_from_symplectic(alg, om))
        assert not rep.lie_violations
        assert not rep.self_violations
        assert bool(rep.base_violations) != check_relations(alg).passed


def test_non_invariant_bivector_fails_with_j2_residual():
    g = sl2()
    m = CotangentModel(g.space, 3)
    biv = PolyvectorField(m, m.ring.generator("e*") * m.ring.generator("f*"))
    rep = check_homotopy_poisson(g, HomotopyPoissonStructure(m, {2: biv}))
    assert not rep.passed
    assert not rep.base_violations  # sl2 is flat
    assert all(j == 2 for (k, j) in rep.lie_violations)


def test_derived_bracket_reproduces_pairing_bracket():
    # {{Pi, f}, g} = (-1)^|f| {f, g}_omega
    rng = seeded(31)
    done = 0
    while done < 10:
        alg, om = random_invariant_structure(rng, max_dim=6)
        if not om.entries:
            continue
        done += 1
        pb = poisson_from_symplectic(alg, om)
        m = pb.model
        R = PolynomialRing.functions_on(alg.space)
        tensor = poisson_tensor(om, R)
        for _ in range(6):
            f = rand_monomial(R, rng, rng.randint(1, 2))
            g = rand_monomial(R, rng, rng.randint(1, 2))
            if f is None or g is None:
                continue
            derived = m.bracket(m.bracket(pb.function(), m.lift(f)), m.lift(g))
            direct = m.lift(graded_poisson(f, g, tensor))
            s = -1 if f.cohomological_degrees()[0] % 2 else 1
            assert (derived - direct.scale(s)).is_zero()


def test_poisson_structure_validation():
    g = sl2()
    m = CotangentModel(g.space, 3)
    biv = PolyvectorField(m, m.ring.generator("e*") * m.ring.generator("f*"))
    with pytest.raises(InputError):
        HomotopyPoissonStructure(m, {3: biv})  # filed under wrong arity
    with pytest.raises(InputError):
        HomotopyPoissonStructure(m, {1: vector_field(
            m, {"e": PolynomialRing.functions_on(g.space).one()})})
    # wrong degree: a fiber cubic on this model has degree 6 != 4
    cub = PolyvectorField(m, m.ring.generator("e*") * m.ring.generator("f*")
                          * m.ring.generator("h*"))
    assert cub.degrees() == [6]
    with pytest.raises(InputError):
        HomotopyPoissonStructure(m, {3: cub})


def test_poisson_structure_from_function_rejects_low_arity():
    g = sl2()
    m = CotangentModel(g.space, 3)
    F = m.ring.generator("e*") * m.ring.generator("f*") + m.ring.generator("e*")
    with pytest.raises(InputError):
        poisson_structure_from_function(m, F)


def test_constant_bivector_self_bracket_zero():
    # abelian base: no base coordinates to contract against
    V = GradedVectorSpace({0: ["a", "b"], 2: ["c", "d"]})
    om = ShiftedSymplecticStructure(V, 0, {("a", "c"): 1, ("b", "d"): 1})
    alg = abelian(V)
    pb = poisson_from_symplectic(alg, om)
    m = pb.model
    assert m.bracket(pb.function(), pb.function()).is_zero()
    assert check_homotopy_poisson(alg, pb).passed
