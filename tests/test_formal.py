"""Graded polynomial ring: products, derivatives, form <-> polynomial."""
import itertools
import random
from fractions import Fraction

import pytest

from bvkit.errors import InputError
from bvkit.formal import (Polynomial, PolynomialRing, form_to_polynomial,
                          polynomial_to_form)
from bvkit.graded import GradedVectorSpace, koszul_sign
from bvkit.symplectic import graded_poisson


def random_ring(rng):
    n = rng.randint(2, 5)
    return PolynomialRing([f"g{i}" for i in range(n)],
                          [rng.randint(-2, 3) for _ in range(n)])


def random_poly(ring, rng, max_terms=5, max_len=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, max_len)
        mono = tuple(rng.randrange(len(ring.names)) for _ in range(k))
        terms[mono] = terms.get(mono, 0) + rng.randint(-4, 4)
    return Polynomial(ring, terms)


def test_odd_square_zero():
    R = PolynomialRing(["a", "b"], [1, 2])
    a = R.generator("a")
    b = R.generator("b")
    assert (a * a).is_zero()
    assert not (b * b).is_zero()
    assert (a * b).terms == (b * a).terms  # (-1)^(1*2) = +1


def test_graded_commutativity_and_associativity():
    rng = random.Random(7)
    for _ in range(60):
        R = random_ring(rng)
        f, g, h = (random_poly(R, rng) for _ in range(3))
        # f*g = sum with Koszul signs; compare homogeneous pieces
        fg = f * g
        gf = g * f
        for mono, c in fg.terms.items():
            pass  # commutativity is checked per homogeneous generator pair below
        assert ((f * g) * h).terms == (f * (g * h)).terms
        # generator-level commutativity
        for i, j in itertools.product(range(len(R.names)), repeat=2):
            gi = Polynomial(R, {(i,): 1})
            gj = Polynomial(R, {(j,): 1})
            sign = -1 if R.parity[i] and R.parity[j] else 1
            assert (gi * gj).terms == (gj * gi).scale(sign).terms


def test_left_derivative_leibniz():
    rng = random.Random(11)
    for _ in range(60):
        R = random_ring(rng)
        f = random_poly(R, rng)
        g = random_poly(R, rng)
        for j in range(len(R.names)):
            lhs = (f * g).left_derivative(j)
            sign = -1 if R.parity[j] else 1
            # d(fg) = df*g + (-1)^(|j||f|) f*dg, per homogeneous piece of f
            rhs = f.left_derivative(j) * g
            for mono, c in f.terms.items():
                piece = Polynomial(R, {mono: c})
                s = 1
                if R.parity[j] and R.monomial_degree(mono) % 2:
                    s = -1
                rhs = rhs + piece.scale(s) * g.left_derivative(j)
            assert lhs.terms == rhs.terms


def test_right_derivative_leibniz():
    rng = random.Random(13)
    for _ in range(60):
        R = random_ring(rng)
        f = random_poly(R, rng)
        g = random_poly(R, rng)
        for j in range(len(R.names)):
            lhs = (f * g).right_derivative(j)
            # (fg)dr = (-1)^(|j||g|) (f dr)*g + f*(g dr)
            rhs = f * g.right_derivative(j)
            for mono, c in g.terms.items():
                piece = Polynomial(R, {mono: c})
                s = 1
                if R.parity[j] and R.monomial_degree(mono) % 2:
                    s = -1
                rhs = rhs + (f.right_derivative(j) * piece).scale(s)
            assert lhs.terms == rhs.terms


def test_substitute_roundtrip():
    R = PolynomialRing(["a", "b"], [1, 2])
    S = PolynomialRing(["u", "v", "b"], [1, 1, 2])
    f = R.generator("a") * R.generator("b") + R.generator("b").scale(3)
    # a -> u + 2v
    g = f.substitute(S, {0: [(0, 1), (1, 2)]})
    h = (S.generator("u") + S.generator("v").scale(2)) * S.generator("b") \
        + S.generator("b").scale(3)
    assert g.terms == h.terms


def test_functions_on_space_degrees():
    V = GradedVectorSpace({0: ["x"], 1: ["a"], 2: ["w"]})
    R = PolynomialRing.functions_on(V)
    assert R.degrees == (1, 0, -1)


def random_symmetric_form(space, ring, k, rng):
    """Random shifted-symmetric k-form, stored on all permutations."""
    labels = space.labels
    form = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.choice(labels) for _ in range(k))
        c = rng.randint(-3, 3)
        degs = tuple(space.degree(l) - 1 for l in key)
        cand = {}
        ok = True
        for perm in itertools.permutations(range(k)):
            pkey = tuple(key[i] for i in perm)
            val = koszul_sign(perm, degs) * c
            if cand.get(pkey, val) != val or form.get(pkey, val) != val:
                ok = False  # inconsistent random generator; skip it
                break
            cand[pkey] = val
        if ok:
            form.update(cand)
    return {k_: v for k_, v in form.items() if v != 0}


def test_form_polynomial_roundtrip():
    rng = random.Random(23)
    for _ in range(80):
        degs = [rng.randint(-1, 2) for _ in range(rng.randint(2, 4))]
        V = GradedVectorSpace({d: [f"v{i}" for i in [j for j, dd in enumerate(degs) if dd == d]]
                               for d in set(degs)})
        R = PolynomialRing.functions_on(V)
        k = rng.randint(1, 3)
        form = random_symmetric_form(V, R, k, rng)
        poly = form_to_polynomial(V, R, form)
        back = polynomial_to_form(V, poly)
        form = {key: v for key, v in form.items() if v != 0}
        back = {key: v for key, v in back.items() if v != 0}
        assert form == back


def test_constant_poisson_classical():
    # two even generators with {p, x} = 1: the classical bracket.  On even
    # generators graded_poisson needs no signs, so it is the plain
    # constant-coefficient bracket sum B[i,j] (d_i f)(d_j g)
    R = PolynomialRing(["x", "p"], [0, 0])
    x, p = R.generator("x"), R.generator("p")
    B = {(1, 0): 1, (0, 1): -1}
    f = x * x * p
    g = p * p
    # {f,g} = df/dp dg/dx *(-1)... classical: {f,g} = df/dx dg/dp - df/dp dg/dx
    # with B as above: {f,g} = (f d/dp)*(dg/dx)*1 + (f d/dx)*(dg/dp)*(-1)
    got = graded_poisson(f, g, B)
    want = (x * x * p * p).scale(0) - (x * x).scale(1) * R.zero()
    # compute by hand: f=x^2 p, g=p^2. df/dp = x^2, dg/dx = 0; df/dx=2xp, dg/dp=2p
    want = (x * p * p).scale(-4)
    assert got.terms == want.terms


def test_constant_poisson_biderivation():
    # Leibniz in the second slot; f and every tensor index are even, so no
    # graded signs intervene even though g and h contain the odd t
    R = PolynomialRing(["x", "p", "t"], [0, 0, 1])
    B = {(1, 0): 1, (0, 1): -1}
    rng = random.Random(3)
    x, p = R.generator("x"), R.generator("p")
    f = x * x * p + p * p * p
    g = random_poly(R, rng)
    h = random_poly(R, rng)
    lhs = graded_poisson(f, g * h, B)
    rhs = graded_poisson(f, g, B) * h + g * graded_poisson(f, h, B)
    assert lhs.terms == rhs.terms
