"""Graded polynomial algebra on coordinates of a formal space.

Functions on the formal space attached to a graded space g are polynomials in
coordinates xi_a, one per basis label a, with deg(xi_a) = 1 - deg(a): this is
Sym(g*[-1]) in the cohomological convention used throughout.  The same ring
construction applied to a shifted cotangent total space l + l*[n-2] yields
base coordinates of degree 1 - d and fiber coordinates of degree n - 1 + d,
i.e. Sym(l*[-1]) tensor Sym(l[1-n]).

Monomials are stored as non-decreasing tuples of generator indices with exact
rational coefficients; odd generators square to zero.  All first derivatives
of a polynomial come from one pass over its terms, as a table
{generator index: {monomial: scalar}} (left or right, see
Polynomial._derivative_table); the Poisson brackets of the symplectic layer
contract these tables instead of differentiating once per generator.

The form <-> polynomial dictionary below converts between graded-symmetric
multilinear forms (stored on all permutations, symmetric with respect to
shifted degrees d - 1) and polynomials, normalised so that the polynomial is
"T evaluated on the generic degree-1 element".
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .errors import InputError
from .graded import koszul_sign, norm_scalar

class PolynomialRing:
    """Free graded-commutative algebra on named generators."""

    def __init__(self, names, degrees):
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        if len(self.names) != len(self.degrees):
            raise InputError("generator names and degrees differ in length")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate generator names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.parity = tuple(d % 2 for d in self.degrees)

    @classmethod
    def functions_on(cls, space):
        """Coordinate ring of the formal space of g: deg(xi_a) = 1 - deg(a)."""
        return cls(space.labels, tuple(1 - space.degree(l) for l in space.labels))

    def gen_index(self, name):
        try:
            return self.index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def canonical(self, indices):
        """Sort a generator-index word; return (monomial, sign) or (None, 0).

        The sign is the Koszul sign of the sorting permutation in generator
        degrees; a repeated odd generator kills the word.
        """
        word = list(indices)
        sign = 1
        # insertion sort, counting graded crossings
        for i in range(1, len(word)):
            j = i
            while j > 0 and word[j - 1] > word[j]:
                if self.parity[word[j - 1]] and self.parity[word[j]]:
                    sign = -sign
                word[j - 1], word[j] = word[j], word[j - 1]
                j -= 1
        for i in range(1, len(word)):
            if word[i] == word[i - 1] and self.parity[word[i]]:
                return None, 0
        return tuple(word), sign

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(): 1})

    def generator(self, name):
        return Polynomial(self, {(self.gen_index(name),): 1})

    def monomial_degree(self, mono):
        return sum(self.degrees[i] for i in mono)

    def __eq__(self, other):
        return (isinstance(other, PolynomialRing)
                and self.names == other.names and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return f"PolynomialRing({len(self.names)} generators)"


class Polynomial:
    """Sparse polynomial: {monomial (sorted index tuple) -> exact scalar}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, normalise=True):
        self.ring = ring
        if normalise:
            clean = {}
            for mono, c in terms.items():
                c = norm_scalar(c)
                if c == 0:
                    continue
                mono, sign = ring.canonical(mono)
                if mono is None:
                    continue
                c = sign * c
                prev = clean.get(mono, 0)
                tot = prev + c
                if tot:
                    clean[mono] = tot
                elif mono in clean:
                    del clean[mono]
            self.terms = clean
        else:
            self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._same_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            tot = terms.get(m, 0) + c
            if tot:
                terms[m] = tot
            elif m in terms:
                del terms[m]
        return Polynomial(self.ring, terms, normalise=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = norm_scalar(c)
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring,
                          {m: norm_scalar(v * c) for m, v in self.terms.items()},
                          normalise=False)

    def __mul__(self, other):
        self._same_ring(other)
        ring = self.ring
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = ring.canonical(m1 + m2)
                if mono is None:
                    continue
                tot = out.get(mono, 0) + sign * c1 * c2
                if tot:
                    out[mono] = tot
                elif mono in out:
                    del out[mono]
        return Polynomial(ring, out, normalise=False)

    def _same_ring(self, other):
        if self.ring != other.ring:
            raise InputError("polynomials live in different rings")

    def _derivative_table(self, right=False):
        """Every first derivative in one pass over the terms:
        {generator index: {monomial: scalar}}, left derivatives by default.

        Removing the generator at position p of a monomial costs the sign
        (-1)^(number of odd generators crossed) when that generator is odd:
        the odd generators before p for a left derivative, after p for a
        right one.  Two terms share a remainder only when they come from one
        monomial with a repeated even generator, and those add, so no entry
        cancels to zero.
        """
        parity = self.ring.parity
        table = {}
        for mono, c in self.terms.items():
            before = 0
            total = sum(parity[i] for i in mono) if right else 0
            for p, j in enumerate(mono):
                odd = parity[j]
                crossed = total - before - odd if right else before
                v = -c if odd and crossed % 2 else c
                rest = mono[:p] + mono[p + 1:]
                row = table.setdefault(j, {})
                row[rest] = row.get(rest, 0) + v
                before += odd
        return table

    def left_derivative(self, gen):
        """d/d(gen) acting from the left."""
        return self._derivative(gen, right=False)

    def right_derivative(self, gen):
        """d/d(gen) acting from the right."""
        return self._derivative(gen, right=True)

    def _derivative(self, gen, right):
        j = gen if isinstance(gen, int) else self.ring.gen_index(gen)
        return Polynomial(self.ring, self._derivative_table(right).get(j, {}),
                          normalise=False)

    def by_arity(self):
        """Split into homogeneous polynomial-arity pieces: {k: Polynomial}."""
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(len(m), {})[m] = c
        return {k: Polynomial(self.ring, t, normalise=False)
                for k, t in sorted(parts.items())}

    def cohomological_degrees(self):
        return sorted({self.ring.monomial_degree(m) for m in self.terms})

    def split_by_count(self, predicate):
        """Split by the number of generators in each monomial satisfying
        `predicate` (an index predicate): {count: Polynomial}."""
        parts = {}
        for m, c in self.terms.items():
            j = sum(1 for i in m if predicate(i))
            parts.setdefault(j, {})[m] = c
        return {j: Polynomial(self.ring, t, normalise=False)
                for j, t in sorted(parts.items())}

    def substitute(self, target_ring, gen_map):
        """Linear substitution of generators.

        gen_map: {source index -> list of (target index, coeff)}.  Unmapped
        generators go to the same-named generator of the target ring.  Every
        image generator must have the degree of its source generator, so the
        substitution is sign-free on monomials.
        """
        ring = self.ring
        images = {}
        for i in range(len(ring.names)):
            if i in gen_map:
                for j, c in gen_map[i]:
                    if target_ring.degrees[j] != ring.degrees[i]:
                        raise InputError("substitution image changes degree")
                images[i] = [(j, norm_scalar(c)) for j, c in gen_map[i]]
            else:
                j = target_ring.gen_index(ring.names[i])
                if target_ring.degrees[j] != ring.degrees[i]:
                    raise InputError("substitution image changes degree")
                images[i] = [(j, 1)]
        expanded = {}
        for mono, c in self.terms.items():
            factors = [images[i] for i in mono]
            for choice in itertools.product(*factors):
                word = tuple(j for j, _ in choice)
                coeff = c
                for _, cc in choice:
                    coeff *= cc
                if coeff == 0:
                    continue
                cmono, sign = target_ring.canonical(word)
                if cmono is None:
                    continue
                tot = expanded.get(cmono, 0) + sign * coeff
                if tot:
                    expanded[cmono] = tot
                elif cmono in expanded:
                    del expanded[cmono]
        return Polynomial(target_ring, expanded, normalise=False)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(self.ring.names[i] for i in m) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


def _pair_sign(shifted_degrees):
    """(-1)^(sum over i<j of s_i s_j) for the expansion of a symmetric form."""
    odd = sum(1 for s in shifted_degrees if s % 2)
    return -1 if (odd * (odd - 1) // 2) % 2 else 1


def _multiplicity_factor(key):
    """prod(mult!) over repeated labels of a canonical tuple."""
    f = 1
    run = 1
    for i in range(1, len(key)):
        if key[i] == key[i - 1]:
            run += 1
            f *= run
        else:
            run = 1
    return f


def form_to_polynomial(space, ring, form):
    """Polynomial of a graded-symmetric multilinear scalar form on g.

    `form` maps label tuples (stored on all permutations, symmetric with
    Koszul signs in shifted degrees d-1) to scalars.  The polynomial is the
    evaluation of the form on the generic degree-1 element, so each canonical
    tuple K contributes (k!/prod(mult!)) * sign * T(K) on the monomial of K.
    """
    out = {}
    for key, c in form.items():
        if c == 0:
            continue
        skey = space.sort_labels(key)
        if skey != tuple(key):
            continue  # visit each orbit once, on its canonical representative
        k = len(key)
        degs = tuple(space.degree(l) - 1 for l in key)
        count = factorial(k) // _multiplicity_factor(skey)
        mono = tuple(ring.gen_index(l) for l in key)
        cmono, sign = ring.canonical(mono)
        if cmono is None:
            continue
        coeff = count * _pair_sign(degs) * sign * c
        if coeff:
            out[cmono] = out.get(cmono, 0) + coeff
    return Polynomial(ring, out)


def polynomial_to_form(space, poly):
    """Inverse of form_to_polynomial; returns {label tuple -> scalar} on all
    permutations.  The polynomial must be homogeneous in arity."""
    ring = poly.ring
    form = {}
    for mono, c in poly.terms.items():
        key = tuple(ring.names[i] for i in mono)
        key = space.sort_labels(key)
        k = len(key)
        degs = tuple(space.degree(l) - 1 for l in key)
        base = Fraction(_multiplicity_factor(key), factorial(k)) * _pair_sign(degs) * c
        for perm in itertools.permutations(range(k)):
            pkey = tuple(key[i] for i in perm)
            val = norm_scalar(koszul_sign(perm, degs) * base)
            if pkey in form:
                if form[pkey] != val:
                    raise InputError("polynomial does not define a symmetric form")
            else:
                form[pkey] = val
    return form
