"""Exact-arithmetic graded linear algebra.

Degrees are cohomological (upper).  The shift view g[k] places an element of
degree d in degree d - k; "shifted degree" below always means the degree in
g[1], i.e. d - 1.  All coefficients are exact rationals (`fractions.Fraction`,
stored as plain `int` whenever the denominator is 1 -- the two interoperate
and the int fast path matters in the big tensor models).

Everything here is immutable after construction and safe to share.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InputError

Scalar = (int, Fraction)


def norm_scalar(c):
    """Collapse Fraction with denominator 1 to int; reject floats."""
    if isinstance(c, bool) or not isinstance(c, Scalar):
        raise InputError(f"coefficient must be an exact rational, got {c!r}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def as_fraction_str(c):
    """Serialize a scalar as 'p' or 'p/q'."""
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_fraction(s):
    """Parse 'p' or 'p/q' into an exact scalar."""
    try:
        return norm_scalar(Fraction(str(s)))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}: {exc}") from exc


class GradedVectorSpace:
    """A finite integer-graded vector space with a chosen ordered basis.

    `components` maps degree -> list of basis labels.  Labels are globally
    unique within the space and resolve to exactly one (degree, index).
    """

    def __init__(self, components):
        comps = {}
        for d, labels in components.items():
            if not isinstance(d, int):
                raise InputError(f"degree {d!r} is not an integer")
            labels = tuple(labels)
            if labels:
                comps[d] = labels
        self.components = {d: comps[d] for d in sorted(comps)}
        self._degree = {}
        self._index = {}
        idx = 0
        for d, labels in self.components.items():
            for lab in labels:
                if lab in self._degree:
                    raise InputError(f"duplicate basis label {lab!r}")
                self._degree[lab] = d
                self._index[lab] = idx
                idx += 1
        self.labels = tuple(self._index)
        self.dim = idx

    def degree(self, label):
        try:
            return self._degree[label]
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None

    def __contains__(self, label):
        return label in self._degree

    def degrees(self, labels):
        return tuple(self.degree(l) for l in labels)

    def component(self, d):
        return self.components.get(d, ())

    def shift(self, k):
        """The shifted space g[k]: same labels, degree d goes to d - k."""
        return GradedVectorSpace({d - k: labs for d, labs in self.components.items()})

    def direct_sum(self, other):
        comps = {d: list(labs) for d, labs in self.components.items()}
        for d, labs in other.components.items():
            comps.setdefault(d, [])
            comps[d] = list(comps[d]) + list(labs)
        return GradedVectorSpace(comps)

    def sort_labels(self, labels):
        return tuple(sorted(labels, key=self._index.__getitem__))

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.components == other.components

    def __hash__(self):
        return hash(tuple(self.components.items()))

    def __repr__(self):
        parts = ", ".join(f"{d}: {len(l)}" for d, l in self.components.items())
        return f"GradedVectorSpace({{{parts}}})"


def koszul_sign(permutation, degrees):
    """Sign of permuting graded elements.

    `permutation` is the reordering: position i of the new tuple holds the
    element originally at index permutation[i].  Each adjacent transposition
    of x, y contributes (-1)^(deg x * deg y); the result is multiplicative
    under composition.
    """
    permutation = list(permutation)
    if len(permutation) != len(degrees):
        raise InputError("permutation and degree list have different lengths")
    if sorted(permutation) != list(range(len(degrees))):
        raise InputError(f"{permutation} is not a permutation of 0..{len(degrees) - 1}")
    sign = 1
    for i in range(len(permutation)):
        for j in range(i + 1, len(permutation)):
            if permutation[i] > permutation[j]:
                if degrees[permutation[i]] % 2 and degrees[permutation[j]] % 2:
                    sign = -sign
    return sign


SYM_NONE = "none"
SYM_GRADED = "graded-symmetric"


class MultilinearMap:
    """A multilinear map between graded vector spaces, stored sparsely.

    coefficients: {input label tuple -> {output label -> scalar}}.  Every
    stored coefficient obeys deg(out) = sum(deg(in_i)) + degree.

    symmetry is declared with respect to input degrees shifted down by
    `symmetry_shift` (brackets are graded-symmetric on g[1], i.e. shift 1).
    Symmetric maps store all permutations of every nonzero tuple explicitly;
    `check_symmetry` verifies the Koszul relations by enumeration.

    `flags` is a set of input tuples whose coefficient could not be computed
    exactly (window overflow in a truncated cdga model); such tuples carry no
    coefficient and every consumer must surface them.
    """

    def __init__(self, inputs, output, degree, coefficients, symmetry=SYM_NONE,
                 symmetry_shift=0, flags=(), validate=True):
        self.inputs = tuple(inputs)
        self.output = output
        self.arity = len(self.inputs)
        self.degree = degree
        self.symmetry = symmetry
        self.symmetry_shift = symmetry_shift
        self.flags = frozenset(flags)
        coeffs = {}
        for key, outs in coefficients.items():
            key = tuple(key)
            row = {o: norm_scalar(c) for o, c in outs.items() if c != 0}
            if row:
                coeffs[key] = row
        self.coefficients = coeffs
        if symmetry != SYM_NONE and self.inputs:
            # all inputs must live in one space for a symmetry declaration
            if any(s != self.inputs[0] for s in self.inputs):
                raise InputError("symmetry declared on inputs from different spaces")
        if validate:
            self._validate_degrees()

    def _validate_degrees(self):
        for key, outs in self.coefficients.items():
            if len(key) != self.arity:
                raise InputError(f"key {key} has arity {len(key)}, expected {self.arity}")
            s = sum(sp.degree(l) for sp, l in zip(self.inputs, key))
            for o in outs:
                if self.output.degree(o) != s + self.degree:
                    raise InputError(
                        f"coefficient {key} -> {o} violates the degree rule "
                        f"(expected output degree {s + self.degree})")
        for key in self.flags:
            if len(key) != self.arity:
                raise InputError(f"flagged tuple {key} has wrong arity")

    def __call__(self, key):
        """Evaluate on a basis tuple; returns {output label: scalar}."""
        if tuple(key) in self.flags:
            raise InputError(f"tuple {key} is flagged inexact in this map")
        return self.coefficients.get(tuple(key), {})

    def coefficient(self, key, out):
        return self.coefficients.get(tuple(key), {}).get(out, 0)

    def is_zero(self):
        return not self.coefficients

    def entries(self):
        for key, outs in self.coefficients.items():
            for o, c in outs.items():
                yield key, o, c

    def shifted_degrees(self, key):
        sh = self.symmetry_shift
        return tuple(sp.degree(l) - sh for sp, l in zip(self.inputs, key))

    def check_symmetry(self):
        """Enumerate permutations of every stored tuple; return violations.

        A violation is (key, permutation, output, expected, found).
        """
        if self.symmetry == SYM_NONE:
            return []
        bad = []
        for key, outs in self.coefficients.items():
            degs = self.shifted_degrees(key)
            for perm in itertools.permutations(range(self.arity)):
                pkey = tuple(key[i] for i in perm)
                sign = koszul_sign(perm, degs)
                prow = self.coefficients.get(pkey, {})
                seen = set(outs) | set(prow)
                for o in seen:
                    want = sign * outs.get(o, 0)
                    got = prow.get(o, 0)
                    if want != got:
                        bad.append((key, perm, o, want, got))
        return bad

    def with_symmetry(self, symmetry, symmetry_shift):
        """Re-declare symmetry (the coefficients must already satisfy it)."""
        m = MultilinearMap(self.inputs, self.output, self.degree, self.coefficients,
                           symmetry, symmetry_shift, self.flags, validate=False)
        return m

    def index_by_slot(self, slot):
        """{label in slot -> list of (key, out, coeff)}; built on demand."""
        idx = {}
        for key, o, c in self.entries():
            idx.setdefault(key[slot], []).append((key, o, c))
        return idx

    def __repr__(self):
        return (f"MultilinearMap(arity={self.arity}, degree={self.degree}, "
                f"nnz={sum(len(v) for v in self.coefficients.values())}, "
                f"symmetry={self.symmetry!r})")


def symmetric_closure(inputs, output, degree, entries, shift, flags=()):
    """Build a graded-symmetric MultilinearMap from generating entries.

    `entries` is an iterable of (key, out, coeff); every permutation of each
    key is filled in with its Koszul sign relative to degrees shifted by
    `shift`.  Conflicting generators raise InputError; generators that agree
    are merged.  Flagged tuples are closed under permutation as well.
    """
    space = inputs[0]
    coeffs = {}
    for key, o, c in entries:
        key = tuple(key)
        c = norm_scalar(c)
        degs = tuple(space.degree(l) - shift for l in key)
        for perm in itertools.permutations(range(len(key))):
            pkey = tuple(key[i] for i in perm)
            pc = koszul_sign(perm, degs) * c
            row = coeffs.setdefault(pkey, {})
            if o in row:
                if row[o] != pc:
                    raise InputError(
                        f"inconsistent symmetric generators at {pkey} -> {o}: "
                        f"{row[o]} vs {pc}")
            else:
                row[o] = pc
    closed_flags = set()
    for key in flags:
        for perm in itertools.permutations(key):
            closed_flags.add(tuple(perm))
    return MultilinearMap(inputs, output, degree, coeffs, SYM_GRADED, shift,
                          closed_flags)


def symmetrize(m, shift):
    """Graded-symmetric projection of `m` with inputs shifted by `shift`.

    Averages over all permutations with Koszul signs; idempotent, and the
    identity on maps that already carry the symmetry.
    """
    if m.symmetry != SYM_NONE:
        raise InputError("symmetrize expects a map with no declared symmetry")
    space = m.inputs[0]
    if any(s != space for s in m.inputs):
        raise InputError("symmetrize needs all inputs in one space")
    k = m.arity
    if k <= 1:
        return m.with_symmetry(SYM_GRADED, shift)
    order = 1
    for i in range(2, k + 1):
        order *= i
    coeffs = {}
    keys = set(m.coefficients)
    orbit_keys = set()
    for key in keys:
        for perm in itertools.permutations(key):
            orbit_keys.add(perm)
    for key in orbit_keys:
        degs = tuple(space.degree(l) - shift for l in key)
        acc = {}
        for perm in itertools.permutations(range(k)):
            pkey = tuple(key[i] for i in perm)
            row = m.coefficients.get(pkey)
            if not row:
                continue
            sign = koszul_sign(perm, degs)
            for o, c in row.items():
                acc[o] = acc.get(o, 0) + Fraction(sign * c, order)
        acc = {o: norm_scalar(c) for o, c in acc.items() if c != 0}
        if acc:
            coeffs[key] = acc
    return MultilinearMap(m.inputs, m.output, m.degree, coeffs, SYM_GRADED, shift,
                          m.flags)


def insert(outer, inner, slot):
    """Compose: plug `inner` into input `slot` of `outer`.

    Result arity is arity(outer) + arity(inner) - 1 and degree is the sum of
    degrees.  The Koszul sign (-1)^(deg(inner) * sum of degrees of the outer
    arguments in front of the slot) accounts for moving the inner map past
    the earlier arguments.  Arity-0 inner maps (vectors) give partial
    evaluation.  The result carries no declared symmetry.
    """
    if not 0 <= slot < outer.arity:
        raise InputError(f"slot {slot} out of range for arity {outer.arity}")
    if inner.output != outer.inputs[slot]:
        raise InputError("inner output space does not match the outer slot space")
    head = outer.inputs[:slot]
    tail = outer.inputs[slot + 1:]
    new_inputs = head + inner.inputs + tail
    new_degree = outer.degree + inner.degree
    coeffs = {}
    flags = set()
    outer_idx = outer.index_by_slot(slot) if outer.coefficients else {}
    d_inner = inner.degree
    for ikey, mid, ic in inner.entries():
        for okey, out, oc in outer_idx.get(mid, ()):  # outer entries hitting mid
            front = okey[:slot]
            sign = 1
            if d_inner % 2:
                s = sum(sp.degree(l) for sp, l in zip(head, front))
                if s % 2:
                    sign = -1
            key = front + ikey + okey[slot + 1:]
            row = coeffs.setdefault(key, {})
            row[out] = row.get(out, 0) + sign * oc * ic
    # flags: an outer flag blocks every completion of its tuple; an inner flag
    # blocks every outer tuple it could feed.  We record the combined keys
    # conservatively only where a coefficient would have been produced.
    for fkey in outer.flags:
        for ikey in set(inner.coefficients) | set(inner.flags):
            flags.add(fkey[:slot] + tuple(ikey) + fkey[slot + 1:])
    for fkey in inner.flags:
        for okey in set(outer.coefficients) | set(outer.flags):
            flags.add(okey[:slot] + tuple(fkey) + okey[slot + 1:])
    coeffs = {k: {o: c for o, c in row.items() if c != 0}
              for k, row in coeffs.items()}
    coeffs = {k: row for k, row in coeffs.items() if row and k not in flags}
    return MultilinearMap(new_inputs, outer.output, new_degree, coeffs,
                          SYM_NONE, 0, flags)


def identity_map(space):
    coeffs = {(l,): {l: 1} for l in space.labels}
    return MultilinearMap((space,), space, 0, coeffs)


def vector(space, components):
    """An arity-0 map picking out a fixed element (for partial evaluation)."""
    comps = {l: norm_scalar(c) for l, c in components.items() if c != 0}
    degs = {space.degree(l) for l in comps}
    if len(degs) > 1:
        raise InputError("vector must be homogeneous to have a degree")
    degree = degs.pop() if degs else 0
    return MultilinearMap((), space, degree, {(): comps} if comps else {})
