"""Finite graded-commutative dg algebras with integration, and A (x) g.

A CdgaModel is a finite basis with a unit, a sparse multiplication table
(graded commutative: ba = (-1)^(|a||b|) ab), a degree +1 differential
satisfying the Leibniz rule, and an integration functional I supported in
the single degree `top_degree` with I o d = 0 (Stokes) and non-degenerate
Poincare pairing (a, b) -> I(ab) per degree block.  Elements are plain
dicts {basis label: scalar}.

Models standing in for function spaces on punctured domains cannot be
closed under multiplication and differentiation; any operation whose true
result leaves the stored basis window is FLAGGED, never silently truncated.
Flags propagate into tensor structures as indeterminate bracket tuples.

tensor_linfty(A, g) carries an L-infinity structure on A (x) g:
l_1 = d (x) 1 + 1 (x) l_1 (with the sign (-1)^|a| on the second term) and
l_n(a_1 (x) x_1, ..) = sign * (a_1..a_n) (x) l_n(x_1..x_n), the sign being
tensor_bracket_sign (Koszul for the interleaving plus one (-1)^|a_i| per
coefficient, since every bracket is odd in shifted degrees).  The A-products
come from one table per arity of the A-tuples whose product is nonzero or
flagged, each product computed once by extending a shorter tuple; a tuple is
flagged as soon as a left-to-right partial product leaves the window.  A
flagged coefficient key of g flags every tensor tuple over a nonzero or
flagged A-product.

aksz_symplectic pairs a (x) x with b (x) y through
(-1)^(|b|(|x|-1)) I(ab) eta(x, y): a shift-(n-d) structure when eta has
shift n and I degree -d.  The sign is the Koszul cost of moving b past x in
its SHIFTED degree (elements of A (x) g[1]); with it the pairing satisfies
the transpose rule and is invariant under the tensor brackets whenever eta
is invariant (regression-tested over all builtin models).
"""
from __future__ import annotations

import itertools

from .errors import InputError
from .graded import (SYM_GRADED, GradedVectorSpace, MultilinearMap,
                     norm_scalar)
from .linalg import kernel_vector
from .linfty import LInftyStructure, tensor_bracket_sign
from .symplectic import ShiftedSymplecticStructure


TENSOR_SEP = "|"


class CdgaModel:
    """Finite cdga with integration; see the module docstring.

    products: {(a, b): {c: scalar}} on every ordered pair with nonzero
    product (use cdga_from_products to close one orientation).
    differential: {a: {b: scalar}}.  integral: {a: scalar}.
    product_flags: ordered pairs whose true product leaves the basis;
    diff_flags: labels whose true differential leaves the basis.
    extra derivations (e.g. the holomorphic del of a Dolbeault model) live
    in `derivations`: {name: (table, flags)} with the model differential
    itself available as derivations entries too when named.
    """

    def __init__(self, space, unit, products, differential, integral,
                 top_degree, name="", product_flags=(), diff_flags=(),
                 derivations=None, bidegree=None):
        if unit not in space:
            raise InputError(f"unit label {unit!r} is not a basis label")
        if space.degree(unit) != 0:
            raise InputError("unit must have degree 0")
        self.space = space
        self.unit = unit
        self.products = products
        self.differential = differential
        self.integral = {a: norm_scalar(c) for a, c in integral.items()
                         if norm_scalar(c) != 0}
        self.top_degree = top_degree
        self.name = name
        self.product_flags = frozenset(product_flags)
        self.diff_flags = frozenset(diff_flags)
        self.derivations = derivations or {}
        self.bidegree = bidegree or {}
        for a in self.integral:
            if space.degree(a) != top_degree:
                raise InputError(
                    f"integral is supported on {a!r} of degree "
                    f"{space.degree(a)}, declared top degree {top_degree}")

    def degree(self, label):
        return self.space.degree(label)

    def one(self):
        return {self.unit: 1}

    def product(self, u, v):
        """(u * v as a dict, flagged): flagged when any contributing basis
        pair multiplies out of the stored window."""
        out = {}
        flagged = False
        for a, ca in u.items():
            if ca == 0:
                continue
            for b, cb in v.items():
                if cb == 0:
                    continue
                if (a, b) in self.product_flags:
                    flagged = True
                for c, w in self.products.get((a, b), {}).items():
                    val = out.get(c, 0) + ca * cb * w
                    if val:
                        out[c] = val
                    elif c in out:
                        del out[c]
        return out, flagged

    def apply_table(self, u, table, flags=frozenset()):
        out = {}
        flagged = False
        for a, ca in u.items():
            if ca == 0:
                continue
            if a in flags:
                flagged = True
            for b, w in table.get(a, {}).items():
                val = out.get(b, 0) + ca * w
                if val:
                    out[b] = val
                elif b in out:
                    del out[b]
        return out, flagged

    def d(self, u):
        return self.apply_table(u, self.differential, self.diff_flags)

    def derivation(self, name, u):
        table, flags = self.derivations[name]
        return self.apply_table(u, table, flags)

    def integrate(self, u):
        return sum((c * self.integral.get(a, 0) for a, c in u.items()),
                   start=0)

    def __repr__(self):
        return (f"CdgaModel({self.name or 'anonymous'}, dim={self.space.dim},"
                f" top={self.top_degree})")


def cdga_from_products(space, unit, entries, differential, integral,
                       top_degree, name="", product_flags=(), diff_flags=(),
                       derivations=None, bidegree=None):
    """Build a CdgaModel from one orientation per basis pair.

    entries: {(a, b): {c: scalar}}; the transpose is filled in via graded
    commutativity ba = (-1)^(|a||b|) ab, and unit products are added for
    every label.  product_flags are closed under transposition as well."""
    products = {}
    for lab in space.labels:
        products[(unit, lab)] = {lab: 1}
        if lab != unit:
            products[(lab, unit)] = {lab: 1}
    for (a, b), row in entries.items():
        row = {c: norm_scalar(w) for c, w in row.items() if norm_scalar(w)}
        if not row:
            continue
        products[(a, b)] = row
        if (b, a) not in entries:
            s = -1 if (space.degree(a) * space.degree(b)) % 2 else 1
            products[(b, a)] = {c: s * w for c, w in row.items()}
    flags = set()
    for (a, b) in product_flags:
        flags.add((a, b))
        flags.add((b, a))
    return CdgaModel(space, unit, products, differential, integral,
                     top_degree, name, flags, diff_flags, derivations,
                     bidegree)


class CdgaReport:
    """check_cdga outcome; each list holds witnesses of one axiom failure.
    `window` collects the basis combinations skipped because a flagged
    (out-of-window) product or differential makes them undecidable."""

    def __init__(self, commutativity, associativity, leibniz, stokes,
                 degree, pairing, window):
        self.commutativity_violations = commutativity
        self.associativity_violations = associativity
        self.leibniz_violations = leibniz
        self.stokes_violations = stokes
        self.degree_violations = degree
        self.degeneracy_witnesses = pairing
        self.window = window
        self.passed = not (commutativity or associativity or leibniz
                           or stokes or degree or pairing)

    def __repr__(self):
        parts = {"comm": self.commutativity_violations,
                 "assoc": self.associativity_violations,
                 "leibniz": self.leibniz_violations,
                 "stokes": self.stokes_violations,
                 "degree": self.degree_violations,
                 "pairing": self.degeneracy_witnesses}
        bad = {k: len(v) for k, v in parts.items() if v}
        return f"CdgaReport(passed={self.passed}, violations={bad})"


def check_cdga(model):
    """Exhaustive axiom check over the basis (associativity over all basis
    triples, so cubic in the dimension)."""
    sp = model.space
    labs = sp.labels
    comm, assoc, leib, stokes, degv, window = [], [], [], [], [], []

    def diff_dicts(u, v):
        keys = set(u) | set(v)
        return {k: u.get(k, 0) - v.get(k, 0)
                for k in keys if u.get(k, 0) != v.get(k, 0)}

    for (a, b), row in model.products.items():
        for c, w in row.items():
            if sp.degree(c) != sp.degree(a) + sp.degree(b):
                degv.append(("product", a, b, c))
    for a, row in model.differential.items():
        for b, w in row.items():
            if sp.degree(b) != sp.degree(a) + 1:
                degv.append(("differential", a, b))

    for a, b in itertools.product(labs, repeat=2):
        if (a, b) in model.product_flags:
            window.append(("product", a, b))
            continue
        ab = model.products.get((a, b), {})
        ba = model.products.get((b, a), {})
        s = -1 if (sp.degree(a) * sp.degree(b)) % 2 else 1
        bad = diff_dicts(ab, {c: s * w for c, w in ba.items()})
        if bad:
            comm.append((a, b, bad))

    for a, b, c in itertools.product(labs, repeat=3):
        ab, f1 = model.product({a: 1}, {b: 1})
        left, f2 = model.product(ab, {c: 1})
        bc, f3 = model.product({b: 1}, {c: 1})
        right, f4 = model.product({a: 1}, bc)
        if f1 or f2 or f3 or f4:
            window.append(("associativity", a, b, c))
            continue
        bad = diff_dicts(left, right)
        if bad:
            assoc.append((a, b, c, bad))

    for a, b in itertools.product(labs, repeat=2):
        ab, f1 = model.product({a: 1}, {b: 1})
        dab, f2 = model.d(ab)
        da, f3 = model.d({a: 1})
        db, f4 = model.d({b: 1})
        t1, f5 = model.product(da, {b: 1})
        s = -1 if sp.degree(a) % 2 else 1
        t2, f6 = model.product({a: 1}, db)
        if f1 or f2 or f3 or f4 or f5 or f6:
            window.append(("leibniz", a, b))
            continue
        rhs = dict(t1)
        for k, w in t2.items():
            val = rhs.get(k, 0) + s * w
            if val:
                rhs[k] = val
            elif k in rhs:
                del rhs[k]
        bad = diff_dicts(dab, rhs)
        if bad:
            leib.append((a, b, bad))

    for a in labs:
        da, _ = model.d({a: 1})  # out-of-window terms never hit the top cell
        v = model.integrate(da)
        if v != 0:
            stokes.append((a, v))

    pairing = []
    for d in sp.components:
        rows = sp.component(d)
        cols = sp.component(model.top_degree - d)
        if len(rows) != len(cols):
            pairing.append((d, None))
            continue
        mat = [[model.integrate(model.product({x: 1}, {y: 1})[0])
                for x in rows] for y in cols]
        vec = kernel_vector(mat)
        if vec is not None:
            pairing.append((d, [(x, c) for x, c in zip(rows, vec) if c]))

    return CdgaReport(comm, assoc, leib, stokes, degv, pairing, window)


# ---------------------------------------------------------------------------
# builtin models


def point_model():
    """The ground field: one degree-0 basis element with I(1) = 1."""
    sp = GradedVectorSpace({0: ["1"]})
    return cdga_from_products(sp, "1", {}, {}, {"1": 1}, 0, name="point")


def interval_model():
    """{1, dt} with d = 0 and I(dt) = 1: the constant-coefficient retract of
    forms on an interval."""
    sp = GradedVectorSpace({0: ["1"], 1: ["dt"]})
    return cdga_from_products(sp, "1", {("dt", "dt"): {}}, {}, {"dt": 1}, 1,
                              name="interval")


def torus_model():
    """Exterior algebra on two degree-1 generators a, b with I(ab) = 1: a
    minimal oriented-surface surrogate."""
    sp = GradedVectorSpace({0: ["1"], 1: ["a", "b"], 2: ["ab"]})
    entries = {("a", "b"): {"ab": 1}, ("a", "a"): {}, ("b", "b"): {},
               ("a", "ab"): {}, ("b", "ab"): {}, ("ab", "ab"): {}}
    return cdga_from_products(sp, "1", entries, {}, {"ab": 1}, 2,
                              name="torus")


def _laurent_label(a, b, eps, delta):
    return f"z{a}w{b}" + ("dz" if eps else "") + ("dw" if delta else "")


def laurent_dolbeault_model(N):
    """Bigraded Laurent window model: basis z^a zbar^b dz^eps dzbar^delta
    with exponents in [-N, N-1] (the window is closed under the residue
    pairing partner a -> -1-a, which |a| <= N would not be), differential
    d = delbar, extra derivation 'del', and I = coefficient of
    z^-1 zbar^-1 dz dzbar.  zbar is written w in labels.  Products or
    derivatives leaving the window are flagged."""
    if N < 2:
        raise InputError("laurent window radius must be at least 2")
    window = range(-N, N)
    comps = {}
    bideg = {}
    for a in window:
        for b in window:
            for eps in (0, 1):
                for delta in (0, 1):
                    lab = _laurent_label(a, b, eps, delta)
                    comps.setdefault(eps + delta, []).append(lab)
                    bideg[lab] = (eps, delta)
    sp = GradedVectorSpace(comps)

    entries = {}
    flags = set()
    quads = list(itertools.product(window, window, (0, 1), (0, 1)))
    for i, (a1, b1, e1, d1) in enumerate(quads):
        for (a2, b2, e2, d2) in quads[i:]:
            l1 = _laurent_label(a1, b1, e1, d1)
            l2 = _laurent_label(a2, b2, e2, d2)
            if e1 + e2 > 1 or d1 + d2 > 1:
                entries[(l1, l2)] = {}
                continue
            if a1 + a2 not in window or b1 + b2 not in window:
                flags.add((l1, l2))
                continue
            s = -1 if (d1 * e2) % 2 else 1  # move dzbar past dz
            entries[(l1, l2)] = {
                _laurent_label(a1 + a2, b1 + b2, e1 + e2, d1 + d2): s}

    del_table, del_flags = {}, set()
    dbar_table, dbar_flags = {}, set()
    for (a, b, eps, delta) in quads:
        lab = _laurent_label(a, b, eps, delta)
        if a != 0 and not eps:
            if a - 1 in window:
                del_table[lab] = {_laurent_label(a - 1, b, 1, delta): a}
            else:
                del_flags.add(lab)
        if b != 0 and not delta:
            if b - 1 in window:
                s = -1 if eps else 1  # dzbar crosses dz
                dbar_table[lab] = {_laurent_label(a, b - 1, eps, 1): s * b}
            else:
                dbar_flags.add(lab)

    top = _laurent_label(-1, -1, 1, 1)
    return cdga_from_products(
        sp, _laurent_label(0, 0, 0, 0), entries, dbar_table, {top: 1}, 2,
        name=f"laurent_dolbeault({N})", product_flags=flags,
        diff_flags=dbar_flags,
        derivations={"del": (del_table, frozenset(del_flags)),
                     "delbar": (dbar_table, frozenset(dbar_flags))},
        bidegree=bideg)


# ---------------------------------------------------------------------------
# tensoring with an L-infinity structure


def tensor_label(a, x):
    return f"{a}{TENSOR_SEP}{x}"


def split_label(lab):
    a, _, x = lab.partition(TENSOR_SEP)
    return a, x


def tensor_space(model, space):
    comps = {}
    for a in model.space.labels:
        for x in space.labels:
            d = model.degree(a) + space.degree(x)
            comps.setdefault(d, []).append(tensor_label(a, x))
    return GradedVectorSpace(comps)


def _a_products(model, max_n):
    """{n: [(A-tuple, degrees, product, flagged)]} for n = 0..max_n: every
    length-n tuple of model labels whose left-to-right product is nonzero or
    window-flagged, in lexicographic label order.

    Each list extends the one before by one label, so every product costs one
    `model.product` call.  A flagged prefix flags all its extensions (their
    product is never read); a zero, unflagged prefix has only zero, unflagged
    extensions and is dropped."""
    labels = model.space.labels
    deg = {a: model.degree(a) for a in labels}
    rows = [((), (), model.one(), False)]
    tables = {0: rows}
    for n in range(1, max_n + 1):
        ext = []
        for akey, degs, prod, fl in rows:
            for a in labels:
                if fl:
                    ext.append((akey + (a,), degs + (deg[a],), {}, True))
                    continue
                p, f = model.product(prod, {a: 1})
                if p or f:
                    ext.append((akey + (a,), degs + (deg[a],), p, f))
        tables[n] = rows = ext
    return tables


def tensor_linfty(model, alg):
    """The L-infinity structure on A (x) g (module docstring formula).

    l_n for n >= 2 walks, per stored or flagged g key, the table of A-tuples
    with a nonzero or flagged product (`_a_products`), so zero products are
    never visited.  A tuple is flagged when its left-to-right product
    leaves A's window at any step, even if the full product would land back
    inside it.  Flags of g propagate: a flagged g key flags every tensor
    tuple over a nonzero or flagged A-product, and a flagged (x,) of l_1
    flags (a|x,) for every a.  l_1 inputs with a flagged differential are
    flagged as well."""
    g = alg.space
    tsp = tensor_space(model, g)
    tlab = {x: {a: tensor_label(a, x) for a in model.space.labels}
            for x in g.labels}
    brackets = {}

    # l_1 = d (x) 1 + (-1)^|a| 1 (x) l_1
    l1_coeffs = {}
    l1_flags = set()
    b1 = alg.brackets.get(1)
    for a in model.space.labels:
        da, fl = model.d({a: 1})
        for x in g.labels:
            key = (tensor_label(a, x),)
            row = l1_coeffs.setdefault(key, {})
            if fl or (b1 is not None and (x,) in b1.flags):
                l1_flags.add(key)
            for b, c in da.items():
                o = tensor_label(b, x)
                row[o] = row.get(o, 0) + c
            if b1 is not None:
                s = -1 if model.degree(a) % 2 else 1
                for y, c in b1.coefficients.get((x,), {}).items():
                    o = tensor_label(a, y)
                    row[o] = row.get(o, 0) + s * c
    l1_coeffs = {k: {o: c for o, c in row.items() if c}
                 for k, row in l1_coeffs.items()}
    l1_coeffs = {k: row for k, row in l1_coeffs.items()
                 if row and k not in l1_flags}
    if l1_coeffs or l1_flags:
        brackets[1] = MultilinearMap((tsp,), tsp, 1, l1_coeffs, SYM_GRADED,
                                     1, l1_flags)

    tables = _a_products(model, max(alg.brackets, default=0))
    for n, m in alg.brackets.items():
        if n == 1:
            continue
        table = tables[n]
        coeffs = {}
        nflags = set()
        for gkey in m.flags:
            cols = [tlab[x] for x in gkey]
            for akey, _, _, _ in table:
                nflags.add(tuple(map(dict.__getitem__, cols, akey)))
        for gkey, row in m.coefficients.items():
            if gkey in m.flags:
                continue
            cols = [tlab[x] for x in gkey]
            xdegs = [g.degree(x) - 1 for x in gkey]
            out = [(tlab[y], cy) for y, cy in row.items()]
            signs = {}
            for akey, degs, prod, fl in table:
                tkey = tuple(map(dict.__getitem__, cols, akey))
                if fl:
                    nflags.add(tkey)
                    continue
                s = signs.get(degs)
                if s is None:
                    s = signs[degs] = tensor_bracket_sign(degs, xdegs)
                trow = {}
                for b, cb in prod.items():
                    for col, cy in out:
                        o = col[b]
                        v = trow.get(o, 0) + s * cb * cy
                        if v:
                            trow[o] = v
                        elif o in trow:
                            del trow[o]
                if trow:
                    coeffs[tkey] = trow
        if coeffs or nflags:
            brackets[n] = MultilinearMap((tsp,) * n, tsp, 2 - n, coeffs,
                                         SYM_GRADED, 1, nflags)
    return LInftyStructure(tsp, brackets)


def aksz_symplectic(model, eta):
    """The AKSZ pairing on A (x) g:
    omega(a (x) x, b (x) y) = (-1)^(|b|(|x|-1)) I(ab) eta(x, y), of shift
    n - top_degree when eta has shift n (module docstring)."""
    g = eta.space
    tsp = tensor_space(model, g)
    entries = {}
    for a in model.space.labels:
        for b in model.space.labels:
            prod, fl = model.product({a: 1}, {b: 1})
            if fl:
                continue  # out-of-window products never reach the top cell
            iab = model.integrate(prod)
            if iab == 0:
                continue
            for (x, y), c in eta.entries.items():
                s = -1 if (model.degree(b) * (g.degree(x) - 1)) % 2 else 1
                key = (tensor_label(a, x), tensor_label(b, y))
                entries[key] = entries.get(key, 0) + s * iab * c
    return ShiftedSymplecticStructure(tsp, eta.shift - model.top_degree,
                                      entries)
