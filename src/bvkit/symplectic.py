"""Shifted symplectic structures, action functionals, and the CME.

A shift-n symplectic structure on g is a pairing omega(x, y) nonzero only
on blocks deg x + deg y = 2 - n, with
omega(y, x) = (-1)^(deg x * deg y + n) omega(x, y), non-degenerate per
degree block, and invariant: for every bracket arity k the (k+1)-form
Theta_k(x_1..x_k, y) = omega(l_k(x_1..x_k), y) is totally graded-symmetric
in shifted degrees.  The extra (-1)^n in the transpose rule (symmetric at
even shift, antisymmetric at odd shift) is forced by invariance: it is the
unique symmetry type for which the pairing of the generalized-Jacobi
residual, omega(J(x_1..x_k), y), is itself totally symmetric in shifted
degrees, which in turn is what lets a scalar action functional detect every
relation failure through {S, S}.

The action functional is S = sum_k c_k * (polynomial of Theta_k) with
c_k = 1/(k+1)!; this normalization is pinned by the exact round trip
hamiltonian_vf(action_from_brackets(g, omega), omega) = g, and reproduces
the 1/2 and 1/6 of the cubic Chern-Simons action on its finite model.  The
constant Poisson tensor used throughout is the plain block inverse of the
omega matrix, and the bracket of functions contracts the left derivative of
the first argument with the right derivative of the second; with the
parity-dependent transpose rule above, no further signs are needed in any
shift parity (a regression-tested convention).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InputError, StructureError
from .formal import Polynomial, PolynomialRing, form_to_polynomial
from .graded import norm_scalar
from .linalg import invert, kernel_vector
from .linfty import vf_to_brackets


class ShiftedSymplecticStructure:
    """Pairing entries {(x, y): scalar} with declared shift n.

    The transpose of every entry is filled in automatically via
    omega(y, x) = (-1)^(deg x deg y + n) omega(x, y); if both orders are
    supplied
    inconsistently the conflict is kept and reported by check_symplectic
    rather than raised here.  Degree-violating entries are likewise kept for
    reporting.  The inverse tensor is computed blockwise on first use.
    """

    def __init__(self, space, shift, entries):
        self.space = space
        self.shift = shift
        ents = {}
        for (x, y), c in entries.items():
            c = norm_scalar(c)
            if c != 0:
                ents[(x, y)] = c
        for (x, y), c in list(ents.items()):
            if (y, x) not in ents:
                e = space.degree(x) * space.degree(y) + shift
                ents[(y, x)] = (-1 if e % 2 else 1) * c
        self.entries = ents
        self._inverse = None

    def pairing(self, x, y):
        return self.entries.get((x, y), 0)

    def partners(self):
        """{x: [(y, omega(x, y)), ...]} over the stored entries whose y is a
        basis label, each list in the order of space.labels."""
        position = {l: i for i, l in enumerate(self.space.labels)}
        rows = {}
        for (x, y), c in self.entries.items():
            if y in position:
                rows.setdefault(x, []).append((position[y], y, c))
        return {x: [(y, c) for _, y, c in sorted(row)]
                for x, row in rows.items()}

    def degree_violations(self):
        sp = self.space
        want = 2 - self.shift
        return sorted((x, y, c) for (x, y), c in self.entries.items()
                      if sp.degree(x) + sp.degree(y) != want)

    def symmetry_violations(self):
        sp = self.space
        bad = []
        for (x, y), c in self.entries.items():
            e = sp.degree(x) * sp.degree(y) + self.shift
            sign = -1 if e % 2 else 1
            if self.entries.get((y, x), 0) != sign * c:
                bad.append((x, y, c, self.entries.get((y, x), 0)))
        return sorted(bad)

    def _blocks(self):
        """[(row labels, col labels)] with rows of degree d, cols of 2-n-d."""
        sp = self.space
        out = []
        for d in sp.components:
            out.append((sp.component(d), sp.component(2 - self.shift - d)))
        return out

    def nondegeneracy_witnesses(self):
        """Kernel witnesses per degree block; empty iff non-degenerate.

        Each witness is (degree d, [(label, scalar), ...]) spanning a vector
        x of degree d with omega(x, -) = 0, or (d, None) when the paired
        component has mismatched dimension with no kernel vector needed.
        """
        witnesses = []
        for rows, cols in self._blocks():
            if not rows:
                continue
            d = self.space.degree(rows[0])
            if len(rows) != len(cols):
                witnesses.append((d, None))
                continue
            # kernel of x -> omega(x, .): coefficients along rows
            mat = [[self.pairing(x, y) for x in rows] for y in cols]
            vec = kernel_vector(mat)
            if vec is not None:
                witnesses.append((d, [(x, c) for x, c in zip(rows, vec) if c]))
        return witnesses

    def inverse(self):
        """The inverse tensor {(x, y): scalar} with
        sum_y inv[(x, y)] * omega(y, z) = delta_(x z)."""
        if self._inverse is not None:
            return self._inverse
        inv = {}
        for rows, cols in self._blocks():
            if not rows:
                continue
            if len(rows) != len(cols):
                raise StructureError(
                    f"degenerate pairing: degree {self.space.degree(rows[0])} "
                    f"block is not square")
            mat = [[self.pairing(x, y) for y in cols] for x in rows]
            minv = invert(mat)
            if minv is None:
                raise StructureError(
                    f"degenerate pairing in the degree "
                    f"{self.space.degree(rows[0])} block")
            for i, y in enumerate(cols):
                for j, x in enumerate(rows):
                    if minv[i][j]:
                        inv[(y, x)] = minv[i][j]
        self._inverse = inv
        return inv

    def __repr__(self):
        return (f"ShiftedSymplecticStructure(shift={self.shift}, "
                f"nnz={len(self.entries)})")


def theta_form(alg, omega, n):
    """The (n+1)-form Theta_n(x_1..x_n, y) = omega(l_n(x_1..x_n), y).

    Flagged bracket tuples are skipped: their missing components lie outside
    the stored basis and pair to zero against every stored label whenever
    omega is block-perfect on the stored window (the only situation in which
    flags occur).
    """
    m = alg.bracket(n)
    partners = omega.partners()
    form = {}
    for key, o, c in m.entries():
        for lab, w in partners.get(o, ()):
            k = key + (lab,)
            form[k] = form.get(k, 0) + c * w
    return {k: v for k, v in form.items() if v != 0}


def invariance_violations(alg, omega):
    """Violations of total graded symmetry of each Theta_n.

    The brackets are already symmetric in their n inputs, so symmetry under
    the transposition of the last two slots generates the full symmetric
    group; only that swap is checked, on every stored tuple.
    """
    sp = alg.space
    bad = []
    for n in alg.arities:
        form = theta_form(alg, omega, n)
        flags = alg.bracket(n).flags
        for key, c in form.items():
            a, b = key[-2], key[-1]
            sign = -1 if (sp.degree(a) - 1) % 2 and (sp.degree(b) - 1) % 2 else 1
            skey = key[:-2] + (b, a)
            # indeterminate when either orientation touches a flagged
            # bracket value: its true coefficient left the stored window
            if key[:-1] in flags or skey[:-1] in flags:
                continue
            got = form.get(skey, 0)
            if got != sign * c:
                bad.append((n, key, sign * c, got))
    return sorted(bad)


class SymplecticReport:
    """check_symplectic outcome; the three invariants reported separately."""

    def __init__(self, degree, symmetry, nondegeneracy, invariance):
        self.degree_violations = degree
        self.symmetry_violations = symmetry
        self.nondegeneracy_witnesses = nondegeneracy
        self.invariance_violations = invariance
        self.passed = not (degree or symmetry or nondegeneracy or invariance)

    def __repr__(self):
        return (f"SymplecticReport(passed={self.passed}, "
                f"degree={len(self.degree_violations)}, "
                f"symmetry={len(self.symmetry_violations)}, "
                f"nondegenerate={not self.nondegeneracy_witnesses}, "
                f"invariance={len(self.invariance_violations)})")


def check_symplectic(alg, omega):
    if omega.space != alg.space:
        raise InputError("pairing is not defined on the structure space")
    return SymplecticReport(
        omega.degree_violations(),
        omega.symmetry_violations(),
        omega.nondegeneracy_witnesses(),
        invariance_violations(alg, omega))


def poisson_tensor(omega, ring):
    """Constant Poisson tensor {(i, j): scalar} on coordinate indices:
    {xi_x, xi_y} = (omega^{-1})_(x y), the plain block inverse."""
    inv = omega.inverse()
    return {(ring.gen_index(x), ring.gen_index(y)): c
            for (x, y), c in inv.items()}


def graded_poisson(f, g, tensor):
    """{f, g} = sum_(x y) dr/dxi_y(g) * dl/dxi_x(f) * (omega^{-1})_(x y):
    left derivative on the first argument, right derivative on the second,
    the g-factor multiplied FIRST, no extra signs.

    Each argument is differentiated once, into its derivative table (all
    first derivatives from one pass over its terms), and the two tables are
    contracted entry by entry of the tensor into one result.

    At shift n this is a graded Lie bracket of degree -n: with the
    parity-dependent transpose rule of the pairing it satisfies
    {f, g} = -(-1)^((|f|+n)(|g|+n)) {g, f} and the matching graded Jacobi
    identity on the nose (property-tested over random homogeneous
    polynomials at shifts -1..3), which is what makes {S, S} = 0 equivalent
    to the relations of the Hamiltonian brackets of S in every parity
    regime.  The other product order satisfies antisymmetry but fails
    Jacobi at odd parities.
    """
    ring = f.ring
    canonical = ring.canonical
    dfs = f._derivative_table()
    dgs = g._derivative_table(right=True)
    out = {}
    for (i, c), b in tensor.items():
        df = dfs.get(i)
        dg = dgs.get(c)
        if df is None or dg is None:
            continue
        for m_dg, c_dg in dg.items():
            for m_df, c_df in df.items():
                mono, sign = canonical(m_dg + m_df)
                if mono is None:
                    continue
                tot = out.get(mono, 0) + sign * c_dg * c_df * b
                if tot:
                    out[mono] = tot
                elif mono in out:
                    del out[mono]
    return Polynomial(ring, out, normalise=False)


def hamiltonian_components(F, tensor, labels):
    """{c: {F, xi_c}} for each label c whose component is nonzero, in the
    order of `labels`.

    The right derivative of xi_c is 1, so {F, xi_c} is the sum over tensor
    entries (i, c) of b * dl/dxi_i(F), with no sign: a lookup into F's
    derivative table instead of a full bracket per coordinate.
    """
    ring = F.ring
    dF = F._derivative_table()
    by_column = {}
    for (i, c), b in tensor.items():
        if i in dF:
            by_column.setdefault(c, []).append((dF[i], b))
    out = {}
    for lab in labels:
        terms = {}
        for df, b in by_column.get(ring.gen_index(lab), ()):
            for mono, v in df.items():
                tot = terms.get(mono, 0) + v * b
                if tot:
                    terms[mono] = tot
                elif mono in terms:
                    del terms[mono]
        if terms:
            out[lab] = Polynomial(ring, terms, normalise=False)
    return out


class ActionFunctional:
    """S as a polynomial on the coordinate ring, split by arity.

    components: {k >= 2: Polynomial}, each homogeneous of cohomological
    degree shift + 1.  Arity 0 and 1 terms are not allowed.
    """

    def __init__(self, space, shift, components):
        self.space = space
        self.shift = shift
        ring = None
        comps = {}
        for k, poly in components.items():
            if poly.is_zero():
                continue
            if k < 2:
                raise InputError(f"action has a term of arity {k} < 2")
            ring = poly.ring
            for mono in poly.terms:
                if len(mono) != k:
                    raise InputError(f"arity-{k} component contains a "
                                     f"{len(mono)}-ary monomial")
                if poly.ring.monomial_degree(mono) != shift + 1:
                    raise InputError(
                        f"action term {mono} has degree "
                        f"{poly.ring.monomial_degree(mono)}, expected {shift + 1}")
            comps[k] = poly
        self.ring = ring if ring is not None else PolynomialRing.functions_on(space)
        self.components = comps

    @property
    def polynomial(self):
        total = self.ring.zero()
        for poly in self.components.values():
            total = total + poly
        return total

    def is_zero(self):
        return not self.components

    def __repr__(self):
        return f"ActionFunctional(shift={self.shift}, arities={list(self.components)})"


def action_from_brackets(alg, omega, on_flags="error"):
    """S = sum_n (1/(n+1)!) * polynomial(Theta_n); arity-(n+1) terms.

    on_flags: "error" refuses flagged brackets; "drop" proceeds using the
    stored coefficients only, which is exact precisely when the flagged
    (out-of-window) components pair to zero with every stored basis label --
    the windowed cdga models with their block-perfect pairing.
    """
    if alg.is_flagged() and on_flags != "drop":
        raise InputError("structure has inexact brackets; pass on_flags='drop' "
                         "only if flagged components pair to zero")
    space = alg.space
    ring = PolynomialRing.functions_on(space)
    comps = {}
    for n in alg.arities:
        form = theta_form(alg, omega, n)
        if not form:
            continue
        poly = form_to_polynomial(space, ring, form) \
            .scale(Fraction(1, factorial(n + 1)))
        if not poly.is_zero():
            comps[n + 1] = poly
    return ActionFunctional(space, omega.shift, comps)


def hamiltonian_vf(action, omega):
    """Brackets of the Hamiltonian vector field {S, xi_c}; exact inverse of
    action_from_brackets."""
    if action.space != omega.space:
        raise InputError("action and pairing live on different spaces")
    tensor = poisson_tensor(omega, action.ring)
    comps = hamiltonian_components(action.polynomial, tensor,
                                   action.space.labels)
    return vf_to_brackets(action.space, comps)


def cme_residual(action, omega):
    """{S, S} through the inverse tensor; zero iff the Hamiltonian brackets
    satisfy the generalized Jacobi relations.  Returned as a polynomial;
    split with .by_arity() for the per-arity view."""
    tensor = poisson_tensor(omega, action.ring)
    S = action.polynomial
    return graded_poisson(S, S, tensor)


class TruncatedObservable:
    """A function on the formal space stored up to a polynomial-arity bound.

    flagged records that some operation dropped terms beyond the truncation;
    flagged results are still exact in the arities they keep.
    """

    def __init__(self, poly, truncation, flagged=False):
        kept = {m: c for m, c in poly.terms.items() if len(m) <= truncation}
        if len(kept) != len(poly.terms):
            flagged = True
        self.poly = Polynomial(poly.ring, kept, normalise=False)
        self.truncation = truncation
        self.flagged = flagged

    def product(self, other):
        t = min(self.truncation, other.truncation)
        raw = self.poly * other.poly
        flag = self.flagged or other.flagged or \
            any(len(m) > t for m in raw.terms)
        return TruncatedObservable(raw, t, flag)

    def __repr__(self):
        return (f"TruncatedObservable(<= {self.truncation}, "
                f"flagged={self.flagged})")


def poisson_bracket(f, h, omega):
    """P_0 bracket of truncated observables through the inverse tensor.

    The bracket lowers arity by 2, so it never overflows a shared truncation;
    input flags propagate.
    """
    if f.poly.ring != h.poly.ring:
        raise InputError("observables live in different rings")
    tensor = poisson_tensor(omega, f.poly.ring)
    raw = graded_poisson(f.poly, h.poly, tensor)
    t = min(f.truncation, h.truncation)
    return TruncatedObservable(raw, t, f.flagged or h.flagged)
