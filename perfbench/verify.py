"""Correctness checks on what the operations return.

Each check returns a list of problems (empty when the output is right).  The
expected values come from properties of the method or from computations made
here, never from stored copies of earlier output:

* wzw_check: every check passes (the known answer for sl2 (x) a cdga with the
  trace pairing); the degree dimensions are 3(2N)^2, 6(2N)^2, 3(2N)^2.
* boundary: S_0 = 0, a strict bivector, the central support, and the
  current-algebra formula for the derived brackets of Pi-bar, computed here
  from the ambient omega, l_1 and l_2 (the formula of tests/oracles.py).
* exact_centre: every verdict passes, zero centre cohomology, and the sizes,
  degrees and shifts of the centre and the bulk that the cotangent and
  interval constructions dictate.
* aksz: check_symplectic passes, shift = eta's shift - top degree, and the
  dimension is dim(model) * dim(coefficients).
"""

from fractions import Fraction

FIBER = "*"
SEP = "|"


def _checks_pass(report, names):
    got = [c["name"] for c in report["checks"]]
    bad = [] if got == names else [f"checks {got}, expected {names}"]
    bad += [f"check {c['name']} failed: {c['witnesses'][:3]}"
            for c in report["checks"] if not c["passed"]]
    return bad


def laurent_dims(window):
    """Degree dimensions of the Laurent window model (x) sl2: (2N)^2 monomials
    per form type, form types dz^e dzbar^f counted by degree e + f."""
    cells = (2 * window) ** 2
    return {"0": 3 * cells, "1": 6 * cells, "2": 3 * cells}


def wzw_check(report, window):
    bad = _checks_pass(report, ["relations", "symplectic", "splitting"])
    dims = {d: len(labs) for d, labs in report["outputs"]["space"].items()}
    if dims != laurent_dims(window):
        bad.append(f"degree dimensions {dims}, expected "
                   f"{laurent_dims(window)}")
    return bad


# ---------------------------------------------------------------------------
# current-algebra boundary


def _derived_brackets(poisson, space):
    """{(p, q): {base-coordinate tuple: scalar}} with {xi_p, xi_q} =
    d/dp_q* (d/dp_p* Pi), left derivatives in the cotangent ring.

    The canonical pairing omega_can(a, a*) = 1 has inverse tensor entry
    (a*, a) = 1, so bracketing with the linear coordinate xi_a is the left
    derivative along a*.  A generator's parity is that of its ring degree:
    1 - d for a base coordinate of degree d, n - 1 + d for its fiber."""
    n = poisson["shift"]
    deg = {lab: int(d) for d, labs in space.items() for lab in labs}

    def odd(name):
        if name.endswith(FIBER):
            return (n - 1 + deg[name[:-1]]) % 2
        return (1 - deg[name]) % 2

    def left_derivative(mono, c, gen):
        out = []
        crossings = 0
        for i, name in enumerate(mono):
            if name == gen:
                s = -1 if odd(gen) and crossings % 2 else 1
                out.append((mono[:i] + mono[i + 1:], s * c))
            crossings += odd(name)
        return out

    got = {}
    for names, c in poisson["components"]["2"]:
        mono, c = tuple(names), Fraction(c)
        fibers = {x for x in mono if x.endswith(FIBER)}
        for p in fibers:
            for once, c1 in left_derivative(mono, c, p):
                for q in {x for x in once if x.endswith(FIBER)}:
                    for rest, c2 in left_derivative(once, c1, q):
                        row = got.setdefault((p[:-1], q[:-1]), {})
                        row[rest] = row.get(rest, 0) + c2
    return {pq: {k: v for k, v in row.items() if v}
            for pq, row in got.items()}


def current_algebra_brackets(alg, omega, plus, minus):
    """{(p, q): {base-coordinate tuple: scalar}} from the current-algebra
    formula: with u_p in l_- the omega-dual of p (omega(u_p, p) = 1),

        {xi_p, xi_q} = -(-1)^(|u_p||u_q|) sum_r omega(l_2(u_p, u_q), r) xi_r
                       -(-1)^|u_p| omega(u_p, l_1 u_q)."""
    sp = alg.space
    dual = {}
    for p in plus:
        for m in minus:
            c = omega.pairing(m, p)
            if c:
                dual[p] = (m, 1 / Fraction(c))
                break
    to_plus = {}
    for (o, r), w in omega.entries.items():
        if r in dual:
            to_plus.setdefault(o, []).append((r, w))
    b1 = alg.brackets.get(1)
    b2 = alg.brackets.get(2)
    want = {}
    for p, (up, cp) in dual.items():
        for q, (uq, cq) in dual.items():
            s2 = -1 if (sp.degree(up) * sp.degree(uq)) % 2 else 1
            s1 = -1 if sp.degree(up) % 2 else 1
            row = {}
            for o, c in (b2.coefficients.get((up, uq), {}) if b2 else {}).items():
                for r, w in to_plus.get(o, ()):
                    row[(r,)] = row.get((r,), 0) - s2 * cp * cq * c * w
            cen = sum((c * omega.pairing(up, o) for o, c in
                       (b1.coefficients.get((uq,), {}) if b1 else {}).items()),
                      Fraction(0))
            if cen:
                row[()] = -s1 * cp * cq * cen
            row = {k: v for k, v in row.items() if v}
            if row:
                want[(p, q)] = row
    return want


def boundary(report, theory, central):
    """`theory`: the realized ambient theory (omega, l_1, l_2, splitting);
    `central`: the coefficient labels the central (constant) terms of Pi-bar
    must involve."""
    bad = _checks_pass(report, ["splitting", "decomposition"])
    out = report["outputs"]
    if out["piece_fiber_counts"] != [1, 2]:
        bad.append(f"nonzero pieces S_j at j = {out['piece_fiber_counts']}, "
                   f"expected S_1 and S_2 only (S_0 = 0)")
    pois = out["boundary_poisson"]
    if sorted(pois["components"]) != ["2"]:
        return bad + [f"Poisson components {sorted(pois['components'])}, "
                      f"expected a strict bivector"]
    support = set()
    for names, _ in pois["components"]["2"]:
        fibers = [x for x in names if x.endswith(FIBER)]
        if len(fibers) != 2:
            bad.append(f"monomial {names} is not fiber-quadratic")
        if len(fibers) == len(names):
            support |= {x[:-1].partition(SEP)[2] for x in fibers}
    if support != set(central):
        bad.append(f"central support {sorted(support)}, expected "
                   f"{sorted(central)}")
    s = theory.splitting
    got = _derived_brackets(pois, out["boundary_space"])
    want = current_algebra_brackets(theory.algebra, theory.omega,
                                    s.plus, s.minus)
    wrong = sorted(pq for pq in set(got) | set(want)
                   if got.get(pq, {}) != want.get(pq, {}))
    if wrong:
        bad.append(f"{len(wrong)} derived brackets differ from the "
                   f"current-algebra formula, e.g. {wrong[:3]}")
    return bad


# ---------------------------------------------------------------------------
# exact centre


def _cotangent_space(space, n):
    """Degrees of l (+) l*[n-2]: a at deg a, a* at 2 - n - deg a."""
    out = {}
    for d, labs in space.items():
        for lab in labs:
            out[lab] = int(d)
            out[lab + FIBER] = 2 - n - int(d)
    return out


def _flat(space):
    return {lab: int(d) for d, labs in space.items() for lab in labs}


CENTRE_CHECKS = {"check": ["relations", "symplectic", "homotopy-poisson"],
                 "centre": ["homotopy-poisson"],
                 "bulk": ["homotopy-poisson"],
                 "roundtrip": ["homotopy-poisson", "roundtrip", "triviality"]}


def exact_centre(command, report, space, shift):
    """One command's report on the exact-centre file; space: the realized
    input space {degree: labels}; shift: the cotangent shift n of the
    declared Poisson structure."""
    bad = _checks_pass(report, CENTRE_CHECKS[command])
    out = report["outputs"]
    dim = sum(len(labs) for labs in space.values())
    cotangent = _cotangent_space(space, shift)
    if command == "check" and _flat(out["space"]) != _flat(space):
        bad.append("reported space differs from the input space")
    if command == "centre":
        if _flat(out["centre_space"]) != cotangent or \
                len(cotangent) != 2 * dim:
            bad.append(f"centre space is not l (+) l*[{shift}-2] of "
                       f"dimension {2 * dim}")
        if out["centre_pairing"]["shift"] != shift:
            bad.append(f"centre pairing shift "
                       f"{out['centre_pairing']['shift']}, expected {shift}")
    if command == "bulk":
        # interval model {1, dt} with I of degree 1: the shift drops by one
        # and every centre label y appears as 1|y and dt|y
        if out["bulk_shift"] != shift - 1:
            bad.append(f"bulk shift {out['bulk_shift']}, expected "
                       f"{shift - 1}")
        want = {}
        for lab, d in cotangent.items():
            want["1" + SEP + lab] = d
            want["dt" + SEP + lab] = d + 1
        if _flat(out["bulk_space"]) != want:
            bad.append(f"bulk space is not interval (x) centre of "
                       f"dimension {4 * dim}")
    if command == "roundtrip" and any(out["centre_cohomology"].values()):
        bad.append(f"centre cohomology {out['centre_cohomology']}, "
                   f"expected zero")
    return bad


# ---------------------------------------------------------------------------
# AKSZ arity 3


def model_size(recipe):
    """(dimension, degree of the integral) of a cdga model recipe: the
    Laurent window N has (2N)^2 monomials times 1, dz, dzbar, dz dzbar."""
    if recipe["kind"] == "laurent":
        return 4 * (2 * recipe["window"]) ** 2, 2
    return {"torus": (4, 2), "interval": (2, 1), "point": (1, 0)}[
        recipe["kind"]]


def aksz(result, recipe):
    """The aksz operation's result on theories.arity3(seed, recipe)."""
    from theories import ARITY3_SHIFT, ARITY3_SPACE
    dim, top = model_size(recipe)
    coeff_dim = sum(len(labs) for labs in ARITY3_SPACE.values())
    bad = []
    if not result["passed"]:
        bad.append(f"check_symplectic failed with "
                   f"{result['invariance_violations']} invariance violations")
    if result["shift"] != ARITY3_SHIFT - top:
        bad.append(f"AKSZ shift {result['shift']}, expected "
                   f"{ARITY3_SHIFT - top}")
    if result["dim"] != dim * coeff_dim:
        bad.append(f"dimension {result['dim']}, expected "
                   f"{dim} * {coeff_dim}")
    return bad
