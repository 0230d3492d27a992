"""Seeded generators for random test structures.

The invariant generator builds the pairing first and then defines brackets by
raising an index of random totally-symmetric forms Theta, so invariance holds
by construction while the Jacobi relations generically fail -- exactly what
the CME-equivalence and boundary property suites need.
"""
import itertools
import random

from bvkit.formal import Polynomial
from bvkit.graded import GradedVectorSpace, MultilinearMap, SYM_GRADED, koszul_sign
from bvkit.linfty import LInftyStructure
from bvkit.symplectic import ShiftedSymplecticStructure


def random_paired_space(rng, shift, max_dim=6):
    """A graded space with components paired in dimension for a shift-n form,
    together with a non-degenerate symmetric pairing on it."""
    comps = {}
    entries = {}
    count = [0]

    def fresh(d):
        lab = f"v{count[0]}"
        count[0] += 1
        comps.setdefault(d, []).append(lab)
        return lab

    budget = rng.randint(2, max_dim)
    while budget > 0:
        d = rng.randint(-1, 2)
        dual = 2 - shift - d
        if d == dual:
            # a diagonal entry (x, x) is consistent with the transpose rule
            # omega(y, x) = (-1)^(deg x deg y + n) omega(x, y) iff d*d + n even
            if (d * d + shift) % 2 == 0:
                x = fresh(d)
                entries[(x, x)] = rng.choice([1, 2, -1])
                budget -= 1
            else:
                if budget < 2:
                    break
                x, y = fresh(d), fresh(d)
                entries[(x, y)] = rng.choice([1, 2])
                budget -= 2
        else:
            if budget < 2:
                break
            x, y = fresh(d), fresh(dual)
            entries[(x, y)] = rng.choice([1, 2, -1])
            budget -= 2
    if not comps:
        x = fresh(0) if shift == 2 else None
        if x is not None:
            entries[(x, x)] = 1
        else:
            a, b = fresh(0), fresh(2 - shift)
            entries[(a, b)] = 1
    space = GradedVectorSpace(comps)
    return space, ShiftedSymplecticStructure(space, shift, entries)


def random_symmetric_scalar_form(space, k, rng, total_degree, tries=6):
    """A random scalar k-form, symmetric in shifted degrees, supported on
    tuples of the given total degree; stored on all permutations."""
    labels = space.labels
    form = {}
    for _ in range(tries):
        key = tuple(rng.choice(labels) for _ in range(k))
        if sum(space.degree(l) for l in key) != total_degree:
            continue
        c = rng.randint(-2, 2)
        if c == 0:
            continue
        degs = tuple(space.degree(l) - 1 for l in key)
        cand = {}
        ok = True
        for perm in itertools.permutations(range(k)):
            pkey = tuple(key[i] for i in perm)
            val = koszul_sign(perm, degs) * c
            if cand.get(pkey, val) != val or form.get(pkey, val) != val:
                ok = False
                break
            cand[pkey] = val
        if ok:
            form.update(cand)
    return {key: v for key, v in form.items() if v != 0}


def brackets_from_theta(space, omega, theta_by_arity):
    """l_n defined by omega(l_n(x_1..x_n), y) = Theta_n(x_1..x_n, y); the
    resulting structure is invariant by construction."""
    inv = omega.inverse()
    brackets = {}
    for n, form in theta_by_arity.items():
        coeffs = {}
        for key, c in form.items():
            head, y = key[:-1], key[-1]
            for (yy, o), w in inv.items():
                if yy != y:
                    continue
                row = coeffs.setdefault(head, {})
                row[o] = row.get(o, 0) + c * w
        coeffs = {k: {o: v for o, v in row.items() if v} for k, row in coeffs.items()}
        coeffs = {k: row for k, row in coeffs.items() if row}
        if coeffs:
            brackets[n] = MultilinearMap((space,) * n, space, 2 - n, coeffs,
                                         SYM_GRADED, 1)
    return LInftyStructure(space, brackets)


def random_invariant_structure(rng, max_dim=6, max_arity=3, shift=None):
    """(alg, omega): random pairing plus brackets raised from random Theta.

    check_symplectic always passes; check_relations usually fails.
    """
    if shift is None:
        shift = rng.randint(-1, 3)
    space, omega = random_paired_space(rng, shift, max_dim)
    thetas = {}
    for n in range(1, max_arity + 1):
        form = random_symmetric_scalar_form(space, n + 1, rng,
                                            total_degree=n - shift)
        if form:
            thetas[n] = form
    return brackets_from_theta(space, omega, thetas), omega


def random_homogeneous_polynomial(ring, rng, max_arity=3, tries=8):
    """A polynomial whose monomials share one arity and one cohomological
    degree.  Generators are drawn with replacement, so even generators
    repeat and repeated odd ones kill their monomial."""
    k = rng.randint(1, max_arity)
    terms = {}
    degree = None
    for _ in range(tries):
        mono = tuple(rng.randrange(len(ring.names)) for _ in range(k))
        d = ring.monomial_degree(mono)
        if degree is None:
            degree = d
        if d == degree:
            terms[mono] = terms.get(mono, 0) + rng.choice((-2, -1, 1, 3))
    return Polynomial(ring, terms)


def seeded(seed):
    return random.Random(seed)
