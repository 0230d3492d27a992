"""Theory description files: a versioned JSON schema with exact rationals.

A file declares a graded space with sparse bracket entries and, optionally, a
symplectic pairing, a cdga-model tensor recipe, a Lagrangian splitting, and a
Poisson structure.  Scalars are serialized as "p/q" strings -- no floats
anywhere.  serialize() writes a canonical form (sorted keys, sorted entry
lists), so parse . serialize is the identity on canonical files and
serialize . parse is the identity on parse results.

With a "model" recipe the declared algebra is the *coefficient* factor: the
realized theory is model (x) algebra with the AKSZ pairing, an optional
second derivation folded into l_1, and an optional dz-valued adjoint twist
l_1 += dz ^ . (x) [w, -] for a declared coefficient label w.
"""

import json
from fractions import Fraction

from .cdga import (aksz_symplectic, interval_model, laurent_dolbeault_model,
                   point_model, split_label, tensor_label, tensor_linfty,
                   torus_model)
from .errors import InputError
from .graded import GradedVectorSpace, MultilinearMap, SYM_GRADED
from .linfty import LInftyStructure
from .polyvectors import (CotangentModel, HomotopyPoissonStructure,
                          PolyvectorField)
from .symplectic import ShiftedSymplecticStructure

SCHEMA = 1
# the Laurent window radius N gives a model of dimension 16 N^2, and every
# tensor built on it grows with a power of that; larger windows are refused
# before anything is built
MAX_LAURENT_WINDOW = 8


def scalar_str(c):
    return str(Fraction(c))


def parse_scalar(s, where):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: invalid rational {s!r}") from None


class TheoryFile:
    """Structured content of a theory description."""

    def __init__(self, name, description, space, brackets, flags=None,
                 symplectic=None, model=None, splitting=None, poisson=None):
        self.name = name
        self.description = description
        self.space = space              # {degree: [labels]}
        self.brackets = brackets        # {arity: [(key tuple, out, Fraction)]}
        self.flags = flags or {}        # {arity: [key tuples]}
        self.symplectic = symplectic    # (shift, [(x, y, Fraction)]) or None
        self.model = model              # dict recipe or None
        self.splitting = splitting      # (plus tuple, minus tuple) or None
        self.poisson = poisson          # (shift, {j: [(label tuple, Fraction)]})

    def __eq__(self, other):
        return isinstance(other, TheoryFile) and \
            serialize(self) == serialize(other)

    def __repr__(self):
        return f"TheoryFile({self.name!r})"


def _build_model(recipe):
    kind = recipe.get("kind")
    if kind == "point":
        return point_model()
    if kind == "interval":
        return interval_model()
    if kind == "torus":
        return torus_model()
    if kind == "laurent":
        window = _int(recipe.get("window", 2), "model.window")
        if window > MAX_LAURENT_WINDOW:
            raise InputError(
                f"model.window {window} is above the cap "
                f"{MAX_LAURENT_WINDOW} (model dimension "
                f"{16 * MAX_LAURENT_WINDOW ** 2})")
        return laurent_dolbeault_model(window)
    raise InputError(f"unknown model kind {kind!r}")


def connection_tensor(model, alg, derivation=None, dz_twist=None):
    """model (x) alg with extra l_1 terms beyond the model differential.

    derivation: name of a second model derivation D, added as D (x) 1;
    dz_twist: a coefficient label w, adding u (x) x -> dz ^ u (x) [w, x],
    i.e. (-1)^|u| (u . dz) (x) b_2(w, x).  Window-escaping derivatives are
    flagged like the model differential.
    """
    if derivation is not None and (not isinstance(derivation, str)
                                   or derivation not in model.derivations):
        raise InputError(
            f"derivation {derivation!r} is not a derivation of "
            f"{model.name or 'the model'}; available: "
            f"{sorted(model.derivations)}")
    if dz_twist is not None and not isinstance(dz_twist, str):
        raise InputError(f"dz_twist {dz_twist!r} is not a label string")
    if dz_twist is not None and "z0w0dz" not in model.space:
        raise InputError(f"dz_twist needs the form z0w0dz, which "
                         f"{model.name or 'the model'} does not have")
    t = tensor_linfty(model, alg)
    if derivation is None and dz_twist is None:
        return t
    b1 = t.brackets.get(1)
    coeffs = {k: dict(v) for k, v in (b1.coefficients if b1 else {}).items()}
    flags = set(b1.flags if b1 else ())
    sp = t.space
    twist = {}
    if dz_twist is not None:
        if dz_twist not in alg.space:
            raise InputError(f"dz_twist label {dz_twist!r} is not a "
                             "coefficient basis label")
        b2 = alg.brackets.get(2)
        for x in alg.space.labels:
            row = b2.coefficients.get((dz_twist, x)) if b2 else None
            if row:
                twist[x] = row

    def add(key, out, c):
        if c:
            row = coeffs.setdefault(key, {})
            row[out] = row.get(out, 0) + c
            if not row[out]:
                del row[out]

    for lab in sp.labels:
        a, x = split_label(lab)
        if derivation is not None:
            da, fl = model.derivation(derivation, {a: 1})
            if fl:
                flags.add((lab,))
            for b, c in da.items():
                add((lab,), tensor_label(b, x), c)
        if twist:
            adz, fl = model.product({a: 1}, {"z0w0dz": 1})
            if fl:
                flags.add((lab,))
            s = -1 if model.degree(a) % 2 else 1
            for b, cb in adz.items():
                for y, cy in twist.get(x, {}).items():
                    add((lab,), tensor_label(b, y), s * cb * cy)
    coeffs = {k: v for k, v in coeffs.items() if v}
    brackets = dict(t.brackets)
    if coeffs or flags:
        brackets[1] = MultilinearMap((sp,), sp, 1, coeffs, SYM_GRADED, 1,
                                     tuple(sorted(flags)))
    return LInftyStructure(sp, brackets)


class RealizedTheory:
    """The objects a theory file denotes: algebra, pairing, splitting,
    Poisson structure (whichever are declared)."""

    def __init__(self, tf, algebra, omega, splitting, poisson):
        self.file = tf
        self.algebra = algebra
        self.omega = omega
        self.splitting = splitting
        self.poisson = poisson


def realize(tf):
    from .boundary import LagrangianSplitting
    space = GradedVectorSpace(tf.space)
    entries = {n: [(key, out, c) for key, out, c in ents]
               for n, ents in tf.brackets.items()}
    flags = {n: [tuple(k) for k in keys] for n, keys in tf.flags.items()}
    base = LInftyStructure.from_entries(space, entries, flags=flags)
    omega = None
    if tf.symplectic is not None:
        shift, ents = tf.symplectic
        omega = ShiftedSymplecticStructure(
            space, shift, {(x, y): c for x, y, c in ents})
    if tf.model is not None:
        model = _build_model(tf.model)
        algebra = connection_tensor(model, base,
                                    derivation=tf.model.get("derivation"),
                                    dz_twist=tf.model.get("dz_twist"))
        if omega is not None:
            omega = aksz_symplectic(model, omega)
    else:
        algebra = base
    splitting = None
    if tf.splitting is not None:
        if omega is None:
            raise InputError("a splitting requires a symplectic section")
        plus, minus = tf.splitting
        splitting = LagrangianSplitting(algebra, omega, plus, minus)
    poisson = None
    if tf.poisson is not None:
        shift, comps = tf.poisson
        cmodel = CotangentModel(algebra.space, shift)
        ring = cmodel.ring
        by_j = {}
        for j, terms in comps.items():
            poly = ring.zero()
            for labels, c in terms:
                term = None
                for lab in labels:
                    g = ring.generator(lab)
                    term = g if term is None else term * g
                if term is None:
                    raise InputError("empty Poisson monomial")
                poly = poly + term.scale(c)
            by_j[j] = PolyvectorField(cmodel, poly)
        poisson = HomotopyPoissonStructure(cmodel, by_j)
    return RealizedTheory(tf, algebra, omega, splitting, poisson)


# ---------------------------------------------------------------------------
# canonical (de)serialization


def canonical_bracket_entries(alg):
    """One representative per symmetric orbit: keys already in canonical
    (space) order, entries sorted."""
    space = alg.space
    out = {}
    for n, m in alg.brackets.items():
        ents = []
        for key, row in m.coefficients.items():
            if key != space.sort_labels(key):
                continue
            for o, c in row.items():
                ents.append((key, o, c))
        if ents or m.flags:
            out[n] = sorted(ents)
    return out


def canonical_flags(alg):
    space = alg.space
    out = {}
    for n, m in alg.brackets.items():
        keys = sorted({space.sort_labels(k) for k in m.flags})
        if keys:
            out[n] = keys
    return out


def canonical_pairing_entries(omega):
    space = omega.space
    ents = []
    for (x, y), c in omega.entries.items():
        if (space.index(x), space.index(y)) <= (space.index(y), space.index(x)):
            ents.append((x, y, c))
    return sorted(ents)


def serialize(tf):
    doc = {
        "schema": SCHEMA,
        "name": tf.name,
        "description": tf.description,
        "space": {str(d): list(labs) for d, labs in sorted(tf.space.items())},
        "brackets": {str(n): sorted([list(k), o, scalar_str(c)]
                                    for k, o, c in ents)
                     for n, ents in sorted(tf.brackets.items())},
    }
    if tf.flags:
        doc["flags"] = {str(n): sorted(list(k) for k in keys)
                        for n, keys in sorted(tf.flags.items())}
    if tf.symplectic is not None:
        shift, ents = tf.symplectic
        doc["symplectic"] = {
            "shift": shift,
            "entries": sorted([x, y, scalar_str(c)] for x, y, c in ents)}
    if tf.model is not None:
        doc["model"] = {k: v for k, v in sorted(tf.model.items())
                        if v is not None}
    if tf.splitting is not None:
        plus, minus = tf.splitting
        doc["splitting"] = {"plus": list(plus), "minus": list(minus)}
    if tf.poisson is not None:
        shift, comps = tf.poisson
        doc["poisson"] = {
            "shift": shift,
            "components": {str(j): sorted([list(k), scalar_str(c)]
                                          for k, c in terms)
                           for j, terms in sorted(comps.items())}}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _require(cond, msg):
    if not cond:
        raise InputError(msg)


def _int(value, where):
    """An int (not a bool) or an integer string such as "-2"; anything else,
    2.5 or "2.5" included, is refused rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{where}: {value!r} is not an integer")


def _arity(value, where):
    n = _int(value, where)
    _require(n >= 1, f"{where}: {n} is below 1")
    return n


def _obj(value, where):
    _require(isinstance(value, dict), f"{where} must be an object")
    return value


def _rows(rows, width, where, shape):
    """rows must be a list of `width`-element lists; returns it."""
    _require(isinstance(rows, list), f"{where}: expected a list of entries")
    for r in rows:
        _require(isinstance(r, list) and len(r) == width,
                 f"{where}: entry {r!r} is not {shape}")
    return rows


def _labels(labels, where, known=None):
    """A list of label strings (each in `known`, when given) as a tuple."""
    what = "labels" if known is None else "labels declared in 'space'"
    _require(isinstance(labels, list) and all(
        isinstance(l, str) and (known is None or l in known)
        for l in labels), f"{where}: {labels!r} is not a list of {what}")
    return tuple(labels)


def _shifted(doc, name):
    """A section carrying an integer 'shift': (section, shift)."""
    sec = _obj(doc[name], f"'{name}'")
    _require("shift" in sec, f"{name}: missing 'shift'")
    return sec, _int(sec["shift"], f"{name}.shift")


def parse(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not valid JSON: line {e.lineno}, column {e.colno}: "
                         f"{e.msg}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema") == SCHEMA,
             f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA}")
    _require(isinstance(doc.get("space"), dict), "missing 'space' object")
    space = {}
    for d, labs in doc["space"].items():
        space[_int(d, "space: degree")] = _labels(labs, f"space[{d}]")
    known = {l for labs in space.values() for l in labs}
    brackets = {}
    for n, ents in _obj(doc.get("brackets") or {}, "'brackets'").items():
        rows = []
        for key, out, c in _rows(ents, 3, f"brackets[{n}]",
                                 "[key, out, coeff]"):
            _require(isinstance(out, str) and out in known,
                     f"brackets[{n}]: unknown label {out!r}")
            rows.append((_labels(key, f"brackets[{n}]", known), out,
                         parse_scalar(c, f"brackets[{n}]")))
        brackets[_arity(n, "brackets: arity")] = rows
    flags = {}
    for n, keys in _obj(doc.get("flags") or {}, "'flags'").items():
        _require(isinstance(keys, list), f"flags[{n}]: expected a list")
        flags[_arity(n, "flags: arity")] = [
            _labels(k, f"flags[{n}]", known) for k in keys]
    symplectic = None
    if "symplectic" in doc:
        sec, shift = _shifted(doc, "symplectic")
        ents = [(x, y, parse_scalar(c, "symplectic"))
                for x, y, c in _rows(sec.get("entries", []), 3, "symplectic",
                                     "[x, y, coeff]")]
        symplectic = (shift, ents)
    model = doc.get("model")
    _require(model is None or isinstance(model, dict),
             "'model' must be an object")
    splitting = None
    if "splitting" in doc:
        sec = _obj(doc["splitting"], "'splitting'")
        splitting = (_labels(sec.get("plus", []), "splitting.plus"),
                     _labels(sec.get("minus", []), "splitting.minus"))
    poisson = None
    if "poisson" in doc:
        sec, shift = _shifted(doc, "poisson")
        comps = {}
        for j, terms in _obj(sec.get("components") or {},
                             "poisson.components").items():
            comps[_int(j, "poisson: arity")] = [
                (_labels(k, f"poisson[{j}]"), parse_scalar(c, "poisson"))
                for k, c in _rows(terms, 2, f"poisson[{j}]",
                                  "[labels, coeff]")]
        poisson = (shift, comps)
    return TheoryFile(doc.get("name", ""), doc.get("description", ""),
                      space, brackets, flags, symplectic, model, splitting,
                      poisson)
