"""Theory file schema: parse/serialize identities, realization, errors."""
import json
from fractions import Fraction

import pytest

from bvkit.cdga import laurent_dolbeault_model, tensor_label
from bvkit.errors import InputError
from bvkit.examples import EXAMPLES, get_example, sl2_structure, sl2_trace
from bvkit.graded import GradedVectorSpace
from bvkit.linfty import LInftyStructure, check_relations
from bvkit.symplectic import check_symplectic
from bvkit.theoryfile import (TheoryFile, _int, canonical_bracket_entries,
                              canonical_pairing_entries, connection_tensor,
                              parse, realize, serialize)


def sl2_file(**extra):
    g = sl2_structure()
    tr = sl2_trace(g.space)
    return TheoryFile("sl2", "test fixture", {0: ("e", "f", "h")},
                      canonical_bracket_entries(g),
                      symplectic=(2, canonical_pairing_entries(tr)), **extra)


def test_serialize_parse_identity_on_builtins():
    for name in EXAMPLES:
        tf = get_example(name)
        text = serialize(tf)
        again = parse(text)
        assert serialize(again) == text, name
        assert again == tf, name


def test_serialized_form_is_canonical_json():
    text = serialize(sl2_file())
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == text


def test_rational_scalars():
    tf = sl2_file()
    tf.brackets[2][0] = (tf.brackets[2][0][0], tf.brackets[2][0][1],
                         Fraction(1, 3))
    text = serialize(tf)
    assert '"1/3"' in text
    assert parse(text).brackets[2][0][2] == Fraction(1, 3)


def test_parse_rejects_bad_scalar():
    text = serialize(sl2_file()).replace('"1"', '"one"', 1)
    with pytest.raises(InputError):
        parse(text)


def test_parse_rejects_unknown_label():
    text = serialize(sl2_file()).replace('"h"', '"nope"', 1)
    with pytest.raises(InputError) as err:
        parse(text)
    assert "nope" in str(err.value)


def test_parse_rejects_wrong_schema():
    text = serialize(sl2_file()).replace('"schema": 1', '"schema": 7')
    with pytest.raises(InputError):
        parse(text)


def test_parse_reports_line_and_column():
    with pytest.raises(InputError) as err:
        parse('{"schema": 1,\n  "space": }')
    assert "line 2" in str(err.value)


def test_realize_plain_structure():
    th = realize(sl2_file())
    assert check_relations(th.algebra).passed
    assert check_symplectic(th.algebra, th.omega).passed
    assert th.splitting is None and th.poisson is None


def test_realize_splitting_needs_symplectic():
    tf = sl2_file()
    tf.symplectic = None
    tf.splitting = (("e",), ("f", "h"))
    with pytest.raises(InputError):
        realize(tf)


def test_realize_model_recipe():
    tf = sl2_file(model={"kind": "torus"})
    th = realize(tf)
    assert th.algebra.space.dim == 12
    assert th.omega.shift == 0
    assert check_relations(th.algebra).passed
    assert check_symplectic(th.algebra, th.omega).passed


def test_realize_unknown_model_kind():
    with pytest.raises(InputError):
        realize(sl2_file(model={"kind": "sphere"}))


def test_realize_poisson_section():
    tf = TheoryFile("plane", "", {1: ("q1", "q2")}, {},
                    poisson=(1, {2: [(("q1*", "q2*"), 1)]}))
    th = realize(tf)
    assert th.poisson is not None
    assert list(th.poisson.components) == [2]
    assert th.poisson.model.shift == 1


def test_flags_roundtrip():
    V = GradedVectorSpace({0: ["a"], 1: ["b"]})
    alg = LInftyStructure.from_entries(V, {1: [(("a",), "b", 1)]},
                                       flags={1: [("b",)]})
    tf = TheoryFile("flagged", "", {0: ("a",), 1: ("b",)},
                    canonical_bracket_entries(alg),
                    flags={1: [("b",)]})
    again = parse(serialize(tf))
    assert again.flags == {1: [("b",)]}
    assert realize(again).algebra.is_flagged()


def test_connection_tensor_full_differential():
    # adding the second derivation keeps l1^2 = 0 and the pairing invariant
    m = laurent_dolbeault_model(2)
    g = sl2_structure()
    t = connection_tensor(m, g, derivation="del")
    assert check_relations(t).passed
    plain = connection_tensor(m, g)
    b1 = t.brackets[1]
    # del contributes: d(z-1w0|e) now contains the dz direction
    row = b1.coefficients.get((tensor_label("z-1w0", "e"),), {})
    assert any("dz" in o for o in row)
    assert plain.brackets[1].coefficients != b1.coefficients


def test_connection_tensor_dz_twist():
    m = laurent_dolbeault_model(2)
    g = sl2_structure()
    t = connection_tensor(m, g, derivation="del", dz_twist="f")
    assert check_relations(t).passed
    # [f, h] = 2f lands in the dz directions
    row = t.brackets[1].coefficients.get((tensor_label("z0w0", "h"),), {})
    assert row.get(tensor_label("z0w0dz", "f")) == 2


def test_connection_tensor_rejects_unknown_twist_label():
    m = laurent_dolbeault_model(2)
    g = sl2_structure()
    with pytest.raises(InputError):
        connection_tensor(m, g, dz_twist="nope")


def test_int_accepts_ints_and_integer_strings_only():
    assert _int(3, "w") == 3
    assert _int("-2", "w") == -2
    for bad in (True, 2.5, 3.0, "2.5", "two", None, [3]):
        with pytest.raises(InputError):
            _int(bad, "w")

