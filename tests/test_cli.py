"""CLI: exit codes, report shape, determinism, command pipelines."""
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

import bvkit.boundary
import bvkit.centre
import bvkit.cli
import bvkit.polyvectors
import bvkit.theoryfile
from bvkit.cdga import laurent_dolbeault_model
from bvkit.cli import main
from bvkit.examples import (_poisson_entries, get_example, sl2_structure,
                            sl2_trace, wzw_splitting)
from bvkit.formal import Polynomial
from bvkit.polyvectors import poisson_from_symplectic
from bvkit.theoryfile import (TheoryFile, canonical_bracket_entries,
                              canonical_pairing_entries, realize, serialize)


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def sl2_text(**extra):
    g = sl2_structure()
    tr = sl2_trace(g.space)
    return serialize(TheoryFile(
        "sl2", "", {0: ("e", "f", "h")}, canonical_bracket_entries(g),
        symplectic=(2, canonical_pairing_entries(tr)), **extra))


def test_example_lists_names():
    res = run("example")
    assert res.exit_code == 0
    assert set(res.output.split()) == {
        "topological-mechanics", "poisson-sigma", "chern-simons",
        "wzw", "toda", "kw-b-twist"}


def test_example_unknown_name():
    res = run("example", "nope")
    assert res.exit_code == 2


def test_check_from_stdin():
    res = run("check", "-i", "-", input=sl2_text())
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert [c["name"] for c in doc["checks"]] == ["relations", "symplectic"]
    assert all(c["passed"] for c in doc["checks"])
    assert doc["truncation"] == {"max_arity": 2}
    assert len(doc["digest"]) == 64


def test_check_exit_1_with_witness_on_broken_jacobi():
    g = sl2_structure()
    ents = [(k, o, 3 if (k, o) == (("e", "h"), "e") else c)
            for k, o, c in canonical_bracket_entries(g)[2]]
    text = serialize(TheoryFile("sl2-broken", "", {0: ("e", "f", "h")},
                                {2: ents}))
    res = run("check", "-i", "-", input=text)
    assert res.exit_code == 1
    doc = json.loads(res.output)
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert failed and all(c["witnesses"] for c in failed)


def test_parse_error_exit_2():
    res = run("check", "-i", "-", input='{"schema": 1,\n  "space": }')
    assert res.exit_code == 2
    assert "line 2" in res.stderr


def test_missing_input_exit_2():
    assert run("check").exit_code == 2


def test_reports_deterministic(tmp_path):
    text = serialize(get_example("chern-simons"))
    docs = []
    for _ in range(2):
        res = run("check", "-i", "-", input=text)
        assert res.exit_code == 0
        doc = json.loads(res.output)
        doc.pop("timing_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def _chern_simons_doc():
    return json.loads(serialize(get_example("chern-simons")))


def _drop_symplectic_shift(doc):
    del doc["symplectic"]["shift"]


def _poisson_without_shift(doc):
    doc["poisson"] = {"components": {}}


def _word_bracket_arity(doc):
    doc["brackets"]["two"] = doc["brackets"].pop("2")


def _word_flag_arity(doc):
    doc["flags"] = {"two": [["e", "f"]]}


def _word_poisson_arity(doc):
    doc["poisson"] = {"shift": 1, "components": {"two": []}}


def _short_pairing_entry(doc):
    doc["symplectic"]["entries"].append(["e"])


def _unknown_flag_label(doc):
    doc["flags"] = {"2": [["e", "nope"]]}


def _unknown_model_derivation(doc):
    del doc["splitting"]
    doc["model"] = {"kind": "torus", "derivation": "nope"}


def _list_dz_twist(doc):
    del doc["splitting"]
    doc["model"]["dz_twist"] = ["e"]


def _dz_twist_without_dz(doc):
    del doc["splitting"]
    doc["model"]["dz_twist"] = "e"


def _fractional_shift(doc):
    doc["symplectic"]["shift"] = 2.5


def _boolean_shift(doc):
    doc["symplectic"]["shift"] = True


def _zero_bracket_arity(doc):
    doc["brackets"]["0"] = [[[], "e", "1"]]


def _unused_model_fields(doc):
    doc["model"].update({"window": 2.5, "colour": "red"})


def _window_outside_laurent(doc):
    doc["model"]["window"] = 2


@pytest.mark.parametrize("mutate", [
    _drop_symplectic_shift, _poisson_without_shift, _word_bracket_arity,
    _word_flag_arity, _word_poisson_arity, _short_pairing_entry,
    _unknown_flag_label, _unknown_model_derivation, _list_dz_twist,
    _dz_twist_without_dz, _fractional_shift, _boolean_shift,
    _zero_bracket_arity, _unused_model_fields, _window_outside_laurent])
@pytest.mark.parametrize("command", ["check", "boundary"])
def test_malformed_file_exit_2(command, mutate):
    doc = _chern_simons_doc()
    mutate(doc)
    res = run(command, "-i", "-", input=json.dumps(doc))
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("window", [2.5, 9, 100000, "12"])
def test_laurent_window_refused_exit_2(monkeypatch, window):
    """A fractional window is refused, not truncated, and a window above the
    cap of 8 is refused before any model is built."""
    def never(n):
        raise AssertionError(f"built a window-{n} model")
    monkeypatch.setattr(bvkit.theoryfile, "laurent_dolbeault_model", never)
    doc = json.loads(serialize(get_example("wzw")))
    doc["model"]["window"] = window
    res = run("check", "-i", "-", input=json.dumps(doc))
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stderr.startswith("error: model.window")


@pytest.mark.parametrize("table", [False, True])
def test_mismatched_pairing_blocks_exit_1(table):
    """chern-simons at shift 1 pairs degree d with degree 1 - d, whose
    blocks differ in dimension: exit 1 with nondegeneracy witnesses."""
    doc = _chern_simons_doc()
    doc["symplectic"]["shift"] = 1
    args = ["check", "-i", "-"] + (["--table"] if table else [])
    res = run(*args, input=json.dumps(doc))
    assert res.exit_code == 1, (res.output, res.exception)
    assert "Traceback" not in res.stderr
    witness = ["nondegeneracy",
               ["0", "paired block has a different dimension"]]
    if table:
        assert f"witness: {witness}" in res.output
    else:
        sym = json.loads(res.output)["checks"][1]
        assert sym["name"] == "symplectic" and not sym["passed"]
        assert witness in sym["witnesses"]


def test_check_broken_wzw_window_2_witnesses():
    """The wzw file on Laurent window 2 with [e, h] -> e scaled by 3/2: the
    relations witnesses, their count and the undecided count are pinned."""
    tf = get_example("wzw")
    tf.model = dict(tf.model, window=2)
    tf.splitting = wzw_splitting(laurent_dolbeault_model(2))
    doc = json.loads(serialize(tf))
    for ent in doc["brackets"]["2"]:
        if ent[0] == ["e", "h"] and ent[1] == "e":
            ent[2] = str(Fraction(ent[2]) * Fraction(3, 2))
    res = run("check", "-i", "-", input=json.dumps(doc))
    assert res.exit_code == 1, res.output
    rel = json.loads(res.output)["checks"][0]
    assert rel["name"] == "relations" and not rel["passed"]
    assert rel["witnesses"][0] == [
        "3", ["z-1w-1|e", "z-1w-1dw|f", "z0w0dz|h"], "z-2w-2dzdw|h", "1"]
    assert rel["witnesses"][-2:] == [
        "... 12534 more", "indeterminate (window-flagged) tuples: 478399"]


def test_output_flag(tmp_path):
    path = tmp_path / "report.json"
    res = run("check", "-i", "-", "-o", str(path), input=sl2_text())
    assert res.exit_code == 0 and res.output == ""
    assert json.loads(path.read_text())["command"] == "check"


def test_table_rendering():
    res = run("check", "-i", "-", "--table", input=sl2_text())
    assert res.exit_code == 0
    assert "[pass] relations" in res.output


def test_max_arity_refusal():
    res = run("check", "-i", "-", "--max-arity", "1", input=sl2_text())
    assert res.exit_code == 2


def test_boundary_requires_splitting():
    res = run("boundary", "-i", "-", input=sl2_text())
    assert res.exit_code == 2


def test_boundary_pipeline_chern_simons():
    text = serialize(get_example("chern-simons"))
    res = run("boundary", "-i", "-", input=text)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["outputs"]["piece_fiber_counts"] == [2]
    comps = doc["outputs"]["boundary_poisson"]["components"]
    assert list(comps) == ["2"]
    assert all(len(mono) == 3 for mono, _ in comps["2"])   # linear bivector


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_boundary_computes_action_and_symplectic_once(monkeypatch):
    action = _count_calls(monkeypatch, bvkit.boundary, "action_from_brackets")
    sympl = _count_calls(monkeypatch, bvkit.boundary, "check_symplectic")
    res = run("boundary", "-i", "-",
              input=serialize(get_example("chern-simons")))
    assert res.exit_code == 0, res.output
    assert len(action) == 1 and len(sympl) == 1


def test_boundary_non_invariant_pairing_exit_2():
    doc = _chern_simons_doc()
    doc["symplectic"]["entries"] = [
        [x, y, "3" if (x, y) == ("e", "f") else c]
        for x, y, c in doc["symplectic"]["entries"]]
    res = run("boundary", "-i", "-", input=json.dumps(doc))
    assert res.exit_code == 2
    assert "ambient pairing fails check_symplectic" in res.stderr


def test_centre_computes_poisson_residual_once(monkeypatch):
    reports = _count_calls(monkeypatch, bvkit.polyvectors, "PoissonReport")
    res = run("centre", "-i", "-",
              input=serialize(get_example("poisson-sigma")))
    assert res.exit_code == 0, res.output
    assert len(reports) == 1


def gl3_torus_text():
    """torus (x) gl_3 with the trace pairing and the Poisson section
    Pi_omega of its AKSZ pairing."""
    label = {(i, j): f"E{i}{j}" for i in range(3) for j in range(3)}
    basis = sorted(label)
    brackets = []
    for a, b in itertools.combinations(basis, 2):
        (i, j), (k, l) = a, b
        # [E_ij, E_kl] = d_jk E_il - d_li E_kj
        row = {}
        if j == k:
            row[(i, l)] = 1
        if l == i:
            row[(k, j)] = -1
        brackets += [((label[a], label[b]), label[o], c)
                     for o, c in row.items()]
    pairing = [(label[a], label[a[::-1]], 1) for a in basis if a <= a[::-1]]
    tf = TheoryFile("gl3-torus", "", {0: tuple(label[a] for a in basis)},
                    {2: brackets}, symplectic=(2, pairing),
                    model={"kind": "torus"})
    th = realize(tf)
    pbar = poisson_from_symplectic(th.algebra, th.omega)
    tf.poisson = (pbar.shift, _poisson_entries(pbar))
    return serialize(tf)


def test_centre_brackets_through_one_derivative_table(monkeypatch):
    """`centre` builds the Hamiltonian field of F = F_Q + Pi-bar from one
    table of F's derivatives and never differentiates generator by
    generator."""
    left = _count_calls(monkeypatch, Polynomial, "left_derivative")
    tables = []
    table = Polynomial._derivative_table

    def recorded(poly, right=False):
        tables.append(poly)
        return table(poly, right)
    monkeypatch.setattr(Polynomial, "_derivative_table", recorded)
    fields = []
    components = bvkit.centre.hamiltonian_components

    def recorded_field(F, tensor, labels):
        fields.append(F)
        return components(F, tensor, labels)
    monkeypatch.setattr(bvkit.centre, "hamiltonian_components",
                        recorded_field)
    res = run("centre", "-i", "-", input=gl3_torus_text())
    assert res.exit_code == 0, res.output
    assert left == []
    assert len(fields) == 1
    assert sum(1 for poly in tables if poly is fields[0]) == 1


@pytest.mark.parametrize("command,models", [("check", 1), ("centre", 1),
                                            ("bulk", 1), ("roundtrip", 3)])
def test_cotangent_models_per_command(monkeypatch, command, models):
    """Q is built on the cotangent model the caller holds.  On torus (x)
    gl_3 with Pi_omega, `check`, `centre` and `bulk` build only the model
    of the Poisson section; `roundtrip` adds the canonical splitting's and
    the triviality check's.  When structure_polyvector built a fresh model
    on every call, the counts were 2, 3, 3 and 7."""
    built = []
    init = bvkit.polyvectors.CotangentModel.__init__

    def counted(self, space, shift):
        built.append(shift)
        init(self, space, shift)
    text = gl3_torus_text()
    monkeypatch.setattr(bvkit.polyvectors.CotangentModel, "__init__",
                        counted)
    res = run(command, "-i", "-", input=text)
    assert res.exit_code == 0, res.output
    assert len(built) == models


def test_memory_error_exit_2(monkeypatch):
    """Running out of memory is an `error:` line and exit 2, never a
    traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(bvkit.cli, "check_relations", exhausted)
    for fmt in ("--json", "--table"):
        res = run("check", "-i", "-", fmt, input=sl2_text())
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "memory" in res.stderr and "Traceback" not in res.stderr


def _report_sha(res):
    doc = json.loads(res.output)
    del doc["timing_ms"]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


# sha256 of each report without its timing, recorded before the Poisson
# kernel contracted derivative tables
PINNED_REPORTS = {
    ("gl3-torus", "bulk"):
        "89a2549bd32cffb8bb6cee7dd3f03e2b8fca9e24a584445358b4e8c1b95791e9",
    ("gl3-torus", "centre"):
        "a7417ffa355dabd6289378017d0884651a2e76d6abf271cf2c55f5a38a27eb84",
    ("gl3-torus", "roundtrip"):
        "4ef8b1269b069c4cbe8de22ed5f51117182974d0ef8217b4417cec21a0f8451a",
    ("poisson-sigma", "bulk"):
        "8332b1cf3f47283e84e91d9431de7f655fc29455979de5fbf1241881f02d0fff",
    ("poisson-sigma", "centre"):
        "9dd4615c056a24695fdd3bc3d202f7f8e0cb32500e2e4596d69fb5ab60679eeb",
    ("poisson-sigma", "roundtrip"):
        "49f9a126a6019537a4b87b283295d1055e128b4fc373d00d6b2a5099e367c119",
}


@pytest.mark.parametrize("name, command", sorted(PINNED_REPORTS))
def test_centre_reports_pinned(name, command):
    text = gl3_torus_text() if name == "gl3-torus" else \
        serialize(get_example(name))
    res = run(command, "-i", "-", input=text)
    assert res.exit_code == 0, res.output
    assert _report_sha(res) == PINNED_REPORTS[(name, command)]


# sha256 of the boundary reports without their timing, and of one failing
# check whose nondegeneracy witnesses are kernel vectors, recorded before the
# elimination kernel went sparse
PINNED_BOUNDARY_REPORTS = {
    "chern-simons":
        "b0b22d517f3a2cbcd814f473bd45b3d6e6c1346550c0d59c42c6b1e7bfbcec3a",
    "toda":
        "1e03f84b5d45e635bac08deca4b7d1ce5e484432848bdd66223272f105c7e36c",
    "wzw":
        "8987d72a31acd060baeb258bbe732412990f4cc37fd6a3d6400f7d9d778248c2",
}


@pytest.mark.parametrize("name", sorted(PINNED_BOUNDARY_REPORTS))
def test_boundary_reports_pinned(name):
    res = run("boundary", "-i", "-", input=serialize(get_example(name)))
    assert res.exit_code == 0, res.output
    assert _report_sha(res) == PINNED_BOUNDARY_REPORTS[name]


def test_degenerate_pairing_report_pinned():
    """chern-simons with omega(e, h) = omega(f, h) = 1 added: every degree
    block of the AKSZ pairing has the kernel vector -e - f + h, and the
    splitting pairing is singular."""
    doc = _chern_simons_doc()
    doc["symplectic"]["entries"] += [["e", "h", "1"], ["f", "h", "1"]]
    res = run("check", "-i", "-", input=json.dumps(doc))
    assert res.exit_code == 1, res.output
    sym = json.loads(res.output)["checks"][1]
    assert ["nondegeneracy", ["1", [["a|e", "-1"], ["a|f", "-1"],
                                    ["a|h", "1"]]]] in sym["witnesses"]
    assert _report_sha(res) == \
        "11d16cf4ef1f5990b75c3c79543d66b9cc8abc14ba0a075630cdc12c3e8beb70"


def test_boundary_failing_splitting_exit_1():
    text = sl2_text(splitting=(("e",), ("f", "h")))
    res = run("boundary", "-i", "-", input=text)
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["checks"][0]["name"] == "splitting"
    assert doc["checks"][0]["witnesses"]


def test_empty_splitting_on_empty_theory():
    text = serialize(TheoryFile("empty", "", {}, {}, symplectic=(1, []),
                                splitting=((), ())))
    res = run("boundary", "-i", "-", input=text)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["outputs"]["boundary_poisson"]["components"] == {}


def test_centre_bulk_roundtrip_poisson_sigma():
    text = serialize(get_example("poisson-sigma"))
    centre = run("centre", "-i", "-", input=text)
    assert centre.exit_code == 0
    doc = json.loads(centre.output)
    assert doc["outputs"]["centre_pairing"]["shift"] == 1
    assert sorted(doc["outputs"]["centre_space"]) == ["0", "1"]
    bulk = run("bulk", "-i", "-", input=text)
    assert bulk.exit_code == 0
    assert json.loads(bulk.output)["outputs"]["bulk_shift"] == 0
    rt = run("roundtrip", "-i", "-", input=text)
    assert rt.exit_code == 0
    rdoc = json.loads(rt.output)
    assert [c["name"] for c in rdoc["checks"]] == \
        ["homotopy-poisson", "roundtrip"]


def test_roundtrip_includes_triviality_when_symplectic():
    # sl2 with trace and its inverse bivector: centre is acyclic
    from bvkit.polyvectors import poisson_from_symplectic
    from bvkit.examples import _poisson_entries
    g = sl2_structure()
    tr = sl2_trace(g.space)
    pbar = poisson_from_symplectic(g, tr)
    text = serialize(TheoryFile(
        "sl2-nondegenerate", "", {0: ("e", "f", "h")},
        canonical_bracket_entries(g),
        symplectic=(2, canonical_pairing_entries(tr)),
        poisson=(pbar.model.shift, _poisson_entries(pbar))))
    res = run("roundtrip", "-i", "-", input=text)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert [c["name"] for c in doc["checks"]] == \
        ["homotopy-poisson", "roundtrip", "triviality"]
    assert set(doc["outputs"]["centre_cohomology"].values()) == {0}


def test_centre_rejects_non_poisson_as_failing_check():
    # a non-invariant bivector: ran, failed -> exit 1 with witnesses
    text = serialize(TheoryFile(
        "sl2-bad", "", {0: ("e", "f", "h")},
        canonical_bracket_entries(sl2_structure()),
        poisson=(3, {2: [(("e*", "h*"), 1)]})))
    res = run("centre", "-i", "-", input=text)
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["checks"] == [{"name": "homotopy-poisson", "passed": False,
                              "witnesses": doc["checks"][0]["witnesses"]}]
    assert doc["checks"][0]["witnesses"]


def test_example_pipes_into_boundary():
    res = run("example", "topological-mechanics")
    assert res.exit_code == 0
    piped = run("boundary", "-i", "-", input=res.output)
    assert piped.exit_code == 0
