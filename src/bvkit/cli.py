"""Command-line workbench over theory description files.

    bvkit check      -i FILE    run every applicable validator
    bvkit boundary   -i FILE    splitting checks, action decomposition,
                                boundary Poisson structure
    bvkit centre     -i FILE    twisted cotangent of a declared Poisson
                                structure
    bvkit bulk       -i FILE    universal bulk of a declared Poisson
                                structure
    bvkit roundtrip  -i FILE    bulk-then-boundary identity; plus the
                                triviality (acyclicity) check when the file
                                is symplectic
    bvkit example NAME          print a builtin theory file

Reports are JSON (default) or a plain table, written to stdout or --output.
Exit status: 0 all checks passed, 1 at least one check failed, 2 the input
could not be processed (running out of memory included).  Failed checks
always carry witnesses.  Checks run one after another in their declared
order, and reports are deterministic for a given input up to the timing
field.
"""

import hashlib
import json
import sys
import time

import click

from . import theoryfile
from .boundary import boundary_theory, check_splitting, decompose_action
from .centre import roundtrip_check, triviality_check, twisted_cotangent, universal_bulk
from .errors import InputError, StructureError
from .examples import EXAMPLES, get_example
from .linfty import check_relations
from .polyvectors import check_homotopy_poisson
from .symplectic import check_symplectic
from .theoryfile import (canonical_bracket_entries, canonical_pairing_entries,
                         scalar_str)


def _sc(c):
    return scalar_str(c)


def _witness(item):
    if isinstance(item, (list, tuple)):
        return [_witness(x) for x in item]
    if isinstance(item, str):
        return item
    return _sc(item)


MAX_WITNESSES = 10


def _clip(items):
    out = [_witness(w) for w in list(items)[:MAX_WITNESSES]]
    more = len(items) - len(out)
    if more > 0:
        out.append(f"... {more} more")
    return out


def relations_witnesses(rep):
    ws = _clip(rep.violations)
    if rep.indeterminate:
        ws.append(f"indeterminate (window-flagged) tuples: "
                  f"{len(rep.indeterminate)}")
    return ws


def symplectic_witnesses(rep):
    # a block paired with one of another dimension has no kernel vector
    nondegeneracy = [(d, "paired block has a different dimension")
                     if vec is None else (d, vec)
                     for d, vec in rep.nondegeneracy_witnesses]
    ws = []
    for name, items in (("degree", rep.degree_violations),
                        ("symmetry", rep.symmetry_violations),
                        ("nondegeneracy", nondegeneracy),
                        ("invariance", rep.invariance_violations)):
        for w in _clip(items):
            ws.append([name, w] if isinstance(w, str) else [name] + [w])
    return ws


def poisson_witnesses(rep):
    ws = []
    for bi in sorted(rep.residuals):
        res = rep.residuals[bi]
        ws.append([list(bi), f"{len(res)} residual monomials"])
        if len(ws) >= MAX_WITNESSES:
            break
    return ws


def splitting_witnesses(rep):
    ws = []
    for name, items in (("complementarity", rep.complementarity),
                        ("isotropy", rep.isotropy),
                        ("closure", rep.closure.violations),
                        ("pairing", rep.pairing)):
        for w in _clip(items):
            ws.append([name, _witness(w)])
    return ws


def brackets_json(alg):
    ents = canonical_bracket_entries(alg)
    return {str(n): sorted([list(k), o, _sc(c)] for k, o, c in rows)
            for n, rows in sorted(ents.items())}


def pairing_json(omega):
    return {"shift": omega.shift,
            "entries": sorted([x, y, _sc(c)]
                              for x, y, c in canonical_pairing_entries(omega))}


def poisson_json(pbar):
    comps = {}
    for j, pv in sorted(pbar.components.items()):
        terms = []
        for mono, c in pv.poly.terms.items():
            terms.append([[pv.model.ring.names[i] for i in mono], _sc(c)])
        comps[str(j)] = sorted(terms)
    return {"shift": pbar.model.shift, "components": comps}


def space_json(space):
    return {str(d): list(space.component(d)) for d in sorted(space.components)}


class CliReport:
    def __init__(self, command, name, digest):
        self.doc = {"command": command, "input": name, "digest": digest,
                    "checks": [], "outputs": {}, "truncation": {},
                    "timing_ms": 0}

    def add_check(self, name, passed, witnesses):
        assert passed or witnesses, "a failed check must carry a witness"
        self.doc["checks"].append(
            {"name": name, "passed": bool(passed),
             "witnesses": witnesses if not passed else []})

    @property
    def passed(self):
        return all(c["passed"] for c in self.doc["checks"])

    def render(self, table):
        if not table:
            return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"
        lines = [f"command: {self.doc['command']}",
                 f"input:   {self.doc['input']}",
                 f"digest:  {self.doc['digest']}"]
        for c in self.doc["checks"]:
            lines.append(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
            for w in c["witnesses"]:
                lines.append(f"         witness: {w}")
        for key, val in sorted(self.doc["outputs"].items()):
            lines.append(f"  {key}: {json.dumps(val, sort_keys=True)}")
        if self.doc["truncation"]:
            lines.append(f"  truncation: "
                         f"{json.dumps(self.doc['truncation'], sort_keys=True)}")
        lines.append(f"  timing_ms: {self.doc['timing_ms']}")
        return "\n".join(lines) + "\n"


def load_theory(path):
    if path is None:
        raise InputError("--input is required for this command")
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}") from None
    tf = theoryfile.parse(text)
    digest = hashlib.sha256(
        theoryfile.serialize(tf).encode("utf-8")).hexdigest()
    return tf, digest


def _arity_bounds(report, th, max_arity, max_polyvector):
    arities = sorted(th.algebra.brackets)
    top = max(arities, default=0)
    if max_arity is not None and top > max_arity:
        raise InputError(f"structure has arity-{top} brackets, above "
                         f"--max-arity {max_arity}")
    report.doc["truncation"]["max_arity"] = \
        top if max_arity is None else max_arity
    if th.poisson is not None:
        top_j = max(th.poisson.components, default=0)
        if max_polyvector is not None and top_j > max_polyvector:
            raise InputError(f"Poisson structure has a {top_j}-vector "
                             f"component, above --max-polyvector "
                             f"{max_polyvector}")
        report.doc["truncation"]["max_polyvector"] = \
            top_j if max_polyvector is None else max_polyvector


def cmd_check(report, th, max_polyvector):
    report.add_check("relations", *_do_relations(th.algebra))
    if th.omega is not None:
        report.add_check("symplectic", *_do_symplectic(th))
    if th.splitting is not None:
        report.add_check("splitting", *_do_splitting(th.splitting))
    if th.poisson is not None:
        report.add_check("homotopy-poisson", *_do_poisson(th))
    report.doc["outputs"]["space"] = space_json(th.algebra.space)


def _do_relations(alg):
    rep = check_relations(alg)
    return rep.passed, relations_witnesses(rep)


def _do_symplectic(th):
    rep = check_symplectic(th.algebra, th.omega)
    return rep.passed, symplectic_witnesses(rep)


def _do_splitting(s):
    rep = check_splitting(s)
    return rep.passed, splitting_witnesses(rep)


def _do_poisson(th):
    rep = check_homotopy_poisson(th.algebra, th.poisson)
    return rep.passed, poisson_witnesses(rep)


def cmd_boundary(report, th, max_polyvector):
    if th.splitting is None:
        raise InputError("this command needs a 'splitting' section")
    s = th.splitting
    rep = check_splitting(s)
    report.add_check("splitting", rep.passed, splitting_witnesses(rep))
    if not rep.passed:
        return
    on_flags = "drop" if th.algebra.is_flagged() else "error"
    pieces = decompose_action(s, max_j=max_polyvector, on_flags=on_flags)
    try:
        bt = boundary_theory(s, on_flags=on_flags)
    except StructureError as e:
        report.add_check("decomposition", False, [str(e)])
        return
    report.add_check("decomposition", True, [])
    report.doc["truncation"]["max_polyvector"] = \
        len(pieces) - 1 if max_polyvector is None else max_polyvector
    report.doc["outputs"]["piece_fiber_counts"] = \
        [j for j, p in enumerate(pieces) if not p.is_zero()]
    report.doc["outputs"]["boundary_space"] = space_json(s.plus_space)
    report.doc["outputs"]["boundary_brackets"] = brackets_json(bt.algebra)
    report.doc["outputs"]["boundary_poisson"] = poisson_json(bt.poisson)


def _need_poisson(th):
    if th.poisson is None:
        raise InputError("this command needs a 'poisson' section")


def _poisson_gate(report, th):
    """Record the homotopy-Poisson check; True when assembly may proceed."""
    passed, ws = _do_poisson(th)
    report.add_check("homotopy-poisson", passed, ws)
    return passed


def cmd_centre(report, th, max_polyvector):
    _need_poisson(th)
    if not _poisson_gate(report, th):
        return
    tc = twisted_cotangent(th.algebra, th.poisson)
    report.doc["outputs"]["centre_space"] = space_json(tc.algebra.space)
    report.doc["outputs"]["centre_brackets"] = brackets_json(tc.algebra)
    report.doc["outputs"]["centre_pairing"] = pairing_json(tc.omega)


def cmd_bulk(report, th, max_polyvector):
    _need_poisson(th)
    if not _poisson_gate(report, th):
        return
    bulk = universal_bulk(th.algebra, th.poisson)
    report.doc["outputs"]["bulk_shift"] = bulk.omega.shift
    report.doc["outputs"]["bulk_space"] = space_json(bulk.algebra.space)
    report.doc["outputs"]["bulk_brackets"] = brackets_json(bulk.algebra)
    report.doc["outputs"]["bulk_pairing"] = pairing_json(bulk.omega)


def cmd_roundtrip(report, th, max_polyvector):
    _need_poisson(th)
    if not _poisson_gate(report, th):
        return
    rep = roundtrip_check(th.algebra, th.poisson)
    ws = []
    if not rep.passed:
        ws = [["bracket arities", _witness(rep.bracket_mismatches)],
              ["polyvector weights", _witness(rep.poisson_mismatches)]]
    report.add_check("roundtrip", rep.passed, ws)
    if th.omega is not None:
        arep = triviality_check(th.algebra, th.omega)
        nonzero = {str(d): k for d, k in sorted(arep.cohomology.items()) if k}
        report.add_check("triviality", arep.passed,
                         [["cohomology", nonzero]] if not arep.passed else [])
        report.doc["outputs"]["centre_cohomology"] = \
            {str(d): k for d, k in sorted(arep.cohomology.items())}


COMMANDS = {"check": cmd_check, "boundary": cmd_boundary,
            "centre": cmd_centre, "bulk": cmd_bulk,
            "roundtrip": cmd_roundtrip}


def _emit(text, output):
    if output is None or output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run(command, input, output, max_arity, max_polyvector, table):
    start = time.monotonic()
    try:
        tf, digest = load_theory(input)
        report = CliReport(command, tf.name, digest)
        th = theoryfile.realize(tf)
        _arity_bounds(report, th, max_arity, max_polyvector)
        COMMANDS[command](report, th, max_polyvector)
    except (InputError, StructureError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except MemoryError:
        click.echo(f"error: {command} ran out of memory on this input",
                   err=True)
        sys.exit(2)
    report.doc["timing_ms"] = int((time.monotonic() - start) * 1000)
    _emit(report.render(table), output)
    sys.exit(0 if report.passed else 1)


def _command(name, help_text):
    @click.option("--input", "-i", default=None,
                  help="theory file path, or - for stdin")
    @click.option("--output", "-o", default=None,
                  help="report path (default stdout)")
    @click.option("--max-arity", type=int, default=None,
                  help="refuse structures with brackets above this arity")
    @click.option("--max-polyvector", type=int, default=None,
                  help="bound on the polyvector weight of decompositions")
    @click.option("--json", "as_json", flag_value=True, default=True,
                  help="JSON report (default)")
    @click.option("--table", "as_json", flag_value=False,
                  help="plain-text report")
    def run(input, output, max_arity, max_polyvector, as_json):
        _run(name, input, output, max_arity, max_polyvector, not as_json)
    run.__name__ = name
    run.__doc__ = help_text
    return click.command(name)(run)


@click.group()
def main():
    """Finite models of degenerate classical field theories: validators,
    boundary decompositions, centres and universal bulks."""


for _name, _help in (
        ("check", "Run every validator the file's sections call for."),
        ("boundary", "Check the splitting, decompose the action, and emit "
                     "the boundary Poisson structure."),
        ("centre", "Assemble the twisted cotangent of the declared Poisson "
                   "structure."),
        ("bulk", "Build the universal interval bulk of the declared Poisson "
                 "structure."),
        ("roundtrip", "Verify bulk-then-boundary returns the input; check "
                      "triviality when the input is symplectic.")):
    main.add_command(_command(_name, _help))


@main.command()
@click.argument("name", required=False)
@click.option("--output", "-o", default=None)
def example(name, output):
    """Print a builtin theory file (or list the available names)."""
    if name is None:
        click.echo("\n".join(sorted(EXAMPLES)))
        return
    try:
        tf = get_example(name)
    except InputError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    _emit(theoryfile.serialize(tf), output)


if __name__ == "__main__":
    main()
