"""Traced operation: one CLI command (or the aksz operation) with a span
around every call into each bvkit layer's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json cli COMMAND ARGS...
    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json aksz THEORY RESULT

The wrappers are installed from here, on the imported modules; the program's
files are not changed.  A span covers a call from its entry to its return,
callees included, and a function re-entered on the same thread counts a call
but no second span.  The four CLI checks run on a thread pool, so a layer's
seconds are summed over threads and can exceed the wall time.  Work counts
are read from return values (stored keys of the realized structure, relation
candidates, action and decomposition terms).

TRACE.json: {"spans": {"layer.function": [calls, seconds]},
             "counts": {name: number}, "import_s": s, "wall_s": s}
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("theoryfile", "cdga", "graded", "linfty", "symplectic", "boundary",
          "formal", "polyvectors", "centre", "linalg", "cli")
# public methods traced as spans of their module's layer
METHODS = {("formal", "Polynomial"): ("substitute", "left_derivative"),
           ("cli", "CliReport"): ("render",)}
# private helpers whose return values carry work counts
PROBED_PRIVATE = {("linfty", "_candidate_tuples")}
# public helpers called once per basis element or coefficient: a span would
# cost more than the work inside it, so they are not traced
LEAVES = {"cdga.tensor_label", "cdga.split_label", "graded.norm_scalar",
          "graded.koszul_sign", "graded.perm_parity",
          "graded.as_fraction_str", "graded.parse_fraction",
          "linfty.tensor_bracket_sign", "theoryfile.scalar_str",
          "theoryfile.parse_scalar"}


class Trace:
    def __init__(self):
        self.spans = {}
        self.counts = {}
        self.lock = threading.Lock()
        self.local = threading.local()
        self.candidates = []

    def wrap(self, name, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = self.local.__dict__.setdefault("active", {})
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                active[name] -= 1
                with self.lock:
                    calls, secs = self.spans.get(name, (0, 0.0))
                    self.spans[name] = (calls + 1,
                                        secs + spent if outer else secs)
            if probe is not None:
                with self.lock:
                    probe(self, result)
            return result
        return traced

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def dump(self, path, import_s, wall_s):
        counts = dict(self.counts)
        # set sizes are taken here, after the run, so that the span of
        # check_relations does not include them
        exact = maybe = decided = 0
        for ex, mb in self.candidates:
            exact += len(ex)
            maybe += len(mb)
            decided += len(ex - mb)
        if self.candidates:
            counts.update({"linfty.exact_candidates": exact,
                           "linfty.maybe_candidates": maybe})
            counts["linfty.tuples_decided"] = \
                decided - counts.get("linfty.hit_flags", 0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": {k: list(v) for k, v in self.spans.items()},
                       "counts": counts, "import_s": import_s,
                       "wall_s": wall_s}, fh, sort_keys=True)


def _realized(trace, th):
    for n, m in th.algebra.brackets.items():
        trace.peak(f"graded.keys_arity{n}", len(m.coefficients))
        trace.peak(f"graded.flag_keys_arity{n}", len(m.flags))


def _candidates(trace, result):
    trace.candidates.append(result)


def _relations(trace, rep):
    # indeterminate = maybe-candidates plus evaluated tuples that hit a flag
    trace.counts["linfty.tuples_indeterminate"] = \
        trace.counts.get("linfty.tuples_indeterminate", 0) + \
        len(rep.indeterminate)
    trace.counts["linfty.hit_flags"] = \
        trace.counts.get("linfty.hit_flags", 0) + \
        len(rep.indeterminate) - len(trace.candidates[-1][1])


def _action(trace, action):
    trace.peak("symplectic.action_terms",
               sum(len(p.terms) for p in action.components.values()))


def _pieces(trace, pieces):
    for j, p in enumerate(pieces):
        trace.peak(f"boundary.piece_terms_j{j}", len(p.poly.terms))


PROBES = {"theoryfile.realize": _realized,
          "linfty._candidate_tuples": _candidates,
          "linfty.check_relations": _relations,
          "symplectic.action_from_brackets": _action,
          "boundary.decompose_action": _pieces}


def install(trace):
    modules = {layer: importlib.import_module(f"bvkit.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if name.startswith("_") and (layer, name) not in PROBED_PRIVATE:
                continue
            key = f"{layer}.{name}"
            if key in LEAVES:
                continue
            wrapped[obj] = trace.wrap(key, obj, PROBES.get(key))
    # rebind every module-level reference, including `from .x import f`
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("bvkit"):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
    for (layer, cls), names in METHODS.items():
        klass = getattr(modules[layer], cls)
        for name in names:
            setattr(klass, name,
                    trace.wrap(f"{layer}.{name}", getattr(klass, name)))


def main(argv):
    out, mode, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import bvkit.cli
    import_s = time.perf_counter() - start
    trace = Trace()
    install(trace)
    code = 0
    try:
        if mode == "cli":
            bvkit.cli.main(args=args, prog_name="bvkit")
        else:
            import aksz_op
            code = aksz_op.main(args)
    except SystemExit as e:
        code = e.code
    finally:
        trace.dump(out, import_s, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
