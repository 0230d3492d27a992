"""bvkit benchmark: four workloads run through the CLI as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory.  One process runs one workload: it writes the workload's
theory files (set-up), then runs whole rounds of the workload's operations,
one operation process at a time, until another round would end after S
seconds; every run makes at least one round.  Each operation is a fresh
`python3 -m bvkit.cli COMMAND -i FILE` process (the aksz-arity3 operation
runs perfbench/aksz_op.py), and every output is checked (perfbench/verify.py)
before the next round starts.  BVKIT_THREADS is removed from the operations'
environment, so the CLI's default pool is what is measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced round and
one round under perfbench/tracer.py and prints the per-layer metrics.  Lines
before the last describe each operation; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import verify

# wall clock at the process's start, taking the start-up before this line as
# the CPU time it used
PROCESS_START = time.perf_counter() - time.process_time()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# operations still running this long after the benchmark started are killed
# (and counted as failed), so that a run always ends
RUN_LIMIT_S = 175

# per-layer metrics of a traced round: "layer.function_s" is the function's
# span time and "_calls" its call count, summed over the round's operations;
# the other counts are the largest any operation of the round saw
PER_LAYER = [
    "theoryfile.parse_s", "theoryfile.parse_calls",
    "theoryfile.realize_s", "theoryfile.realize_calls",
    "cdga.tensor_linfty_s", "cdga.tensor_linfty_calls",
    "cdga.aksz_symplectic_s", "cdga.aksz_symplectic_calls",
    "graded.keys_arity1", "graded.keys_arity2", "graded.keys_arity3",
    "graded.flag_keys_arity1", "graded.flag_keys_arity2",
    "graded.flag_keys_arity3",
    "linfty.check_relations_s", "linfty.check_relations_calls",
    "linfty.exact_candidates", "linfty.maybe_candidates",
    "linfty.tuples_decided", "linfty.tuples_indeterminate",
    "symplectic.check_symplectic_s", "symplectic.check_symplectic_calls",
    "symplectic.action_from_brackets_s",
    "symplectic.action_from_brackets_calls", "symplectic.action_terms",
    "symplectic.graded_poisson_s", "symplectic.graded_poisson_calls",
    "boundary.check_splitting_s", "boundary.check_splitting_calls",
    "boundary.decompose_action_s", "boundary.decompose_action_calls",
    "boundary.boundary_theory_s", "boundary.boundary_theory_calls",
    "boundary.piece_terms_j0", "boundary.piece_terms_j1",
    "boundary.piece_terms_j2",
    "formal.substitute_s", "formal.substitute_calls",
    "formal.left_derivative_s", "formal.left_derivative_calls",
    "polyvectors.check_homotopy_poisson_s",
    "polyvectors.check_homotopy_poisson_calls",
    "centre.assemble_twisted_s",
    "centre.twisted_cotangent_s", "centre.twisted_cotangent_calls",
    "centre.universal_bulk_s", "centre.universal_bulk_calls",
    "centre.roundtrip_check_s", "centre.roundtrip_check_calls",
    "centre.triviality_check_s", "centre.triviality_check_calls",
    "linalg.rank_s", "linalg.rank_calls",
    "linalg.invert_s", "linalg.invert_calls",
    "cli.render_s", "cli.import_s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
]
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
# call counts printed per operation: the de-duplication starting points
PER_COMMAND_CALLS = ("boundary.check_splitting", "symplectic.check_symplectic",
                     "boundary.decompose_action",
                     "polyvectors.check_homotopy_poisson")


class Op:
    """One operation of a round: a CLI command (mode "cli") or the aksz
    operation (mode "aksz") on a theory file, with a check of its output."""

    def __init__(self, label, mode, args, output, check):
        self.label = label
        self.mode = mode
        self.args = args          # after `bvkit` or `aksz_op.py`
        self.output = output      # file the operation writes
        self.check = check        # parsed output -> list of problems

    def argv(self, trace_path=None):
        if trace_path is not None:
            return [sys.executable, os.path.join(HERE, "tracer.py"),
                    trace_path, self.mode] + self.args
        if self.mode == "cli":
            return [sys.executable, "-m", "bvkit.cli"] + self.args
        return [sys.executable, os.path.join(HERE, "aksz_op.py")] + self.args


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cli(label, command, theory, check):
    out = os.path.join(WORK, f"{label}.report.json")
    return Op(label, "cli", [command, "-i", theory, "-o", out], out, check)


class WzwCheck:
    """`bvkit check` on the built-in wzw file (no seed: the file is fixed)."""

    def __init__(self, seed, window=None):
        self.window = window

    def setup(self):
        from theories import laurent_sl2
        self.path = os.path.join(WORK, "wzw.json")
        text = laurent_sl2("wzw", self.window)
        _write(self.path, text)
        self.n = json.loads(text)["model"]["window"]

    def ops(self):
        return [_cli("check-wzw", "check", self.path,
                     lambda rep: verify.wzw_check(rep, self.n))]


class CurrentAlgebraBoundary:
    """`bvkit boundary` on the built-in wzw and toda files (no seed)."""

    CENTRAL = {"wzw": "efh", "toda": "h"}

    def __init__(self, seed, window=None):
        self.window = window
        self.ambient = {}

    def setup(self):
        from theories import laurent_sl2
        self.paths = {}
        for name in self.CENTRAL:
            self.paths[name] = os.path.join(WORK, f"{name}.json")
            _write(self.paths[name], laurent_sl2(name, self.window))

    def _theory(self, name):
        # the ambient omega, l_1 and l_2 the formula is computed from
        if name not in self.ambient:
            from bvkit import theoryfile
            with open(self.paths[name], encoding="utf-8") as fh:
                self.ambient[name] = theoryfile.realize(
                    theoryfile.parse(fh.read()))
        return self.ambient[name]

    def ops(self):
        return [_cli(f"boundary-{name}", "boundary", self.paths[name],
                     lambda rep, name=name: verify.boundary(
                         rep, self._theory(name), self.CENTRAL[name]))
                for name in self.CENTRAL]


class ExactCentre:
    """check, centre, bulk and roundtrip on torus (x) gl_n with Pi_omega."""

    COMMANDS = ("check", "centre", "bulk", "roundtrip")

    def __init__(self, seed, n=5):
        self.seed = seed
        self.n = n

    def setup(self):
        from theories import gl_torus
        self.path = os.path.join(WORK, f"gl{self.n}-torus.json")
        text = gl_torus(self.n, self.seed)
        _write(self.path, text)
        doc = json.loads(text)
        # torus model: degrees 0, 1, 1, 2 times a degree-0 coefficient space
        labels = doc["space"]["0"]
        self.space = {str(d): [f"{a}|{x}" for a in model for x in labels]
                      for d, model in ((0, ["1"]), (1, ["a", "b"]),
                                       (2, ["ab"]))}
        self.shift = doc["poisson"]["shift"]

    def ops(self):
        return [_cli(f"{cmd}-gl{self.n}", cmd, self.path,
                     lambda rep, cmd=cmd: verify.exact_centre(
                         cmd, rep, self.space, self.shift))
                for cmd in self.COMMANDS]


class AkszArity3:
    """parse + realize + check_symplectic of the arity-3 AKSZ tensor."""

    def __init__(self, seed, model=None):
        self.seed = seed
        self.model = model or {"kind": "laurent", "window": 2}

    def setup(self):
        from theories import arity3
        self.path = os.path.join(WORK, "aksz-arity3.json")
        _write(self.path, arity3(self.seed, self.model))

    def ops(self):
        out = os.path.join(WORK, "aksz-arity3.result.json")
        return [Op("aksz-arity3", "aksz", [self.path, out], out,
                   lambda res: verify.aksz(res, self.model))]


WORKLOADS = {"wzw-check": WzwCheck,
             "current-algebra-boundary": CurrentAlgebraBoundary,
             "exact-centre": ExactCentre,
             "aksz-arity3": AkszArity3}


class Result:
    def __init__(self, code, wall, cpu, rss_mb, problems, trace=None):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.problems = problems
        self.trace = trace

    @property
    def failed(self):
        return self.code != 0


def _env():
    env = dict(os.environ)
    env.pop("BVKIT_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """The launcher process (perfbench/launcher.py) that forks the
    operations.  It is a fresh interpreter, so its resident set stays small
    whatever this process holds."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stderr):
        left = RUN_LIMIT_S - (time.perf_counter() - PROCESS_START)
        req = {"argv": argv, "env": _env(), "cwd": ROOT, "stderr": stderr,
               "timeout": max(left, 1.0)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_op(launcher, op, traced):
    """Run one operation process to its end and check its output."""
    trace_path = op.output + ".trace.json" if traced else None
    if os.path.exists(op.output):
        os.remove(op.output)
    err_path = op.output + ".stderr"
    m = launcher.run(op.argv(trace_path), err_path)
    result = Result(m["code"], m["wall"], m["cpu"], m["rss_mb"], [])
    if result.code == 0:
        with open(op.output, encoding="utf-8") as fh:
            result.problems = op.check(json.load(fh))
        if traced:
            with open(trace_path, encoding="utf-8") as fh:
                result.trace = json.load(fh)
    else:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        print(f"  {op.label}: exit {result.code}: {tail}")
    return result


def run_round(launcher, workload, traced=False):
    results = []
    for op in workload.ops():
        r = run_op(launcher, op, traced)
        results.append(r)
        print(f"  {'traced ' if traced else ''}{op.label}: exit {r.code}, "
              f"{r.wall:.2f} s wall, {r.cpu:.2f} s cpu, "
              f"{r.rss_mb:.0f} MB peak RSS"
              + ("" if not r.problems else f"; WRONG: {r.problems}"))
        if traced and r.trace:
            calls = {k.split(".")[1]: r.trace["spans"].get(k, [0])[0]
                     for k in PER_COMMAND_CALLS}
            print(f"    calls: {json.dumps(calls)}")
    return results


def per_layer(untraced, traced):
    spans, counts, import_s = {}, {}, 0.0
    for r in traced:
        if not r.trace:
            continue
        import_s += r.trace["import_s"]
        for k, (calls, secs) in r.trace["spans"].items():
            c, s = spans.get(k, (0, 0.0))
            spans[k] = (c + calls, s + secs)
        for k, v in r.trace["counts"].items():
            counts[k] = max(counts.get(k, 0), v)
    wall = sum(r.wall for r in traced)
    base = sum(r.wall for r in untraced)
    values = {"cli.import_s": import_s, "trace.wall_s": wall,
              "trace.untraced_wall_s": base, "trace.overhead_s": wall - base}
    metrics = {}
    for name in PER_LAYER:
        if name in values:
            v = values[name]
        elif name.endswith("_calls"):
            v = spans.get(name[:-len("_calls")], (0, 0.0))[0]
        elif name.endswith("_s"):
            v = spans.get(name[:-len("_s")], (0, 0.0))[1]
        else:
            v = counts.get(name, 0)
        metrics[name] = {"value": v,
                         "unit": "s" if name.endswith("_s") else "count"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bvkit", "cli.py")):
        print(f"error: no bvkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    # set-up is single-threaded and CPU-bound: its CPU time is the work and
    # leaves out the waits other tenants of the machine impose on it
    setup_s = time.process_time()
    print(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")
    launcher = Launcher()
    try:
        rounds = []
        if args.trace:
            rounds.append(run_round(launcher, workload))
            rounds.append(run_round(launcher, workload, traced=True))
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_round(launcher, workload))
                spent = time.perf_counter() - start
                if spent + spent / len(rounds) > args.seconds:
                    break
    finally:
        launcher.close()
    done = [r for rnd in rounds for r in rnd]
    failed = sum(r.failed for r in done)
    correct = not any(r.problems for r in done)

    if args.trace:
        metrics = per_layer(rounds[0], rounds[1])
    else:
        values = {
            "wall_s": statistics.median(sum(r.wall for r in rnd)
                                        for rnd in rounds),
            "cpu_s": statistics.median(sum(r.cpu for r in rnd)
                                       for rnd in rounds),
            "peak_rss_mb": max(r.rss_mb for r in done),
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(done),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
