"""Fast self-test of the benchmark at tiny sizes (not part of the test suite).

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. One round of every workload at a tiny size (wzw/toda on the Laurent
   window 2, torus (x) gl_2, the arity-3 algebra on the torus model) passes
   every output check, and a traced round reports the per-layer metrics.
3. Negative controls, untimed: a wzw file with one sl2 structure constant
   changed exits 1 with `relations` witnesses; an arity-3 file with one
   Theta entry changed fails check_symplectic invariance; and the output
   checks reject a boundary bivector or a bulk with one value changed.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run

FAILURES = []


def expect(cond, what):
    print(f"  [{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        FAILURES.append(what)


def benchmark_file():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads are run.py's")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end-to-end metrics and units")
    expect([m["name"] for m in bench["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics")


TINY = [run.WzwCheck(1, window=2),
        run.CurrentAlgebraBoundary(1, window=2),
        run.ExactCentre(1, n=2),
        run.AkszArity3(1, model={"kind": "torus"})]


def tiny_rounds(launcher):
    for workload in TINY:
        workload.setup()
        results = run.run_round(launcher, workload)
        expect(all(r.code == 0 and not r.problems for r in results),
               f"{type(workload).__name__}: tiny round passes its checks")
    traced = run.run_round(launcher, TINY[2], traced=True)
    metrics = run.per_layer(traced, traced)
    expect(set(metrics) == set(run.PER_LAYER)
           and metrics["centre.roundtrip_check_calls"]["value"] == 1
           and metrics["polyvectors.check_homotopy_poisson_calls"]["value"]
           > 0, "traced round reports the per-layer metrics")


def _cli(command, path):
    proc = subprocess.run(
        [sys.executable, "-m", "bvkit.cli", command, "-i", path],
        capture_output=True, text=True, env=run._env(), cwd=run.ROOT,
        timeout=120)
    return proc.returncode, proc.stdout


def broken_sl2():
    from theories import laurent_sl2
    doc = json.loads(laurent_sl2("wzw", 2))
    for ent in doc["brackets"]["2"]:
        if ent[0] == ["e", "h"] and ent[1] == "e":
            # [h, e] = 2e becomes 3e: the Jacobi identity of e, f, h fails
            ent[2] = str(Fraction(ent[2]) * Fraction(3, 2))
    path = os.path.join(run.WORK, "broken-wzw.json")
    run._write(path, json.dumps(doc))
    code, out = _cli("check", path)
    rel = [c for c in json.loads(out)["checks"] if c["name"] == "relations"] \
        if code == 1 else []
    expect(code == 1 and rel and not rel[0]["passed"] and rel[0]["witnesses"],
           "wzw with one sl2 constant changed: exit 1, relations witnesses")


def broken_theta():
    from theories import arity3
    doc = json.loads(arity3(1, {"kind": "torus"}))
    ent = doc["brackets"]["3"][0]
    ent[2] = str(Fraction(ent[2]) + 1)
    path = os.path.join(run.WORK, "broken-arity3.json")
    run._write(path, json.dumps(doc))
    out = os.path.join(run.WORK, "broken-arity3.result.json")
    code = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "aksz_op.py"), path, out],
        env=run._env(), cwd=run.ROOT, timeout=120).returncode
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    expect(code == 1 and not res["passed"] and res["invariance_violations"],
           "arity-3 file with one Theta entry changed fails invariance")


def checks_reject_wrong_output():
    import verify
    boundary, centre = TINY[1], TINY[2]
    op = boundary.ops()[0]
    with open(op.output, encoding="utf-8") as fh:
        rep = json.load(fh)
    terms = rep["outputs"]["boundary_poisson"]["components"]["2"]
    terms[len(terms) // 2][1] = str(-Fraction(terms[len(terms) // 2][1]))
    expect(any("current-algebra" in p for p in op.check(rep)),
           "boundary check rejects a bivector with one coefficient negated")
    op = [o for o in centre.ops() if o.label.startswith("bulk")][0]
    with open(op.output, encoding="utf-8") as fh:
        rep = json.load(fh)
    rep["outputs"]["bulk_shift"] += 1
    expect(op.check(rep) != [], "exact-centre check rejects a wrong bulk shift")
    expect(verify.model_size({"kind": "laurent", "window": 2}) == (64, 2),
           "Laurent window 2 model has dimension 64")


def main():
    run.WORK = os.path.join(run.ROOT, ".perfbench", "selftest")
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    launcher = run.Launcher()
    try:
        sys.path.insert(0, run.SRC)
        print("benchmark file")
        benchmark_file()
        print("tiny rounds")
        tiny_rounds(launcher)
    finally:
        launcher.close()
    print("negative controls")
    broken_sl2()
    broken_theta()
    checks_reject_wrong_output()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
