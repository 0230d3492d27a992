"""One aksz-arity3 operation: parse, realize and check_symplectic a theory
file through the library, and write what the benchmark checks as JSON.

No CLI command finishes on this input (see CHANGES.md), so the operation
calls the three library functions a command would call first.

    PYTHONPATH=src python3 perfbench/aksz_op.py THEORY.json RESULT.json
"""

import json
import sys


def main(argv):
    from bvkit import theoryfile
    from bvkit.symplectic import check_symplectic

    src, dst = argv
    with open(src, encoding="utf-8") as fh:
        tf = theoryfile.parse(fh.read())
    th = theoryfile.realize(tf)
    rep = check_symplectic(th.algebra, th.omega)
    result = {
        "passed": rep.passed,
        "invariance_violations": len(rep.invariance_violations),
        "shift": th.omega.shift,
        "dim": th.algebra.space.dim,
        "keys": {str(n): len(m.coefficients)
                 for n, m in th.algebra.brackets.items()},
        "flag_keys": {str(n): len(m.flags)
                      for n, m in th.algebra.brackets.items()},
    }
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
