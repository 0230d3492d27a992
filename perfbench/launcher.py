"""Operation launcher: runs the benchmark's operations one at a time and
reports each process's own wall time, CPU time and peak RSS.

Linux carries a parent's resident set into a forked child's peak RSS
(ru_maxrss survives exec), so the operations are forked from this small
process rather than from the benchmark, which imports bvkit and realizes
theories to check the outputs.

Protocol, one JSON object per line:
  stdin:  {"argv": [...], "env": {...}, "cwd": dir, "stderr": path,
           "timeout": seconds}
  stdout: {"code": exit code, "wall": s, "cpu": s, "rss_mb": MB}
A process still running after `timeout` seconds is killed.  The launcher
exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=req["env"], cwd=req["cwd"])
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
