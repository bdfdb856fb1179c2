"""Starts the benchmark's measured children from a small process.

A child's max RSS from wait4 includes the resident memory of the process
that forked it, so the children are started from here, a process that never
imports numpy, rather than from run.py.  Protocol: one JSON request per line
on stdin ({"argv", "stdout", "stderr", "timeout"}), one JSON reply per line
on stdout ({"wall_s", "rc", "rss_mb"}); the process ends at end of input.
The children run on the CPU given as the only argument.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})     # children inherit it
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "rc": proc.returncode,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
