"""Helper process that starts the benchmark's CLI calls.

On Linux a child that calls exec inherits, as its own peak resident set,
the high-water mark of the address space it was forked from.  Started
from the benchmark's process, every call would report at least the
benchmark's own peak.  This helper stays small and starts the calls
instead, so the peak that ``os.wait4`` returns is the call's own.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stdout", "stderr", "timeout"}`` with the two output file paths; one JSON
reply per line on stdout, ``{"wall_s", "exit_code", "maxrss_kb",
"timed_out"}``.  The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                cwd=req["cwd"], env=req["env"])
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        killer = threading.Timer(req["timeout"], kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return {"wall_s": wall, "exit_code": code, "maxrss_kb": usage.ru_maxrss,
            "timed_out": fired.is_set()}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
