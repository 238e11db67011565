"""Process launcher for demo-session: runs commands for a parent over a pipe.

Each stdin line is a JSON argv list; the reply line is JSON with the exit
code, stdout and wall seconds of running that argv as a fresh process, and
the host-speed tick around it (hostspeed.py).  An empty list asks for the
peak resident set of all the processes run so far.

The launcher exists so that peak RSS is the commands' own: Linux counts the
memory of the process that spawns a child in the child's peak, and this
process stays small while the benchmark process does not.
"""

import json
import resource
import subprocess
import sys

import hostspeed

TIMEOUT_S = 120


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        if not argv:
            reply = {"peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
        else:
            done, seconds, tick_s = hostspeed.PYTHON.timed(
                lambda: subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
            )
            reply = {"code": done.returncode, "stdout": done.stdout, "seconds": seconds, "tick": tick_s}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
