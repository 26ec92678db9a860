"""Spawns the benchmark's child processes from a small process.

    python3 -I -S bench/launcher.py

Linux reports a child's peak resident memory as at least the peak of the
process that forked it.  The benchmark itself holds the reference outputs
and some of the package, more than a CLI query needs, so children spawned
from it would report the benchmark's memory.  This process imports next to
nothing and spawns them instead.

Each request is one JSON line on stdin: the argv, the files that take the
child's stdout and stderr, and a timeout in seconds.  Children inherit this
process's working directory and environment, and read stdin from
``/dev/null``.  A child still running at its timeout is killed.  Each reply
is one JSON line on stdout: the wall time from spawn to reap, the wait
status and the child's peak resident memory in KiB.  The launcher exits at
the end of its stdin, or on SIGTERM after killing the running child.
"""

import json
import os
import signal
import sys
import time

running = 0


def kill_running(signum, frame):
    if running:
        try:
            os.kill(running, signal.SIGKILL)
        except ProcessLookupError:  # it ended just before the signal
            pass
    if signum == signal.SIGTERM:
        raise SystemExit(128 + signum)


def run(request: dict) -> dict:
    global running
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
    argv = request["argv"]
    start = time.perf_counter()
    running = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(running, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        running = 0
    return {"wall_s": time.perf_counter() - start, "status": status,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, kill_running)
    signal.signal(signal.SIGTERM, kill_running)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
