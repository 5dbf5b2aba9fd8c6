"""Start the benchmark's commands and report each one's own resource usage.

    python bench/spawn.py        (driven by run.py over stdin/stdout)

Reads one JSON request per line, ``{"argv": [...], "stdout": PATH,
"stderr": PATH}``, runs the command with the given output files and this
process's environment, and answers one JSON line ``{"exit", "wall", "cpu",
"rss_kb"}``.  CPU time and peak RSS come from ``os.wait4`` for that child
alone.  A command still running after TIMEOUT_S is killed and reported
with its signal as a negative exit status.

A child's peak RSS starts at the RSS of the process that spawned it, since
the kernel carries the spawner's resident pages into the child's high-water
mark.  This helper stays small (a bare interpreter), so that floor lies
below what any hyperappell command uses; spawning from run.py, which holds
parsed outputs, would put the floor above the commands themselves.
"""

import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
TIMEOUT_S = 60


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], WRITE, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        reply = {
            "exit": os.waitstatus_to_exitcode(status),
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
