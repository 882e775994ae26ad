"""Small process that starts the CLI invocations and reports their usage.

A child's ru_maxrss starts from the high-water RSS of the process that
forked it: the kernel carries the pre-exec image's peak across exec.
The benchmark parses bundles and grows well past the program's own
peak, so it must not fork the program itself.  This process is started
while the benchmark is still small and stays small.  It reads one JSON
request per line on stdin and writes one JSON reply per line on stdout;
it exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=req["env"],
                cwd=req["cwd"],
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: one launcher process for the life of the object."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], stdout: str, stderr: str, env: dict, cwd: str) -> dict:
        request = {"argv": argv, "stdout": stdout, "stderr": stderr, "env": env, "cwd": cwd}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
