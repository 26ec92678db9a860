"""Fresh-interpreter child processes with wall time and peak memory.

Every operation the benchmark times runs in its own interpreter, because
the package keeps unbounded module-level caches: a second operation in one
process would measure cache hits, not the program.  The processes are
spawned by ``launcher.py``, so that their peak memory is their own.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: every child sees the checkout's sources first and a fixed hash seed, so
#: set iteration order, and with it every count, repeats between runs.
#: Children may write bytecode caches (into the checkout, as an installed
#: package has them), whatever the caller's environment says, so start-up
#: costs the same everywhere.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)

PYTHON = sys.executable


@dataclass
class Child:
    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


class Launcher:
    """Runs child processes one at a time through ``launcher.py``.

    Use it as a context manager: it starts the launcher on entry, and on
    exit stops the launcher and any child still running.  The children's
    stdout and stderr pass through files in a temporary directory of the
    checkout.
    """

    def __enter__(self) -> "Launcher":
        self.tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
        self.out = os.path.join(self.tmp, "stdout")
        self.err = os.path.join(self.tmp, "stderr")
        self.proc = subprocess.Popen(
            [PYTHON, "-I", "-S", str(BENCH / "launcher.py")], cwd=ROOT,
            env=CHILD_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.terminate()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, argv: list, timeout: float) -> Child:
        """Run one process to exit; time it from spawn to reap.

        A child still running after ``timeout`` seconds is killed and
        reported with a negative code.
        """
        request = {"argv": argv, "stdout": self.out, "stderr": self.err,
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with {self.proc.wait()}")
        reply = json.loads(reply)
        with open(self.out, "rb") as fh:
            stdout = fh.read()
        with open(self.err, "rb") as fh:
            stderr = fh.read()
        code = os.waitstatus_to_exitcode(reply["status"])
        return Child(reply["wall_s"], code, stdout, stderr,
                     reply["maxrss_kb"] / 1024)


def cli_argv(args: list) -> list:
    """A plain ``sphroots`` CLI invocation, as a user runs it."""
    return [PYTHON, "-m", "sphroots.cli", *args]


def checkout_commit() -> str | None:
    """The commit of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the package sources, to tell trees apart without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sphroots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()
