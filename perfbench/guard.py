"""Run one child process under a timeout and an address-space ceiling.

The ceiling is set by the child on itself (`child.py`), so nothing outside
that process changes.  A blow-up becomes a failed operation with its
reason, and the caller carries on.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from child import MEMORY_EXIT

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
POLL_S = 0.005


@dataclass
class Outcome:
    """What one child process did, as the parent saw it."""

    code: int
    reason: str | None  # None when the process ran to a clean exit
    spawn: float
    elapsed_s: float  # spawn to exit, as the parent saw it
    peak_rss_mb: float
    result: dict = field(default_factory=dict)
    stdout: bytes = b""
    spans_path: str | None = None

    @property
    def setup_s(self) -> float:
        return self.result["ready"] - self.spawn

    @property
    def start_s(self) -> float | None:
        """Spawn until the interpreter ran child.py: no polyflip code in it."""
        started = self.result.get("started")
        return None if started is None else started - self.spawn

    @property
    def failure(self) -> str | None:
        """Why the process did not run to a clean exit, or None."""
        return self.reason or (f"exit {self.code}" if self.code else None)


def run_child(spec: dict, timeout_s: float, mem_bytes: int, workdir: str, tag: str) -> Outcome:
    """Spawn child.py with `spec`; stdout, result and spans go to workdir."""
    paths = {k: os.path.join(workdir, f"{tag}.{k}") for k in ("out", "err", "result", "spans")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    spec = dict(spec, mem_bytes=mem_bytes, result=paths["result"], spans=paths["spans"])
    timed_out = False
    with open(paths["out"], "wb") as out, open(paths["err"], "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=out,
            stderr=err,
            cwd=os.path.dirname(HERE),
        )
        deadline = spawn + timeout_s
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() >= deadline:
                    timed_out = True
                    break
                time.sleep(POLL_S)
        finally:
            if not pid:  # timed out, or the benchmark itself is stopping
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - spawn
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here, so Popen must not wait again
    with open(paths["out"], "rb") as fh:
        stdout = fh.read()
    with open(paths["err"], "rb") as fh:
        stderr = fh.read()
    result = {}
    if os.path.exists(paths["result"]):
        with open(paths["result"]) as fh:
            try:
                result = json.load(fh)
            except ValueError:  # killed while writing it
                pass
    peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
    outcome = Outcome(code, None, spawn, elapsed, peak_rss_mb, result, stdout)
    if os.path.exists(paths["spans"]):
        outcome.spans_path = paths["spans"]
    if timed_out:
        outcome.reason = f"timeout after {timeout_s:.1f}s"
    elif code == MEMORY_EXIT and "memory_error" in result:
        layer = result["memory_error"] or "the interpreter"
        outcome.reason = f"memory ceiling {mem_bytes >> 20} MiB hit in {layer}"
    elif b"MemoryError" in stderr[-4096:]:
        outcome.reason = f"memory ceiling {mem_bytes >> 20} MiB hit"
    elif code < 0:
        outcome.reason = f"killed by signal {-code}"
    elif "ready" not in result:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        outcome.reason = f"exit {code} before reporting: {' '.join(tail)}"
    return outcome
