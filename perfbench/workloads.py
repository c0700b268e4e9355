"""The benchmark's workloads and the checks on their outputs.

Three workloads run fixed exhaustive inputs: an exhaustive checker has no
random inputs, so their seed changes nothing.  Only `order-queries` draws
its queries from the seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))

# sha256 of each command's stdout, pinned from the program at commit
# 8d6942a; the CLI promises byte-stable stdout for fixed arguments.
with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS: dict[str, str] = json.load(_fh)


@dataclass(frozen=True)
class CliOp:
    """One `polyflip` command, run in its own process."""

    argv: tuple[str, ...]
    digest: str | None  # None: no pinned digest, the other checks still run

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class QueryClient:
    """One in-process client answering seeded queries on one order."""

    m: int
    n: int
    queries: int  # per client process
    walk: int  # longest upward cover walk from a query's bottom


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and the comments below."""

    name: str
    ops: tuple[CliOp, ...] = ()
    client: QueryClient | None = None
    # What the gated times are scaled by for the host's speed (run.py):
    # "start-up" of every child process, the "oracle" time inside each
    # queries client, or None for times as measured.
    gauge: str | None = None


def cli_op(*argv: str) -> CliOp:
    label = " ".join(argv)
    return CliOp(tuple(argv), DIGESTS[label])


def _verify(suite: str, m: int, n: int) -> CliOp:
    return cli_op("verify", "--suite", suite, "--m", str(m), "--n", str(n))


WORKLOADS = {
    w.name: w
    for w in (
        # All pairs and all intervals of fully built orders.  The work is in
        # poset reachability, polynomials.divides and dissections
        # validation; qsym does no work here.
        Workload(
            "verify-order",
            ops=tuple(
                _verify(suite, m, n)
                for suite in ("poset", "divisibility", "intervals", "bijection", "series")
                for m, n in ((1, 7), (2, 5), (3, 3))
            ),
            gauge="start-up",
        ),
        # Exact integer rank takes nearly all of it and no order layer runs,
        # so a faster rank shows here only.
        Workload(
            "verify-qsym",
            ops=tuple(_verify("qsym", m, n) for m, n in ((2, 4), (4, 3), (3, 4))),
            gauge="start-up",
        ),
        # The dissections and poset layers used differently: building
        # elements and covers and formatting large outputs, never forcing
        # the reachability closure or comparing pairs.  A change that speeds
        # comparisons but makes building or output dearer shows here.
        Workload(
            "export",
            ops=(
                cli_op("enumerate", "--m", "1", "--n", "10"),
                cli_op("enumerate", "--m", "2", "--n", "7", "--format", "csv"),
                cli_op("poset", "--m", "1", "--n", "10", "--emit", "json"),
                cli_op("poset", "--m", "2", "--n", "6", "--emit", "dot"),
                cli_op("series", "--m", "2", "--which", "I", "--order", "30"),
                cli_op("series", "--m", "3", "--which", "G", "--order", "30"),
            ),
            gauge="start-up",
        ),
        # The only workload where the O(N^2)-bit reachability tables
        # dominate memory, and where work moved between set-up and the
        # per-query cost shows.
        Workload(
            "order-queries",
            client=QueryClient(m=1, n=10, queries=10000, walk=4),
            gauge="oracle",
        ),
    )
}


def fuss_catalan(m: int, n: int) -> int:
    """Number of size-n M-angulations, computed here, not by the program."""
    return comb((m + 1) * n, n) // (m * n + 1)


def _option(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_output(op: CliOp, stdout: bytes) -> str | None:
    """None when stdout is right for op, else the reason it is not."""
    if op.digest is not None and hashlib.sha256(stdout).hexdigest() != op.digest:
        return "stdout differs from the pinned digest"
    command = op.argv[0]
    if command == "verify":
        try:
            reports = json.loads(stdout)
        except ValueError:
            return "verify stdout is not JSON"
        failed = [r.get("suite") for r in reports if r.get("pass") is not True]
        if not reports or failed:
            return f"verify reports without pass: true: {failed}"
    elif command == "enumerate":
        m, n = int(_option(op.argv, "--m")), int(_option(op.argv, "--n"))
        want = fuss_catalan(m, n)
        if _option(op.argv, "--format", "json") == "csv":
            got = stdout.count(b"\n") - 1
        else:
            try:
                data = json.loads(stdout)
            except ValueError:
                return "enumerate stdout is not JSON"
            got = len(data["items"]) if data.get("count") == len(data["items"]) else -1
        if got != want:
            return f"enumerate gave {got} rows, Fuss-Catalan({m},{n}) = {want}"
    return None
