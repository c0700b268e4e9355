"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import os
import random
import sys
import time

import pytest

import run
from guard import run_child
from queries import Oracle, check, query, stream, truth
from workloads import CliOp, QueryClient, Workload, check_output, cli_op

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import polyflip  # noqa: E402

SPEC = run.load_spec()
TINY_CLI = Workload(
    "tiny-cli",
    ops=(
        CliOp(("verify", "--suite", "poset", "--m", "1", "--n", "3"), None),
        CliOp(("enumerate", "--m", "2", "--n", "3", "--format", "csv"), None),
    ),
    gauge="start-up",
)
TINY_QUERIES = Workload(
    "tiny-queries", client=QueryClient(m=1, n=4, queries=30, walk=2), gauge="oracle"
)


@pytest.fixture(autouse=True)
def fresh_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "T0", time.monotonic())
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))


@pytest.mark.parametrize("workload", [TINY_CLI, TINY_QUERIES], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    tally = run.run_workload(workload, seed=7, seconds=0, trace=trace)
    result = run.report(tally, trace, SPEC)
    lines = {line.split(" = ")[0]: line for line in capsys.readouterr().out.splitlines()}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    values = run.per_layer(tally) if trace else run.end_to_end(tally)
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert name in values, name
        assert result["metrics"][name]["unit"] == unit
        assert lines[name].endswith(f" {unit}"), lines.get(name)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    if workload.client is not None and not trace:
        assert lines["query_p50_ms"].endswith(" ms")
        assert lines["query_p99_ms"].endswith(" ms (90 queries)")


def test_a_uniformly_slower_host_leaves_the_gated_times_unchanged():
    def tally(slowdown):
        t = run.Tally("start-up")
        t.walls = {"op": [1.0 * slowdown, 1.2 * slowdown]}
        t.cpus = {"op": [0.9 * slowdown]}
        t.setups = [0.1 * slowdown, 0.2 * slowdown]
        t.host = [0.8 * slowdown, 1.2 * slowdown, 1.0 * slowdown]
        return t

    assert run.end_to_end(tally(1.0))["wall_s"] == pytest.approx(1.1)
    assert run.end_to_end(tally(1.3)) == pytest.approx(run.end_to_end(tally(1.0)))


@pytest.mark.parametrize("workload", [TINY_CLI, TINY_QUERIES], ids=lambda w: w.name)
def test_traced_self_times_and_remainder_add_up_to_wall(workload):
    tally = run.run_workload(workload, seed=0, seconds=0, trace=True)
    assert len(tally.layer_rounds) == 1
    layers = run.per_layer(tally)
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    parts = self_s + layers["trace.remainder_s"]
    assert parts == pytest.approx(layers["trace.wall_s"], rel=1e-6)


def test_corrupted_stdout_is_a_failed_operation(capsys):
    op = cli_op("series", "--m", "3", "--which", "G", "--order", "30")
    spec = {"kind": "cli", "argv": list(op.argv), "trace": False, "op": 1}
    out = run_child(spec, 60, run.MEM_BYTES, run.WORKDIR, "t")
    assert out.reason is None and check_output(op, out.stdout) is None
    corrupted = out.stdout.replace(b"1", b"2", 1)
    assert check_output(op, corrupted) == "stdout differs from the pinned digest"

    wrong = CliOp(op.argv, "0" * 64)
    corrupt = Workload("corrupt", ops=(wrong,))
    tally = run.run_workload(corrupt, seed=0, seconds=0, trace=False)
    result = run.report(tally, False, SPEC)
    attempted = 1 + run.SETUP_PROBES
    assert (result["correct"], result["attempted"], result["failed"]) == (False, attempted, 1)
    assert "pinned digest" in capsys.readouterr().out


def test_enumerate_row_count_is_checked_independently():
    op = CliOp(("enumerate", "--m", "2", "--n", "3"), None)
    good = json.dumps({"count": 12, "items": [{}] * 12}).encode()
    short = json.dumps({"count": 11, "items": [{}] * 11}).encode()
    assert check_output(op, good) is None
    assert "Fuss-Catalan" in check_output(op, short)


def test_failing_verify_report_is_a_failed_operation():
    op = CliOp(("verify", "--suite", "poset", "--m", "1", "--n", "3"), None)
    report = [{"suite": "poset", "pass": False}]
    assert "pass: true" in check_output(op, json.dumps(report).encode())


def test_operation_over_its_timeout_fails_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 1.0)
    slow = CliOp(("verify", "--suite", "divisibility", "--m", "1", "--n", "8"), None)
    workload = Workload("timeout", ops=(slow,) + TINY_CLI.ops)
    tally = run.run_workload(workload, seed=0, seconds=0, trace=False)
    result = run.report(tally, False, SPEC)
    assert (result["attempted"], result["failed"]) == (3 + run.SETUP_PROBES, 1)
    assert "timeout after 1.0s" in capsys.readouterr().out
    assert set(tally.walls) == {op.label for op in TINY_CLI.ops}


def test_memory_ceiling_is_a_failed_operation_with_its_layer():
    argv = ["poset", "--m", "1", "--n", "10", "--emit", "json"]  # about 66 MB resident
    spec = {"kind": "cli", "argv": argv, "trace": False, "op": 1}
    out = run_child(spec, 60, 48 << 20, run.WORKDIR, "mem")
    assert out.reason is not None and out.reason.startswith("memory ceiling 48 MiB hit in ")
    layer = out.reason.rsplit(" ", 1)[1]
    assert layer.split(".")[0] in ("dissections", "poset", "polynomials", "cli"), layer


def test_query_oracle_agrees_with_the_order_and_catches_wrong_answers():
    poset = polyflip.build_poset(1, 5)
    oracle = Oracle(poset.covers_up)
    size = len(poset.elements)
    for a in range(size):
        for b in range(size):
            assert oracle.leq(a, b) == poset.leq(poset.elements[a], poset.elements[b])
    args = next(stream(random.Random(1), poset, walk=3))
    answers = query(polyflip, poset, *args)
    assert check(truth(oracle, args), poset, args, answers) is None
    leq, div, iv, mu, certified, back = answers
    other = poset.elements[(args[4] + 1) % size]
    for wrong in (
        (not leq, div, iv, mu, certified, back),
        (leq, not div, iv, mu, certified, back),
        (leq, div, iv, 2, certified, back),
        (leq, div, iv, mu, None, back),
        (leq, div, iv, mu, certified, other),
    ):
        assert check(truth(oracle, args), poset, args, wrong) is not None
