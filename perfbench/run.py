"""The polyflip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline-grid

Run from the root of a checkout.  One client, closed loop: one operation
at a time, each CLI command in a fresh process, so caches start cold as a
CLI user sees them.  The run repeats the workload's operations in rounds
for about `--seconds` (at least one whole round), checks every
output, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
`wall_s` and `cpu_s` of one median round (each command at its median over
the run, summed; for order-queries one client's query stream, median over
clients), `peak_rss_mb` (largest peak RSS of any process) and `setup_s`
(median time from spawn until the first operation can be issued:
interpreter start and `import polyflip`, and for order-queries also
building the order and one warm-up query).  On three workloads the times
are scaled to a reference host speed, see below.  order-queries also prints
`query_p50_ms` and `query_p99_ms` over all its queries; they stay out of
the gated set, which must hold the same metrics on every workload.
With `--trace 1` untraced and traced rounds alternate; the traced rounds
give the per-layer metrics (medians over traced rounds of per-round
totals), and both together give the tracing overhead.  The layers' self
times plus `trace.remainder_s` (time in no traced call) add up to
`trace.wall_s`, the wall time of the traced operations: each command, or
each order-queries client with its set-up.  Spans go to
`.perfbench/trace-<workload>.jsonl`.

On a shared host the machine's speed drifts by 10-25% over minutes, and
a whole run moves with it, so measured times spread across runs by about
as much as their bounds.  So `wall_s`, `cpu_s` and `setup_s` are the
measured times divided by the run's median reading of the host's speed
over its reference (START_REF_S, ORACLE_REF_S): the times on a host at
the reference speed.  No change to polyflip can move either reading:
- "start-up", for the CLI workloads: each untraced child's time from
  spawn until child.py runs, before anything of polyflip loads.  A
  round's SETUP_PROBES are spread between its operations, so it is read
  through the whole round.
- "oracle", for order-queries: each untraced client's time in the
  benchmark's oracle (`queries.truth`), which runs between its timed
  queries on its own copy of the cover lists.
On a 2-CPU Xeon VM, in ten-run sets of 30 s runs, the scaling cut the
spread (interquartile range over median) of wall_s from 0.08-0.19 to
0.03-0.12 on verify-order, from 0.10-0.21 to 0.04-0.12 on export and from
0.11-0.16 to 0.04-0.08 on order-queries.  On verify-qsym it gave 0.08-0.24
against 0.03-0.15 measured, but held the median within 4% across sets
while the measured median moved by 33% as the host slowed.  The measured
times are printed too, as `measured_wall_s`, `measured_cpu_s` and
`measured_setup_s`, with `host_slowdown`, the median reading over its
reference.

`--baseline-grid` runs the Baseline cases of ROADMAP.md once each under
the guard and writes `perfbench/results/baseline-grid.json`.  It takes
minutes and is not part of a normal run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from guard import run_child
from workloads import WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
T0 = time.monotonic()

OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 165.0  # no operation outlives this, so a run ends inside 180 s
MEM_BYTES = 1 << 30  # address-space ceiling of each child
MIN_CLIENTS = 3  # order-queries sets up at least this often per run (>= 2 for --trace 1)
SETUP_PROBES = 5  # per CLI round: start, import polyflip, exit; more set-up samples
# Reference gauge readings for the host-speed scaling, about a 2-CPU Xeon
# VM's own: a child's start-up, and the oracle's time per query.
START_REF_S = 0.05
ORACLE_REF_S = 20e-6

GRID_TIMEOUT_S = 600.0
GRID_MEM_BYTES = 2 << 30
GRID = (
    ("verify", "--suite", "divisibility", "--m", "1", "--n", "8"),
    ("verify", "--suite", "intervals", "--m", "1", "--n", "8"),
    ("verify", "--suite", "poset", "--m", "1", "--n", "10"),
    ("verify", "--suite", "qsym", "--m", "2", "--n", "5"),
    ("verify", "--suite", "qsym", "--m", "3", "--n", "4"),
    ("verify", "--suite", "poset", "--m", "1", "--n", "12"),
)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def sum_of_medians(samples: dict) -> float:
    """One median round: each operation at its median, summed."""
    return sum(median(v) for v in samples.values())


def remaining_s() -> float:
    return RUN_LIMIT_S - (time.monotonic() - T0)


def another_round(seconds: float, durations: list[float]) -> bool:
    """Whether a further round would end nearer `seconds` than stopping now:
    rounds run while the next one's midpoint falls inside the run."""
    return time.monotonic() - T0 + median(durations) / 2 < seconds


class Tally:
    """Everything a run measured, split into untraced and traced parts."""

    def __init__(self, gauge: str | None = None):
        self.gauge = gauge  # the workload's, see Workload.gauge
        self.host: list[float] = []  # gauge readings over their reference
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.notes: list[str] = []
        self.setups: list[float] = []
        self.peak_rss_mb = 0.0
        self.walls: dict[str, list[float]] = {}  # untraced, per operation
        self.cpus: dict[str, list[float]] = {}
        self.latencies_s: list[float] = []  # order-queries, pooled
        # wall time of each operation as the tracer sees it (a command, or a
        # whole client with its set-up), for untraced and traced rounds
        self.trace_walls: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.layer_rounds: list[dict] = []  # per traced round: metric -> total

    def fail(self, label: str, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(f"{label}: {reason}")


def _spawn(spec: dict, tag: str, tally: Tally):
    """Run one child under the run's timeout and memory ceiling."""
    out = run_child(spec, min(OP_TIMEOUT_S, remaining_s()), MEM_BYTES, WORKDIR, tag)
    if tally.gauge == "start-up" and not spec["trace"] and out.start_s is not None:
        tally.host.append(out.start_s / START_REF_S)
    return out


def _add_layers(total: dict, summary: dict) -> None:
    for key, value in summary.items():
        if key == "poset.mask_bytes":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def run_cli(workload, seconds: float, trace: bool, tally: Tally, spans_out) -> None:
    durations: list[float] = []
    op_id = 0
    while True:
        traced = trace and len(durations) % 2 == 1
        began = time.monotonic()
        layers: dict = {"verify.reports_failed": 0}
        for i, op in enumerate(workload.ops):
            if not traced:
                _probe_setup(tally, _probes_before(i, len(workload.ops)))
            if remaining_s() < 1.0:
                tally.notes.append("time limit reached before the last round ended")
                return
            op_id += 1
            spec = {"kind": "cli", "argv": list(op.argv), "trace": traced, "op": op_id}
            out = _spawn(spec, "op", tally)
            tally.attempted += 1
            if traced and op.argv[0] == "verify" and out.code in (0, 1):
                layers["verify.reports_failed"] += _failed_reports(out.stdout)
            reason = out.failure or check_output(op, out.stdout)
            if reason:
                tally.fail(op.label, reason)
                continue
            wall = out.result["done"] - out.result["ready"]
            tally.trace_walls[traced].setdefault(op.label, []).append(wall)
            if not traced:
                tally.setups.append(out.setup_s)
                tally.peak_rss_mb = max(tally.peak_rss_mb, out.peak_rss_mb)
                tally.walls.setdefault(op.label, []).append(wall)
                tally.cpus.setdefault(op.label, []).append(out.result["cpu_s"])
                continue
            summary = dict(out.result["trace"])
            summary["trace.remainder_s"] = wall - summary.pop("trace.root_s")
            summary["cli.stdout_bytes"] = len(out.stdout)
            _add_layers(layers, summary)
            _copy_spans(out.spans_path, spans_out)
        if traced:
            tally.layer_rounds.append(layers)
        durations.append(time.monotonic() - began)
        if not another_round(seconds, durations) and (not trace or len(durations) >= 2):
            return


def _probes_before(i: int, n: int) -> int:
    """How many of a round's SETUP_PROBES go before its operation i of n."""
    return SETUP_PROBES * (i + 1) // n - SETUP_PROBES * i // n


def _probe_setup(tally: Tally, count: int) -> None:
    for _ in range(count):
        if remaining_s() < 1.0:
            return
        out = _spawn({"kind": "setup", "trace": False, "op": 0}, "probe", tally)
        tally.attempted += 1
        if out.failure:
            tally.fail("set-up probe", out.failure)
        else:
            tally.setups.append(out.setup_s)


def run_queries(
    workload, seed: int, seconds: float, trace: bool, tally: Tally, spans_out
) -> None:
    client = workload.client
    durations: list[float] = []
    c = 0
    while True:
        began = time.monotonic()
        if remaining_s() < 1.0:
            tally.notes.append("time limit reached before enough clients ran")
            return
        traced = trace and c % 2 == 1
        spec = {
            "kind": "queries", "m": client.m, "n": client.n, "seed": seed,
            "client": c, "queries": client.queries, "walk": client.walk,
            "trace": traced, "op": 0,
        }
        out = _spawn(spec, "client", tally)
        label = f"client {c}"
        c += 1
        tally.attempted += client.queries
        if out.failure:
            tally.fail(label, out.failure, client.queries)
        else:
            res = out.result
            client_wall = res["done"] - res["start"]
            tally.trace_walls[traced].setdefault("client", []).append(client_wall)
            tally.failed += res["failed"]
            tally.reasons += [f"{label}: {r}" for r in res["reasons"]]
            if not traced:
                tally.setups.append(out.setup_s)
                tally.peak_rss_mb = max(tally.peak_rss_mb, out.peak_rss_mb)
                tally.walls.setdefault("stream", []).append(res["wall_s"])
                tally.cpus.setdefault("stream", []).append(res["cpu_s"])
                tally.latencies_s += res["latencies_s"]
                if tally.gauge == "oracle":
                    tally.host.append(res["oracle_s"] / (client.queries * ORACLE_REF_S))
            else:
                summary = dict(res["trace"])
                summary["trace.remainder_s"] = client_wall - summary.pop("trace.root_s")
                summary["cli.stdout_bytes"] = 0
                summary["verify.reports_failed"] = 0
                tally.layer_rounds.append(summary)
                _copy_spans(out.spans_path, spans_out)
        durations.append(time.monotonic() - began)
        if not another_round(seconds, durations) and c >= MIN_CLIENTS:
            return


def _failed_reports(stdout: bytes) -> int:
    try:
        reports = json.loads(stdout)
    except ValueError:
        return 0
    return sum(r.get("pass") is not True for r in reports)


def _copy_spans(path, spans_out) -> None:
    if path and spans_out is not None:
        with open(path) as fh:
            shutil.copyfileobj(fh, spans_out)


def measured_times(tally: Tally) -> dict:
    return {
        "wall_s": sum_of_medians(tally.walls),
        "cpu_s": sum_of_medians(tally.cpus),
        "setup_s": median(tally.setups),
    }


def end_to_end(tally: Tally) -> dict:
    """The gated metrics, with the times at the reference host speed."""
    scale = 1 / median(tally.host) if tally.host else 1.0
    times = {name: value * scale for name, value in measured_times(tally).items()}
    return dict(times, peak_rss_mb=tally.peak_rss_mb)


def per_layer(tally: Tally) -> dict:
    keys = set().union(*tally.layer_rounds) if tally.layer_rounds else set()
    out = {k: median([r.get(k, 0) for r in tally.layer_rounds]) for k in keys}
    out["trace.wall_s"] = sum_of_medians(tally.trace_walls[True])
    out["trace.untraced_wall_s"] = sum_of_medians(tally.trace_walls[False])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed, spec: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(),
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed: int, seconds: float, trace: bool, spans_out=None) -> Tally:
    tally = Tally(workload.gauge)
    if workload.client is not None:
        run_queries(workload, seed, seconds, trace, tally, spans_out)
    else:
        run_cli(workload, seconds, trace, tally, spans_out)
    return tally


def report(tally: Tally, trace: bool, spec: dict) -> dict:
    """Print the metrics by name with units; return the final JSON object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(tally) if trace else end_to_end(tally)
    # a metric no successful operation produced reads 0; `failed` says why
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not trace:
        for name, value in measured_times(tally).items():
            print(f"measured_{name} = {value:.6g} s")
        if tally.host:
            print(f"host_slowdown = {median(tally.host):.6g} "
                  f"({len(tally.host)} readings of {tally.gauge})")
    if tally.latencies_s:
        latencies_ms = [s * 1000 for s in tally.latencies_s]
        print(f"query_p50_ms = {percentile(latencies_ms, 50):.6g} ms")
        print(f"query_p99_ms = {percentile(latencies_ms, 99):.6g} ms "
              f"({len(latencies_ms)} queries)")
    samples = {
        "operations": tally.attempted,
        "setups": len(tally.setups),
        "samples_per_op": {k: len(v) for k, v in tally.walls.items()},
        "traced_rounds": len(tally.layer_rounds),
    }
    print(f"fail_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print("samples: " + json.dumps(samples))
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}")
    for note in tally.notes:
        print(f"NOTE {note}")
    ran = tally.attempted > 0
    return {
        "correct": ran and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if ran else 1,  # a run that ran nothing failed
        "metrics": metrics,
    }


def baseline_grid() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    cases = []
    for argv in GRID:
        label = " ".join(argv)
        print(f"running {label}", file=sys.stderr, flush=True)
        spec = {"kind": "cli", "argv": list(argv), "trace": False, "op": 1}
        out = run_child(spec, GRID_TIMEOUT_S, GRID_MEM_BYTES, WORKDIR, "grid")
        cases.append({
            "case": label,
            "outcome": "ok" if out.failure is None else "failed",
            "reason": out.failure,
            "elapsed_s": out.elapsed_s,
            "peak_rss_mb": out.peak_rss_mb,
        })
        print(json.dumps(cases[-1]), file=sys.stderr, flush=True)
    record = {
        "provenance": provenance(None, load_spec()),
        "timeout_s": GRID_TIMEOUT_S,
        "mem_ceiling_mib": GRID_MEM_BYTES >> 20,
        "cases": cases,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "baseline-grid.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline-grid", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.exists(os.path.join(ROOT, "src", "polyflip", "__init__.py")):
        print(f"no polyflip sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.baseline_grid:
        return baseline_grid()
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    os.makedirs(WORKDIR, exist_ok=True)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args.seed, spec)))
    spans_path = os.path.join(WORKDIR, f"trace-{workload.name}.jsonl")
    if trace:
        with open(spans_path, "w") as spans_out:
            tally = run_workload(workload, args.seed, args.seconds, trace, spans_out)
        print(f"spans: {spans_path}")
    else:
        tally = run_workload(workload, args.seed, args.seconds, trace)
    print(json.dumps(report(tally, trace, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
