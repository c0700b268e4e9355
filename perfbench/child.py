"""Child process of the benchmark: one CLI command or one queries client.

    python3 perfbench/child.py SPEC_JSON

SPEC keys: `kind` ("cli", "queries", or "setup": import and exit), `argv`
(cli) or the client's `m`, `n`, `seed`, `client`, `queries` and `walk`;
`mem_bytes`, the
address-space ceiling this process sets on itself before importing
anything large; `trace`, `op` (operation id stamped on spans), `result`
and `spans` (output paths).

stdout belongs to the CLI command.  Timings go to the result file as JSON:
`started` is when the interpreter has started and this file's standard
library imports are done, before anything of polyflip is loaded; `ready`
is when the first operation can be issued (after `import polyflip`);
`done` is when it returned with stdout flushed.  All three are on the
system-wide monotonic clock the parent also reads.  A MemoryError under
the ceiling exits with MEMORY_EXIT and names the innermost polyflip call
it was raised in.
"""

import json
import os
import resource
import sys
import time

STARTED = time.monotonic()
MEMORY_EXIT = 3


def _innermost_call(tb) -> str | None:
    """`module.qualname` of the deepest polyflip frame in a traceback."""
    found = None
    while tb is not None:
        code = tb.tb_frame.f_code
        parts = code.co_filename.split(os.sep)
        if len(parts) > 1 and parts[-2] == "polyflip":
            found = f"{parts[-1][:-3]}.{code.co_qualname}"
        tb = tb.tb_next
    return found


def main() -> int:
    spec = json.loads(sys.argv[1])
    ceiling = spec["mem_bytes"]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        ceiling = min(ceiling, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import polyflip
    import polyflip.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = spec["op"]
        tracer.install()

    result: dict = {"started": STARTED}
    code = 0
    try:
        if spec["kind"] == "queries":
            from queries import run_client

            result.update(run_client(spec, polyflip, tracer))
        else:
            result["ready"] = time.monotonic()
        if spec["kind"] == "cli":
            cpu = time.process_time()
            try:
                code = polyflip.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
            result["done"] = time.monotonic()
            result["cpu_s"] = time.process_time() - cpu
    except MemoryError as exc:
        code = MEMORY_EXIT
        result = {"started": STARTED, "memory_error": _innermost_call(exc.__traceback__)}
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(spec["spans"], "w") as fh:
            tracer.write_spans(fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
