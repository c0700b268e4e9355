"""The order-queries client and its oracle.

One client is one process: it builds the order, answers one warm-up query
so every lazy structure exists, then answers a seeded stream of queries,
timing each.  Every answer is checked after its timer stops, against an
oracle that shares nothing with the program but the cover lists.
"""

import random
import time
from collections import deque


class Oracle:
    """Reachability by breadth-first search over `covers_up`.

    Levels come from a longest-path pass over the covers, so the search can
    skip everything above the target's level without trusting the
    program's ranks.
    """

    def __init__(self, covers_up):
        # own lists, so the oracle's speed does not depend on the program's
        # containers: run.py uses it as a gauge of the host's speed
        self.up = [list(ups) for ups in covers_up]
        indegree = [0] * len(self.up)
        for ups in self.up:
            for j in ups:
                indegree[j] += 1
        level = [0] * len(self.up)
        ready = deque(i for i, d in enumerate(indegree) if not d)
        while ready:
            i = ready.popleft()
            for j in self.up[i]:
                level[j] = max(level[j], level[i] + 1)
                indegree[j] -= 1
                if not indegree[j]:
                    ready.append(j)
        self.level = level

    def up_set(self, a: int, max_level: int) -> set[int]:
        seen = {a}
        todo = [a]
        while todo:
            x = todo.pop()
            for y in self.up[x]:
                if y not in seen and self.level[y] <= max_level:
                    seen.add(y)
                    todo.append(y)
        return seen

    def leq(self, a: int, b: int) -> bool:
        return b in self.up_set(a, self.level[b])

    def interval_size(self, bottom: int, top: int) -> int:
        above = self.up_set(bottom, self.level[top])
        if top not in above:
            return 0
        below = {top}
        todo = [top]
        down: dict[int, list[int]] = {}
        for x in above:
            for y in self.up[x]:
                if y in above:
                    down.setdefault(y, []).append(x)
        while todo:
            y = todo.pop()
            for x in down.get(y, ()):
                if x not in below:
                    below.add(x)
                    todo.append(x)
        return len(below)


def query(pf, poset, a, b, bottom, top, q):
    """One query; returns the program's answers, unchecked."""
    elements = poset.elements
    leq = poset.leq(elements[a], elements[b])
    div = pf.divides(
        pf.poly_for_dissection(elements[a]), pf.poly_for_dissection(elements[b])
    )
    iv = poset.interval(elements[bottom], elements[top])
    mu = pf.mobius(iv)
    certified, _ = pf.interval_structure(iv)
    back = pf.psi(poset.m, pf.phi(elements[q]))
    return leq, div, iv, mu, certified, back


def truth(oracle, args) -> tuple[bool, int]:
    """The oracle's answers to one query: leq of its pair, interval size."""
    a, b, bottom, top, _ = args
    return oracle.leq(a, b), oracle.interval_size(bottom, top)


def check(expected, poset, args, answers) -> str | None:
    a, b, bottom, top, q = args
    leq, div, iv, mu, certified, back = answers
    want, size = expected
    if leq != want or div != want:
        return f"leq/divides on ({a}, {b}) gave {leq}/{div}, oracle {want}"
    if iv.size != size:
        return f"interval [{bottom}, {top}] has {iv.size} elements, oracle {size}"
    if mu not in (-1, 0, 1):
        return f"Mobius value {mu} on [{bottom}, {top}]"
    if certified is not True:
        return f"interval_structure returned {certified!r} on [{bottom}, {top}]"
    if back != poset.elements[q]:
        return f"psi(phi(q)) != q for element {q}"
    return None


def stream(rng: random.Random, poset, walk: int):
    """Arguments of the next query: a random pair, a comparable pair found
    by an upward cover walk of up to `walk` steps, and one element."""
    size = len(poset.elements)
    while True:
        a, b = rng.randrange(size), rng.randrange(size)
        bottom = top = rng.randrange(size)
        for _ in range(rng.randint(0, walk)):
            ups = poset.covers_up[top]
            if not ups:
                break
            top = rng.choice(ups)
        yield a, b, bottom, top, rng.randrange(size)


def run_client(spec: dict, pf, tracer) -> dict:
    """Set up, then answer spec["queries"] queries; returns the timings.

    `ready` is the monotonic time at which the first timed query can be
    issued, for the parent's set-up measurement.
    """
    start = time.monotonic()
    poset = pf.build_poset(spec["m"], spec["n"])
    low = poset.index[poset.minimum]
    high = poset.index[poset.maximal_elements()[0]]
    query(pf, poset, low, high, low, poset.covers_up[low][0], low)
    ready = time.monotonic()

    oracle = Oracle(poset.covers_up)
    rng = random.Random(f"{spec['seed']}:{spec['client']}")
    latencies = []
    cpu_s = 0.0
    oracle_s = 0.0
    reasons = []
    for k, args in zip(range(spec["queries"]), stream(rng, poset, spec["walk"])):
        if tracer is not None:
            tracer.op = k + 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            answers = query(pf, poset, *args)
        except MemoryError:
            raise
        except Exception as exc:  # a failed query is recorded, the stream goes on
            reasons.append(f"query {k}: {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        cpu_s += time.process_time() - c0
        latencies.append(t1 - t0)
        t2 = time.perf_counter()
        want = truth(oracle, args)
        oracle_s += time.perf_counter() - t2
        reason = check(want, poset, args, answers)
        if reason is not None:
            reasons.append(f"query {k}: {reason}")
    return {
        "start": start,
        "ready": ready,
        "done": time.monotonic(),
        "failed": len(reasons),
        "reasons": reasons[:5],
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        "cpu_s": cpu_s,
        "oracle_s": oracle_s,
    }
