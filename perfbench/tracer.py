"""Outside-in tracing of polyflip.

`Tracer.install()` replaces the package's public functions with timing
wrappers from outside the package.  A function is matched by object
identity, so every polyflip module that holds its own reference (names
imported into `verify`, `cli` and `__init__`, the `verify.SUITES` dict, the
module's own globals) calls the wrapper.  Methods are wrapped on their
class, cached properties through their `func`, and `lru_cache` objects are
wrapped whole, so their caches keep working.

Each wrapped call is a frame.  Frames give exact per-layer self times
(duration minus the time of wrapped calls inside it) and per-metric call
counts and times, counted on the outermost call of a metric's functions.
Spans (id, parent, name, start, end, operation id) are recorded at layer
boundaries: a call into a layer other than its caller's.  Calls within one
layer fold into the enclosing span.  Boundary calls that open no span of
their own are batched per (parent, name) with a call count and their busy
time, so an N^2 loop of `leq` calls leaves one record, not N^2.
"""

import functools
import json
import sys
from time import perf_counter

LAYERS = (
    "dissections",
    "poset",
    "polynomials",
    "dyck",
    "bijection",
    "qsym",
    "series",
    "verify",
    "cli",
)

# Predicates called from the inner loops of other functions.  A wrapper
# costs more than the call itself, so these stay unwrapped and their time
# counts as their caller's self time.
UNWRAPPED = frozenset(
    {
        "dissections.chords_cross",
        "dissections.vertex_label",
        "dissections.is_final",
        "dyck.check_m_vector",
        "dyck.first_violation",
        "dyck.is_dyck",
        "series.fuss_catalan",
    }
)

# Public methods traced besides the module-level functions.
METHODS = (
    ("dissections", "Dissection", "new"),
    ("poset", "FlipPoset", "leq"),
    ("poset", "FlipPoset", "interval"),
    ("poset", "FlipPoset", "all_intervals"),
    ("polynomials", "FactoredPoly", "text"),
    ("polynomials", "Monomial", "text"),
)

# The reachability tables: `cached_property` objects whose func is wrapped.
CACHED = (("poset", "FlipPoset", "up_masks"), ("poset", "FlipPoset", "down_masks"))

# (calls metric or None, seconds metric, traced names).  Calls and time are
# counted on outermost entries, so `regions` inside `Dissection.new` is one
# validation, not two.
TIMED = (
    (
        "dissections.validate_calls",
        "dissections.validate_s",
        ("dissections.Dissection.new", "dissections.validate", "dissections.regions"),
    ),
    ("dissections.flip_up_calls", "dissections.flip_up_s", ("dissections.flip_up",)),
    (None, "dissections.enumerate_s", ("dissections.enumerate_dissections",)),
    (None, "dissections.cut_glue_s", ("dissections.cut_L", "dissections.glue_G")),
    (None, "poset.build_s", ("poset.build_poset",)),
    (None, "poset.closure_s", ("poset.FlipPoset.up_masks", "poset.FlipPoset.down_masks")),
    ("poset.leq_calls", "poset.leq_s", ("poset.FlipPoset.leq",)),
    (None, "poset.interval_s", ("poset.FlipPoset.interval", "poset.FlipPoset.all_intervals")),
    (None, "poset.certify_s", ("poset.interval_structure",)),
    (None, "poset.mobius_s", ("poset.mobius",)),
    (None, "poset.decompose_s", ("poset.interval_decompose",)),
    (
        None,
        "poset.structure_checks_s",
        (
            "poset.cover_count_check",
            "poset.width_cover_check",
            "poset.upper_ideal_iso_check",
            "poset.initial_factorization_check",
            "poset.width_factorization_check",
            "poset.apex_chords_avoid_downset_check",
        ),
    ),
    ("polynomials.divides_calls", "polynomials.divides_s", ("polynomials.divides",)),
    ("polynomials.poly_calls", "polynomials.poly_s", ("polynomials.poly_for_dissection",)),
    (
        None,
        "polynomials.text_s",
        ("polynomials.FactoredPoly.text", "polynomials.Monomial.text"),
    ),
    (None, "polynomials.division_s", ("polynomials.expand", "polynomials.exact_quotient")),
    (None, "polynomials.involution_s", ("polynomials.involution_image",)),
    ("bijection.phi_calls", "bijection.phi_s", ("bijection.phi",)),
    ("bijection.psi_calls", "bijection.psi_s", ("bijection.psi",)),
    (None, "dyck.enumerate_s", ("dyck.enumerate_dyck",)),
    ("qsym.rank_calls", "qsym.rank_s", ("qsym.integer_matrix_rank",)),
    (None, "qsym.matrix_s", ("qsym.ideal_graded_matrix",)),
    ("qsym.fundamental_calls", "qsym.fundamental_s", ("qsym.fundamental_qsym",)),
    ("series.calls", "series.s", ("series.*",)),
)

# Counters the tracer fills from results of traced calls.
COUNTERS = (
    "dissections.elements",
    "poset.cover_pairs",
    "poset.intervals",
    "poset.mask_bytes",
    "qsym.rows",
    "qsym.cols",
    "qsym.nonzeros",
    "dyck.vectors",
)


class _Frame:
    __slots__ = ("layer", "groups", "sid", "pid", "owner", "child_s", "has_spans")


class Tracer:
    """Wraps polyflip in place and accumulates spans, counts and times."""

    def __init__(self):
        self.op = 0  # operation id stamped on spans; callers advance it
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.batches: dict[tuple[int, int, str], list] = {}
        self.next_sid = 1
        self.self_s = dict.fromkeys(LAYERS + ("trace",), 0.0)
        self.root_s = 0.0
        self.depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._posets: dict[int, object] = {}

    # -- frames -----------------------------------------------------------

    def _enter(self, layer: str, groups: tuple) -> _Frame:
        frame = _Frame()
        frame.layer = layer
        frame.groups = groups
        frame.child_s = 0.0
        frame.has_spans = False
        parent = self.stack[-1] if self.stack else None
        if parent is None or parent.layer != layer:
            frame.sid = self.next_sid
            self.next_sid += 1
            frame.pid = parent.sid if parent else 0
            frame.owner = frame
        else:
            frame.sid = parent.sid
            frame.pid = None
            frame.owner = parent.owner
        depth = self.depth
        for g in groups:
            depth[g] = depth.get(g, 0) + 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, name: str, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        self.self_s[frame.layer] += dur - frame.child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += dur
        else:
            self.root_s += dur
        for g in frame.groups:
            self.depth[g] -= 1
            if not self.depth[g]:
                self.calls[g] = self.calls.get(g, 0) + 1
                self.seconds[g] = self.seconds.get(g, 0.0) + dur
        if frame.pid is None:
            return
        if parent is not None:
            parent.owner.has_spans = True
        if frame.has_spans:
            self.spans.append((self.op, frame.sid, frame.pid, name, start, end))
            return
        key = (self.op, frame.pid, name)
        batch = self.batches.get(key)
        if batch is None:
            self.batches[key] = [frame.sid, start, end, 1, dur]
        else:
            batch[2] = end
            batch[3] += 1
            batch[4] += dur

    def _count(self, hook, result) -> None:
        # Counting is the tracer's own work: book it to the "trace" layer and
        # keep it out of the caller's self time.
        start = perf_counter()
        hook(self, result)
        dur = perf_counter() - start
        self.self_s["trace"] += dur
        if self.stack:
            self.stack[-1].child_s += dur
        else:
            self.root_s += dur

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, groups: tuple, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer, groups)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, start, perf_counter())
            if hook is not None:
                tracer._count(hook, result)
            return result

        return traced

    def _wrap_generator(self, name: str, layer: str, groups: tuple, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(layer, groups)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, name, start, perf_counter())
                tracer._count(hook, item)
                yield item

        return traced

    def install(self) -> None:
        """Wrap every public polyflip function and the listed methods."""
        modules = {layer: sys.modules[f"polyflip.{layer}"] for layer in LAYERS}
        groups_of: dict[str, tuple] = {}
        for _, seconds_metric, members in TIMED:
            for member in members:
                groups_of.setdefault(member, ())
                groups_of[member] += (seconds_metric,)

        def groups(name: str) -> tuple:
            layer = name.split(".", 1)[0]
            return groups_of.get(name, ()) + groups_of.get(f"{layer}.*", ())

        hooks = {
            "dissections.enumerate_dissections": _count_elements,
            "poset.FlipPoset.interval": _count_interval,
            "qsym.ideal_graded_matrix": _count_matrix,
            "dyck.enumerate_dyck": _count_vectors,
        }
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                hook = hooks.get(name)
                if attr == "build_poset":
                    hook = _build_counter(obj)
                replaced[id(obj)] = self._wrap(name, layer, groups(name), obj, hook)

        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{attr}"
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(name, layer, groups(name), raw.__func__))
            elif attr == "all_intervals":
                traced = self._wrap_generator(name, layer, groups(name), raw, _count_interval)
            else:
                traced = self._wrap(name, layer, groups(name), raw, hooks.get(name))
            setattr(cls, attr, traced)
        for layer, cls_name, attr in CACHED:
            prop = getattr(modules[layer], cls_name).__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            prop.func = self._wrap(name, layer, groups(name), prop.func)

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polyflip" and not mod_name.startswith("polyflip."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        suites = modules["verify"].SUITES
        for key, fn in suites.items():
            suites[key] = replaced.get(id(fn), fn)

    # -- results ----------------------------------------------------------

    def track_poset(self, poset) -> None:
        self._posets[id(poset)] = poset

    def mask_bytes(self) -> int:
        """Bytes held by reachability tables that are already built.

        Reads `__dict__` only, so asking builds nothing.
        """
        total = 0
        for poset in self._posets.values():
            for attr in ("up_masks", "down_masks"):
                masks = poset.__dict__.get(attr)
                if masks is not None:
                    total += sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
        return total

    def summary(self) -> dict:
        """Per-layer self times, metric calls and times, counters."""
        out = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        for calls_metric, seconds_metric, _ in TIMED:
            if calls_metric:
                out[calls_metric] = self.calls.get(seconds_metric, 0)
            out[seconds_metric] = self.seconds.get(seconds_metric, 0.0)
        out.update(self.counters)
        out["poset.mask_bytes"] = self.mask_bytes()
        out["trace.root_s"] = self.root_s
        return out

    def write_spans(self, fh) -> None:
        """Spans and batches as JSON lines, in order of their end."""
        records = [
            {"op": op, "id": sid, "parent": pid, "name": name,
             "start": start, "end": end, "calls": 1, "busy_s": end - start}
            for op, sid, pid, name, start, end in self.spans
        ]
        records += [
            {"op": op, "id": sid, "parent": pid, "name": name,
             "start": start, "end": end, "calls": calls, "busy_s": busy}
            for (op, pid, name), (sid, start, end, calls, busy) in self.batches.items()
        ]
        records.sort(key=lambda r: r["end"])
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _count_elements(tracer: Tracer, result) -> None:
    tracer.counters["dissections.elements"] += len(result)


def _count_interval(tracer: Tracer, result) -> None:
    tracer.counters["poset.intervals"] += 1


def _count_vectors(tracer: Tracer, result) -> None:
    tracer.counters["dyck.vectors"] += len(result)


def _count_matrix(tracer: Tracer, result) -> None:
    monomials, rows = result
    counters = tracer.counters
    counters["qsym.rows"] += len(rows)
    counters["qsym.cols"] += len(monomials)
    counters["qsym.nonzeros"] += sum(len(row) - row.count(0) for row in rows)


def _build_counter(cached):
    """Counts cover pairs of newly built posets; cache hits add nothing."""
    seen = {"misses": cached.cache_info().misses}

    def hook(tracer: Tracer, poset) -> None:
        tracer.track_poset(poset)
        misses = cached.cache_info().misses
        if misses != seen["misses"]:
            seen["misses"] = misses
            tracer.counters["poset.cover_pairs"] += sum(map(len, poset.covers_up))

    return hook
