"""Dissections of a convex polygon into (m+2)-gons: validation, enumeration,
flips and cutting.

An M-angulation of size n is a set of n-1 pairwise non-crossing diagonals
cutting the (m*n+2)-gon into n regions with m+2 sides each.  Vertices are
numbered 0..m*n+1 counter-clockwise; vertex 0 is the apex.  The fan (all
diagonals through the apex) is the base point of every construction here:
flips of shared fan diagonals generate the order studied in `poset`, and
cutting along shared fan diagonals reduces a dissection to final pieces.

Labelled vertices: vertex i >= 1 carries the letter ((i-2) mod m) + 1, so the
letters 1..m repeat counter-clockwise and both neighbours of the apex carry
the last letter.

Validation policy: `Dissection.new` is the one validating constructor.  It
runs `validate`, one linear pass over the chords; `regions` is the same
check followed by the region walk.  It takes chord data from outside
(`from_json`) and the constructions whose validity is itself a claim of
the paper (`make_q0` and `bijection.psi`).  Everything derived here from
dissections already held (`flip_up` results, `cut_L` pieces, `reflect`)
is built unchecked, and enumeration is correct by construction.
`build_poset` checks its flip results by identity instead: it looks each
one up among the enumerated elements by chord bitmask and raises
MalformedDissection on a miss.  No suite builds a cut piece, an interval
core or a width block: the intervals suite reads only each final's block
gaps.  The poset suite runs `validate` once on every element, and the
tests check the three constructions, and the gluings and blocks of their
own oracles, against an independent face computation, and `validate`
against the pairwise crossing scan and region walk it replaced.

Memory: enumeration builds every chord through one intern table
(`_chord`), so all enumerated elements share one tuple per chord: the
104 742 chord slots of the (1,10) order point at 54 tuples.  The fillings of
sub-gaps are memoized, but those of the top gap m*n+1 come from the
uncached body and are freed once the elements exist.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from operator import itemgetter

from .errors import (
    MalformedDissection,
    NotAQ0Diagonal,
    NotFinal,
    SizeGuardExceeded,
)

#: Default ceiling on m*n for exhaustive enumerations.
DEFAULT_MAX_MN = 16

Chord = tuple[int, int]


def chords_cross(c1: Chord, c2: Chord) -> bool:
    """True iff two chords (a, b) with a < b cross in the open disk.

    Chords sharing an endpoint never cross.
    """
    a1, b1 = c1
    a2, b2 = c2
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def vertex_label(m: int, i: int) -> int:
    """Letter (1..m) of vertex i >= 1.  The apex itself carries no letter."""
    if i < 1:
        raise ValueError("the apex carries no letter")
    return (i - 2) % m + 1


@dataclass(frozen=True, order=True, slots=True)
class Dissection:
    """An M-angulation, stored canonically as a sorted tuple of diagonals.

    Equality, hashing and ordering all go through (m, n, diagonals), so the
    canonical storage doubles as the identity key.  Use :meth:`new` to
    normalize and validate chord data from outside.
    """

    m: int
    n: int
    diagonals: tuple[Chord, ...]

    @classmethod
    def new(cls, m: int, n: int, chords) -> "Dissection":
        """Normalize, validate and return a dissection."""
        q = cls(m, n, tuple(sorted((a, b) for a, b in chords)))
        validate(q)
        return q

    @property
    def num_vertices(self) -> int:
        return self.m * self.n + 2

    @property
    def rank(self) -> int:
        """Number of diagonals avoiding the apex (= rank in the flip order).

        Any valid diagonal through the apex is a fan diagonal, so counting
        nonzero first endpoints is exact.
        """
        return sum(1 for a, _ in self.diagonals if a != 0)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "diagonals": [list(d) for d in self.diagonals],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Dissection":
        return cls.new(data["m"], data["n"], (tuple(d) for d in data["diagonals"]))


def _unchecked(m: int, n: int, chords) -> Dissection:
    # A dissection valid by construction (see the validation policy above).
    return Dissection(m, n, tuple(sorted(chords)))


def _chord_ends(chords) -> dict[int, list[int]]:
    # Each vertex's chord endpoints above it, farthest first.
    ends: dict[int, list[int]] = {}
    for a, b in chords:
        ends.setdefault(a, []).append(b)
    for a in ends:
        ends[a].sort(reverse=True)
    return ends


def _walk_region(ends: dict[int, list[int]], lo: int, hi: int) -> tuple[int, ...]:
    # The region of the sub-polygon lo..hi hugging its closing chord (lo, hi),
    # a chord of q or the side (0, m*n+1): from vertex u the next region
    # vertex is the farthest chord endpoint <= hi (the closing chord itself
    # excluded), else u+1.  Non-crossing chords make the walk well defined;
    # it terminates because u strictly increases.
    cycle = [lo]
    u = lo
    while u != hi:
        nxt = u + 1
        for b in ends.get(u, ()):
            if b <= hi and not (u == lo and b == hi):
                nxt = b
                break
        cycle.append(nxt)
        u = nxt
    return tuple(cycle)


def _walk_regions(q: Dissection) -> list[tuple[int, ...]]:
    # Peel off the region hugging the closing chord of each sub-polygon.
    ends = _chord_ends(q.diagonals)
    regs = []
    stack = [(0, q.m * q.n + 1)]
    while stack:
        cycle = _walk_region(ends, *stack.pop())
        regs.append(cycle)
        for x, y in zip(cycle, cycle[1:]):
            if y - x >= 2:
                stack.append((x, y))
    regs.sort()
    return regs


def _region_sizes(top: int, chords) -> list[int] | None:
    """The vertex count of each region that `chords`, sorted, cut from the
    polygon 0..top, or None at the first chord that crosses an open span.

    One pass over the spans, the side (0, top) and the chords by (a, -b),
    with a stack of the open spans: each span closes the region of its own
    vertices minus those strictly inside its maximal sub-spans.
    """
    ends, sizes, closed = [top], [top + 1], []  # the side stays open: a < top
    # stable by a on the descending chords: the (a, -b) order
    for a, b in sorted(reversed(chords), key=itemgetter(0)):
        while ends[-1] <= a:
            ends.pop()
            closed.append(sizes.pop())
        if b > ends[-1]:
            return None
        sizes[-1] -= b - a - 1
        ends.append(b)
        sizes.append(b - a + 1)
    closed += sizes
    return closed


def validate(q: Dissection) -> None:
    """Raise MalformedDissection, carrying q's JSON as its counterexample,
    unless q is a valid M-angulation: this is the validator.

    The diagonals are checked one by one (count, range, span mod m, strict
    sort), then the regions' sizes are read in one pass (`_region_sizes`).
    Only a crossing pays the pairwise scan, to name its first pair.
    """
    m, n = q.m, q.n

    def bad(message: str) -> MalformedDissection:
        return MalformedDissection(message, q.to_json())

    if m < 1 or n < 1:
        raise bad(f"need m, n >= 1, got m={m}, n={n}")
    top = m * n + 1
    diagonals = q.diagonals
    if len(diagonals) != n - 1:
        raise bad(f"{len(diagonals)} diagonals, a size-{n} dissection needs {n - 1}")
    one = 1 % m
    prev = None
    for d in diagonals:
        a, b = d
        # b - a < 2 also rejects b <= a
        if a < 0 or b > top or b - a < 2 or (a == 0 and b == top):
            raise bad(f"{d} is not a diagonal of the {top + 1}-gon")
        if (b - a) % m != one:
            raise bad(f"{d} spans {b - a} != 1 (mod {m}) boundary steps")
        if prev is not None and d <= prev:
            raise bad("diagonals not strictly sorted")
        prev = d
    closed = _region_sizes(top, diagonals)
    if closed is None:
        for c1, c2 in combinations(diagonals, 2):
            if chords_cross(c1, c2):
                raise bad(f"{c1} crosses {c2}")
    # Cannot fail after the checks above: the sweep stops only at a chord
    # crossing an open span, which the scan names; each of the n regions'
    # sizes less 2 is a positive multiple of m (every span is 1 mod m), and
    # they add up to m*n (m*n+2 sides and each chord twice, less 2 per region).
    assert closed and len(closed) == n and closed.count(m + 2) == n, (q, closed)


def regions(q: Dissection) -> list[tuple[int, ...]]:
    """The n regions, each as its ascending (= counter-clockwise) vertex
    cycle, sorted by smallest vertex.

    Raises MalformedDissection as `validate` does unless q is a valid
    M-angulation; then walks the regions.
    """
    validate(q)
    return _walk_regions(q)


def is_final(q: Dissection) -> bool:
    """True iff q shares no diagonal with the fan."""
    return all(a != 0 for a, _ in q.diagonals)


@lru_cache(maxsize=None)
def make_q0(m: int, n: int) -> Dissection:
    """The fan: diagonals (0, m*k+1) for k = 1..n-1, the flip-order minimum."""
    return Dissection.new(m, n, [(0, m * k + 1) for k in range(1, n)])


def apex_region(q: Dissection) -> tuple[int, ...]:
    """The region containing the apex; well defined only when q is final."""
    if not is_final(q):
        raise NotFinal("the apex region is only unique for final dissections")
    return _walk_region(_chord_ends(q.diagonals), 0, q.m * q.n + 1)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _chord(a: int, b: int) -> Chord:
    # The one shared tuple for the chord (a, b).
    return (a, b)


@lru_cache(maxsize=None)
def _arc_fillings(m: int, gap: int) -> tuple[tuple[Chord, ...], ...]:
    # All chord sets dissecting the sub-polygon 0..gap (closed by the chord or
    # side (0, gap)) into (m+2)-gons.  gap == 1 (mod m) always.  Every chord
    # is built through `_chord`, so equal chords are one object.
    if gap == 1:
        return ((),)
    free = (gap - 1) // m - 1  # regions left after the one hugging (0, gap)
    out = []
    for comp in _compositions(free, m + 1):
        cuts = [0]
        for a in comp:
            cuts.append(cuts[-1] + m * a + 1)
        side_chords = tuple(
            _chord(x, y) for x, y in zip(cuts, cuts[1:]) if y - x >= 2
        )
        gap_choices = [
            tuple(
                tuple(_chord(a + x, b + x) for a, b in filling)
                for filling in _arc_fillings(m, y - x)
            )
            for x, y in zip(cuts, cuts[1:])
        ]
        for pieces in product(*gap_choices):
            out.append(side_chords + tuple(chain.from_iterable(pieces)))
    return tuple(out)


def check_size_guard(m: int, n: int, max_mn: int) -> None:
    """Raise SizeGuardExceeded when m*n > max_mn, with {m, n, max_mn} as
    its payload."""
    if m * n > max_mn:
        raise SizeGuardExceeded(
            f"m*n = {m * n} exceeds the guard {max_mn}",
            {"m": m, "n": n, "max_mn": max_mn},
        )


def enumerate_dissections(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> list[Dissection]:
    """All M-angulations of the (m*n+2)-gon, in canonical order.

    There are C((m+1)n, n)/(mn+1) of them (Fuss-Catalan).  Guarded: raises
    SizeGuardExceeded when m*n > max_mn.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    check_size_guard(m, n, max_mn)
    # The top gap's fillings come from the uncached body: only the sub-gaps
    # stay memoized, and the top-level list is freed once the elements exist.
    quads = [_unchecked(m, n, ch) for ch in _arc_fillings.__wrapped__(m, m * n + 1)]
    quads.sort(key=lambda q: q.diagonals)  # m and n are fixed here
    return quads


def flip_up(q: Dissection, d: Chord) -> list[Dissection]:
    """The m dissections obtained by re-cutting the (2m+2)-gon exposed by
    removing the shared fan diagonal d.

    The merged polygon c_0 < ... < c_{2m+1} admits m+1 long chords
    (c_i, c_{i+m+1}); one of them is d itself, the other m give the results
    (each covers q in the flip order).  Results come sorted by new chord.
    """
    d = (d[0], d[1])
    if d not in q.diagonals or d[0] != 0:
        raise NotAQ0Diagonal(f"{d} is not a shared fan diagonal")
    # The two regions beside d: the one d closes, and the one closed by the
    # next fan chord above d (or by the side (0, m*n+1)), which starts 0, d[1].
    ends = _chord_ends(q.diagonals)
    above = min((b for b in ends[0] if b > d[1]), default=q.m * q.n + 1)
    below, beside = _walk_region(ends, 0, d[1]), _walk_region(ends, 0, above)
    merged = sorted(set(below) | set(beside))
    span = q.m + 1
    assert len(merged) == 2 * span and (merged[0], merged[span]) == d
    rest = set(q.diagonals) - {d}
    out = []
    for i in range(span):
        chord = (merged[i], merged[i + span])
        if chord != d:
            out.append(_unchecked(q.m, q.n, rest | {chord}))
    return out


def cut_L(q: Dissection) -> list[Dissection]:
    """Cut along the shared fan diagonals; pieces in counter-clockwise order.

    Each piece keeps the apex as its own vertex 0 and re-indexes its arc from
    1; every piece is final.  A final q yields [q] itself.
    """
    m = q.m
    bounds = [1] + [b for a, b in q.diagonals if a == 0] + [q.num_vertices - 1]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        chords = [
            (a - lo + 1, b - lo + 1)
            for a, b in q.diagonals
            if lo <= a and b <= hi
        ]
        pieces.append(_unchecked(m, (hi - lo) // m, chords))
    return pieces


def _block_gaps(q: Dissection) -> list[tuple[int, int]]:
    """The gaps (u, w) between consecutive apex-region vertices of a final
    q that hold a width block, one per block, so their number is q's
    width (raises NotFinal)."""
    r0 = apex_region(q)
    return [(u, w) for u, w in zip(r0[1:], r0[2:]) if w - u >= 2]


def reflect(q: Dissection) -> Dissection:
    """Mirror image fixing the apex: vertex i -> (m*n+2-i) mod (m*n+2)."""
    size = q.num_vertices
    chords = []
    for a, b in q.diagonals:
        x, y = (size - a) % size, (size - b) % size
        chords.append((min(x, y), max(x, y)))
    return _unchecked(q.m, q.n, chords)
