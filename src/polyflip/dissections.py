"""Dissections of a convex polygon into (m+2)-gons: validation, enumeration,
flips and reflection.

An M-angulation of size n is a set of n-1 pairwise non-crossing diagonals
cutting the (m*n+2)-gon into n regions with m+2 sides each.  Vertices are
numbered 0..m*n+1 counter-clockwise; vertex 0 is the apex.  The fan (all
diagonals through the apex) is the base point of every construction here:
flips of shared fan diagonals generate the order studied in `poset`.

Labelled vertices: vertex i >= 1 carries the letter ((i-2) mod m) + 1, so the
letters 1..m repeat counter-clockwise and both neighbours of the apex carry
the last letter.

Validation policy: `validate`, one pass over the chords, is the one
validator; `regions` is the same check followed by the region walk.
`validate` reads non-crossing off a stack of the open spans and the
regions' shapes off the spans: its docstring gives the region argument.
It builds no table: one pass over the chords, at any size.
`Dissection.new` sorts and validates chord data from outside (`from_json`)
and the fan (`make_q0`); `bijection.psi`, whose validity is itself a claim
of the paper, validates its own sorted chords.  Everything derived here from
dissections already held (`flip_up` results, `reflect`) is built
unchecked, and enumeration is correct by construction.
`build_poset` checks its flip results by identity instead: it looks each
one up among the enumerated elements by chord bitmask and raises
MalformedDissection on a miss.  No suite builds a cut piece, an interval
core or a width block, or walks a region: the intervals suite reads each
element's down-set off its chords' nesting.  The poset suite runs
`validate` once on every element, and the tests check both
constructions, and the cut pieces, gluings and blocks of their own
oracles, against an independent face computation, and `validate` against
the pairwise crossing scan, the region walk and the region sweep it
replaced.

Memory: enumeration builds each chord set as one int (`_numbering`) and
decodes each element's mask once through the order's chord table
(`_chord_table`), so all elements share one tuple per chord: the 151 164
chord slots of the (1,10) order point at 54 tuples.  Sub-gap fillings are
memoized for one enumeration only, as masks in its order's numbering.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

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
        """Normalize, validate and return a dissection.  Chord data of
        another shape (no iterable, a chord that is no pair, a coordinate
        that sorting or validating cannot compare) raises
        MalformedDissection carrying the m, n and chords given, not the
        bare error."""
        try:
            q = cls(m, n, tuple(sorted((a, b) for a, b in chords)))
            validate(q)
        except (TypeError, ValueError) as exc:
            data = {"m": m, "n": n, "diagonals": chords}
            raise MalformedDissection(f"not dissection data: {exc!r}", data) from None
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
        """The dissection `to_json` wrote, validated.  This is where outside
        data comes in, so data of another shape raises MalformedDissection,
        not the bare error: no mapping or a key missing carrying the data,
        chords of another shape as `new` refuses them."""
        try:
            m, n, chords = data["m"], data["n"], data["diagonals"]
        except (KeyError, TypeError) as exc:
            raise MalformedDissection(f"not dissection data: {exc!r}", data) from None
        return cls.new(m, n, chords)


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


@lru_cache(maxsize=None)
def _chord_table(m: int, n: int) -> MappingProxyType:
    """Each chord (a, b) of the (m*n+2)-gon spanning 1 mod m, a + 2 <= b,
    the side (0, m*n+1) excepted, under its `_numbering` bit.  One
    read-only table per order, of chord tuples: enumeration decodes masks
    by it, and `build_poset` and `polynomials._factor_table` read their
    chords off it.  It holds O((mn)^2) chords, so only orders under the
    enumeration guard build it; `validate` reads no table."""
    K, W = _numbering(m, n)
    return MappingProxyType(
        {
            K - a * W - b: (a, b)
            for a in range(W)
            for b in range(a + m + 1, W + 2, m)
            if (a, b) != (0, W + 1)
        }
    )


def validate(q: Dissection) -> None:
    """Raise MalformedDissection, carrying q's JSON as its counterexample,
    unless q is a valid M-angulation: this is the validator.

    m and n must be exact ints: a float, a bool or a string is no size, and
    would fail later, outside the validator.  One pass over the diagonals
    checks each one (count, range, span mod m, strict sort) and keeps a
    stack of the open spans' ends, innermost last: a chord (a, b) crosses
    an earlier one iff b overruns the innermost span still open past a, the
    earlier chords from a itself aside (they nest inside (a, b), so it goes
    under them).  Only a crossing pays the pairwise scan, after every chord
    has passed its own checks, to name its first pair.

    No region is walked: n - 1 distinct non-crossing diagonals cut the
    polygon into n regions.  A region u_0 < ... < u_k is closed by the chord
    or side (u_0, u_k), which spans 1 mod m (the side spans m*n + 1), as
    does each of its other k sides, so k = 1 (mod m): its vertex count less
    2 is a positive multiple of m.  Those n multiples add up to m*n (m*n + 2
    sides and each chord twice, less 2 per region), so each is m, and every
    region is an (m+2)-gon.
    """
    m, n = q.m, q.n

    def bad(message: str) -> MalformedDissection:
        return MalformedDissection(message, q.to_json())

    if type(m) is not int or type(n) is not int:
        raise bad(f"need integers m, n, got m={m!r}, n={n!r}")
    if m < 1 or n < 1:
        raise bad(f"need m, n >= 1, got m={m}, n={n}")
    top = m * n + 1
    diagonals = q.diagonals
    if len(diagonals) != n - 1:
        raise bad(f"{len(diagonals)} diagonals, a size-{n} dissection needs {n - 1}")
    one = 1 % m
    prev = None
    ends, base, crossed = [top], 1, False  # the side stays open: a < top
    for d in diagonals:
        a, b = d
        # b - a < 2 also rejects b <= a
        if a < 0 or b > top or b - a < 2 or (a == 0 and b == top):
            raise bad(f"{d} is not a diagonal of the {top + 1}-gon")
        if (b - a) % m != one:
            raise bad(f"{d} spans {b - a} != 1 (mod {m}) boundary steps")
        if prev is not None and d <= prev:
            raise bad("diagonals not strictly sorted")
        if prev is None or a != prev[0]:  # a new start: close the spans ending by a
            while ends[-1] <= a:
                ends.pop()
            base = len(ends)
        prev = d
        # the chords from a come inner first: each goes in under the last
        crossed = crossed or b > ends[base - 1]
        ends.insert(base, b)
    if crossed:
        for c1, c2 in combinations(diagonals, 2):
            if chords_cross(c1, c2):
                raise bad(f"{c1} crosses {c2}")


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


def _numbering(m: int, n: int) -> tuple[int, int]:
    """(K, W): chord (a, b) of the (m*n+2)-gon holds bit K - (a*W + b), with
    W = m*n and K = W*W + 1.  As a+2 <= b <= W+1, a*W + b grows with (a, b)
    up to bit 0 at (W-1, W+1); the apex chords hold the bits from W*(W-1) up;
    moving chords x vertices on shifts them x*(W+1) bits down.  Equal-sized
    chord sets sort by descending mask as by ascending chord tuple: the least
    chord c of their symmetric difference holds the XOR's top bit, and the
    tuples agree before c's place, where one has c and the other a larger one."""
    return (m * n) ** 2 + 1, m * n


def _arc_fillings(m: int, n: int, gap: int, memo: dict) -> list[int]:
    # The chord sets dissecting the sub-polygon 0..gap into (m+2)-gons, as
    # masks in the (m, n) numbering.  The region hugging (0, gap) has vertices
    # 0, i + m*t_i (t_1 <= ... <= t_m) and gap; under each side go its gap's
    # fillings with their closing chord, from `memo` (seeded: an edge's [0]).
    K, W = _numbering(m, n)
    out = []
    for ts in combinations_with_replacement(range((gap - 1) // m), m):
        cuts = [0, *(i + m * t for i, t in enumerate(ts, 1)), gap]
        acc = [0]
        for x, y in zip(cuts, cuts[1:]):
            g, shift = y - x, x * (W + 1)
            if g not in memo:
                memo[g] = [f + (1 << K - g) for f in _arc_fillings(m, n, g, memo)]
            acc = [p + (f >> shift) for p in acc for f in memo[g]]
        out += acc
    return out


def check_size_guard(m: int, n: int, max_mn: int) -> None:
    """Raise SizeGuardExceeded when m*n > max_mn, with {m, n, max_mn} as
    its payload."""
    if m * n > max_mn:
        raise SizeGuardExceeded(
            f"m*n = {m * n} exceeds the guard {max_mn}",
            {"m": m, "n": n, "max_mn": max_mn},
        )


def _enumerated(m: int, n: int, max_mn: int) -> tuple[list[int], list[Dissection]]:
    """Every M-angulation's chord mask, descending (the canonical order), and
    the M-angulations they hold, one tuple per chord.  Size-guarded."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    check_size_guard(m, n, max_mn)
    masks = sorted(_arc_fillings(m, n, m * n + 1, {1: [0]}), reverse=True)
    table = _chord_table(m, n)
    elements = []
    for mask in masks:
        chords = []
        while mask:  # highest bit first: ascending chords
            k = mask.bit_length() - 1
            chords.append(table[k])
            mask ^= 1 << k
        elements.append(Dissection(m, n, tuple(chords)))
    return masks, elements


def enumerate_dissections(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> list[Dissection]:
    """All M-angulations of the (m*n+2)-gon, in canonical order.

    There are C((m+1)n, n)/(mn+1) of them (Fuss-Catalan).  Guarded: raises
    SizeGuardExceeded when m*n > max_mn.
    """
    return _enumerated(m, n, max_mn)[1]


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


def _mirror(size: int, d: Chord) -> Chord:
    # One chord's image under `reflect`, for a polygon of `size` vertices.
    x, y = (size - d[0]) % size, (size - d[1]) % size
    return (min(x, y), max(x, y))


def reflect(q: Dissection) -> Dissection:
    """Mirror image fixing the apex: vertex i -> (m*n+2-i) mod (m*n+2)."""
    size = q.num_vertices
    return _unchecked(q.m, q.n, [_mirror(size, d) for d in q.diagonals])
