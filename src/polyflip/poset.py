"""The flip order on M-angulations of one polygon.

An up-flip removes an apex diagonal, merges its two neighbour regions into
a (2m+2)-gon, and re-cuts that along one of the m other long chords; the
transitive closure of up-flips is the order.  The fan is the unique
minimum, final M-angulations are the maximal elements, and the rank of an
element is its number of non-apex diagonals.

The checks in this module certify the advertised structure exactly: cover
degrees, maximal chain counts, descent witnesses, interval lattices and
their order-ideal forests, and the isomorphisms that split intervals over
cut pieces and width blocks, all read by translating chord bits.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import factorial
from operator import itemgetter
from types import MappingProxyType

from .dissections import (
    DEFAULT_MAX_MN,
    Chord,
    Dissection,
    _block_gaps,
    _glue_frame,
    _unchecked,
    apex_region,
    chords_cross,
    cut_L,
    enumerate_dissections,
    is_final,
    make_q0,
)
from .errors import (
    MalformedDissection,
    NoWitness,
    StructureViolation,
    VerificationFailure,
)
from .series import fuss_catalan


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reached(covers, start: int, keep=None) -> set[int]:
    """Indices reachable from start over `covers` (start included), by DFS;
    with `keep`, only through the indices it accepts."""
    seen = {start}
    todo = [start]
    while todo:
        for y in covers[todo.pop()]:
            if y not in seen and (keep is None or keep(y)):
                seen.add(y)
                todo.append(y)
    return seen


def _fold(order, covers) -> tuple[int, ...]:
    """Bit j of entry k marks j reached from k over `covers` (k included);
    `order` lists every k after all of its covers."""
    masks = [0] * len(covers)
    for k in order:
        acc = 1 << k
        for w in covers[k]:
            acc |= masks[w]
        masks[k] = acc
    return tuple(masks)


@dataclass(frozen=True, eq=False)
class FlipPoset:
    """All M-angulations for one (m, n) with their cover relation.

    Elements sit in canonical (sorted) order.  Comparisons read the flip
    order as inclusion of non-apex diagonal sets (`diagonal_masks`, a few
    dozen bits per element; `inclusion_check` certifies the theorem for an
    order), and intervals walk the covers, so no query and no suite builds
    the O(N^2) reachability closure.  Frozen, with read-only mappings and
    no memo that grows: `build_poset` shares one instance per order.
    """

    m: int
    n: int
    elements: tuple[Dissection, ...]
    covers_up: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> MappingProxyType:
        return MappingProxyType({q: i for i, q in enumerate(self.elements)})

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(q.rank for q in self.elements)

    @cached_property
    def covers_down(self) -> tuple[tuple[int, ...], ...]:
        down = [[] for _ in self.elements]
        for i, ups in enumerate(self.covers_up):
            for j in ups:
                down[j].append(i)
        return tuple(tuple(sorted(d)) for d in down)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """The reachability closure: bit j of entry i marks j at or above i
        (`down_masks`: at or below).  Nothing in the package reads either;
        they stay only because the benchmark tracer (`perfbench/tracer.py`)
        names them, until ROADMAP item 1 drops those names."""
        ranks = self.ranks
        order = sorted(range(len(ranks)), key=ranks.__getitem__, reverse=True)
        return _fold(order, self.covers_up)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        ranks = self.ranks
        return _fold(sorted(range(len(ranks)), key=ranks.__getitem__), self.covers_down)

    @cached_property
    def diagonal_bits(self) -> MappingProxyType:
        """Each non-apex chord of the order -> its bit in `diagonal_masks`,
        numbered in order of first appearance."""
        chords = dict.fromkeys(chain.from_iterable(q.diagonals for q in self.elements))
        return MappingProxyType({d: k for k, d in enumerate(d for d in chords if d[0])})

    @cached_property
    def diagonal_masks(self) -> tuple[int, ...]:
        """Element i's non-apex diagonals as a bitmask over `diagonal_bits`."""
        one = {d: 1 << k for d, k in self.diagonal_bits.items()}
        masks = []
        for q in self.elements:
            acc = 0
            for d in q.diagonals:
                if d[0]:
                    acc |= one[d]
            masks.append(acc)
        return tuple(masks)

    def leq(self, a: Dissection, b: Dissection) -> bool:
        D = self.diagonal_masks
        return not D[self.index[a]] & ~D[self.index[b]]

    @property
    def minimum(self) -> Dissection:
        return make_q0(self.m, self.n)

    def maximal_elements(self) -> list[Dissection]:
        return [q for i, q in enumerate(self.elements) if not self.covers_up[i]]

    def interval(self, bottom: Dissection, top: Dissection) -> "Interval":
        """[bottom, top]: the elements reached from bottom over the covers
        through elements whose diagonal set lies inside top's."""
        bi, ti = self.index[bottom], self.index[top]
        D = self.diagonal_masks
        dt = D[ti]
        if D[bi] & ~dt:
            raise ValueError(f"{bottom} is not below {top}")
        inside = _reached(self.covers_up, bi, lambda j: not D[j] & ~dt)
        return Interval(self, bi, ti, sum(1 << j for j in inside))

    def intervals_above(self, bi: int):
        """Every interval with bottom element bi, by ascending top.

        Its up-set by DFS over the covers, then the down-closure of each
        element inside that up-set from its lower covers, in rank order,
        which is the interval up to that element.
        """
        ranks, lower = self.ranks, self.covers_down
        up = sorted(_reached(self.covers_up, bi))
        down: dict[int, int] = {}
        for x in sorted(up, key=ranks.__getitem__):
            acc = 1 << x
            for w in lower[x]:
                if w in down:
                    acc |= down[w]
            down[x] = acc
        for ti in up:
            yield Interval(self, bi, ti, down[ti])

    def all_intervals(self):
        """Every interval, by bottom and then ascending top."""
        for bi in range(len(self.elements)):
            yield from self.intervals_above(bi)


@dataclass(frozen=True, eq=False)
class Interval:
    poset: FlipPoset
    bottom: int
    top: int
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return list(_bits(self.mask))

    def elements(self) -> list[Dissection]:
        return [self.poset.elements[i] for i in self.indices()]

    @property
    def bottom_q(self) -> Dissection:
        return self.poset.elements[self.bottom]

    @property
    def top_q(self) -> Dissection:
        return self.poset.elements[self.top]

    def to_json(self) -> list[dict]:
        """[bottom, top], the counterexample payload of interval checks."""
        return [self.bottom_q.to_json(), self.top_q.to_json()]

    @cached_property
    def closure(self) -> "LocalClosure":
        """The order on the mask's elements from the covers among them
        alone, shared by `mobius` and `interval_structure`."""
        idx = tuple(self.indices())
        pos = {z: k for k, z in enumerate(idx)}
        ups = tuple(
            tuple(pos[w] for w in self.poset.covers_up[z] if w in pos) for z in idx
        )
        downs = [[] for _ in idx]
        for k, ws in enumerate(ups):
            for w in ws:
                downs[w].append(k)
        ranks = self.poset.ranks
        order = tuple(sorted(range(len(idx)), key=lambda k: ranks[idx[k]]))
        below, above = _fold(order, downs), _fold(reversed(order), ups)
        return LocalClosure(idx, ups, tuple(map(tuple, downs)), order, below, above)


@dataclass(frozen=True)
class LocalClosure:
    """An interval's order in local positions: position k is element
    `idx[k]`, `ups[k]` and `downs[k]` its covers inside the interval,
    `order` the positions by rank, and bit j of `below[k]` (`above[k]`)
    marks j at or below (above) k."""

    idx: tuple[int, ...]
    ups: tuple[tuple[int, ...], ...]
    downs: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    below: tuple[int, ...]
    above: tuple[int, ...]


def _locate(index: Mapping, q: Dissection) -> int:
    """Position of a derived dissection among the enumerated elements.

    Cuts and descent swaps build their results unchecked, so a miss here
    is a malformed result, reported with the dissection as counterexample
    (`build_poset` raises the same for a flip result).
    """
    i = index.get(q)
    if i is None:
        raise _derived_miss(q)
    return i


def _derived_miss(q: Dissection) -> MalformedDissection:
    return MalformedDissection(
        f"derived {q} is not among the enumerated M-angulations", q.to_json()
    )


def _up_flips(q: Dissection) -> list[tuple[Chord, Chord]]:
    """(d, c) for each up-flip of q: the fan diagonal d it removes and the
    chord c it draws, as `flip_up` finds them, from one walk along the
    apex path.

    reach[u] is the farthest chord end from vertex u >= 1, else u + 1.  A
    chord from a vertex of the path cannot pass the next fan end b without
    crossing the fan diagonal (0, b), so following reach from 1 to m*n+1
    walks the k+1 apex regions less the apex: a path P of m(k+1)+1
    vertices with the i-th fan end b_i (from 1) at j = m*i.  Flip (0, b_i)
    merges the two regions beside it into the (2m+2)-gon 0, P[j-m..j+m],
    and draws its other long chords (P[j-m+t-1], P[j+t]) for t = 1..m.
    """
    m, top = q.m, q.m * q.n + 1
    reach = list(range(2, top + 1))  # reach[u - 1], for u = 1..m*n
    fan = []
    for a, b in q.diagonals:  # sorted: a vertex's farthest end comes last
        if a:
            reach[a - 1] = b
        else:
            fan.append(b)
    path = [1]
    u = 1
    while u != top:
        u = reach[u - 1]
        path.append(u)
    assert path[m::m] == [*fan, top], (q, path)
    out = []
    for j, b in zip(range(m, len(path), m), fan):
        d = (0, b)
        out += [(d, (path[j - m + t - 1], path[j + t])) for t in range(1, m + 1)]
    return out


@lru_cache(maxsize=None)
def build_poset(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> FlipPoset:
    """The order on the enumerated elements.  Each flip result is looked up
    by its chord bitmask, one bit per distinct chord; a result that is
    none of them raises MalformedDissection as `_locate` does."""
    elements = tuple(enumerate_dissections(m, n, max_mn))
    ids = list(range(len(elements)))  # one int each for the covers and index
    chords = dict.fromkeys(chain.from_iterable(q.diagonals for q in elements))
    bit = {d: 1 << k for k, d in enumerate(chords)}
    keys = [sum(map(bit.__getitem__, q.diagonals)) for q in elements]
    at = dict(zip(keys, ids))
    covers = []
    for q, key in zip(elements, keys):
        ups = set()
        for d, c in _up_flips(q):
            j = at.get(key ^ bit[d] | bit[c]) if c in bit else None
            if j is None:
                kept = [x for x in q.diagonals if x != d]
                raise _derived_miss(_unchecked(m, n, kept + [c]))
            ups.add(j)
        covers.append(tuple(sorted(ups)))
    del keys, at  # freed before the index is built: the two never coexist
    poset = FlipPoset(m, n, elements, tuple(covers))
    poset.__dict__["index"] = MappingProxyType(dict(zip(elements, ids)))
    return poset


def _order(m: int, n: int) -> FlipPoset:
    """The (m, n) flip order, once the caller has checked its guard, under
    the cache key of a caller's own `build_poset(m, n)`."""
    return build_poset(m, n) if m * n <= DEFAULT_MAX_MN else build_poset(m, n, m * n)


def _order_of_size(poset: FlipPoset, n: int) -> FlipPoset:
    """The size-n order for poset's m: poset itself at its own size, else
    `_order(m, n)`, the caller having checked its cap."""
    return poset if n == poset.n else _order(poset.m, n)


def cover_count_check(poset: FlipPoset) -> bool:
    """Every rank-r element has exactly m*(n-1-r) upward covers."""
    m, n = poset.m, poset.n
    for i, q in enumerate(poset.elements):
        want = m * (n - 1 - poset.ranks[i])
        got = len(poset.covers_up[i])
        if got != want:
            raise VerificationFailure(
                f"{q} has {got} covers, expected {want}"
            )
    return True


@lru_cache(maxsize=None)
def _fillings(m: int, vertices: int) -> int:
    """M-angulations of a polygon with this many vertices: FC(m, k) for
    m*k+2 of them, else none."""
    k, r = divmod(vertices - 2, m)
    return 0 if r else fuss_catalan(m, k)


def _containing_count(m: int, n: int, chords) -> int:
    """How many M-angulations of the (m*n+2)-gon contain `chords`, pairwise
    non-crossing diagonals off the apex: the product of FC(m, k) over the
    regions they cut, a region of m*k+2 vertices having FC(m, k) of its own.

    Spans are the chords, given sorted as an element holds them, and the
    side (0, m*n+1); each closes the region made of its own vertices minus
    those strictly inside its maximal sub-spans, found in one pass in
    (a, -b) order with a stack of the open spans.
    """
    total = 1
    ends, sizes = [m * n + 1], [m * n + 2]  # each open span's end and vertices
    # stable by a on the descending chords: the (a, -b) order
    for a, b in sorted(reversed(chords), key=itemgetter(0)):
        while ends[-1] <= a:
            ends.pop()
            total *= _fillings(m, sizes.pop())
        sizes[-1] -= b - a - 1
        ends.append(b)
        sizes.append(b - a + 1)
    for vertices in sizes:
        total *= _fillings(m, vertices)
    return total


def inclusion_check(poset: FlipPoset) -> bool:
    """Certify that the order is inclusion of non-apex diagonal sets, the
    theorem `leq` and `interval` read it by, from facts local to each
    element: no up-set is walked.

    (a) Every cover adds exactly one non-apex diagonal.  (b) D, the map to
    diagonal masks, is injective: the masks are N distinct ints.  (c) Each
    element's lower covers remove exactly the bits of its maximal spans,
    the non-apex diagonals nested in no other: D[i] less the chords nested
    inside its own, read off one nest mask per chord of the order.

    Proof, for elements that are M-angulations.  By (a), Q <= Q' puts
    D(Q) inside D(Q').  Conversely let D(Q) be a proper subset of D(Q').
    Some maximal span of Q' is not in D(Q): otherwise Q holds every span
    closing the apex region of Q', and under each span both are
    dissections into (m+2)-gons by non-apex diagonals, one inside the
    other, so D(Q) = D(Q').  By (c), Q' covers an R with D(R) = D(Q') less
    that span, so D(Q) lies in D(R), and induction on |D(Q') - D(Q)| ends
    at an element with Q's mask, which is Q by (b).  So Q <= Q'.

    Raises VerificationFailure with an element's JSON.
    """
    D, elements = poset.diagonal_masks, poset.elements
    for i, q in enumerate(elements):
        for j in poset.covers_up[i]:
            if D[i] & ~D[j] or (D[i] ^ D[j]).bit_count() != 1:
                raise VerificationFailure(
                    f"cover {q} -> {elements[j]} does not add exactly one "
                    f"non-apex diagonal",
                    q.to_json(),
                )
    if len(set(D)) != len(D):
        first: dict[int, int] = {}
        i = next(i for i, d in enumerate(D) if first.setdefault(d, i) != i)
        q = elements[i]
        raise VerificationFailure(
            f"{q} and {elements[first[D[i]]]} hold the same non-apex diagonals",
            q.to_json(),
        )
    bits = poset.diagonal_bits
    inside = {  # each chord -> the chords nested inside it, as a mask
        (a, b): sum(1 << k for (u, v), k in bits.items() if a <= u and v <= b) ^ 1 << j
        for (a, b), j in bits.items()
    }
    for i, q in enumerate(elements):
        nested = removed = 0
        for d in q.diagonals:
            if d[0]:
                nested |= inside[d]
        for j in poset.covers_down[i]:
            removed |= D[i] ^ D[j]
        if removed != D[i] & ~nested:
            raise VerificationFailure(
                f"the lower covers of {q} do not remove exactly its maximal spans",
                q.to_json(),
            )
    return True


def maximal_chain_count(poset: FlipPoset) -> int:
    """Number of saturated chains from the fan to a maximal element."""
    ranks = poset.ranks
    counts = [0] * len(ranks)
    for i in sorted(range(len(ranks)), key=ranks.__getitem__, reverse=True):
        ups = poset.covers_up[i]
        counts[i] = sum(counts[j] for j in ups) if ups else 1
    return counts[poset.index[poset.minimum]]


def expected_maximal_chain_count(m: int, n: int) -> int:
    return m ** (n - 1) * factorial(n - 1)


def _descent_swap(q: Dissection) -> tuple[Chord, Dissection]:
    """The descent lemma's witness for q and the swap it gives.

    The witness is an apex diagonal crossing exactly one diagonal d of q;
    trading d for it gives `lower`, which q should cover.  Such a chord
    always exists away from the fan (NoWitness otherwise).  `lower` is
    built unchecked: the poset suite looks it up among the enumerated
    elements.
    """
    for k in range(1, q.n):
        cand = (0, q.m * k + 1)
        crossed = [d for d in q.diagonals if chords_cross(cand, d)]
        if len(crossed) == 1:
            kept = [d for d in q.diagonals if d != crossed[0]]
            return cand, _unchecked(q.m, q.n, kept + [cand])
    raise NoWitness(
        f"no apex diagonal crosses exactly one diagonal of {q}", q.to_json()
    )


def descent_check(poset: FlipPoset) -> bool:
    """Every element but the fan covers its descent swap.

    The swap must be an enumerated element with q among its upward covers.
    With every cover one rank up (checked by the poset suite), induction on
    rank gives each element a saturated chain of length `rank` to the fan.
    """
    q0 = poset.minimum
    for i, q in enumerate(poset.elements):
        if q == q0:
            continue
        _, lower = _descent_swap(q)
        if i not in poset.covers_up[_locate(poset.index, lower)]:
            raise VerificationFailure(
                f"descent swap {lower} of {q} is not a lower cover", q.to_json()
            )
    return True


def mobius(interval: Interval) -> int:
    """mu(bottom, top) by the recursion mu(z) = -sum of mu(w) over w < z,
    in rank order.  Positions are kept by their value, so each sum takes
    one mask and a popcount per nonzero value, not a step per element."""
    local = interval.closure
    bottom = local.idx.index(interval.bottom)
    by_value = {1: 1 << bottom}  # each nonzero value -> its positions
    for z in local.order:
        if z != bottom:
            below, mu = local.below[z] ^ 1 << z, 0
            for v, held in by_value.items():
                mu -= v * (below & held).bit_count()
            if mu:
                by_value[mu] = by_value.get(mu, 0) | 1 << z
    top = 1 << local.idx.index(interval.top)
    for v, held in by_value.items():
        if held & top:
            return v
    return 0


def _translation(bits: Mapping, small: FlipPoset, pos: Mapping) -> dict[int, int]:
    """j -> 1 << k for each chord (a, b) -> j of `bits`, some of an order's
    `diagonal_bits`, whose image (pos[a], pos[b]) is chord k of small's."""
    small_bits = small.diagonal_bits
    image = {}
    for (a, b), j in bits.items():
        k = small_bits.get((pos.get(a), pos.get(b)))
        if k is not None:
            image[j] = 1 << k
    return image


@dataclass(frozen=True)
class ForestPoset:
    """Each node covered by at most one parent; parent -1 marks a root."""

    nodes: tuple[int, ...]
    parents: tuple[int, ...]

    def ideal_count(self) -> int:
        children = [[] for _ in self.nodes]
        roots = []
        for i, p in enumerate(self.parents):
            if p < 0:
                roots.append(i)
            else:
                children[p].append(i)

        def grown(i: int) -> int:
            acc = 1
            for c in children[i]:
                acc *= grown(c)
            return 1 + acc

        total = 1
        for r in roots:
            total *= grown(r)
        return total


def is_lattice(poset: FlipPoset):
    """Whether the order is a lattice.  Being finite, it is one exactly when
    it has a least element and every pair has a least upper bound.

    Two minimal elements have no meet, and two maximal ones no join, so the
    covers alone answer for every flip order but n = 1 and (1, 2).  Only a
    bounded order is scanned, as one interval from its least to its
    greatest element, pair by pair on that interval's local closure.
    Returns (True, None) or (False, witness pair): the poset suite's
    ambient observation.  Intervals are certified by `interval_structure`.
    """
    ends = []
    for covers in (poset.covers_down, poset.covers_up):
        extremes = [i for i, ws in enumerate(covers) if not ws]
        if len(extremes) > 1:
            return False, (poset.elements[extremes[1]], poset.elements[extremes[0]])
        ends += extremes
    up = Interval(poset, *ends, (1 << len(poset.elements)) - 1).closure.above
    for a in range(len(up)):
        for b in range(a):
            uppers = up[a] & up[b]
            if not any(up[z] & uppers == uppers for z in _bits(uppers)):
                return False, (poset.elements[a], poset.elements[b])
    return True, None


def interval_structure(interval: Interval) -> tuple[bool, ForestPoset]:
    """Certify one interval: a distributive lattice of forest order ideals.

    The join-irreducibles (one in-interval lower cover) must form a forest,
    each with at most one minimal irreducible above it, and the forest must
    have as many order ideals as the interval has elements.  Birkhoff's map
    x -> J(x), the irreducibles below x, then goes into those ideals; it
    must be injective, each in-interval cover x < y must add exactly one
    irreducible, and x must have as many in-interval up-covers as J(x) has
    one-element extensions.  Then the map is a bijection that takes covers
    onto covers, so the interval is the forest's ideal lattice, which is
    distributive (Birkhoff 1937).  Raises StructureViolation otherwise.
    """
    poset = interval.poset
    local = interval.closure
    up, down, covers = local.above, local.below, local.ups

    def violation(message: str) -> StructureViolation:
        return StructureViolation(
            f"{message} in [{interval.bottom_q}, {interval.top_q}]", interval.to_json()
        )

    def name(k: int) -> Dissection:
        return poset.elements[local.idx[k]]

    irr = [k for k, ws in enumerate(local.downs) if len(ws) == 1]
    irr_mask = sum(1 << k for k in irr)
    parents = []
    for z in irr:
        uppers = (up[z] & irr_mask) ^ (1 << z)
        minimal = [w for w in _bits(uppers) if down[w] & uppers == 1 << w]
        if len(minimal) > 1:
            raise violation(
                f"irreducible {name(z)} covered by {len(minimal)} irreducibles"
            )
        parents.append(irr.index(minimal[0]) if minimal else -1)
    forest = ForestPoset(tuple(local.idx[k] for k in irr), tuple(parents))
    if forest.ideal_count() != interval.size:
        raise violation(
            f"{forest.ideal_count()} forest ideals for an interval of size "
            f"{interval.size}"
        )
    ideal = [d & irr_mask for d in down]
    if len(set(ideal)) != interval.size:
        raise violation("two elements have the same irreducibles below them")
    for x, jx in enumerate(ideal):
        for y in covers[x]:
            if jx & ~ideal[y] or (ideal[y] ^ jx).bit_count() != 1:
                raise violation(f"a cover above {name(x)} does not add one irreducible")
        grows = sum(ideal[e] & ~jx == 1 << e for e in irr)
        if grows != len(covers[x]):
            raise violation(
                f"{name(x)} has {len(covers[x])} up-covers but its ideal "
                f"{grows} one-element extensions"
            )
    return True, forest


def width_cover_check(poset: FlipPoset) -> bool:
    """Final elements have exactly width-many downward covers."""
    for i, q in enumerate(poset.elements):
        if not is_final(q):
            continue
        width = len(_block_gaps(q))
        got = len(poset.covers_down[i])
        if got != width:
            raise VerificationFailure(
                f"{q} has {got} downward covers but width {width}", q.to_json()
            )
    return True


def upper_ideal_iso_check(poset: FlipPoset, bottom: Dissection) -> int:
    """The filter above bottom is a copy of the k = |cut(bottom)| piece
    order; returns its size, the number of intervals with this bottom.

    By the inclusion theorem (`inclusion_check`) the filter is every t with
    D(bottom) inside D(t): bottom's non-apex diagonals with any dissection
    of the polygon they leave around the apex, the pieces' apex regions
    merged along the cuts (`_glue_frame`).  The frame's vertex map, each
    vertex to its place on the cycle, must send 0 to 0, be strictly
    increasing and be onto 0..m*k+1.  It then keeps the apex and the
    cyclic order, so it takes (m+2)-gon cells to cells and non-apex chords
    to non-apex chords, both ways.  Translation is then a bijection from
    the filter onto that polygon's M-angulations, which the k-piece order
    holds when it holds every M-angulation, and it preserves and reflects
    inclusion: an order isomorphism taking bottom to the fan.  O(k), with
    no top visited.  Raises VerificationFailure with bottom's JSON.
    """
    parts = cut_L(bottom)
    k = len(parts)
    _, cycle = _glue_frame(bottom.m, tuple(parts))
    if cycle[0]:
        flaw = "does not send 0 to 0"
    elif any(u >= v for u, v in zip(cycle, cycle[1:])):
        flaw = "is not strictly increasing"
    elif len(cycle) != bottom.m * k + 2:
        flaw = f"is not onto 0..{bottom.m * k + 1}"
    else:
        return len(_order_of_size(poset, k).elements)
    raise VerificationFailure(
        f"the glue frame's vertex map of {bottom} {flaw}", bottom.to_json()
    )


def _product_check(poset: FlipPoset, top: Dissection, factors) -> bool:
    """[fan, top] is the product of the initial intervals [fan, p_i] of the
    factors, pairs (p_i, pos_i) with pos_i taking top's vertices to p_i's
    in order.

    The certificate is at chord level, with no element below top visited.
    Translating chord bits (`_translation`), each non-apex chord of top
    must go to exactly one factor, so the factors' parts partition D[top],
    and factor i's image must be exactly D[p_i].  The parts lie in
    disjoint sub-polygons, the pieces between top's apex diagonals or the
    width blocks.  An s below top has D[s] inside D[top]
    (`inclusion_check`), and its chords in each part, with the apex
    diagonals they leave, dissect that factor's polygon: an element below
    p_i of the factor order, which holds every M-angulation.  Conversely
    any tuple of elements below the p_i, glued back, is an M-angulation s
    with D[s] inside D[top], so s <= top.  The map from s to its tuple is
    then onto, injective because D is, and preserves and reflects
    inclusion part by part: an order isomorphism onto the product.  Raises
    VerificationFailure with [fan, top].
    """
    order = _order_of_size(poset, top.n)
    chords = {d: order.diagonal_bits[d] for d in top.diagonals if d[0]}  # D[top]'s
    owned, exact = [], True
    for p, pos in factors:
        small = _order_of_size(poset, p.n)
        image = _translation(chords, small, pos)
        mask = small.diagonal_masks[_locate(small.index, p)]
        exact &= sorted(image.values()) == [1 << k for k in _bits(mask)]
        owned += image
    if not exact or sorted(owned) != sorted(chords.values()):
        raise VerificationFailure(
            f"[fan, {top}] does not translate to its factors",
            [order.minimum.to_json(), top.to_json()],
        )
    return True


def initial_factorization_check(poset: FlipPoset, top: Dissection) -> bool:
    """[fan, top] is the product of its cut pieces' initial intervals: the
    piece on top's vertices lo..hi has top's v as v - lo + 1."""
    factors, lo = [], 1
    for piece in cut_L(top):
        hi = lo + top.m * piece.n
        factors.append((piece, {v: v - lo + 1 for v in range(lo, hi + 1)}))
        lo = hi
    return _product_check(poset, top, factors)


def _one_block_final(q: Dissection, keep: tuple[int, int]) -> tuple[Dissection, dict]:
    """Shrink the final q to the final dissection keeping one apex-region
    gap (u, w) intact and collapsing every other gap to a boundary edge;
    with the map from q's kept vertices to its own."""
    u, w = keep
    kept = sorted(set(apex_region(q)) | set(range(u, w + 1)))
    relabel = {v: i for i, v in enumerate(kept)}
    chords = [(relabel[a], relabel[b]) for a, b in q.diagonals if u <= a and b <= w]
    return Dissection.new(q.m, (len(kept) - 2) // q.m, chords), relabel


def width_factorization_check(poset: FlipPoset, final_q: Dissection) -> bool:
    """[fan, final] is the product of the initial intervals of its width
    blocks' one-block finals, relabelled as `_one_block_final` keeps them."""
    factors = [_one_block_final(final_q, g) for g in _block_gaps(final_q)]
    return _product_check(poset, final_q, factors)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(poset: FlipPoset, label: str = "poly"):
    # `to_dot`'s lines, each with its newline, one at a time: the CLI
    # streams them.
    from .bijection import phi
    from .polynomials import poly_for_dissection

    def text(q: Dissection) -> str:
        if label == "poly":
            return poly_for_dissection(q).text()
        if label == "diagonals":
            return " ".join(map("(%d,%d)".__mod__, q.diagonals)) or "fan"
        if label == "dyck":
            return "".join(map(str, phi(q)))
        raise ValueError(f"unknown label mode {label!r}")

    yield "digraph flip_poset {\n"
    yield "  rankdir=BT;\n"
    yield "  node [shape=box];\n"
    for i, q in enumerate(poset.elements):
        yield f"  n{i} [label={_dot_quote(text(q))}];\n"
    for i in range(len(poset.elements)):
        for j in poset.covers_up[i]:
            yield f"  n{i} -> n{j};\n"
    yield "}\n"


def to_dot(poset: FlipPoset, label: str = "poly") -> str:
    """Hasse diagram in DOT; label one of poly, diagonals, dyck."""
    return "".join(_dot_lines(poset, label))


def _json_fields(poset: FlipPoset) -> dict:
    # `to_json_dict` with its two lists as generators of the tuples the
    # order holds, which `json` encodes as lists: the CLI streams them row
    # by row.
    m, n = poset.m, poset.n
    return {
        "m": m,
        "n": n,
        "elements": ({"m": m, "n": n, "diagonals": q.diagonals} for q in poset.elements),
        "covers": ((i, j) for i, ups in enumerate(poset.covers_up) for j in ups),
    }


def to_json_dict(poset: FlipPoset) -> dict:
    """The order as `poset --emit json` writes it, with lists at every
    level."""
    return {
        "m": poset.m,
        "n": poset.n,
        "elements": [q.to_json() for q in poset.elements],
        "covers": [[i, j] for i, ups in enumerate(poset.covers_up) for j in ups],
    }
