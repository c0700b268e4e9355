"""The flip order on M-angulations of one polygon.

An up-flip removes an apex diagonal, merges its two neighbour regions into
a (2m+2)-gon, and re-cuts that along one of the m other long chords; the
transitive closure of up-flips is the order.  The fan is the unique
minimum, final M-angulations are the maximal elements, and the rank of an
element is its number of non-apex diagonals.

The checks in this module certify the advertised structure exactly: the
inclusion theorem, and interval lattices with their order-ideal forests.
The cover degrees, the maximal chain count, the widths and the unique
minimum are corollaries of the inclusion certificate, proved in
`inclusion_check`'s docstring, and no function here counts them.  That
each filter is the order of a smaller polygon, and each interval the
ideal lattice of a forest of nested chords, are theorems of the
certified inclusion order, proved in `verify._interval_total` and
`verify.suite_intervals`; no function here re-checks them.
`interval_structure` certifies one interval on its own, for the queries.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .dissections import (
    DEFAULT_MAX_MN,
    Chord,
    Dissection,
    _chord_table,
    _enumerated,
    _numbering,
    _unchecked,
    make_q0,
)
from .errors import MalformedDissection, StructureViolation, VerificationFailure


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reached(covers, start: int) -> set[int]:
    """Indices reachable from start over `covers` (start included), by DFS."""
    seen = {start}
    todo = [start]
    while todo:
        for y in covers[todo.pop()]:
            if y not in seen:
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
        """Each non-apex chord (a, b) of the order -> its bit in
        `diagonal_masks`, K - (a*W + b) as `dissections._numbering` has it.
        `build_poset` fills it in closed form; this scan defines it for an
        order built by hand."""
        K, W = _numbering(self.m, self.n)
        return MappingProxyType(
            {(a, b): K - a * W - b for q in self.elements for a, b in q.diagonals if a}
        )

    @cached_property
    def diagonal_masks(self) -> tuple[int, ...]:
        """Element i's non-apex diagonals as a bitmask over `diagonal_bits`."""
        one = {d: 1 << k for d, k in self.diagonal_bits.items()}
        return tuple(sum({one[d] for d in q.diagonals if d[0]}) for q in self.elements)

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
        through elements whose diagonal set lies inside top's.

        The walk's members are handed to the Interval, sorted, as
        `Interval.members`, and its mask is built from them: no query on
        it scans an N-bit mask, so its cost follows the interval's size."""
        bi, ti = self.index[bottom], self.index[top]
        D, covers = self.diagonal_masks, self.covers_up
        outside = ~D[ti]
        if D[bi] & outside:
            raise ValueError(f"{bottom} is not below {top}")
        seen = {bi}
        todo = [bi]
        while todo:
            for y in covers[todo.pop()]:
                if y not in seen and not D[y] & outside:
                    seen.add(y)
                    todo.append(y)
        members = sorted(seen)
        mask = 0
        for j in members:
            mask |= 1 << j
        interval = Interval(self, bi, ti, mask)
        interval.__dict__["members"] = tuple(members)
        return interval

    def all_intervals(self):
        """Every interval, by bottom and then ascending top.

        For each bottom, its up-set by DFS over the covers, then the
        down-closure of each element inside that up-set from its lower
        covers, in rank order, which is the interval up to that element.
        """
        ranks, lower = self.ranks, self.covers_down
        for bi in range(len(self.elements)):
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


@dataclass(frozen=True, eq=False)
class Interval:
    """[bottom, top] of an order: `mask` marks its elements' indices.
    `FlipPoset.interval` also hands over `members`, the same indices
    sorted, so its intervals are read without scanning the mask; an
    Interval built by hand computes them from the mask once."""

    poset: FlipPoset
    bottom: int
    top: int
    mask: int

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    @property
    def size(self) -> int:
        return len(self.members)

    def indices(self) -> list[int]:
        return list(self.members)

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
        """The order on the members from the covers among them alone,
        shared by `mobius` and `interval_structure`."""
        idx = self.members
        pos = {z: k for k, z in enumerate(idx)}
        covers, ranks = self.poset.covers_up, self.poset.ranks
        ups = tuple([tuple([pos[w] for w in covers[z] if w in pos]) for z in idx])
        downs = [[] for _ in idx]
        for k, ws in enumerate(ups):
            for w in ws:
                downs[w].append(k)
        key = [ranks[z] for z in idx]
        order = tuple(sorted(range(len(idx)), key=key.__getitem__))
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
    """The order on the enumerated elements, keyed by their chord masks
    (`dissections._numbering`): a flip trading d for c is key ^ bit(d) | bit(c),
    and a miss raises MalformedDissection with the result as counterexample.
    The keys less their apex bits are `diagonal_masks`; their popcounts `ranks`.
    `diagonal_bits` holds every non-apex chord of the order's chord table
    (`dissections._chord_table`): each lies in some M-angulation, as the
    order holds every one."""
    keys, elements = _enumerated(m, n, max_mn)
    elements = tuple(elements)
    K, W = _numbering(m, n)
    ids = list(range(len(elements)))  # one int each for the covers and index
    at = dict(zip(keys, ids))
    covers = []
    for q, key in zip(elements, keys):
        ups = set()
        for d, c in _up_flips(q):
            j = at.get(key ^ 1 << K - d[0] * W - d[1] | 1 << K - c[0] * W - c[1])
            if j is None:
                kept = [x for x in q.diagonals if x != d]
                raise _derived_miss(_unchecked(m, n, kept + [c]))
            ups.add(j)
        covers.append(tuple(sorted(ups)))
    del at  # freed before the index is built: the two never coexist
    below_apex = (1 << W * (W - 1)) - 1  # every chord's bit but the apex chords'
    for i, key in enumerate(keys):  # each key freed as its mask is made
        keys[i] = key & below_apex
    D = tuple(keys)
    poset = FlipPoset(m, n, elements, tuple(covers))
    table = _chord_table(m, n).items()
    poset.__dict__.update(
        diagonal_bits=MappingProxyType({d: k for k, d in table if d[0]}),
        diagonal_masks=D,
        ranks=tuple(d.bit_count() for d in D),
    )
    poset.__dict__["index"] = MappingProxyType(dict(zip(elements, ids)))
    return poset


def _order(m: int, n: int) -> FlipPoset:
    """The (m, n) flip order, once the caller has checked its guard, under
    the cache key of a caller's own `build_poset(m, n)`."""
    return build_poset(m, n) if m * n <= DEFAULT_MAX_MN else build_poset(m, n, m * n)


def inclusion_check(poset: FlipPoset) -> bool:
    """Certify that the order is inclusion of non-apex diagonal sets, the
    theorem `leq` and `interval` read it by, from facts local to each
    element: no up-set is walked.

    (a) Every cover adds exactly one non-apex diagonal.  (b) D, the map to
    diagonal masks, is injective: the masks are N distinct ints.  (c) Each
    element's lower covers remove exactly the bits of its maximal spans,
    the non-apex diagonals nested in no other: D[i] less the chords nested
    inside its own, read off one nest mask per chord of the order; and
    they are as many as those spans, so none is listed twice.

    Proof, for elements that are M-angulations.  By (a), Q <= Q' puts
    D(Q) inside D(Q').  Conversely let D(Q) be a proper subset of D(Q').
    Some maximal span of Q' is not in D(Q): otherwise Q holds every span
    closing the apex region of Q', and under each span both are
    dissections into (m+2)-gons by non-apex diagonals, one inside the
    other, so D(Q) = D(Q').  By (c), Q' covers an R with D(R) = D(Q') less
    that span, so D(Q) lies in D(R), and induction on |D(Q') - D(Q)| ends
    at an element with Q's mask, which is Q by (b).  So Q <= Q'.

    Five corollaries need no check of their own, once the elements are every
    M-angulation (validated, distinct by (b) and Fuss-Catalan many):
    - Descent lemma, by (b) and (c).  A non-fan Q has a maximal span
      d = (a, b), and the region under d (away from the apex) has vertices
      a = u_0 < ... < u_{m+1} = b.  Its sides span 1 mod m, so exactly one
      u_i (0 < i <= m) is 1 mod m, and (0, u_i) is an apex diagonal
      crossing d and no other diagonal: a chord (x, y) with x < u_i < y
      would hold d, which is maximal, or cut u_i off d's region.  The one
      diagonal that any such witness crosses is a maximal span: the witness
      would cross a chord holding it too.  Trading that span for the
      witness leaves n - 1 non-crossing chords spanning 1 mod m, so n
      regions of at least m + 2 vertices and m*n + 2n in all: an
      M-angulation S with D(S) = D(Q) less that span.  By (c) a lower
      cover of Q removes the span, and by (b) it is S.  By (a) and (c),
      induction on rank gives every element a saturated chain to the fan.
    - Width, by (c).  A final Q's maximal spans are the edges of its apex
      region that are not sides, one per width block, as they hold every
      other chord.  By (c) its lower covers remove them and are as many:
      Q has width-many lower covers.  A final is an element of rank n - 1,
      so the finals of width at most 1 are the elements of rank n - 1
      with at most one lower cover, and no region is walked to find them.
    - Unique minimum, by (b) and (c).  The fan, the one M-angulation with
      no non-apex diagonal, has mask 0, so by (c) no lower cover.  Every
      other element has a nonzero mask, by (b), so a maximal span, and by
      (c) a lower cover removing it.  The fan is the one minimal element,
      so the minimum of the finite order.
    - Cover degrees, by (a), (b) and (c).  Let Q have rank r, k = n - r.
      By (a) every upper cover Q' of Q has D(Q') = D(Q) plus one non-apex
      chord.  Conversely an M-angulation Q' with that property lies above
      Q by the theorem, one rank up, so one cover reaches it, as each adds
      one chord by (a): it is an upper cover.  By (b) these Q' are
      distinct elements, and by (c) none is listed twice, as a repeat
      among Q's upper covers is a repeat among Q''s lower covers.  Through
      the filter isomorphism of `verify._interval_total`, they are the
      M-angulations of the (m*k+2)-gon with exactly one non-apex chord
      (a, b).  No other non-apex chord lies under it, so it closes one
      (m+2)-gon: b = a + m + 1 for a = 1..m*(k-1), and the apex diagonals
      complete each in one way, as the fan of the polygon left.  So Q has
      m*(n-1-r) upper covers.
    - Maximal chain count, by the cover degrees.  Every rank-r element has
      m*(n-1-r) upper covers, all of rank r + 1, and a maximal chain from
      the fan picks one at each rank 0..n-2: the fan starts
      m^(n-1) * (n-1)! maximal chains.

    Raises VerificationFailure with an element's JSON.
    """
    # the lower covers are built before (b)'s set, not over the table it frees
    D, elements, down = poset.diagonal_masks, poset.elements, poset.covers_down
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
        for j in down[i]:
            removed |= D[i] ^ D[j]
        if removed != D[i] & ~nested or len(down[i]) != removed.bit_count():
            raise VerificationFailure(
                f"the lower covers of {q} do not remove exactly its maximal spans",
                q.to_json(),
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


def _violation(interval: Interval, message: str) -> StructureViolation:
    # `interval_structure`'s failure, naming the interval and carrying it.
    return StructureViolation(
        f"{message} in [{interval.bottom_q}, {interval.top_q}]", interval.to_json()
    )


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
    local = interval.closure
    up, down, covers = local.above, local.below, local.ups
    elements, idx = interval.poset.elements, local.idx  # elements[idx[k]]: local k
    size = len(idx)
    irr, irr_mask = [], 0
    for k, ws in enumerate(local.downs):
        if len(ws) == 1:
            irr.append(k)
            irr_mask |= 1 << k
    parents = []
    for z in irr:
        uppers = (up[z] & irr_mask) ^ (1 << z)
        minimal = [w for w in _bits(uppers) if down[w] & uppers == 1 << w]
        if len(minimal) > 1:
            raise _violation(
                interval,
                f"irreducible {elements[idx[z]]} covered by {len(minimal)} irreducibles",
            )
        parents.append(irr.index(minimal[0]) if minimal else -1)
    forest = ForestPoset(tuple([idx[k] for k in irr]), tuple(parents))
    ideals = forest.ideal_count()
    if ideals != size:
        raise _violation(interval, f"{ideals} forest ideals for an interval of size {size}")
    ideal = [d & irr_mask for d in down]
    if len(set(ideal)) != size:
        raise _violation(interval, "two elements have the same irreducibles below them")
    for x, jx in enumerate(ideal):
        for y in covers[x]:
            if jx & ~ideal[y] or (ideal[y] ^ jx).bit_count() != 1:
                raise _violation(
                    interval, f"a cover above {elements[idx[x]]} does not add one irreducible"
                )
        grows = 0
        for e in irr:
            if ideal[e] & ~jx == 1 << e:
                grows += 1
        if grows != len(covers[x]):
            raise _violation(
                interval,
                f"{elements[idx[x]]} has {len(covers[x])} up-covers but its ideal "
                f"{grows} one-element extensions",
            )
    return True, forest


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lines(poset: FlipPoset, label: str = "poly"):
    # `to_dot`'s lines, each with its newline, one at a time: the CLI
    # streams them.
    from .bijection import phi
    from .polynomials import _factor_rows, _product_text

    def text(q: Dissection) -> str:
        if label == "poly":
            return _product_text([r.text for r in sorted(_factor_rows(q))])
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
