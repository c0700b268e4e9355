"""The flip order on M-angulations of one polygon.

An up-flip removes an apex diagonal, merges its two neighbour regions into
a (2m+2)-gon, and re-cuts that along one of the m other long chords; the
transitive closure of up-flips is the order.  The fan is the unique
minimum, final M-angulations are the maximal elements, and the rank of an
element is its number of non-apex diagonals.

The checks in this module certify the advertised structure exactly: cover
degrees, maximal chain counts, descent witnesses, interval lattices and
their order-ideal forests, and the cut/glue factorizations of intervals.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial

from .dissections import (
    DEFAULT_MAX_MN,
    Chord,
    Dissection,
    _glue_frame,
    _unchecked,
    apex_diagonal_set_D,
    apex_region,
    chords_cross,
    cut_L,
    enumerate_dissections,
    flip_up,
    glue_G,
    is_final,
    make_q0,
    width_and_blocks,
)
from .errors import (
    DecompositionFailure,
    MalformedDissection,
    NoWitness,
    StructureViolation,
    VerificationFailure,
)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(eq=False)
class FlipPoset:
    """All M-angulations for one (m, n) with their cover relation.

    Elements sit in canonical (sorted) order; comparisons run on cached
    reachability bitmasks, so `leq` is O(1) after the first use.
    """

    m: int
    n: int
    elements: tuple[Dissection, ...]
    covers_up: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict:
        return {q: i for i, q in enumerate(self.elements)}

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
    def _by_rank_desc(self) -> list[int]:
        return sorted(range(len(self.elements)), key=lambda i: -self.ranks[i])

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        up = [0] * len(self.elements)
        for i in self._by_rank_desc:
            acc = 1 << i
            for j in self.covers_up[i]:
                acc |= up[j]
            up[i] = acc
        return tuple(up)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        down = [0] * len(self.elements)
        for i in reversed(self._by_rank_desc):
            acc = 1 << i
            for j in self.covers_down[i]:
                acc |= down[j]
            down[i] = acc
        return tuple(down)

    def leq(self, a: Dissection, b: Dissection) -> bool:
        return bool(self.up_masks[self.index[a]] >> self.index[b] & 1)

    @property
    def minimum(self) -> Dissection:
        return make_q0(self.m, self.n)

    def maximal_elements(self) -> list[Dissection]:
        return [q for i, q in enumerate(self.elements) if not self.covers_up[i]]

    def interval(self, bottom: Dissection, top: Dissection) -> "Interval":
        bi, ti = self.index[bottom], self.index[top]
        mask = self.up_masks[bi] & self.down_masks[ti]
        if not mask >> ti & 1:
            raise ValueError(f"{bottom} is not below {top}")
        return Interval(self, bi, ti, mask)

    def all_intervals(self):
        for bi in range(len(self.elements)):
            up = self.up_masks[bi]
            for ti in _bits(up):
                yield Interval(self, bi, ti, up & self.down_masks[ti])


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


def _locate(index: dict, q: Dissection) -> int:
    """Position of a derived dissection among the enumerated elements.

    Flips, cuts and gluings build their results unchecked, so a miss here
    is a malformed result, reported with the dissection as counterexample.
    """
    i = index.get(q)
    if i is None:
        raise MalformedDissection(
            f"derived {q} is not among the enumerated M-angulations", q.to_json()
        )
    return i


@lru_cache(maxsize=None)
def build_poset(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> FlipPoset:
    elements = tuple(enumerate_dissections(m, n, max_mn))
    index = {q: i for i, q in enumerate(elements)}
    covers = []
    for q in elements:
        ups = set()
        for d in q.diagonals:
            if d[0] == 0:
                ups.update(_locate(index, r) for r in flip_up(q, d))
        covers.append(tuple(sorted(ups)))
    poset = FlipPoset(m, n, elements, tuple(covers))
    poset.__dict__["index"] = index
    return poset


def cache_guard(m: int, n: int) -> int:
    """The guard every cached (m, n) order is built with, so `build_poset`
    holds one cache key per order.  It never refuses: callers check their
    own cap before asking for the order."""
    return max(m * n, DEFAULT_MAX_MN)


def _order_of_size(poset: FlipPoset, n: int) -> FlipPoset:
    """The size-n order for poset's m: poset itself at its own size, so a
    check never builds the order it was handed a second time."""
    return poset if n == poset.n else build_poset(poset.m, n, cache_guard(poset.m, n))


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


def maximal_chain_count(poset: FlipPoset) -> int:
    """Number of saturated chains from the fan to a maximal element."""
    counts = [0] * len(poset.elements)
    for i in poset._by_rank_desc:
        ups = poset.covers_up[i]
        counts[i] = sum(counts[j] for j in ups) if ups else 1
    return counts[poset.index[poset.minimum]]


def expected_maximal_chain_count(m: int, n: int) -> int:
    return m ** (n - 1) * factorial(n - 1)


def _descent_swap(q: Dissection) -> tuple[Chord, Dissection]:
    """The descent lemma's witness for q and the swap it gives.

    The witness is an apex diagonal crossing exactly one diagonal d of q;
    trading d for it gives `lower`, which q should cover.  `lower` is built
    unchecked: the poset suite looks it up among the enumerated elements,
    and `descend_to_fan` validates it.
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


def lemma_descent_witness(q: Dissection):
    """An apex diagonal crossing exactly one diagonal of q.

    Such a chord always exists away from the fan; swapping it for the
    crossed diagonal steps one rank down.
    """
    return _descent_swap(q)[0]


def descend_to_fan(q: Dissection) -> list[Dissection]:
    """A saturated chain from q down to the fan, witness by witness, each
    step validated and checked to flip back up to the one before."""
    chain = [q]
    q0 = make_q0(q.m, q.n)
    while chain[-1] != q0:
        cur = chain[-1]
        cand, lower = _descent_swap(cur)
        nxt = Dissection.new(q.m, q.n, lower.diagonals)
        assert cur in flip_up(nxt, cand), (cur, nxt)
        chain.append(nxt)
    return chain


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
    poset = interval.poset
    order = sorted(interval.indices(), key=lambda i: poset.ranks[i])
    mu = {interval.bottom: 1}
    for z in order:
        if z == interval.bottom:
            continue
        below = interval.mask & poset.down_masks[z] & ~(1 << z)
        mu[z] = -sum(mu[w] for w in _bits(below))
    return mu[interval.top]


def interval_decompose(interval: Interval) -> tuple[Dissection, list[Dissection]]:
    """Split [bottom, top] as a gluing over the pieces cut from bottom.

    Cutting the bottom along its apex diagonals yields final pieces; the
    top is the gluing of a unique smaller dissection over those pieces.
    Returns that dissection together with the pieces; raises
    DecompositionFailure when the round trip does not reproduce the top.
    """
    bottom, top = interval.bottom_q, interval.top_q
    parts = cut_L(bottom)
    k = len(parts)
    shared = {d for d in bottom.diagonals if d[0] == 0}
    inner = set(bottom.diagonals) - shared
    candidates = [d for d in top.diagonals if d not in inner]
    _, cycle = _glue_frame(bottom.m, parts)
    pos = {v: i for i, v in enumerate(cycle)}
    try:
        local = [(pos[a], pos[b]) for a, b in candidates]
        core = Dissection.new(bottom.m, k, local)
    except (KeyError, MalformedDissection) as exc:
        raise DecompositionFailure(
            f"{top} does not glue over cut({bottom}): {exc}", interval.to_json()
        )
    if glue_G(core, parts) != top:
        raise DecompositionFailure(
            f"gluing {core} over cut({bottom}) missed {top}", interval.to_json()
        )
    return core, parts


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


def _unique_extreme(poset: FlipPoset, pool: int, masks) -> int | None:
    """Index of the one element of pool above/below all of pool, if any."""
    found = None
    for z in _bits(pool):
        if masks[z] & pool == pool:
            if found is not None:
                return None
            found = z
    return found


def is_lattice(poset: FlipPoset, mask: int | None = None):
    """Whether every pair in the mask has a meet and a join inside it.

    Returns (True, None) or (False, witness pair); used both as the
    interval certificate and as the ambient observation.
    """
    if mask is None:
        mask = (1 << len(poset.elements)) - 1
    idx = list(_bits(mask))
    for a in idx:
        for b in idx:
            if b >= a:
                break
            lowers = poset.down_masks[a] & poset.down_masks[b] & mask
            uppers = poset.up_masks[a] & poset.up_masks[b] & mask
            if (
                not lowers
                or not uppers
                or _unique_extreme(poset, lowers, poset.up_masks) is None
                or _unique_extreme(poset, uppers, poset.down_masks) is None
            ):
                return False, (poset.elements[a], poset.elements[b])
    return True, None


def interval_structure(interval: Interval) -> tuple[bool, ForestPoset]:
    """Certify one interval: a distributive lattice of forest order ideals.

    The join-irreducible elements (one in-interval downward cover) must
    form a forest under the induced order, and the forest's order-ideal
    count must equal the interval size; with the lattice check this pins
    distributivity exactly.  Raises StructureViolation otherwise.
    """
    poset = interval.poset
    ok, witness = is_lattice(poset, interval.mask)
    if not ok:
        raise StructureViolation(
            f"no meet or join for {witness}", interval.to_json()
        )
    irr = []
    for z in interval.indices():
        down_covers = sum(
            1 for w in poset.covers_down[z] if interval.mask >> w & 1
        )
        if down_covers == 1:
            irr.append(z)
    parents = []
    for z in irr:
        uppers = [w for w in irr if w != z and poset.up_masks[z] >> w & 1]
        minimal = [
            w
            for w in uppers
            if not any(u != w and poset.up_masks[u] >> w & 1 for u in uppers)
        ]
        if len(minimal) > 1:
            raise StructureViolation(
                f"irreducible {poset.elements[z]} covered by {len(minimal)} "
                f"irreducibles in [{interval.bottom_q}, {interval.top_q}]",
                interval.to_json(),
            )
        parents.append(irr.index(minimal[0]) if minimal else -1)
    forest = ForestPoset(tuple(irr), tuple(parents))
    if forest.ideal_count() != interval.size:
        raise StructureViolation(
            f"{forest.ideal_count()} forest ideals for an interval of size "
            f"{interval.size} at [{interval.bottom_q}, {interval.top_q}]",
            interval.to_json(),
        )
    return True, forest


def width_cover_check(poset: FlipPoset) -> bool:
    """Final elements have exactly width-many downward covers."""
    for i, q in enumerate(poset.elements):
        if not is_final(q):
            continue
        width, _ = width_and_blocks(q)
        got = len(poset.covers_down[i])
        if got != width:
            raise VerificationFailure(
                f"{q} has {got} downward covers but width {width}"
            )
    return True


def upper_ideal_iso_check(poset: FlipPoset, bottom: Dissection) -> bool:
    """The filter above bottom is the glued copy of a full smaller order.

    Gluing every element of the k-piece order over cut(bottom) must hit
    exactly the elements above bottom and match covers both ways.
    """
    parts = cut_L(bottom)
    small = _order_of_size(poset, len(parts))
    bi = poset.index[bottom]
    filter_idx = set(_bits(poset.up_masks[bi]))
    image_idx = [_locate(poset.index, glue_G(b, parts)) for b in small.elements]
    if set(image_idx) != filter_idx:
        raise VerificationFailure(f"glued image misses the filter above {bottom}")
    small_pairs = {
        (image_idx[i], image_idx[j])
        for i in range(len(small.elements))
        for j in small.covers_up[i]
    }
    big_pairs = {
        (i, j)
        for i in filter_idx
        for j in poset.covers_up[i]
        if j in filter_idx
    }
    if small_pairs != big_pairs:
        raise VerificationFailure(f"cover relation not preserved above {bottom}")
    return True


def _cover_degree_poly(poset: FlipPoset, mask: int) -> tuple[int, ...]:
    """coeffs[d] = number of elements with d upward covers inside mask."""
    counts: dict[int, int] = {}
    for i in _bits(mask):
        d = sum(1 for j in poset.covers_up[i] if mask >> j & 1)
        counts[d] = counts.get(d, 0) + 1
    top = max(counts)
    return tuple(counts.get(d, 0) for d in range(top + 1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _initial_interval_poly(poset: FlipPoset, top: Dissection) -> tuple[int, ...]:
    """Cover-degree polynomial of [fan, top] in the order of top's size."""
    order = _order_of_size(poset, top.n)
    _locate(order.index, top)
    iv = order.interval(order.minimum, top)
    return _cover_degree_poly(order, iv.mask)


def initial_factorization_check(poset: FlipPoset, top: Dissection) -> bool:
    """[fan, top] matches the product of the initial intervals of its cut
    pieces, compared through cover-degree generating polynomials."""
    whole = _initial_interval_poly(poset, top)
    product = (1,)
    for piece in cut_L(top):
        product = _poly_mul(product, _initial_interval_poly(poset, piece))
    if whole != product:
        raise VerificationFailure(
            f"initial interval of {top}: degrees {whole} != pieces {product}"
        )
    return True


def _one_block_final(q: Dissection, keep: tuple[int, int]) -> Dissection:
    """Shrink the final q to the final dissection keeping one apex-region
    gap intact and collapsing every other gap to a boundary edge."""
    m = q.m
    u, w = keep
    r0 = apex_region(q)
    kept = sorted(set(r0) | set(range(u, w + 1)))
    relabel = {v: i for i, v in enumerate(kept)}
    n_small = (len(kept) - 2) // m
    chords = []
    for a, b in q.diagonals:
        if a in relabel and b in relabel:
            la, lb = relabel[a], relabel[b]
            if lb - la >= 2:
                chords.append((la, lb))
    return Dissection.new(m, n_small, chords)


def width_factorization_check(poset: FlipPoset, final_q: Dissection) -> bool:
    """[fan, final] matches the product over blocks of the one-block
    initial intervals, again by cover-degree polynomials."""
    whole = _initial_interval_poly(poset, final_q)
    r0 = apex_region(final_q)
    product = (1,)
    for u, w in zip(r0[1:], r0[2:]):
        if w - u < 2:
            continue
        small = _one_block_final(final_q, (u, w))
        product = _poly_mul(product, _initial_interval_poly(poset, small))
    if whole != product:
        raise VerificationFailure(
            f"initial interval of final {final_q}: degrees {whole} != "
            f"block product {product}"
        )
    return True


def apex_chords_avoid_downset_check(poset: FlipPoset, final_q: Dissection) -> bool:
    """The apex chords of a final element cross nothing anywhere below it."""
    chords = apex_diagonal_set_D(final_q)
    ti = poset.index[final_q]
    for i in _bits(poset.down_masks[ti]):
        q = poset.elements[i]
        for c in chords:
            for d in q.diagonals:
                if chords_cross(c, d):
                    raise VerificationFailure(
                        f"apex chord {c} of {final_q} crosses {d} of {q} below it"
                    )
    return True


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(poset: FlipPoset, label: str = "poly") -> str:
    """Hasse diagram in DOT; label one of poly, diagonals, dyck."""
    from .bijection import phi
    from .polynomials import poly_for_dissection

    def text(q: Dissection) -> str:
        if label == "poly":
            return poly_for_dissection(q).text()
        if label == "diagonals":
            return " ".join(f"({a},{b})" for a, b in q.diagonals) or "fan"
        if label == "dyck":
            return "".join(str(x) for x in phi(q))
        raise ValueError(f"unknown label mode {label!r}")

    lines = ["digraph flip_poset {", "  rankdir=BT;", "  node [shape=box];"]
    for i, q in enumerate(poset.elements):
        lines.append(f"  n{i} [label={_dot_quote(text(q))}];")
    for i in range(len(poset.elements)):
        for j in poset.covers_up[i]:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(poset: FlipPoset) -> dict:
    return {
        "m": poset.m,
        "n": poset.n,
        "elements": [q.to_json() for q in poset.elements],
        "covers": [
            [i, j] for i in range(len(poset.elements)) for j in poset.covers_up[i]
        ],
    }
