"""Independent brute-force oracles used to freeze derived test values.

Most of this recomputes objects from first principles with different
algorithms than the package: dissections by filtering chord subsets with a
split-based face computation, validation by a scan of every chord pair and
a walk of every region, psi by scanning for letters, admissible vectors by
filtering full product spaces with a lattice-path walk, order relations by
plain set DFS, interval factorizations by cover-degree polynomials,
expanded polynomials by products of tuple-keyed binomials, and the
ideal's graded rows densely, one zero row per generator filled in place,
and sparsely with tuple-keyed columns.

The rest are the paper's constructions that no suite runs, kept here to
test the certificates against: gluing pieces around a core, the
decomposition of an interval into its core and pieces, the descent chain
to the fan, width blocks and the apex chords of a final dissection.  They
build on the package's own frames and orders.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement, product
from operator import add

import polyflip.poset as poset_module
from polyflip import (
    ArityMismatch,
    DecompositionFailure,
    Dissection,
    MalformedDissection,
    SparsePoly,
    apex_region,
    cut_L,
    enumerate_compositions,
    flip_up,
    fundamental_qsym,
    make_q0,
)
from polyflip.dissections import _block_gaps, _glue_frame, _unchecked
from polyflip.poset import _bits, _descent_swap, _order_of_size, _translation
from polyflip.qsym import _fundamental_terms, monomials_of_degree


def crossing(c1, c2) -> bool:
    a1, b1 = c1
    a2, b2 = c2
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def faces_by_splitting(cycle, chords):
    """Faces of a polygon cut by non-crossing chords, via recursive splits."""
    if not chords:
        return [tuple(sorted(cycle))]
    first, rest = chords[0], list(chords[1:])
    pos = {v: i for i, v in enumerate(cycle)}
    ia, ib = sorted((pos[first[0]], pos[first[1]]))
    left = cycle[ia : ib + 1]
    right = cycle[ib:] + cycle[: ia + 1]
    left_set = set(left)
    inside = [c for c in rest if c[0] in left_set and c[1] in left_set]
    outside = [c for c in rest if not (c[0] in left_set and c[1] in left_set)]
    return faces_by_splitting(left, inside) + faces_by_splitting(right, outside)


def _walk_by_ends(ends, lo, hi):
    # The region of the sub-polygon lo..hi hugging its closing chord: from
    # vertex u step to the farthest chord endpoint <= hi, else to u+1.
    cycle, u = [lo], lo
    while u != hi:
        nxt = u + 1
        for b in ends.get(u, ()):
            if b <= hi and not (u == lo and b == hi):
                nxt = b
                break
        cycle.append(nxt)
        u = nxt
    return tuple(cycle)


def regions_by_scan(q):
    """The pairwise validator: per-diagonal checks, a scan of every pair of
    chords for a crossing, then a walk of every region.  Returns the
    regions sorted, or raises MalformedDissection as the package's
    validator should, with the same message and counterexample."""
    m, n = q.m, q.n

    def bad(message):
        return MalformedDissection(message, q.to_json())

    if m < 1 or n < 1:
        raise bad(f"need m, n >= 1, got m={m}, n={n}")
    top = m * n + 1
    if len(q.diagonals) != n - 1:
        raise bad(f"{len(q.diagonals)} diagonals, a size-{n} dissection needs {n - 1}")
    prev = None
    for d in q.diagonals:
        a, b = d
        if not (0 <= a < b <= top) or b - a < 2 or (a, b) == (0, top):
            raise bad(f"{d} is not a diagonal of the {top + 1}-gon")
        if (b - a) % m != 1 % m:
            raise bad(f"{d} spans {b - a} != 1 (mod {m}) boundary steps")
        if prev is not None and d <= prev:
            raise bad("diagonals not strictly sorted")
        prev = d
    for c1, c2 in combinations(q.diagonals, 2):
        if crossing(c1, c2):
            raise bad(f"{c1} crosses {c2}")
    ends = {}
    for a, b in q.diagonals:
        ends.setdefault(a, []).append(b)
    for a in ends:
        ends[a].sort(reverse=True)
    regs, todo = [], [(0, top)]
    while todo:
        cycle = _walk_by_ends(ends, *todo.pop())
        regs.append(cycle)
        todo.extend((x, y) for x, y in zip(cycle, cycle[1:]) if y - x >= 2)
    regs.sort()
    if len(regs) != n or any(len(r) != m + 2 for r in regs):
        raise bad(
            f"regions have sizes {sorted(len(r) for r in regs)}, want {n} of size {m + 2}"
        )
    return regs


def psi_by_label_scan(m, v):
    """psi's chords, each chord's starts found by scanning the visible
    vertices for the predecessor letter; where the construction gets stuck,
    the ConstructionStuck message (a str) instead."""

    def label(i):
        return (i - 2) % m + 1

    chords, visible = [], []
    for pos, c in enumerate(v, start=1):
        visible.append(pos)
        if c == 0:
            continue
        end = pos + 1
        target = (label(end) - 2) % m + 1
        cands = [k for k, s in enumerate(visible[:-1]) if label(s) == target]
        if len(cands) < c:
            return (
                f"entry {c} at position {pos} exceeds the {len(cands)} "
                f"visible predecessor-letter vertices"
            )
        chords.extend((visible[k], end) for k in cands[-c:])
        del visible[cands[-c] + 1 :]
    seen = set(visible)
    chords.extend((0, m * k + 1) for k in range(1, len(v) // m) if m * k + 1 in seen)
    return chords


def candidate_chords(m, n):
    size = m * n + 2
    return [
        (a, b)
        for a in range(size)
        for b in range(a + 2, size)
        if (a, b) != (0, size - 1) and (b - a) % m == 1 % m
    ]


def is_m_angulation(m, n, chords) -> bool:
    """Whether the chords cut the (m*n+2)-gon into n faces of m+2 sides."""
    chords = list(chords)
    if len(chords) != n - 1 or len(set(chords)) != len(chords):
        return False
    if not set(chords) <= set(candidate_chords(m, n)):
        return False
    if any(crossing(c, d) for c, d in combinations(chords, 2)):
        return False
    faces = faces_by_splitting(list(range(m * n + 2)), chords)
    return len(faces) == n and all(len(f) == m + 2 for f in faces)


def brute_dissections(m, n):
    """All valid chord sets, by exhaustive subset filtering."""
    out = [
        tuple(sorted(combo))
        for combo in combinations(candidate_chords(m, n), n - 1)
        if is_m_angulation(m, n, combo)
    ]
    return sorted(out)


def path_is_admissible(m, steps: str) -> bool:
    """Walk the R/U string; before each U the R count, scaled by m, may
    not exceed the number of U steps already taken."""
    r = u = 0
    for s in steps:
        if s == "R":
            r += 1
        else:
            if m * r > u:
                return False
            u += 1
    return True


def brute_dyck(m, n):
    """All admissible vectors, by filtering the full product space."""
    out = []
    for v in product(range(n), repeat=m * n):
        steps = "".join("R" * x + "U" for x in v)
        if path_is_admissible(m, steps):
            out.append(v)
    return out


def closure_from_covers(count, covers_up):
    """Reachability sets (index -> set of indices at or above), plain DFS."""
    above = [None] * count
    def walk(i):
        if above[i] is None:
            acc = {i}
            for j in covers_up[i]:
                acc |= walk(j)
            above[i] = acc
        return above[i]
    for i in range(count):
        walk(i)
    return above


def expand_by_tuples(p):
    """A factored polynomial multiplied out as a product of tuple-keyed
    SparsePoly binomials, one exponent tuple per monomial throughout."""
    nv = p.m * p.n
    poly = SparsePoly.one(nv)
    for f in p.factors:
        hi = [0] * nv
        hi[f.high.position(p.m) - 1] = 1
        lo = [0] * nv
        lo[f.low.position(p.m) - 1] = 1
        poly = poly * SparsePoly(nv, {tuple(hi): 1, tuple(lo): -1})
    return poly


def cover_degree_poly(covers_up, members):
    """coeffs[d] = how many members have d upward covers among the members:
    the cover-degree polynomial of a sub-order."""
    counts = Counter(sum(1 for j in covers_up[i] if j in members) for i in members)
    return tuple(counts[d] for d in range(max(counts) + 1))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def initial_interval_poly(poset, top):
    """Cover-degree polynomial of [fan, top] in top's own order: top's
    down-set by plain set DFS over the reversed covers."""
    down = [[] for _ in poset.elements]
    for i, ups in enumerate(poset.covers_up):
        for j in ups:
            down[j].append(i)
    start = poset.elements.index(top)
    members, todo = {start}, [start]
    while todo:
        for w in down[todo.pop()]:
            if w not in members:
                members.add(w)
                todo.append(w)
    return cover_degree_poly(poset.covers_up, members)


def is_distributive_lattice(above, members):
    """Whether `members`, ordered by the closure sets `above` (as returned by
    `closure_from_covers`), form a distributive lattice: every pair has a
    least upper and a greatest lower bound among the members, found by
    scanning all of them, and every triple obeys the distributive law."""
    members = sorted(members)

    def leq(a, b):
        return b in above[a]

    def only(found):
        return found[0] if len(found) == 1 else None

    join, meet = {}, {}
    for a in members:
        for b in members:
            ups = [u for u in members if leq(a, u) and leq(b, u)]
            downs = [d for d in members if leq(d, a) and leq(d, b)]
            join[a, b] = only([u for u in ups if all(leq(u, v) for v in ups)])
            meet[a, b] = only([d for d in downs if all(leq(v, d) for v in downs)])
            if join[a, b] is None or meet[a, b] is None:
                return False
    return all(
        meet[a, join[b, c]] == join[meet[a, b], meet[a, c]]
        for a in members
        for b in members
        for c in members
    )


def dense_ideal_matrix(m, n, d):
    """The degree-d rows mu * F_c of the qsym ideal, as dense lists over the
    degree-d monomials in lexicographic order: each exponent of each nonzero
    F_c (1 <= |c| <= d) is shifted by every monomial mu of degree d - |c|
    into a zero row."""
    nvars = m * n

    def monomials(k):
        out = []
        for chosen in combinations_with_replacement(range(nvars), k):
            count = Counter(chosen)
            out.append(tuple(count[i] for i in range(nvars)))
        return sorted(out)

    cols = monomials(d)
    col = {e: i for i, e in enumerate(cols)}
    rows = []
    for c in enumerate_compositions(m, d):
        f = fundamental_qsym(m, c, n)
        if f.is_zero():
            continue
        for mu in monomials(d - sum(c)):
            row = [0] * len(cols)
            for e, coef in f.terms.items():
                row[col[tuple(a + b for a, b in zip(e, mu))]] += coef
            rows.append(row)
    return cols, rows


def tuple_keyed_ideal_rows(m, n, d):
    """The degree-d rows mu * F_c of the qsym ideal as {column: coefficient},
    built as the package built them before it packed its monomials:
    each exponent of F_c shifted by mu entry by entry and looked up as a
    tuple.  Returns (monomials, rows) like `qsym._ideal_rows`."""
    nvars = m * n
    monomials = monomials_of_degree(nvars, d)
    col = {e: i for i, e in enumerate(monomials)}
    rows = []
    for c in enumerate_compositions(m, d):
        terms = _fundamental_terms(m, c, n)
        if not terms:
            continue
        for mu in monomials_of_degree(nvars, d - sum(c)):
            rows.append({col[tuple(map(add, e, mu))]: x for e, x in terms})
    return monomials, rows


def glue_G(b0, parts):
    """Glue the final pieces around the apex and dissect the exposed
    (m*k+2)-gon by a copy of b0.

    Inverse of cut_L when b0 is the fan: glue_G(fan, cut_L(q)) == q.
    """
    if len(parts) != b0.n:
        raise ArityMismatch(f"b0 has {b0.n} regions but {len(parts)} parts given")
    chords, cycle = _glue_frame(b0.m, tuple(parts))
    glued = chords + tuple((cycle[a], cycle[b]) for a, b in b0.diagonals)
    return _unchecked(b0.m, sum(p.n for p in parts), glued)


def interval_decompose(interval):
    """Split [bottom, top] as a gluing over the pieces cut from bottom.

    Cutting the bottom along its apex diagonals yields final pieces; the
    top is the gluing (`glue_G`) of a unique smaller dissection, its core,
    over those pieces.  A chord with both ends on the pieces' glue frame
    (read through `polyflip.poset` when called) is the k-piece order's
    chord between their frame positions, and the core is the element whose
    mask is the image of top's non-apex diagonals less bottom's.  Returns
    the core with the pieces; raises DecompositionFailure with [bottom,
    top] unless the top is above the bottom and translates.
    """
    poset, bi, ti = interval.poset, interval.bottom, interval.top
    bottom, top = poset.elements[bi], poset.elements[ti]
    parts = cut_L(bottom)
    small = _order_of_size(poset, len(parts))
    _, cycle = poset_module._glue_frame(bottom.m, tuple(parts))
    image = _translation(poset.diagonal_bits, small, {v: i for i, v in enumerate(cycle)})
    D = poset.diagonal_masks
    mask = -1 if D[bi] & ~D[ti] else 0  # -1 sticks: no element's mask
    for j in _bits(D[ti] & ~D[bi]):
        mask |= image.get(j, -1)
    ci = {d: i for i, d in enumerate(small.diagonal_masks)}.get(mask)
    if ci is None:
        raise DecompositionFailure(
            f"{top} does not translate over cut({bottom})",
            [bottom.to_json(), top.to_json()],
        )
    return small.elements[ci], parts


def descend_to_fan(q):
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


def width_and_blocks(q):
    """Polygon pieces left when the apex region of a final dissection is
    removed, preceded by their number (the width, between 0 and m).

    Each block is re-indexed with its smaller attachment vertex as apex.
    Width 0 happens exactly for n = 1.
    """
    blocks = []
    for u, w in _block_gaps(q):
        chords = [
            (a - u, b - u) for a, b in q.diagonals if u <= a and b <= w and (a, b) != (u, w)
        ]
        blocks.append(_unchecked(q.m, (w - u - 1) // q.m, chords))
    return len(blocks), blocks


def apex_diagonal_set_D(q):
    """Chords from the apex to the non-neighbour vertices of its region.

    For a final dissection these m-1 chords lie inside the apex region, so
    they cross no diagonal of q and belong to none; they are the cutting
    lines of the width factorization.
    """
    r0 = apex_region(q)
    out = frozenset((0, u) for u in r0[2:-1])
    assert not (out & set(q.diagonals))
    assert not any(crossing(c, d) for c in out for d in q.diagonals)
    return out
