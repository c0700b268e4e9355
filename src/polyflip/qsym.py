"""Graded verification that the admissible monomials complement the ideal
generated by the fundamental quasisymmetric polynomials.

Per degree d the ideal's component (rows mu * F_c over compositions with
1 <= |c| <= d) must have rank #monomials - #admissible vectors of that
degree over Q, and appending one unit row per admissible vector must reach
full rank.  Each degree's rows are built once, sparse ({column:
coefficient}, `_ideal_rows`), and `_certify` proves both claims on them in
two steps, rows sparsest first and columns ordered non-admissible first:

- lower bound, over GF(2): each row reduced mod 2 is a bitset, eliminated
  by XOR (`_select_mod2`) until target = #monomials - #admissible pivots,
  all on non-admissible columns, select target rows.  Restricted to the
  non-admissible columns those rows are invertible mod 2, so their integer
  determinant is odd and nonzero: rank >= target over Q, and the unit rows
  then complete a full-rank system.  At the top degree, which has no
  admissible vector, this step alone closes the degree;
- upper bound: the selected rows alone are eliminated modulo PRIME and
  back-substituted, which yields one normal-form functional per
  admissible monomial, lifted to the integers by rational reconstruction
  and checked over Z against every ideal row (`annihilates`); they are
  independent, so rank <= target.

When any step does not close (rows short mod 2 or mod PRIME, a lead on an
admissible column, or a false claim), the degree's rows are densified and
the degree is decided by the exact fraction-free `integer_matrix_rank`.
That fallback is the only place that holds a row as a list over all
monomials.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, isqrt, lcm

from .dyck import enumerate_compositions, enumerate_dyck, is_m_composition
from .errors import SizeGuardExceeded, VerificationFailure
from .polynomials import SparsePoly

DEFAULT_MAX_COLUMNS = 4000
PRIME = 2**61 - 1  # modulus of the certificate's elimination


def word_of_composition(m: int, c) -> list[tuple[int, int]]:
    """(letter, block) pairs, letters expanded with multiplicity per block."""
    if not is_m_composition(m, c):
        raise ValueError(f"{c!r} is not a valid block word for m={m}")
    word = []
    for b in range(len(c) // m):
        for r in range(1, m + 1):
            word.extend([(r, b + 1)] * c[m * b + r - 1])
    return word


def fundamental_qsym(m: int, c: tuple, n: int) -> SparsePoly:
    """Sum over index maps of the block word: weakly increasing inside a
    block, strictly increasing from block to block, values in 1..n.

    Zero when the word has more blocks than available values; all nonzero
    coefficients are 1.  Each call returns a fresh polynomial, so a caller
    that mutates it leaves the cache intact.
    """
    return SparsePoly(m * n, _fundamental_terms(m, c, n))


@lru_cache(maxsize=None)
def _fundamental_terms(m: int, c: tuple, n: int) -> tuple:
    """The (exponent, coefficient) pairs of F_c, immutable for the cache."""
    word = word_of_composition(m, c)
    blocks = len(c) // m
    nvars = m * n
    poly = SparsePoly.zero(nvars)
    if blocks > n:
        return ()

    sizes = []
    letters = []
    for b in range(1, blocks + 1):
        chunk = [w for w in word if w[1] == b]
        sizes.append(len(chunk))
        letters.append([r for r, _ in chunk])

    def rec(b: int, lowest: int, exponent: tuple):
        if b == blocks:
            poly.terms[exponent] = poly.terms.get(exponent, 0) + 1
            return
        for values in combinations_with_replacement(
            range(lowest, n + 1), sizes[b]
        ):
            exp = list(exponent)
            for r, k in zip(letters[b], values):
                exp[m * (k - 1) + r - 1] += 1
            rec(b + 1, values[-1] + 1, tuple(exp))

    rec(0, 1, (0,) * nvars)
    assert all(v == 1 for v in poly.terms.values())
    return tuple(poly.terms.items())


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree d, lexicographic."""
    out = []
    exp = [0] * nvars

    def rec(pos: int, left: int):
        if pos == nvars - 1:
            exp[pos] = left
            out.append(tuple(exp))
            exp[pos] = 0
            return
        for x in range(left + 1):
            exp[pos] = x
            rec(pos + 1, left - x)
        exp[pos] = 0

    if nvars == 0:
        return [()] if d == 0 else []
    rec(0, d)
    return out


def _check_columns(nvars: int, d: int, max_columns: int) -> None:
    """Raise SizeGuardExceeded when degree d in nvars variables has more
    than max_columns monomials, with {columns, max_columns} as its payload.

    The count C(nvars+d-1, d) grows with d, so checking the top degree
    first refuses a run before any degree is built.
    """
    ncols = comb(nvars + d - 1, d) if d else 1
    if ncols > max_columns:
        raise SizeGuardExceeded(
            f"{ncols} monomial columns exceed the limit {max_columns}",
            {"columns": ncols, "max_columns": max_columns},
        )


def _ideal_rows(
    m: int, n: int, d: int
) -> tuple[list[tuple[int, ...]], list[dict[int, int]]]:
    """Degree-d rows of the ideal as {column: coefficient} over the
    degree-d monomials, nonzeros only: one row mu * F_c per nonzero F_c
    and monomial mu of degree d - |c|, compositions in enumeration order.

    Monomials are looked up packed, one byte per variable, most
    significant first (`_pack`): the packed order is the lexicographic
    order, and as no exponent exceeds d, shifting by mu adds the packed
    integers without a carry."""
    nvars = m * n
    monomials = monomials_of_degree(nvars, d)
    col = {_pack(e): i for i, e in enumerate(monomials)}
    shifts: dict[int, list[int]] = {}
    rows = []
    for c in enumerate_compositions(m, d):
        terms = _fundamental_terms(m, c, n)
        if not terms:
            continue
        k = d - sum(c)
        if k not in shifts:
            shifts[k] = [_pack(mu) for mu in monomials_of_degree(nvars, k)]
        packed = [(_pack(e), x) for e, x in terms]
        for s in shifts[k]:
            # Shifting by mu is injective, so distinct terms of F_c land
            # in distinct columns and no coefficient needs adding up.
            rows.append({col[t + s]: x for t, x in packed})
    return monomials, rows


def _pack(exponent: tuple[int, ...]) -> int:
    """An exponent tuple as one integer, one byte per variable (`bytes`
    raises on an exponent above 255)."""
    return int.from_bytes(bytes(exponent), "big")


def _densify(rows: list[dict[int, int]], ncols: int) -> list[list[int]]:
    """Sparse rows as lists over all `ncols` columns."""
    dense = []
    for row in rows:
        full = [0] * ncols
        for c, x in row.items():
            full[c] = x
        dense.append(full)
    return dense


def integer_matrix_rank(rows) -> int:
    """Rank by fraction-free elimination; exact over the integers."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        p = mat[rank][c]
        for r in range(rank + 1, len(mat)):
            x = mat[r][c]
            if not x:
                continue
            row = [p * a - x * b for a, b in zip(mat[r], mat[rank])]
            g = 0
            for a in row:
                g = gcd(g, a)
            mat[r] = [a // g for a in row] if g else row
        rank += 1
        if rank == len(mat):
            break
    return rank


def annihilates(rows, witness) -> bool:
    """Exact check over Z: every functional in `witness` ({column: integer})
    vanishes on every sparse row ({column: integer}).

    The functionals are indexed by column once, so each row adds up only
    its nonzero products with them."""
    meeting: dict[int, list[tuple[int, int]]] = {}
    for k, lam in enumerate(witness):
        for c, y in lam.items():
            meeting.setdefault(c, []).append((k, y))
    for row in rows:
        sums: dict[int, int] = {}
        for c, x in row.items():
            for k, y in meeting.get(c, ()):
                sums[k] = sums.get(k, 0) + x * y
        if any(sums.values()):
            return False
    return True


def _rational(u: int, p: int) -> tuple[int, int] | None:
    """r/s with |r|, s <= sqrt(p/2) and r = s*u mod p, if there is one."""
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _certify(monomials, rows, admissible) -> list[dict[int, int]] | None:
    """Exact certificate that the ideal rows `rows` (sparse, {column:
    integer} over `monomials`) have rank len(monomials) - len(admissible)
    over Q, and that one unit row per admissible monomial completes them to
    full rank.

    Returns the integer kernel witness: one functional {column: integer}
    per admissible monomial, nonzero on that monomial's column and zero on
    the other admissible ones, checked over Z against every row.  Returns
    None when the certificate does not close; the claim is then undecided.
    Only the rows `_select_mod2` picks are eliminated modulo PRIME.
    """
    p = PRIME
    ncols = len(monomials)
    target = ncols - len(admissible)
    col = {e: i for i, e in enumerate(monomials)}
    admissible_cols = [col[v] for v in admissible]
    # Column positions for both eliminations: non-admissible first, so
    # positions < target must all become pivots.  Taking those in reverse
    # monomial order keeps fill-in down: over all degrees of (1, 7) it cuts
    # the elimination mod p of the selected rows from 1.3 s to 0.12 s.
    chosen = set(admissible_cols)
    if len(chosen) != len(admissible):
        return None  # repeated monomials claim more than they span
    order = [c for c in reversed(range(ncols)) if c not in chosen]
    order += admissible_cols
    pos = {c: i for i, c in enumerate(order)}

    # Sparsest rows first, so the selected rows, and the fill-in of their
    # elimination mod p, stay small.
    selected = _select_mod2(sorted(rows, key=len), pos, target)
    if selected is None:
        return None  # a lead on an admissible column, or rank mod 2 short
    if not admissible:
        return []
    pivots = _eliminate(selected, pos, target, p)
    if pivots is None or len(pivots) < target:
        return None  # the selected rows fall short mod p

    # Back-substitute so each pivot row keeps only its pivot and admissible
    # positions: row c reads e_c + sum_v a_cv e_v, and the functional with
    # 1 at v and -a_cv at each c vanishes on every pivot row.
    for lead in reversed(range(target)):
        row = pivots[lead]
        for j in [j for j in row if lead < j < target]:
            f = row.pop(j)
            for t, x in pivots[j].items():
                if t >= target:
                    y = (row.get(t, 0) - f * x) % p
                    if y:
                        row[t] = y
                    else:
                        row.pop(t, None)

    witness = []
    for k, v_col in enumerate(admissible_cols):
        a = target + k
        fractions = {v_col: (1, 1)}
        for lead in range(target):
            x = pivots[lead].get(a)
            if x:
                frac = _rational(-x, p)
                if frac is None:
                    return None
                fractions[order[lead]] = frac
        scale = lcm(*(s for _, s in fractions.values()))
        witness.append({c: r * (scale // s) for c, (r, s) in fractions.items()})
    if not annihilates(rows, witness):
        return None
    return witness


def _select_mod2(rows, pos, target) -> list[dict[int, int]] | None:
    """The first `target` of `rows` ({column: integer}, in the given order)
    that are independent mod 2 with every lead at a position < target, or
    None when a lead falls at a position >= target or the rows run out.

    Each row is reduced mod 2 to a bitset, bit pos[c] for each odd entry,
    and eliminated by XOR with the lowest set bit as its lead.  The
    reduced rows have distinct leads below target, so the selected rows
    restricted to the first target positions are invertible mod 2: their
    integer determinant is odd, hence nonzero, and the rank over Q is at
    least target."""
    pivots: dict[int, int] = {}  # lead position -> reduced bitset
    selected = []
    for row in rows:
        if len(selected) == target:
            return selected
        bits = 0
        for c, x in row.items():
            if x & 1:
                bits |= 1 << pos[c]
        while bits:
            lead = (bits & -bits).bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                if lead >= target:
                    return None
                pivots[lead] = bits
                selected.append(row)
                break
            bits ^= pivot
    return selected if len(selected) == target else None


def _eliminate(rows, pos, target, p) -> dict[int, dict[int, int]] | None:
    """Sparse elimination mod p of `rows` ({column: integer}) in the given
    order, columns at positions `pos`: the pivot rows (position -> row,
    1 at that position).  None when a pivot falls at a position >=
    target."""
    pivots: dict[int, dict[int, int]] = {}
    for srow in rows:
        row = {pos[c]: y for c, x in srow.items() if (y := x % p)}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if lead >= target:
                    return None
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[lead]
            for j, x in pivot.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
    return pivots


def verify_basis_graded(
    m: int, n: int, max_columns: int = DEFAULT_MAX_COLUMNS
) -> dict:
    """Per-degree certificate for sizes 0..n; raises VerificationFailure
    with the offending degree on any mismatch.  The column cap is checked
    once, at the top degree, the largest, before any work; it bounds the
    work, so the vectors are enumerated without an m*n guard of their own."""
    _check_columns(m * n, n, max_columns)
    dyck_by_degree: dict[int, list[tuple[int, ...]]] = {}
    for v in enumerate_dyck(m, n, m * n):
        dyck_by_degree.setdefault(sum(v), []).append(v)
    table = []
    for d in range(n + 1):
        monomials, rows = _ideal_rows(m, n, d)
        admissible = dyck_by_degree.get(d, [])
        expected = len(monomials) - len(admissible)
        # The counterexample of any failure at this degree.
        entry = {
            "degree": d,
            "monomials": len(monomials),
            "ideal_rank": expected,
            "admissible": len(admissible),
        }
        if _certify(monomials, rows, admissible) is None:
            # The certificate did not close: exact elimination decides.
            rows = _densify(rows, len(monomials))
            ideal_rank = entry["ideal_rank"] = integer_matrix_rank(rows)
            if ideal_rank != expected:
                raise VerificationFailure(
                    f"degree {d}: ideal rank {ideal_rank}, expected {expected}",
                    entry,
                )
            col = {e: i for i, e in enumerate(monomials)}
            unit_rows = _densify([{col[v]: 1} for v in admissible], len(monomials))
            full = integer_matrix_rank(rows + unit_rows)
            if full != len(monomials):
                raise VerificationFailure(
                    f"degree {d}: admissible monomials do not complete the "
                    f"ideal ({full} of {len(monomials)})",
                    entry,
                )
        if d == n and expected != len(monomials):
            raise VerificationFailure(
                f"degree {n}: ideal component not full ({expected} of "
                f"{len(monomials)})",
                entry,
            )
        table.append(entry)
    return {"m": m, "n": n, "degrees": table}
