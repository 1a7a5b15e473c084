"""Exact linear algebra on small dense matrices.

The lattice routines (Hermite and Smith forms, kernels, solving) work over
the integers: matrices are lists of rows of Python ints, and dimensions
are passed explicitly so zero-row / zero-column matrices are unambiguous.
A lattice travels as the echelon basis its Hermite form gives
(`lattice_basis`): `in_lattice` solves against such a basis by
back-substitution, with no further Hermite form, and the one Hermite
routine, `column_echelon`, works on a list of generator columns and builds
its unimodular transform only when asked for it.  Two invariants keep it
short: at row r every column from the current pivot column on is zero
above r, so a column operation changes rows r and below only; and a column
operation treats every coordinate of the transform alike, so a caller that
reads the first k coordinates of its columns (`preimage_lattice`) gets them
from a transform carried on those k alone.  `rank` works over any
integral domain given as a ring of the `aomega.complexes` protocol,
entries being that ring's elements.  The complexes met by this package
have ranks in the tens, so everything here favours clarity over
asymptotics; all arithmetic is exact.
"""

from __future__ import annotations

from math import gcd


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v, m: int, n: int) -> list[int]:
    return [sum(A[i][j] * v[j] for j in range(n)) for i in range(m)]


def transpose(A, m: int, n: int) -> list[list[int]]:
    return [list(c) for c in zip(*A)] if m else [[] for _ in range(n)]


def scale(A, c: int) -> list[list[int]]:
    return [[c * x for x in row] for row in A]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def column_echelon(cols, m: int, n: int, transform: bool = False, width: int | None = None):
    """Hermite form of the lattice spanned by n column vectors in Z^m.

    Returns (H, U, rank), H and U lists of columns.  H comes from the
    columns by unimodular column operations and is in column echelon form:
    pivot columns 0..rank-1, pivot rows strictly increasing, each pivot
    entry positive and zero above it; columns rank..n-1 are zero.  U, the
    transform with H[j] = sum_i U[j][i] cols[i], is built only when asked
    for, and is None otherwise; given `width`, each column of U keeps only
    its first `width` coordinates.
    """
    H = [list(c) for c in cols]
    U = [[int(i == j) for i in range(n if width is None else width)] for j in range(n)] if transform else None
    col = 0
    for row in range(m):
        for piv in range(col, n):
            if H[piv][row]:
                break
        else:
            continue
        if piv != col:
            H[col], H[piv] = H[piv], H[col]
            if transform:
                U[col], U[piv] = U[piv], U[col]
        hc = H[col]
        for j in range(col + 1, n):
            hj = H[j]
            b = hj[row]
            if not b:
                continue
            # one extended-gcd step clears the entry: -(b/g) a + (a/g) b = 0
            a = hc[row]
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            # columns col.. are zero above row: only rows row.. change
            for i in range(row, m):
                s, t = hc[i], hj[i]
                hc[i] = x * s + y * t
                hj[i] = aa * t - bb * s
            if transform:
                uc, uj = U[col], U[j]
                for i in range(len(uc)):
                    s, t = uc[i], uj[i]
                    uc[i] = x * s + y * t
                    uj[i] = aa * t - bb * s
        if hc[row] < 0:
            hc[row:] = [-x for x in hc[row:]]
            if transform:
                U[col] = [-x for x in U[col]]
        col += 1
        if col == n:
            break
    return H, U, col


def solve_int(A, b, m: int, n: int) -> list[int] | None:
    """One integer solution of A x = b, or None.

    No command calls it; `bench/tracing.py` spans it by name."""
    H, U, rank = column_echelon(transpose(A, m, n), m, n, transform=True)
    y = in_lattice(H[:rank], [b], m)
    if y is None:
        return None
    return [sum(c * u[i] for c, u in zip(y[0], U)) for i in range(n)]


def lattice_basis(gens: list[list[int]], n: int) -> list[list[int]]:
    """Echelon basis (list of rows) of the lattice spanned by `gens` in Z^n."""
    H, _, rank = column_echelon(gens, n, len(gens))
    return H[:rank]


def in_lattice(basis: list[list[int]], vectors: list[list[int]], n: int) -> list[list[int]] | None:
    """Coordinates of every vector in the lattice spanned by `basis`, or
    None if some vector lies outside it.

    `basis` must be echelon, as every basis built here is: the first
    nonzero entries (pivots) of its rows lie in strictly increasing
    positions.  Each vector is solved by back-substitution: an exact
    division at each pivot, then a zero residual.  A basis that is not
    echelon, or has a zero row, raises AssertionError.
    """
    # the first nonzero entry of a row sits at its first occurrence
    pivots = [v.index(x) if (x := next(filter(None, v), 0)) else n for v in basis]
    if n in pivots or pivots != sorted(set(pivots)):
        raise AssertionError("lattice basis is not in echelon form")
    out = []
    for v in vectors:
        res = list(v)
        coords = []
        for w, p in zip(basis, pivots):
            q, r = divmod(res[p], w[p])
            if r:
                return None
            coords.append(q)
            if q:
                # w is zero before its pivot
                for i in range(p, n):
                    res[i] -= q * w[i]
        if any(res):
            return None
        out.append(coords)
    return out


def preimage_lattice(A, m: int, n: int, target_basis: list[list[int]]) -> list[list[int]]:
    """Basis of {x in Z^n : A x lies in the lattice spanned by target_basis}.

    The target basis lives in Z^m, and the lattice is the first n
    coordinates of the kernel of [A | -T], T with the target basis as
    columns.  Result is full rank whenever the target lattice has finite
    index in the saturation of the image.
    """
    cols = transpose(A, m, n) + [[-x for x in w] for w in target_basis]
    _, U, rank = column_echelon(cols, m, len(cols), transform=True, width=n)
    return lattice_basis(U[rank:], n)


def divisibility_lattice(A, m: int, n: int, f: int) -> list[list[int]]:
    """Echelon basis of {x in Z^n : A x in f Z^m}."""
    return preimage_lattice(A, m, n, scale(identity(m), f))


def kernel_mod_p(A, m: int, n: int, p: int) -> list[list[int]]:
    """F_p basis of {x : A x = 0 mod p}, entries in [0, p).

    The divisibility lattice contains p Z^n, so each of its Hermite pivots
    divides p; its rows with pivot 1 reduce to a basis of the kernel.
    """
    rows = divisibility_lattice(A, m, n, p)
    pivots = [next(x for x in v if x) for v in rows]
    if len(rows) != n or any(c not in (1, p) for c in pivots):
        raise AssertionError("a Hermite pivot of the divisibility lattice does not divide p")
    return [[x % p for x in v] for v, c in zip(rows, pivots) if c == 1]


def snf_divisors(A, m: int, n: int) -> list[int]:
    """Nonzero elementary divisors d1 | d2 | ... of the integer matrix A.

    Smith from Hermite steps (Kannan and Bachem 1979).  In column echelon
    form a pivot row is zero right of its pivot and a pivot column is zero
    above it, so a pivot dividing the entries below it splits off by row
    operations that touch nothing else.  At the first pivot that does not,
    the columns left over are transposed and echelonized again.  Each
    round either splits a pivot off, shrinking the rank left, or (by the
    gcd step) makes the leading pivot a proper divisor of the failed one,
    so the loop ends.  The pivots split off are then put in chain order.
    One row or one column has one divisor, the gcd of its entries.
    """
    if m == 1 or n == 1:
        g = gcd(*A[0]) if m == 1 else gcd(*(row[0] for row in A))
        return [g] if g else []
    split = []
    # the rows of A span the columns of its transpose, which has the same
    # divisors
    cols, m, n = A, n, m
    while True:
        H, _, r = column_echelon(cols, m, n)
        for j in range(r):
            col = H[j]
            top = col.index(next(filter(None, col)))
            if any(x % col[top] for x in col[top + 1:]):
                break
            split.append(col[top])
        else:
            chain = chain_normalize(split)
            return [1] * (len(split) - len(chain)) + chain
        cols, m, n = [[H[c][i] for c in range(j, r)] for i in range(m)], r - j, m


def chain_normalize(divisors: list[int]) -> list[int]:
    """Rewrite a multiset of cyclic orders in divisibility-chain form (Smith
    on a diagonal), dropping the trivial orders."""
    ds = [abs(d) for d in divisors if abs(d) != 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            a, b = ds[i], ds[j]
            g = gcd(a, b)
            ds[i], ds[j] = g, a * b // g
    return sorted(d for d in ds if d != 1)


def rank(mat, ring) -> int:
    """Rank over the fraction field of an integral domain, by fraction-free
    Gaussian elimination (Bareiss 1968).

    `mat` is a list of rows of `ring` elements; `ring` supplies `zero`,
    `one`, `is_zero`, `add`, `neg`, `mul` and `exact_div`.  Every division
    is by the previous pivot and exact in a domain, so a failed one means
    the ring is not a domain.
    """
    M = [row[:] for row in mat]
    rows, cols = len(M), len(M[0]) if M else 0
    rank = 0
    prev = ring.one()
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not ring.is_zero(M[i][c])), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = ring.add(ring.mul(M[r][c], M[i][j]), ring.neg(ring.mul(M[i][c], M[r][j])))
                q = ring.exact_div(num, prev)
                if q is None:
                    raise AssertionError("fraction-free elimination lost exactness")
                M[i][j] = q
            M[i][c] = ring.zero()
        prev = M[r][c]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def quotient_presentation(z_basis: list[list[int]], b_gens: list[list[int]], n: int):
    """Presentation of (lattice Z) / (sublattice spanned by b_gens).

    Returns (free_rank, torsion) with torsion the elementary divisors > 1
    in divisibility order.  z_basis is echelon, and every generator in
    b_gens must lie in Z: one outside it is a broken invariant of the
    caller (AssertionError).
    """
    k = len(z_basis)
    coords = in_lattice(z_basis, b_gens, n)
    if coords is None:
        raise AssertionError("generator not contained in the ambient lattice")
    if k == 0 or not coords:
        return k, []
    divisors = snf_divisors(coords, len(coords), k)
    torsion = [d for d in divisors if d > 1]
    free_rank = k - len(divisors)
    return free_rank, torsion
