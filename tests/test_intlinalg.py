"""Exact linear algebra against symbolic normal forms, sympy ranks and exhaustive search."""

import copy
import functools
import io
import itertools
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from aomega import intlinalg as la
from aomega.cli import main
from aomega.complexes import ZModRing, ZRing
from aomega.witt import GF


def random_matrix(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def mat_mul(A, B, m, k, n):
    """(m x k) @ (k x n)."""
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


def test_column_echelon_transform_is_unimodular():
    rng = random.Random(50)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        cols = la.transpose(A, m, n)
        H, U, rank = la.column_echelon(cols, m, n, transform=True)
        # H and U are lists of columns: A U = H
        assert mat_mul(A, la.transpose(U, n, n), m, n, n) == la.transpose(H, n, m)
        det = sympy.Matrix(U).det()
        assert det in (1, -1)
        # echelon: positive pivots in strictly increasing rows, zero above
        pivots = [next(i for i, x in enumerate(H[j]) if x) for j in range(rank)]
        assert pivots == sorted(set(pivots)) and all(H[j][p] > 0 for j, p in enumerate(pivots))
        # columns beyond the rank are zero
        for j in range(rank, n):
            assert not any(H[j])
        # the same form without the transform
        assert la.column_echelon(cols, m, n) == (H, None, rank)


def test_kernel_spans_and_saturates():
    rng = random.Random(51)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        # the kernel is the preimage of the zero lattice
        kernel = la.preimage_lattice(A, m, n, [])
        for v in kernel:
            assert all(sum(A[i][j] * v[j] for j in range(n)) == 0 for i in range(m))
        assert len(kernel) == n - sympy.Matrix(A).rank()
        # saturated: any integral rational combination lies in the lattice
        if kernel:
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in kernel]
            combo = [sum(c * v[j] for c, v in zip(coeffs, kernel)) for j in range(n)]
            if all(x.denominator == 1 for x in combo):
                assert la.in_lattice(la.lattice_basis(kernel, n), [[int(x) for x in combo]], n) is not None


def test_solve_int_round_trip_and_unsolvable():
    rng = random.Random(52)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = la.mat_vec(A, x, m, n)
        sol = la.solve_int(A, b, m, n)
        assert sol is not None
        assert la.mat_vec(A, sol, m, n) == b
    # 2x = 1 has no integer solution
    assert la.solve_int([[2]], [1], 1, 1) is None


def oracle_solve_int(A, b, m, n, echelon=None):
    """A fresh Hermite form of A (by `echelon`, `intlinalg.column_echelon`
    by default), with its transform, for every call, then back-substitution
    against its pivot columns."""
    H, U, rank = (echelon or la.column_echelon)(la.transpose(A, m, n), m, n, transform=True)
    res = list(b)
    y = [0] * rank
    for j in range(rank):
        row = next(r for r in range(m) if H[j][r])
        if res[row] % H[j][row]:
            return None
        c = res[row] // H[j][row]
        y[j] = c
        if c:
            res = [s - c * t for s, t in zip(res, H[j])]
    if any(res):
        return None
    return [sum(y[j] * U[j][i] for j in range(rank)) for i in range(n)]


def oracle_in_lattice(basis, vectors, n, echelon=None):
    """`in_lattice` one vector at a time through `oracle_solve_int`."""
    one_by_one = [oracle_solve_int(la.transpose(basis, len(basis), n), v, n, len(basis), echelon)
                  if basis else ([] if not any(v) else None) for v in vectors]
    return None if None in one_by_one else one_by_one


def test_echelon_solve_matches_per_column_oracle():
    rng = random.Random(57)
    seen = {"solved": 0, "unsolvable": 0}
    for _ in range(150):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        A = random_matrix(rng, m, n)
        X = random_matrix(rng, n, k, bound=4)
        B = mat_mul(A, X, m, n, k)
        # one random column among solvable ones: often outside the image
        if k and rng.random() < 0.5:
            bad = rng.randrange(k)
            for i in range(m):
                B[i][bad] = rng.randint(-6, 6)
        # the echelon basis of the column lattice of A, and B's columns
        basis = la.lattice_basis(la.transpose(A, m, n), m)
        vectors = la.transpose(B, m, k)
        got = la.in_lattice(basis, vectors, m)
        assert got == oracle_in_lattice(basis, vectors, m), (A, B)
        # the same lattice as A's columns: the same columns solve
        assert (got is None) == any(oracle_solve_int(A, v, m, n) is None for v in vectors)
        if got is not None:
            assert [la.mat_vec(la.transpose(basis, len(basis), m), c, m, len(basis)) for c in got] == vectors
        seen["solved" if got is not None else "unsolvable"] += 1
        # solve_int: a Hermite form of A, then the echelon solve
        if k:
            assert la.solve_int(A, vectors[0], m, n) == oracle_solve_int(A, vectors[0], m, n)
    assert min(seen.values()) > 20, seen


def test_echelon_solve_one_bad_vector_among_good_ones():
    # the columns of [[2, 0], [0, 2], [2, 2]]: 2 x = b solves only for even
    # b, and the residue check sees the last entry
    basis = [[2, 0, 2], [0, 2, 2]]
    assert la.in_lattice(basis, [[2, 6, 8], [4, -2, 2]], 3) == [[1, 3], [2, -1]]
    for bad in ([[2, 6, 8], [4, -2, 2], [1, 0, 0]], [[2, 6, 8], [2, 0, 0], [4, -2, 2]]):
        assert la.in_lattice(basis, bad, 3) is None
        assert oracle_in_lattice(basis, bad, 3) is None
    # consistent pivots, inconsistent last entry: only the residue check sees it
    assert la.in_lattice(basis, [[2, 6, 8], [2, 6, 9]], 3) is None
    assert la.in_lattice(basis, [], 3) == []
    # 2 x = 1 has no integer solution
    assert la.in_lattice([[2]], [[1]], 1) is None


def test_in_lattice_lists_against_per_vector_oracle():
    rng = random.Random(58)
    for _ in range(100):
        n = rng.randint(1, 4)
        gens = random_matrix(rng, rng.randint(0, 3), n, bound=5)
        basis = la.lattice_basis(gens, n)
        members = [la.mat_vec(la.transpose(basis, len(basis), n), c, n, len(basis))
                   for c in random_matrix(rng, rng.randint(0, 3), len(basis), bound=3)]
        vectors = members + random_matrix(rng, rng.randint(0, 1), n)
        rng.shuffle(vectors)
        assert la.in_lattice(basis, vectors, n) == oracle_in_lattice(basis, vectors, n), (basis, vectors)
        assert la.in_lattice(basis, members, n) is not None
        assert la.in_lattice(basis, [], n) == []
    # empty basis: only zero vectors, each with no coordinates
    assert la.in_lattice([], [[0, 0], [0, 0]], 2) == [[], []]
    assert la.in_lattice([], [[0, 0], [0, 1]], 2) is None
    assert la.in_lattice([], [], 2) == []
    # the echelon contract: pivots in strictly increasing positions, no zero row
    for basis in ([[0, 1], [1, 0]], [[1, 0], [2, 1]], [[1, 0], [0, 0]], [[0, 0]]):
        with pytest.raises(AssertionError, match="echelon"):
            la.in_lattice(basis, [[0, 0]], 2)


def oracle_kernel_mod_p(A, m, n, p):
    """Gauss-Jordan kernel over F_p: one basis vector per free column."""
    A = [[x % p for x in row] for row in A]
    pivots = []
    rowi = 0
    for col in range(n):
        piv = next((i for i in range(rowi, m) if A[i][col]), None)
        if piv is None:
            continue
        A[rowi], A[piv] = A[piv], A[rowi]
        inv = pow(A[rowi][col], -1, p)
        A[rowi] = [x * inv % p for x in A[rowi]]
        for i in range(m):
            if i != rowi and A[i][col]:
                c = A[i][col]
                A[i] = [(x - c * y) % p for x, y in zip(A[i], A[rowi])]
        pivots.append(col)
        rowi += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -A[i][fc] % p
        basis.append(v)
    return basis


def test_kernel_mod_p_has_the_span_of_gauss_jordan():
    rng = random.Random(59)
    for p in (2, 3, 5):
        field = sympy.GF(p)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.5:
                A[-1] = [(x + rng.randrange(p) * y) % p for x, y in zip(A[-1], A[0])]
            got = la.kernel_mod_p(A, m, n, p)
            oracle = oracle_kernel_mod_p(A, m, n, p)
            assert len(got) == len(oracle), (p, A)
            assert all(0 <= x < p for v in got for x in v)
            for v in got:
                assert all(x % p == 0 for x in la.mat_vec(A, v, m, n)), (p, A, v)
            if oracle:
                def rank(rows):
                    return DomainMatrix.from_list(rows, sympy.ZZ).convert_to(field).rank()
                assert rank(got) == rank(oracle) == rank(got + oracle) == len(oracle), (p, A)


# alternating `column_echelon` with its transpose cycles on this matrix
SNF_CYCLE = [[3, 9, -8, 6], [-2, 3, 4, -4], [2, 8, 2, -7]]


def test_snf_divisors_against_symbolic_oracle():
    rng = random.Random(53)
    cases = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60)]
    cases += [SNF_CYCLE, [[0, 0, 0], [2, 4, 6]], [[0, 0], [0, 0]], [[4, 6], [0, 0], [6, 9]]]
    for A in cases:
        m, n = len(A), len(A[0])
        got = la.snf_divisors(A, m, n)
        M = smith_normal_form(sympy.Matrix(A))
        oracle = [abs(M[i, i]) for i in range(min(m, n)) if M[i, i] != 0]
        assert got == oracle, (A, got, oracle)
    assert la.snf_divisors(SNF_CYCLE, 3, 4) == [1, 1, 1]


def elimination_snf_divisors(A, m, n):
    """The Smith loop `snf_divisors` used before it was built on Hermite
    steps: minimum-entry pivot, row and column clearing with restarts, and
    a repair whenever the pivot fails to divide the block below it."""
    M = [row[:] for row in A]
    divisors = []
    top = 0
    left = 0
    while top < m and left < n:
        piv = None
        best = None
        for i in range(top, m):
            for j in range(left, n):
                v = abs(M[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        M[top], M[pi] = M[pi], M[top]
        for row in M:
            row[left], row[pj] = row[pj], row[left]
        while True:
            p = M[top][left]
            dirty = False
            for i in range(top + 1, m):
                if M[i][left]:
                    q = M[i][left] // p
                    for j in range(left, n):
                        M[i][j] -= q * M[top][j]
                    if M[i][left]:
                        M[top], M[i] = M[i], M[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(left + 1, n):
                if M[top][j]:
                    q = M[top][j] // p
                    for i in range(top, m):
                        M[i][j] -= q * M[i][left]
                    if M[top][j]:
                        for i in range(top, m):
                            M[i][left], M[i][j] = M[i][j], M[i][left]
                        dirty = True
                        break
            if dirty:
                continue
            bad = None
            for i in range(top + 1, m):
                for j in range(left + 1, n):
                    if M[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(left, n):
                M[top][j] += M[bad][j]
        divisors.append(abs(M[top][left]))
        top += 1
        left += 1
    return divisors


def test_snf_divisors_against_elimination_oracle():
    rng = random.Random(56)
    shapes = [(0, 3), (3, 0), (1, 6), (6, 1)] + [(m, n) for m in range(1, 7) for n in range(1, 7)]
    for trial in range(2400):
        m, n = shapes[trial % len(shapes)]
        bound = (1, 3, 9, 60)[trial % 4]
        A = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        if m and n and trial % 5 == 0:
            A[rng.randrange(m)] = [0] * n
        if m and n and trial % 7 == 0:
            c = rng.randrange(n)
            for row in A:
                row[c] = 0
        got = la.snf_divisors(A, m, n)
        assert got == elimination_snf_divisors(A, m, n), A
        assert all(b % a == 0 for a, b in zip(got, got[1:])), A


def test_zero_size_maps_need_no_special_case():
    # a map into the zero module: everything is a cycle
    assert la.preimage_lattice([], 0, 3, []) == la.identity(3)
    assert la.preimage_lattice([[], []], 2, 0, []) == []
    # the columns of an n x 0 map: no boundary generators
    assert la.transpose([[], [], []], 3, 0) == []
    assert la.rank([], ZRing()) == 0
    assert la.rank([[], []], ZRing()) == 0
    assert la.snf_divisors([], 0, 4) == [] and la.snf_divisors([[]], 1, 0) == []
    assert la.divisibility_lattice([], 0, 2, 5) == la.identity(2)


def test_preimage_lattice_defining_property():
    rng = random.Random(54)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = random_matrix(rng, m, n)
        f = rng.choice((2, 3, 4))
        target = [[f if i == j else 0 for j in range(m)] for i in range(m)]
        rows = la.preimage_lattice(A, m, n, target)
        # every basis vector maps into f Z^m
        for v in rows:
            image = la.mat_vec(A, v, m, n)
            assert all(x % f == 0 for x in image)
        # every vector with that property lies in the lattice
        for _ in range(10):
            w = [rng.randint(-6, 6) for _ in range(n)]
            image = la.mat_vec(A, w, m, n)
            if all(x % f == 0 for x in image):
                assert la.in_lattice(rows, [w], n) is not None


def test_quotient_presentation_examples():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 in chain form
    free, tors = la.quotient_presentation(la.identity(2), [[2, 0], [0, 3]], 2)
    assert free == 0 and la.chain_normalize(tors) == [6]
    # Z^2 / <(2,0)> = Z + Z/2
    free, tors = la.quotient_presentation(la.identity(2), [[2, 0]], 2)
    assert free == 1 and tors == [2]
    # full lattice: trivial quotient
    free, tors = la.quotient_presentation(la.identity(2), [[1, 0], [0, 1]], 2)
    assert free == 0 and tors == []


def test_quotient_presentation_checks_containment_also_in_the_zero_lattice():
    assert la.quotient_presentation([], [[0, 0]], 2) == (0, [])
    for basis in ([], [[2, 0]]):
        with pytest.raises(AssertionError, match="not contained"):
            la.quotient_presentation(basis, [[1, 0]], 2)


def test_lattice_membership_and_sum():
    basis = [[2, 0], [0, 3]]
    assert la.in_lattice(basis, [[4, 3]], 2) == [[2, 1]]
    assert la.in_lattice(basis, [[1, 0]], 2) is None
    summed = la.lattice_basis(basis + [[1, 1]], 2)
    assert la.in_lattice(summed, [[1, 1]], 2) is not None
    assert la.in_lattice(summed, basis, 2) is not None


def test_rank_against_domain_matrix_over_zz_and_gf_p():
    rng = random.Random(55)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n, bound=4)
        # a planted dependent row makes rank drops common
        if m > 1 and rng.random() < 0.5:
            c = rng.randint(-2, 2)
            A[-1] = [x + c * y for x, y in zip(A[-1], A[0])]
        oracle = DomainMatrix.from_list(A, sympy.ZZ)
        assert la.rank(A, ZRing()) == oracle.rank(), A
        for p in (2, 3, 5, 7):
            got = la.rank([[x % p for x in row] for row in A], ZModRing(p))
            assert got == oracle.convert_to(sympy.GF(p)).rank(), (A, p)


def test_rank_over_gf4_and_gf9_against_exhaustive_search():
    rng = random.Random(56)
    for p, m in ((2, 2), (3, 2)):
        F = GF(p, m)
        elements = list(F.elements())
        times = {(a, x): F.mul(a, x) for a in elements for x in elements}

        def kills(row, v):
            return F.is_zero(functools.reduce(F.add, (times[a, x] for a, x in zip(row, v))))

        # every 2x2 matrix: a nonzero one has rank 1 exactly when it kills a
        # nonzero vector
        rows = list(itertools.product(elements, repeat=2))
        nonzero = [v for v in rows if any(map(any, v))]
        kernels = {row: {v for v in nonzero if kills(row, v)} for row in rows}
        for top, bottom in itertools.product(rows, repeat=2):
            if not any(map(any, top + bottom)):
                expected = 0
            elif kernels[top] & kernels[bottom]:
                expected = 1
            else:
                expected = 2
            assert la.rank([list(top), list(bottom)], F) == expected, (F.q, top, bottom)

        # 3x3 matrices, where elimination divides by pivots other than one:
        # the kernel has q^(3 - rank) vectors
        vectors = list(itertools.product(elements, repeat=3))
        for _ in range(40):
            mat = [[rng.choice(elements) for _ in range(3)] for _ in range(3)]
            if rng.random() < 0.5:
                s, t = rng.choice(elements), rng.choice(elements)
                mat[2] = [F.add(times[s, x], times[t, y]) for x, y in zip(mat[0], mat[1])]
            kernel = sum(all(kills(row, v) for row in mat) for v in vectors)
            assert F.q ** (3 - la.rank(mat, F)) == kernel, (F.q, mat)


# The Hermite form and the lattice preimage as they were before the Hermite
# steps skipped the rows above the pivot and the preimage carried its
# transform on the n coordinates it reads, kept word for word (the
# transpose and the kernel inlined) as references for list-for-list
# equality: `leta apply` prints the induced differentials in the bases
# these return, which are not canonical.
def reference_column_echelon(cols, m: int, n: int, transform: bool = False):
    H = [c[:] for c in cols]
    U = la.identity(n) if transform else None
    col = 0
    for row in range(m):
        piv = next((j for j in range(col, n) if H[j][row]), None)
        if piv is None:
            continue
        if piv != col:
            H[col], H[piv] = H[piv], H[col]
            if transform:
                U[col], U[piv] = U[piv], U[col]
        for j in range(col + 1, n):
            b = H[j][row]
            if not b:
                continue
            # one extended-gcd step clears the entry: -(b/g) a + (a/g) b = 0
            a = H[col][row]
            g, x, y = la._xgcd(a, b)
            aa, bb = a // g, b // g
            for M in (H, U) if transform else (H,):
                mc, mj = M[col], M[j]
                M[col] = [x * s + y * t for s, t in zip(mc, mj)]
                M[j] = [aa * t - bb * s for s, t in zip(mc, mj)]
        if H[col][row] < 0:
            H[col] = [-x for x in H[col]]
            if transform:
                U[col] = [-x for x in U[col]]
        col += 1
        if col == n:
            break
    return H, U, col


def reference_lattice_basis(gens, n):
    H, _, rank = reference_column_echelon(gens, n, len(gens))
    return H[:rank]


def reference_preimage_lattice(A, m: int, n: int, target_basis):
    t = len(target_basis)
    B = [[A[i][j] for j in range(n)] + [-target_basis[s][i] for s in range(t)]
         for i in range(m)]
    _, U, rank = reference_column_echelon([[B[i][j] for i in range(m)] for j in range(n + t)], m, n + t,
                                          transform=True)
    gens = [v[:n] for v in U[rank:]]
    return reference_lattice_basis(gens, n)


def reference_result(name, args, kwargs):
    """What `intlinalg.<name>` must return on these arguments."""
    if name == "column_echelon":
        width = kwargs.pop("width", None)
        H, U, rank = reference_column_echelon(*args, **kwargs)
        return H, None if U is None else [u[:width] for u in U], rank
    if name == "divisibility_lattice":
        A, m, n, f = args
        return reference_preimage_lattice(A, m, n, la.scale(la.identity(m), f))
    return {
        "preimage_lattice": reference_preimage_lattice,
        "lattice_basis": reference_lattice_basis,
        # the Smith divisors and the coordinates in a basis are canonical
        "snf_divisors": elimination_snf_divisors,
        "in_lattice": functools.partial(oracle_in_lattice, echelon=reference_column_echelon),
    }[name](*args, **kwargs)


def assert_reference_lists(name, args, kwargs=None):
    kwargs = kwargs or {}
    got = getattr(la, name)(*copy.deepcopy(args), **kwargs)
    assert got == reference_result(name, copy.deepcopy(args), dict(kwargs)), (name, args, kwargs)


def test_kernels_return_the_reference_lists_on_every_shape():
    rng = random.Random(60)
    for m, n in itertools.product(range(7), repeat=2):
        for trial in range(6):
            bound = (1, 3, 9)[trial % 3]
            A = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
            if m and trial % 2:
                A[rng.randrange(m)] = [0] * n
            if n and trial % 3 == 2:
                c = rng.randrange(n)
                for row in A:
                    row[c] = 0
            cols = la.transpose(A, m, n)
            for transform, width in ((False, None), (True, None), (True, rng.randint(0, n))):
                assert_reference_lists("column_echelon", (cols, m, n), {"transform": transform, "width": width})
            assert_reference_lists("divisibility_lattice", (A, m, n, rng.randint(1, 30)))
            target = random_matrix(rng, rng.randint(0, m + 1), m, bound=4)
            assert_reference_lists("preimage_lattice", (A, m, n, target))
            assert_reference_lists("lattice_basis", (A, n))
            assert_reference_lists("snf_divisors", (A, m, n))
            basis = reference_lattice_basis(A, n)
            members = [[sum(c * w[j] for c, w in zip(coords, basis)) for j in range(n)]
                       for coords in random_matrix(rng, 2, len(basis), bound=3)]
            assert_reference_lists("in_lattice", (basis, members, n))
            assert_reference_lists("in_lattice", (basis, members + random_matrix(rng, 1, n), n))


REFERENCE_KERNELS = ["column_echelon", "divisibility_lattice", "preimage_lattice", "lattice_basis",
                     "snf_divisors", "in_lattice"]


@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_return_the_reference_lists_on_the_s5_leta_calls(monkeypatch, seed):
    calls = []
    for name in REFERENCE_KERNELS:
        def recorded(*args, _name=name, _real=getattr(la, name), **kwargs):
            calls.append((_name, copy.deepcopy(args), dict(kwargs)))
            return _real(*args, **kwargs)
        monkeypatch.setattr(la, name, recorded)
    with redirect_stdout(io.StringIO()):
        assert main(["leta", "verify", "--suite", "s5-leta", "--instances", "30", "--seed", str(seed)]) == 0
    monkeypatch.undo()
    assert {name for name, _, _ in calls} == set(REFERENCE_KERNELS)
    for name, args, kwargs in calls:
        assert_reference_lists(name, args, kwargs)
