"""Normal-form routines checked against brute-force residue enumeration.

All oracle lattices contain m * Z^d for some modulus m, so membership,
index, and intersections are decidable by enumerating residues mod m.
"""

import math
import random
from itertools import product

import pytest

from amenact import lattices


def closure_mod(gens, m, dim):
    """All residues mod m reachable from the generators (brute force)."""
    zero = (0,) * dim
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g % m for g in row) for row in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % m for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def full_rank_index(basis, dim):
    """[Z^dim : L] for a full-rank Hermite basis: the product of its pivots."""
    assert len(basis) == dim
    return math.prod(row[i] for i, row in enumerate(basis))


def dense_hnf(rows, dim):
    """Oracle: the Hermite form by dense elimination alone, the route
    ``lattices.hnf`` leaves once every column has a modulus row."""
    return lattices._echelon(rows, dim)[0]


def random_case(rng, dim, m):
    nrows = rng.randint(1, dim + 1)
    gens = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(nrows)]
    full = gens + [[m if i == j else 0 for j in range(dim)] for i in range(dim)]
    return gens, full


@pytest.mark.parametrize("seed", range(25))
def test_hnf_membership_and_index_match_enumeration(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    m = rng.choice([2, 3, 4, 6, 8])
    gens, full = random_case(rng, dim, m)
    basis = lattices.hnf(full, dim)
    residues = closure_mod(gens, m, dim)

    index = full_rank_index(basis, dim)
    assert index == m**dim // len(residues)

    for vec in product(range(m), repeat=dim):
        assert lattices.contains(basis, vec) == (vec in residues)

    reps = {lattices.reduce_mod(basis, vec) for vec in product(range(m), repeat=dim)}
    assert len(reps) == index


def test_hnf_of_empty_and_zero_rows():
    assert lattices.hnf([], 3) == []
    assert lattices.hnf([[0, 0, 0]], 3) == []
    assert lattices.hnf([], 0) == [] == lattices.hnf([[]], 0)


@pytest.mark.parametrize("seed", range(20))
def test_hnf_with_every_modulus_row_takes_the_modular_route(seed, monkeypatch):
    # rows m * e_j for every column j, in any order, of either sign and
    # repeated, mixed with other rows: the modular read-out equals dense
    # elimination; one column short of a modulus row, dense elimination runs
    rng = random.Random(f"hnf-route:{seed}")
    cases = []
    for _ in range(100):
        dim = rng.randint(1, 5)
        gens = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        moduli = [[0] * dim for _ in range(dim)]
        for j, row in enumerate(moduli):
            row[j] = rng.choice([-12, -2, 1, 3, 4, 6, 8])
        extra = [list(row) for row in moduli if rng.random() < 0.3]
        full = gens + moduli + [[2 * x for x in row] for row in extra]
        rng.shuffle(full)
        short = gens + moduli[1:]
        cases.append((full, short, dim, dense_hnf(full, dim), dense_hnf(short, dim)))
    dense_calls = []
    echelon = lattices._echelon
    monkeypatch.setattr(lattices, "_echelon", lambda rows, dim: dense_calls.append(1) or echelon(rows, dim))
    for full, short, dim, want_full, want_short in cases:
        assert lattices.hnf(full, dim) == want_full and not dense_calls, full
        assert lattices.hnf(short, dim) == want_short
        # a generator may itself be a multiple of e_0
        lone = any(row[0] and not any(row[1:]) for row in short)
        assert len(dense_calls) == (not lone), short
        dense_calls.clear()


def test_reduce_mod_is_translation_invariant():
    basis = lattices.hnf([[2, 1], [0, 5]], 2)
    rep = lattices.reduce_mod(basis, (7, -3))
    shifted = [7 + 2 * 3 + 0, -3 + 1 * 3 + 5 * 2]
    assert lattices.reduce_mod(basis, shifted) == rep


@pytest.mark.parametrize("seed", range(15))
def test_kernel_annihilates_and_has_full_corank(seed):
    rng = random.Random(1000 + seed)
    dim = rng.randint(1, 3)
    nrows = rng.randint(1, 4)
    rows = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(nrows)]
    ker = lattices.kernel(rows, dim)
    for combo in ker:
        image = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(dim)]
        assert not any(image)
    rank = len(lattices.hnf(rows, dim))
    assert len(lattices.hnf(ker, nrows)) == nrows - rank


@pytest.mark.parametrize("seed", range(20))
def test_intersection_matches_residue_intersection(seed):
    rng = random.Random(2000 + seed)
    dim = rng.randint(1, 3)
    m = rng.choice([2, 4, 6])
    gens1, full1 = random_case(rng, dim, m)
    gens2, full2 = random_case(rng, dim, m)
    inter = lattices.intersect(full1, full2, dim)
    res1 = closure_mod(gens1, m, dim)
    res2 = closure_mod(gens2, m, dim)
    both = res1 & res2
    for vec in product(range(m), repeat=dim):
        assert lattices.contains(inter, vec) == (vec in both)


@pytest.mark.parametrize("seed", range(25))
def test_snf_projection_realizes_the_quotient(seed):
    rng = random.Random(3000 + seed)
    dim = rng.randint(1, 3)
    m = rng.choice([2, 3, 4, 6, 8, 12])
    gens, full = random_case(rng, dim, m)
    diag, v = lattices.snf_diagonal(full, dim)

    # full-rank lattice: all invariants positive, divisibility chain holds
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0

    index = full_rank_index(lattices.hnf(full, dim), dim)
    prod_diag = 1
    for d in diag:
        prod_diag *= d
    assert prod_diag == index

    def project(vec):
        img = [sum(vec[i] * v[i][j] for i in range(dim)) for j in range(dim)]
        return tuple(x % d for x, d in zip(img, diag))

    basis = lattices.hnf(full, dim)
    for vec in product(range(m), repeat=dim):
        assert (project(vec) == (0,) * dim) == lattices.contains(basis, vec)
        other = tuple(rng.randint(0, m - 1) for _ in range(dim))
        left = project(tuple(a + b for a, b in zip(vec, other)))
        right = tuple((x + y) % d for x, y, d in zip(project(vec), project(other), diag))
        assert left == right


def test_snf_with_equal_pivot_and_entry_terminates():
    # equal entries in the pivot row and column used to swap places forever
    full = [[0, 1, 1], [1, 0, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2]]
    diag, v = lattices.snf_diagonal(full, 3)
    assert diag == [1, 1, 2]
    assert lattices.hnf(v, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    basis = lattices.hnf(full, 3)
    for vec in product(range(2), repeat=3):
        img = [sum(vec[i] * v[i][j] for i in range(3)) for j in range(3)]
        assert (img[2] % 2 == 0) == lattices.contains(basis, vec)


@pytest.mark.parametrize("seed", range(10))
def test_unimodular_inverse_of_elementary_products(seed):
    rng = random.Random(4000 + seed)
    dim = rng.randint(1, 4)
    mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(8):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i != j:
            c = rng.randint(-3, 3)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        if rng.random() < 0.3:
            mat[i] = [-a for a in mat[i]]
    inv = lattices.unimodular_inverse(mat)
    for left, right in ((inv, mat), (mat, inv)):
        prod = [[sum(left[i][t] * right[t][j] for t in range(dim)) for j in range(dim)]
                for i in range(dim)]
        assert prod == [[int(i == j) for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("mat", [[[2, 0], [0, 1]], [[1, 2], [2, 4]], [[3]], [[0]]])
def test_unimodular_inverse_refuses_other_matrices(mat):
    with pytest.raises(ValueError, match="not unimodular"):
        lattices.unimodular_inverse(mat)


# --- the former separate elimination loops, kept as oracles ---------------------


def former_hnf_with_transform(rows, dim):
    """Oracle: the former parallel-U elimination loop."""
    m = len(rows)
    work = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    order = []
    live = list(range(m))
    for col in range(dim):
        pivot_i = None
        for i in live:
            if work[i][col] == 0:
                continue
            if pivot_i is None:
                pivot_i = i
            else:
                a, b = work[pivot_i][col], work[i][col]
                g, x, y = lattices._ext_gcd(a, b)
                am, bm = a // g, b // g
                rp, ri = work[pivot_i], work[i]
                up, ui = u[pivot_i], u[i]
                work[pivot_i] = [x * p + y * q for p, q in zip(rp, ri)]
                work[i] = [am * q - bm * p for p, q in zip(rp, ri)]
                u[pivot_i] = [x * p + y * q for p, q in zip(up, ui)]
                u[i] = [am * q - bm * p for p, q in zip(up, ui)]
        if pivot_i is None:
            continue
        if work[pivot_i][col] < 0:
            work[pivot_i] = [-v for v in work[pivot_i]]
            u[pivot_i] = [-v for v in u[pivot_i]]
        p = work[pivot_i][col]
        for j in order:
            q = work[j][col] // p
            if q:
                work[j] = [a - q * b for a, b in zip(work[j], work[pivot_i])]
                u[j] = [a - q * b for a, b in zip(u[j], u[pivot_i])]
        order.append(pivot_i)
        live.remove(pivot_i)
    perm = order + live
    return [work[i] for i in perm], [u[i] for i in perm]


def former_kernel(rows, dim):
    h, u = former_hnf_with_transform(rows, dim)
    return [u[i] for i in range(len(rows)) if not any(h[i])]


def former_express(rows, dim, vec):
    """Oracle: the former reduction loop over the transform's rows."""
    h, u = former_hnf_with_transform(rows, dim)
    v = list(vec)
    qs = [0] * len(rows)
    for i, row in enumerate(h):
        if not any(row):
            continue
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        if q:
            for j in range(col, dim):
                v[j] -= q * row[j]
        qs[i] = q
    if any(v):
        return None
    combo = [0] * len(rows)
    for i, q in enumerate(qs):
        if q:
            for j in range(len(rows)):
                combo[j] += q * u[i][j]
    return combo


def former_intersect(rows1, rows2, dim):
    """Oracle: the former route, heads of kernel vectors of the stacked bases."""
    b1 = lattices.hnf(rows1, dim)
    b2 = lattices.hnf(rows2, dim)
    if not b1 or not b2:
        return []
    gens = []
    for combo in former_kernel(b1 + b2, dim):
        gens.append([sum(c * row[j] for c, row in zip(combo, b1)) for j in range(dim)])
    return lattices.hnf(gens, dim)


def former_snf_diagonal(rows, dim):
    """Oracle: the former row/column/offender loop."""
    mat = [list(r) for r in rows if any(r)]
    v = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    def combination(a, b):
        g, x, y = (a, 1, 0) if b % a == 0 else lattices._ext_gcd(a, b)
        return x, y, a // g, b // g

    def col_combine(ci, cj, a, b):
        x, y, am, bm = combination(a, b)
        for row in mat + v:
            p, q = row[ci], row[cj]
            row[ci] = x * p + y * q
            row[cj] = am * q - bm * p

    def row_combine(ri, rj, a, b):
        x, y, am, bm = combination(a, b)
        rp, rq = mat[ri], mat[rj]
        mat[ri] = [x * p + y * q for p, q in zip(rp, rq)]
        mat[rj] = [am * q - bm * p for p, q in zip(rp, rq)]

    t = 0
    while t < min(len(mat), dim):
        found = next(
            ((i, j) for i in range(t, len(mat)) for j in range(t, dim) if mat[i][j]), None
        )
        if found is None:
            break
        i, j = found
        mat[t], mat[i] = mat[i], mat[t]
        for row in mat + v:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, len(mat)):
                if mat[i][t]:
                    row_combine(t, i, mat[t][t], mat[i][t])
            dirty = False
            for j in range(t + 1, dim):
                if mat[t][j]:
                    col_combine(t, j, mat[t][t], mat[t][j])
                    dirty = True
            if dirty or any(mat[i][t] for i in range(t + 1, len(mat))):
                continue
            p = mat[t][t]
            offender = next(
                (i for i in range(t + 1, len(mat)) for j in range(t + 1, dim) if mat[i][j] % p),
                None,
            )
            if offender is None:
                break
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
        if mat[t][t] < 0:
            mat[t] = [-a for a in mat[t]]
        t += 1
    return [mat[i][i] if i < len(mat) and i < dim else 0 for i in range(dim)], v


def random_matrix(rng, dim, nrows):
    """Entries in [-9, 9], some zero rows, and sometimes a dependent row."""
    rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(nrows)]
    for row in rows:
        if rng.random() < 0.15:
            row[:] = [0] * dim
    if nrows >= 2 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows


def oracle_cases(seed):
    rng = random.Random(6000 + seed)
    for _ in range(20):
        dim = rng.randint(1, 6)
        yield rng, dim, random_matrix(rng, dim, rng.randint(0, 7))
    if seed == 0:
        yield rng, 8, random_matrix(rng, 8, 20)


def check_snf(rows, dim):
    diag, v = lattices.snf_diagonal(rows, dim)
    assert diag == former_snf_diagonal(rows, dim)[0]
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero) and diag == nonzero + [0] * (dim - len(nonzero))
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    assert lattices.hnf(v, dim) == identity
    image = [[sum(x * v[i][j] for i, x in enumerate(row)) for j in range(dim)] for row in rows]
    diagonal = [[d if i == j else 0 for j in range(dim)] for i, d in enumerate(diag)]
    assert lattices.hnf(image, dim) == lattices.hnf(diagonal, dim)


@pytest.mark.parametrize("seed", range(40))
def test_kernels_match_the_former_loops(seed):
    for rng, dim, rows in oracle_cases(seed):
        assert lattices.hnf_with_transform(rows, dim) == former_hnf_with_transform(rows, dim)
        assert lattices.kernel(rows, dim) == former_kernel(rows, dim)
        outside = [rng.randint(-9, 9) for _ in range(dim)]
        coeffs = [rng.randint(-3, 3) for _ in rows]
        inside = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)]
        for vec in (outside, inside):
            assert lattices.express(rows, dim, vec) == former_express(rows, dim, vec)
        combo = lattices.express(rows, dim, inside)
        assert [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(dim)] == inside
        other = random_matrix(rng, dim, rng.randint(0, 5))
        assert lattices.intersect(rows, other, dim) == former_intersect(rows, other, dim)
        check_snf(rows, dim)


def former_echelon(rows, dim):
    """Oracle: ``lattices._echelon`` with a gcd step for every pair of
    nonzero entries, before pivots that divide the entry took a shortcut."""
    work = [list(r) for r in rows if any(r)]
    result = []
    for col in range(dim):
        pivot_row = None
        rest = []
        for row in work:
            if row[col] == 0:
                rest.append(row)
            elif pivot_row is None:
                pivot_row = row
            else:
                a, b = pivot_row[col], row[col]
                g, x, y = lattices._ext_gcd(a, b)
                am, bm = a // g, b // g
                new_pivot = [x * p + y * q for p, q in zip(pivot_row, row)]
                new_row = [am * q - bm * p for p, q in zip(pivot_row, row)]
                pivot_row, row = new_pivot, new_row
                if any(row):
                    rest.append(row)
        work = rest
        if pivot_row is None:
            continue
        if pivot_row[col] < 0:
            pivot_row = [-v for v in pivot_row]
        p = pivot_row[col]
        for prev in result:
            q = prev[col] // p
            if q:
                for j in range(col, len(prev)):
                    prev[j] -= q * pivot_row[j]
        result.append(pivot_row)
    return result, work


@pytest.mark.parametrize("seed", range(40))
def test_echelon_matches_the_gcd_step_oracle(seed):
    # pivot rows, leftover rows and the trailing columns that ride along all
    # agree; small entries make a pivot that divides the entry common
    rng = random.Random(7000 + seed)
    for _ in range(50):
        dim, extra = rng.randint(1, 5), rng.randint(0, 4)
        bound = rng.choice([2, 4, 9])
        rows = [
            [rng.randint(-bound, bound) for _ in range(dim + extra)]
            for _ in range(rng.randint(0, 7))
        ]
        assert lattices._echelon(rows, dim) == former_echelon(rows, dim), (rows, dim)


@pytest.mark.parametrize(
    "rows, dim",
    [
        # -4 is a multiple of the pivot 4, but a gcd step, not row + pivot,
        # is what keeps the signs of the oracle
        ([[4, -7], [0, 8], [-4, 0], [0, 0]], 2),
        ([[2, 1, 0], [6, 0, 1]], 1),
        ([[3, 5], [3, 1], [9, 2]], 2),
    ],
)
def test_echelon_matches_the_oracle_where_the_pivot_divides(rows, dim):
    assert lattices._echelon(rows, dim) == former_echelon(rows, dim)


# --- the growing modular echelon basis ----------------------------------------

ENGINE_MODULI = [1, 2, 4, 6, 12, 9, 2 * 3 * 5]


class DenseModularEchelon:
    """Oracle: the former ModularEchelon, whose rows were dense lists and
    whose insert rewrote whole row tails."""

    def __init__(self, moduli=()):
        self.moduli, self.rows = [], []
        self._moduli_product = self._pivot_product = 1
        self.add_columns(moduli)

    @property
    def dim(self):
        return len(self.moduli)

    def add_columns(self, moduli):
        d, k = len(self.moduli), len(moduli)
        for row in self.rows:
            row.extend([0] * k)
        for t, m in enumerate(moduli):
            row = [0] * (d + k)
            row[d + t] = m
            self.rows.append(row)
            self._moduli_product *= m
            self._pivot_product *= m
        self.moduli.extend(moduli)

    def insert(self, vec):
        v = list(vec)
        moduli, rows = self.moduli, self.rows
        for j, m in enumerate(moduli):
            x = v[j] % m
            if not x:
                continue
            row = rows[j]
            p = row[j]
            tail = moduli[j + 1 :]
            if x % p == 0:
                q = x // p
                v[j + 1 :] = [(a - q * b) % n for a, b, n in zip(v[j + 1 :], row[j + 1 :], tail)]
                continue
            g, a, b = lattices._ext_gcd(p, x)
            pg, xg = p // g, x // g
            rv, vv = row[j + 1 :], v[j + 1 :]
            row[j] = g
            row[j + 1 :] = [(a * r + b * w) % n for r, w, n in zip(rv, vv, tail)]
            v[j + 1 :] = [(pg * w - xg * r) % n for r, w, n in zip(rv, vv, tail)]
            self._pivot_product = self._pivot_product // p * g

    def contains(self, vec):
        v = list(vec)
        moduli = self.moduli
        for j, m in enumerate(moduli):
            x = v[j] % m
            if not x:
                continue
            row = self.rows[j]
            if x % row[j]:
                return False
            q = x // row[j]
            v[j + 1 :] = [(a - q * b) % n for a, b, n in zip(v[j + 1 :], row[j + 1 :], moduli[j + 1 :])]
        return True

    def truncate(self, c):
        d = len(self.moduli)
        for j in range(c, d):
            self._pivot_product = self._pivot_product // self.rows[j][j] * self.moduli[j]
            self.rows[j] = [self.moduli[j] if k == j else 0 for k in range(d)]

    def order(self):
        return self._moduli_product // self._pivot_product


def dense_rows(engine):
    """The sparse rows of a ModularEchelon as dense lists."""
    return [[row.get(k, 0) for k in range(engine.dim)] for row in engine.rows]


def _oracle_basis(inserted, moduli):
    """HNF of the inserted rows (zero-padded to the current width) plus the
    modulus rows, as ``Subgroup`` builds it."""
    d = len(moduli)
    rows = [list(r) + [0] * (d - len(r)) for r in inserted]
    rows += [[m if i == j else 0 for j in range(d)] for i, m in enumerate(moduli)]
    return dense_hnf(rows, d)


def _oracle_order(inserted, moduli):
    full = 1
    for m in moduli:
        full *= m
    d = len(moduli)
    return full // full_rank_index(_oracle_basis(inserted, moduli), d) if d else 1


@pytest.mark.parametrize("seed", range(30))
def test_modular_echelon_matches_hnf_at_every_step(seed):
    rng = random.Random(5000 + seed)
    engine = lattices.ModularEchelon()
    inserted = []
    for _ in range(rng.randint(4, 14)):
        if engine.dim == 0 or rng.random() < 0.3:
            engine.add_columns([rng.choice(ENGINE_MODULI) for _ in range(rng.randint(1, 2))])
        else:
            vec = [rng.randint(-40, 40) if rng.random() < 0.6 else 0 for _ in range(engine.dim)]
            engine.insert(vec)
            inserted.append(vec)
        assert engine.order() == _oracle_order(inserted, engine.moduli)
        for row in engine.rows:
            assert all(row.values())  # no stored zeros
        for j, (row, m) in enumerate(zip(dense_rows(engine), engine.moduli)):
            assert not any(row[:j]) and m % row[j] == 0
            assert all(0 <= a < n for a, n in zip(row[j + 1 :], engine.moduli[j + 1 :]))
        basis = _oracle_basis(inserted, engine.moduli)
        # the read-out is the dense Hermite form, list for list
        assert engine.basis() == basis
        for _ in range(6):
            vec = [rng.randint(-30, 30) for _ in range(engine.dim)]
            assert engine.contains(vec) == lattices.contains(basis, vec)
        if inserted:
            # an integer combination of inserted rows is always inside
            combo = [0] * engine.dim
            for row in rng.sample(inserted, min(3, len(inserted))):
                c = rng.randint(-3, 3)
                for j, a in enumerate(row):
                    combo[j] += c * a
            assert engine.contains(combo)


def test_modular_echelon_empty_and_unit_moduli():
    engine = lattices.ModularEchelon()
    assert engine.dim == 0 and engine.order() == 1
    engine.add_columns([1, 1])
    engine.insert([5, -7])
    assert engine.order() == 1 and engine.contains([3, 4])
    engine.add_columns([4])
    assert engine.order() == 1 and not engine.contains([0, 0, 1])
    engine.insert([0, 0, 2])
    assert engine.order() == 2 and engine.contains([0, 0, 6])
    assert engine.basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert lattices.ModularEchelon().basis() == []


def test_modular_echelon_basis_reduces_above_the_pivots():
    # L = <(1, 5)> + 4Z x 6Z: the stored row (1, 5) is reduced mod 6 only,
    # and the Hermite form takes its 5 into [0, 2) with the pivot below
    engine = lattices.ModularEchelon([4, 6])
    engine.insert([1, 5])
    assert engine.rows == [{0: 1, 1: 5}, {1: 2}]
    assert engine.basis() == [[1, 1], [0, 2]] == dense_hnf([[1, 5], [4, 0], [0, 6]], 2)


def test_modular_echelon_refuses_bad_input():
    engine = lattices.ModularEchelon([2, 3])
    with pytest.raises(ValueError):
        engine.insert([1])
    with pytest.raises(ValueError):
        engine.contains([1, 2, 3])
    with pytest.raises(ValueError):
        engine.add_columns([0])


def _random_sparse(rng, dim):
    cols = rng.sample(range(dim), rng.randint(0, min(dim, 3)))
    return {j: rng.randint(-60, 60) for j in cols}


@pytest.mark.parametrize("seed", range(40))
def test_sparse_modular_echelon_matches_the_dense_one(seed):
    # random interleavings of add_columns, dense inserts and sparse inserts:
    # the same rows, order and membership as the dense oracle at every step
    rng = random.Random(7000 + seed)
    engine, oracle = lattices.ModularEchelon(), DenseModularEchelon()
    for _ in range(rng.randint(5, 30)):
        roll = rng.random()
        if engine.dim == 0 or roll < 0.25:
            moduli = [rng.choice(ENGINE_MODULI) for _ in range(rng.randint(1, 3))]
            engine.add_columns(moduli)
            oracle.add_columns(moduli)
        elif roll < 0.6:
            vec = [rng.randint(-40, 40) if rng.random() < 0.5 else 0 for _ in range(engine.dim)]
            engine.insert(vec)
            oracle.insert(vec)
        else:
            vec = _random_sparse(rng, engine.dim)
            engine.insert(vec)
            oracle.insert([vec.get(j, 0) for j in range(engine.dim)])
        assert engine.order() == oracle.order()
        assert dense_rows(engine) == oracle.rows
        for _ in range(4):
            probe = _random_sparse(rng, engine.dim)
            dense = [probe.get(j, 0) for j in range(engine.dim)]
            want = oracle.contains(dense)
            assert engine.contains(probe) == want and engine.contains(dense) == want


def test_modular_echelon_sparse_and_dense_vectors_agree():
    engine = lattices.ModularEchelon([4, 6, 9])
    engine.insert({1: 2, 2: -3})
    assert engine.order() == 3
    assert engine.contains([0, 4, 3]) and engine.contains({1: 4, 2: 3})
    assert not engine.contains({2: 1})
    engine.insert([2, 0, 0])
    assert engine.order() == 6 and engine.contains({0: 6, 1: 2, 2: 6})
    assert not engine.contains({0: 2, 1: 2})


def test_modular_echelon_refuses_columns_outside_the_basis():
    engine = lattices.ModularEchelon([2, 3])
    for vec in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            engine.insert(vec)
        with pytest.raises(ValueError):
            engine.contains(vec)


@pytest.mark.parametrize("seed", range(30))
def test_truncate_matches_the_dense_engine(seed):
    # random interleavings of add_columns, inserts and truncations: rows
    # before c are untouched, rows from c on are m_j e_j again, and order()
    # stays the product of the m_j / p_j, as in the dense oracle
    rng = random.Random(9000 + seed)
    engine, oracle = lattices.ModularEchelon(), DenseModularEchelon()
    for _ in range(rng.randint(8, 30)):
        roll = rng.random()
        if engine.dim == 0 or roll < 0.2:
            moduli = [rng.choice(ENGINE_MODULI) for _ in range(rng.randint(1, 3))]
            engine.add_columns(moduli)
            oracle.add_columns(moduli)
        elif roll < 0.75:
            vec = _random_sparse(rng, engine.dim)
            engine.insert(vec)
            oracle.insert([vec.get(j, 0) for j in range(engine.dim)])
        else:
            c = rng.randrange(engine.dim + 1)
            before = [dict(row) for row in engine.rows[:c]]
            engine.truncate(c)
            oracle.truncate(c)
            assert engine.rows[:c] == before
            assert engine.rows[c:] == [{j: m} for j, m in enumerate(engine.moduli) if j >= c]
        assert dense_rows(engine) == oracle.rows
        assert engine.order() == oracle.order()
        # the read-out is the Hermite form of the rows, whose order is
        # order(); it holds the moduli except between truncate and refill
        assert engine.basis() == dense_hnf(oracle.rows, engine.dim)
        order = 1
        for j, (row, m) in enumerate(zip(engine.rows, engine.moduli)):
            assert all(row.values()) and min(row) == j
            order *= m // row[j]
        assert engine.order() == order


@pytest.mark.parametrize("seed", range(30))
def test_truncate_then_refill_is_a_meet(seed):
    # meet L with L' = {x : w . x even}, which holds the even moduli: rows
    # with an odd image, the first in row c, pair up with row c, rows
    # before c stay, and truncating at c and inserting the rest gives L',
    # checked against its Hermite form; cases where every row has an even
    # image are drawn again, so each seed truncates and refills
    rng = random.Random(9500 + seed)
    odd = []
    while not odd:
        moduli = [rng.choice([2, 4, 6, 12]) for _ in range(rng.randint(2, 7))]
        engine = lattices.ModularEchelon(moduli)
        for _ in range(rng.randint(2, 8)):
            engine.insert(_random_sparse(rng, engine.dim))
        d = engine.dim
        w = [rng.randint(0, 1) for _ in range(d)]
        rows = [dict(row) for row in engine.rows]
        odd = [j for j, row in enumerate(rows) if sum(w[k] * x for k, x in row.items()) % 2]
    c = odd[0]
    refill = [row for j, row in enumerate(rows) if j >= c and j not in odd]
    refill += [{k: 2 * x for k, x in rows[c].items()}]
    refill += [{k: rows[c].get(k, 0) + rows[j].get(k, 0) for k in rows[c].keys() | rows[j].keys()}
               for j in odd[1:]]
    engine.truncate(c)
    for vec in refill:
        engine.insert(vec)
    dense = [[row.get(k, 0) for k in range(d)] for row in rows[:c] + refill]
    moduli_rows = [[m if i == j else 0 for j in range(d)] for i, m in enumerate(moduli)]
    basis = dense_hnf(dense + moduli_rows, d)
    assert all(sum(a * b for a, b in zip(w, row)) % 2 == 0 for row in basis)
    full = 1
    for m in moduli:
        full *= m
    assert engine.order() == full // full_rank_index(basis, d)
    assert engine.basis() == basis  # the refill completes the meet
    assert engine.rows[:c] == rows[:c]
    for _ in range(10):
        vec = [rng.randint(-20, 20) for _ in range(d)]
        assert engine.contains(vec) == lattices.contains(basis, vec)
