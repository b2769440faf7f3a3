"""Exact integer-lattice arithmetic: Hermite and Smith normal forms.

Everything here works on row lattices: a lattice L <= Z^dim is given by a
list of integer rows spanning it.  All arithmetic is exact (Python ints),
which is what the subgroup canonical forms upstream rely on.
"""

from __future__ import annotations


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hnf(rows, dim: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns echelon rows with positive pivots in strictly increasing
    columns; entries above each pivot are reduced into [0, pivot).
    Zero rows are dropped, so the result is a basis.
    """
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = []
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
                g, x, y = _ext_gcd(a, b)
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
                for j in range(col, dim):
                    prev[j] -= q * pivot_row[j]
        result.append(pivot_row)
    return result


def hnf_with_transform(rows, dim: int):
    """HNF together with a unimodular U such that U * rows = H (zero rows kept).

    The returned H has the echelon rows first and exact zero rows last; U is
    len(rows) x len(rows).  Rows of U opposite the zero rows of H span the
    integer kernel of the row matrix.
    """
    m = len(rows)
    work = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    order: list[int] = []
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
                g, x, y = _ext_gcd(a, b)
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


def kernel(rows, dim: int) -> list[list[int]]:
    """Basis of {v : v * rows = 0} for the given row matrix."""
    h, u = hnf_with_transform(rows, dim)
    return [u[i] for i in range(len(rows)) if not any(h[i])]


def reduce_mod(basis, vec):
    """Canonical representative of ``vec`` modulo the HNF row lattice."""
    v = list(vec)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        q = v[col] // row[col]
        if q:
            for j in range(col, len(v)):
                v[j] -= q * row[j]
    return tuple(v)


def contains(basis, vec) -> bool:
    return not any(reduce_mod(basis, vec))


def lattice_index(basis, dim: int):
    """Index [Z^dim : L]; None when L has rank < dim (infinite index)."""
    if len(basis) < dim:
        return None
    idx = 1
    for i, row in enumerate(basis):  # full rank: row i has its pivot in column i
        idx *= row[i]
    return idx


def intersect(rows1, rows2, dim: int) -> list[list[int]]:
    """Basis (HNF) of the intersection of two row lattices in Z^dim."""
    b1 = hnf(rows1, dim)
    b2 = hnf(rows2, dim)
    if not b1 or not b2:
        return []
    stacked = b1 + b2
    combos = kernel(stacked, dim)
    n1 = len(b1)
    gens = []
    for combo in combos:
        vec = [0] * dim
        for c, row in zip(combo[:n1], b1):
            if c:
                for j in range(dim):
                    vec[j] += c * row[j]
        gens.append(vec)
    return hnf(gens, dim)


def snf_diagonal(rows, dim: int):
    """Smith normal form of a row lattice, tracking only the right transform.

    Returns (diag, V) with V unimodular (dim x dim, as rows) such that the
    lattice spanned by ``rows`` maps onto the lattice spanned by
    {diag[i] * e_i} under x -> x @ V.  diag entries are >= 0, padded with 0
    up to dim, and satisfy the divisibility chain diag[i] | diag[i+1]
    whenever both are nonzero.
    """
    mat = [list(r) for r in rows if any(r)]
    v = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    def combination(a, b):
        # (x, y, a/g, b/g) for g = gcd(a, b); when a divides b the pivot
        # stays put (x, y = 1, 0), or equal entries would swap roles forever
        g, x, y = (a, 1, 0) if b % a == 0 else _ext_gcd(a, b)
        return x, y, a // g, b // g

    def col_combine(ci, cj, a, b):
        # (col ci, col cj) <- unimodular combination; mirror on V columns.
        x, y, am, bm = combination(a, b)
        for row in mat:
            p, q = row[ci], row[cj]
            row[ci] = x * p + y * q
            row[cj] = am * q - bm * p
        for row in v:
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
        # move a nonzero entry into (t, t)
        found = None
        for i in range(t, len(mat)):
            for j in range(t, dim):
                if mat[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i, j = found
        if i != t:
            mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            for row in mat:
                row[t], row[j] = row[j], row[t]
            for row in v:
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
            # force the pivot to divide the rest of the submatrix; this is
            # what makes the final diagonal a divisibility chain
            p = mat[t][t]
            offender = None
            for i in range(t + 1, len(mat)):
                for j in range(t + 1, dim):
                    if mat[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
        if mat[t][t] < 0:
            mat[t] = [-a for a in mat[t]]
        t += 1

    diag = [mat[i][i] if i < len(mat) and i < dim else 0 for i in range(dim)]
    return diag, v


def express(rows, dim: int, vec):
    """Coefficients c with c * rows = vec, or None when vec is outside.

    Works for any generating set (rows need not be a basis).
    """
    h, u = hnf_with_transform(rows, dim)
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


class ModularEchelon:
    """A growing triangular basis of a full-rank lattice L <= Z^d that
    contains m_j * e_j for every column j (the modular Hermite form of
    Domich, Kannan and Trotter; Cohen, GTM 138, section 2.4).

    Row j has its pivot p_j > 0 in column j and zeros before it; p_j
    divides m_j, and every entry in column k is kept in [0, m_k), so no
    entry outgrows the moduli.  ``order()`` is [L : M] = prod m_j / prod p_j
    for M the lattice of the m_j * e_j: the order of L / M as a subgroup
    of prod Z/m_j.  Columns are appended, never reordered, so rows stay
    valid as the lattice grows.
    """

    def __init__(self, moduli=()):
        self.moduli: list[int] = []
        self.rows: list[list[int]] = []
        self._moduli_product = 1
        self._pivot_product = 1
        self.add_columns(moduli)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def add_columns(self, moduli):
        """Append columns; each new pivot row starts as m_j * e_j."""
        moduli = [int(m) for m in moduli]
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive integers")
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
        """Add ``vec`` (length ``dim``) to the lattice."""
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}")
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
            # (row, v) -> (a*row + b*v, (p/g)*v - (x/g)*row): unimodular, and
            # it clears v in column j while the pivot drops to g = gcd(p, x)
            g, a, b = _ext_gcd(p, x)
            pg, xg = p // g, x // g
            rv, vv = row[j + 1 :], v[j + 1 :]
            row[j] = g
            row[j + 1 :] = [(a * r + b * w) % n for r, w, n in zip(rv, vv, tail)]
            v[j + 1 :] = [(pg * w - xg * r) % n for r, w, n in zip(rv, vv, tail)]
            self._pivot_product = self._pivot_product // p * g

    def contains(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError(f"expected a vector of length {self.dim}")
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

    def order(self) -> int:
        return self._moduli_product // self._pivot_product


def unimodular_inverse(mat):
    """Exact inverse of a unimodular integer matrix (given as rows).

    The HNF of a unimodular matrix is the identity, so the transform U with
    U * mat = H = I is the inverse.
    """
    n = len(mat)
    h, u = hnf_with_transform(mat, n)
    if any(h[i][j] != (i == j) for i in range(n) for j in range(n)):
        raise ValueError("matrix is not unimodular")
    return u
