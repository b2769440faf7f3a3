"""Exact integer-lattice arithmetic: Hermite and Smith normal forms.

Everything here works on row lattices: a lattice L <= Z^dim is given by a
list of integer rows spanning it.  All arithmetic is exact (Python ints),
which is what the subgroup canonical forms upstream rely on.
"""

from __future__ import annotations

from math import gcd


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


def _echelon(rows, dim: int):
    """Gcd-pivot elimination on the first ``dim`` columns of ``rows``.

    Any further columns ride along with every row operation, the reduction
    above pivots included, so a trailing identity block records the
    transform.  Returns (pivot rows, leftover rows): the pivot rows have
    positive pivots in strictly increasing columns with the entries above
    each pivot reduced into [0, pivot); the leftover rows are zero in the
    first ``dim`` columns.  All-zero rows are dropped.
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
                if 0 < a < b and not b % a:
                    # the gcd step with (g, x, y) = (a, 1, 0), which
                    # _ext_gcd gives here: the pivot row stays
                    q = b // a
                    row = [r - q * p for p, r in zip(pivot_row, row)]
                else:
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
                for j in range(col, len(prev)):
                    prev[j] -= q * pivot_row[j]
        result.append(pivot_row)
    return result, work


def _with_identity(rows):
    """Each row followed by its unit vector: [rows | I]."""
    m = len(rows)
    return [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]


def hnf(rows, dim: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns echelon rows with positive pivots in strictly increasing
    columns; entries above each pivot are reduced into [0, pivot).
    Zero rows are dropped, so the result is a basis.

    Rows that hold a multiple m_j e_j of every unit vector, as modulus rows
    do, take the modular route over the gcd m_j of those multiples: their
    lattice is diag(m), and any other rows are inserted into a
    ``ModularEchelon`` over m.  Other rows take dense elimination.
    """
    moduli, rest = [0] * dim, []
    for row in rows:
        if row.count(0) == dim - 1:  # m e_j, m the sum of the row
            j = row.index(m := sum(row))
            moduli[j] = gcd(moduli[j], m)
        else:
            rest.append(row)
    if not all(moduli):
        return _echelon(rows, dim)[0]
    if not rest:
        return [[m if k == j else 0 for k in range(dim)] for j, m in enumerate(moduli)]
    echelon = ModularEchelon(moduli)
    for row in rest:
        echelon.insert(row)
    return echelon.basis()


def hnf_with_transform(rows, dim: int):
    """HNF together with a unimodular U such that U * rows = H (zero rows kept).

    The returned H has the echelon rows first and exact zero rows last; U is
    len(rows) x len(rows).  Rows of U opposite the zero rows of H span the
    integer kernel of the row matrix.
    """
    pivots, rest = _echelon(_with_identity(rows), dim)
    both = pivots + rest
    return [r[:dim] for r in both], [r[dim:] for r in both]


def kernel(rows, dim: int) -> list[list[int]]:
    """Basis of {v : v * rows = 0} for the given row matrix."""
    return [r[dim:] for r in _echelon(_with_identity(rows), dim)[1]]


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


def intersect(rows1, rows2, dim: int) -> list[list[int]]:
    """Basis (HNF) of the intersection of two row lattices in Z^dim.

    The rows [r1 | r1] and [r2 | 0] span a lattice whose vectors with a
    zero first block are exactly [0 | x] for x in the intersection.
    """
    stacked = [list(r) * 2 for r in rows1] + [list(r) + [0] * dim for r in rows2]
    return _echelon([r[dim:] for r in _echelon(stacked, dim)[1]], dim)[0]


def snf_diagonal(rows, dim: int):
    """Smith normal form of a row lattice, tracking only the right transform.

    Returns (diag, V) with V unimodular (dim x dim, as rows) such that the
    lattice spanned by ``rows`` maps onto the lattice spanned by
    {diag[i] * e_i} under x -> x @ V.  diag entries are >= 0, padded with 0
    up to dim, and satisfy the divisibility chain diag[i] | diag[i+1]
    whenever both are nonzero.

    Row passes (dense ``hnf``) alternate with column passes, which eliminate on
    the columns of the r x dim matrix with the rows of V^T riding along,
    until the matrix is diagonal; a diagonal entry that does not divide the
    next one takes the next row in and the passes go on.  This ends: each
    pass replaces the leading entry of the unfinished block by a divisor of
    it, and once a pass keeps that entry, its row and column are clear after
    the next row pass and the block shrinks.
    """
    mat = _echelon(rows, dim)[0]
    r = len(mat)
    v_t = [[int(i == j) for j in range(dim)] for i in range(dim)]
    while True:
        if all(x == 0 for i, row in enumerate(mat) for j, x in enumerate(row) if j != i):
            bad = next((i for i in range(r - 1) if mat[i + 1][i + 1] % mat[i][i]), None)
            if bad is None:
                break
            mat[bad][bad + 1] = mat[bad + 1][bad + 1]
        pivots, rest = _echelon([[row[j] for row in mat] + v_t[j] for j in range(dim)], r)
        cols = pivots + rest
        v_t = [c[r:] for c in cols]
        mat = _echelon([[c[i] for c in cols] for i in range(r)], dim)[0]
    diag = [mat[i][i] if i < r else 0 for i in range(dim)]
    return diag, [list(col) for col in zip(*v_t)]


def express(rows, dim: int, vec):
    """Coefficients c with c * rows = vec, or None when vec is outside.

    Works for any generating set (rows need not be a basis): ``vec``
    reduced against the pivot rows of [rows | I] leaves [0 | -c].
    """
    pivots, _ = _echelon(_with_identity(rows), dim)
    v = reduce_mod(pivots, list(vec) + [0] * len(rows))
    if any(v[:dim]):
        return None
    return [-x for x in v[dim:]]


class ModularEchelon:
    """A growing triangular basis of a full-rank lattice L <= Z^d that
    contains m_j * e_j for every column j (the modular Hermite form of
    Domich, Kannan and Trotter; Cohen, GTM 138, section 2.4).

    Row j has its pivot p_j > 0 in column j and zeros before it; p_j
    divides m_j, and every entry in column k is kept in [0, m_k), so no
    entry outgrows the moduli.  ``order()`` is [L : M] = prod m_j / p_j
    for M the lattice of the m_j * e_j: the order of L / M as a subgroup
    of prod Z/m_j.  It is kept as that product, which gains a factor p / g
    whenever a pivot p drops to g.  Columns are appended, never reordered,
    so rows stay valid as the lattice grows.  They are not reduced above
    the pivots; ``basis()`` reads off the canonical Hermite form.

    Rows are sparse, column -> nonzero entry, and so are the vectors that
    ``insert`` and ``contains`` take (a dense list of length ``dim`` is
    accepted too): reducing a vector walks its nonzero columns in
    increasing order and touches only the columns that it or the rows it
    meets fill.

    ``truncate(c)`` resets the rows from c on: the first half of a meet
    with M <= L' <= L that keeps the rows before c, which then takes the
    part of L' on the columns from c on (the rows before c need it).
    """

    def __init__(self, moduli=()):
        self.moduli: list[int] = []
        self.rows: list[dict[int, int]] = []
        self._order = 1
        self.add_columns(moduli)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def add_columns(self, moduli):
        """Append columns; each new pivot row starts as m_j * e_j."""
        moduli = list(moduli)
        if min(moduli, default=1) < 1:
            raise ValueError("moduli must be positive integers")
        self.rows += [{j: m} for j, m in enumerate(moduli, len(self.moduli))]
        self.moduli += moduli

    def truncate(self, c: int):
        """Reset rows c.. to m_j * e_j and divide their m_j / p_j out of ``order()``."""
        for j in range(c, self.dim):
            self._order //= self.moduli[j] // self.rows[j][j]
            self.rows[j] = {j: self.moduli[j]}

    def _sparse(self, vec) -> dict[int, int]:
        """``vec`` as column -> entry reduced mod its modulus, zeros left out."""
        moduli, d = self.moduli, len(self.moduli)
        if isinstance(vec, dict):
            if vec and not 0 <= min(vec) <= max(vec) < d:
                raise ValueError(f"columns must lie in [0, {d})")
            return {j: r for j, x in vec.items() if (r := x % moduli[j])}
        vec = list(vec)
        if len(vec) != d:
            raise ValueError(f"expected a vector of length {d}")
        return {j: r for j, (x, n) in enumerate(zip(vec, moduli)) if (r := x % n)}

    def _reduce(self, v, j, q, row):
        """v -= q * row on the columns after j."""
        moduli = self.moduli
        for k, b in row.items():
            if k != j:
                if w := (v.get(k, 0) - q * b) % moduli[k]:
                    v[k] = w
                else:
                    v.pop(k, None)

    def insert(self, vec):
        """Add ``vec`` to the lattice."""
        self._insert(self._sparse(vec))

    def _insert(self, v):
        """``insert`` of a vector in the form ``_sparse`` returns, which is
        not checked: column in [0, dim) -> entry in (0, m_j).  Consumes v."""
        moduli, rows = self.moduli, self.rows
        while v:
            # reducing column j only touches later columns, so the smallest
            # nonzero column is always the next one to clear
            j = min(v)
            x = v.pop(j)
            row = rows[j]
            p = row[j]
            if x % p == 0:
                self._reduce(v, j, x // p, row)
                continue
            # (row, v) -> (a*row + b*v, (p/g)*v - (x/g)*row): unimodular, and
            # it clears v in column j while the pivot drops to g = gcd(p, x)
            g, a, b = _ext_gcd(p, x)
            pg, xg = p // g, x // g
            new_row = {j: g}
            for k in (row.keys() | v.keys()) - {j}:
                r, w, n = row.get(k, 0), v.get(k, 0), moduli[k]
                if nr := (a * r + b * w) % n:
                    new_row[k] = nr
                if nv := (pg * w - xg * r) % n:
                    v[k] = nv
                else:
                    v.pop(k, None)
            rows[j] = new_row
            self._order *= pg

    def contains(self, vec) -> bool:
        v = self._sparse(vec)
        rows = self.rows
        while v:
            j = min(v)
            x = v.pop(j)
            row = rows[j]
            if x % row[j]:
                return False
            self._reduce(v, j, x // row[j], row)
        return True

    def order(self, start: int = 0) -> int:
        """[L : M]; from ``start`` on, the order of L meet the vectors that
        are zero before column ``start``, the lattice ``basis(start)``
        reads: the product of m_j / p_j over the rows j >= start."""
        if not start:
            return self._order
        out = 1
        for j in range(start, self.dim):
            out *= self.moduli[j] // self.rows[j][j]
        return out

    def basis(self, start: int = 0) -> list[list[int]]:
        """The Hermite normal form of the rows' lattice, L unless a
        ``truncate`` awaits its refill, as dense rows: bottom up, each row's
        entry in column k > j is reduced into [0, p_k) by row k (Cohen, GTM
        138, Alg. 2.4.8).  From ``start`` on, only rows and columns start..
        are read: the form of L meet the vectors that are zero before
        column ``start``, moved back ``start`` places."""
        d = self.dim - start
        out = [None] * d
        for j in reversed(range(d)):
            row = self.rows[j + start]
            v = [0] * d
            for k, x in row.items():
                v[k - start] = x
            if len(row) > 1:  # a lone pivot is reduced
                for k in range(j + 1, d):
                    if q := v[k] // out[k][k]:
                        v = [a - q * b for a, b in zip(v, out[k])]
            out[j] = v
        return out


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
