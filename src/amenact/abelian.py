"""Discrete abelian groups with exact element and subgroup arithmetic.

Three families cover everything the entropy machinery needs:

* ``FreeZ(rank)``           -- Z^rank, elements are int tuples;
* ``FiniteProduct(factors)`` -- prod Z/n_i, tuples reduced mod the factors;
* ``DirectSum(base, index)`` -- finitely supported maps from the element set
  of a monoid into a finite product, stored as frozensets of
  (index, value) pairs with nonzero values.

Subgroups are canonicalized by the Hermite form of their lattice
(``lattices.hnf``): on a finite product, or on the finite window of a
direct sum that the generators reach, of the generators plus the modulus
rows m_j e_j, which ``hnf`` reads off its ``ModularEchelon``; on Z^rank,
of the generators, by dense elimination.  So orders, membership, coset
counts, and joins are all exact.  Every value here is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

from . import lattices
from .errors import (
    BudgetExceededError,
    GroupMismatchError,
    InconsistentSubgroupError,
    UndecidableFamilyError,
    UnsupportedQuotientError,
)
from .monoid import Monoid


class AbelianGroup:
    """Common surface of the three group families."""

    is_torsion = False

    @property
    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scalar(self, k, x):
        if k < 0:
            return self.neg(self.scalar(-k, x))
        acc = self.zero
        while k:
            if k & 1:
                acc = self.add(acc, x)
            x = self.add(x, x)
            k >>= 1
        return acc

    def contains(self, x) -> bool:
        raise NotImplementedError

    def element(self, data):
        """Normalize arbitrary coordinate data into an element."""
        raise NotImplementedError

    @property
    def order(self):
        """Group order; None for infinite groups."""
        return None

    def sumset(self, X: frozenset, Y: frozenset) -> frozenset:
        add = self.add
        return frozenset(add(x, y) for x in X for y in Y)

    def sort_key(self, x):
        return x

    def sample(self, rng, bound: int):
        raise NotImplementedError


@dataclass(frozen=True)
class FreeZ(AbelianGroup):
    """Z^rank."""

    rank: int

    @property
    def zero(self):
        return (0,) * self.rank

    @property
    def is_torsion(self):
        return self.rank == 0

    @property
    def order(self):
        return 1 if self.rank == 0 else None

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def scalar(self, k, x):
        return tuple(k * a for a in x)

    def contains(self, x):
        return len(x) == self.rank and all(isinstance(a, int) for a in x)

    def element(self, data):
        out = tuple(int(a) for a in data)
        if len(out) != self.rank:
            raise GroupMismatchError(f"expected {self.rank} coordinates")
        return out

    def sumset(self, X, Y):
        if self.rank == 1:
            xs = [x[0] for x in X]
            ys = [y[0] for y in Y]
            return frozenset((a + b,) for a in xs for b in ys)
        add = self.add
        return frozenset(add(x, y) for x in X for y in Y)

    def sample(self, rng, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(self.rank))

    def __str__(self):
        return f"Z^{self.rank}"


@dataclass(frozen=True)
class FiniteProduct(AbelianGroup):
    """prod Z/n_i; the empty product is the trivial group."""

    factors: tuple

    is_torsion = True

    def __post_init__(self):
        if not all(isinstance(n, int) and n >= 1 for n in self.factors):
            raise ValueError("factors must be positive integers")

    @property
    def zero(self):
        return (0,) * len(self.factors)

    @property
    def order(self):
        return math.prod(self.factors)

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def neg(self, x):
        return tuple((-a) % n for a, n in zip(x, self.factors))

    def scalar(self, k, x):
        return tuple((k * a) % n for a, n in zip(x, self.factors))

    def contains(self, x):
        return len(x) == len(self.factors) and all(
            isinstance(a, int) and 0 <= a < n for a, n in zip(x, self.factors)
        )

    def element(self, data):
        data = tuple(data)
        if len(data) != len(self.factors):
            raise GroupMismatchError(f"expected {len(self.factors)} coordinates")
        return tuple(int(a) % n for a, n in zip(data, self.factors))

    def elements(self):
        return iproduct(*(range(n) for n in self.factors))

    def sumset(self, X, Y):
        if len(self.factors) == 1:
            n = self.factors[0]
            xs = [x[0] for x in X]
            ys = [y[0] for y in Y]
            return frozenset(((a + b) % n,) for a in xs for b in ys)
        add = self.add
        return frozenset(add(x, y) for x in X for y in Y)

    def sample(self, rng, bound):
        return tuple(rng.randrange(n) for n in self.factors)

    def __str__(self):
        return " x ".join(f"Z/{n}" for n in self.factors) if self.factors else "0"


@dataclass(frozen=True)
class DirectSum(AbelianGroup):
    """base^(index): finitely supported families over a monoid's elements."""

    base: FiniteProduct
    index: Monoid

    @property
    def is_torsion(self):
        return True

    @property
    def order(self):
        if self.base.order == 1:
            return 1
        if self.index.is_finite:
            return self.base.order ** len(self.index.window(1))
        return None

    @property
    def zero(self):
        return frozenset()

    def add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        d = dict(x)
        badd = self.base.add
        bzero = self.base.zero
        for i, v in y:
            cur = d.get(i)
            if cur is None:
                d[i] = v
            else:
                w = badd(cur, v)
                if w == bzero:
                    del d[i]
                else:
                    d[i] = w
        return frozenset(d.items())

    def neg(self, x):
        bneg = self.base.neg
        return frozenset((i, bneg(v)) for i, v in x)

    def scalar(self, k, x):
        bs = self.base.scalar
        bzero = self.base.zero
        return frozenset((i, w) for i, v in x if (w := bs(k, v)) != bzero)

    def contains(self, x):
        if not isinstance(x, frozenset):
            return False
        return all(
            self.index.contains(i) and self.base.contains(v) and v != self.base.zero
            for i, v in x
        )

    def element(self, data):
        """Accepts {index: value} mappings or (index, value) pair iterables."""
        pairs = data.items() if isinstance(data, dict) else data
        out = {}
        for i, v in pairs:
            i = tuple(i) if not isinstance(i, tuple) else i
            if not self.index.contains(i):
                raise GroupMismatchError(f"{i} is not in the index monoid")
            v = self.base.element(v)
            if v != self.base.zero:
                out[i] = v
        return frozenset(out.items())

    def basis_vector(self, i, value=None):
        """The element supported at index i with the given base value."""
        i = tuple(i) if not isinstance(i, tuple) else i
        if value is None:
            value = tuple(1 % n for n in self.base.factors)
        value = self.base.element(value)
        if value == self.base.zero:
            return self.zero
        return frozenset({(i, value)})

    def support(self, x):
        return sorted(i for i, _ in x)

    def sort_key(self, x):
        return tuple(sorted(x))

    def sample(self, rng, bound):
        idx = sorted(self.index.window(bound).elements)
        out = {}
        for _ in range(rng.randint(0, min(3, len(idx)))):
            i = idx[rng.randrange(len(idx))]
            v = self.base.sample(rng, bound)
            if v != self.base.zero:
                out[i] = v
        return frozenset(out.items())

    def __str__(self):
        return f"({self.base})^({self.index})"


# ---------------------------------------------------------------------------
# finite subsets


@dataclass(frozen=True)
class FiniteSubset:
    group: AbelianGroup
    elements: frozenset

    @classmethod
    def of(cls, group, items):
        return cls(group, frozenset(group.element(x) for x in items))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements, key=self.group.sort_key))

    def __contains__(self, x):
        return x in self.elements

    def union(self, other):
        _same_group(self, other)
        return FiniteSubset(self.group, self.elements | other.elements)


def _same_group(X, Y):
    if X.group != Y.group:
        raise GroupMismatchError(f"{X.group} != {Y.group}")


def minkowski_sum(X: FiniteSubset, Y: FiniteSubset) -> FiniteSubset:
    """{x + y : x in X, y in Y}."""
    _same_group(X, Y)
    return FiniteSubset(X.group, X.group.sumset(X.elements, Y.elements))


def ell_of_order(order) -> float:
    if order is None or order == math.inf:
        return math.inf
    return math.log(order)


# ---------------------------------------------------------------------------
# subgroups


def _moduli_rows(factors):
    k = len(factors)
    return [[factors[i] if j == i else 0 for j in range(k)] for i in range(k)]


def _hermite_data(moduli, basis, window):
    """``Subgroup._flat`` data of L, of Hermite basis ``basis``: the order is [L : (m_j e_j)]."""
    return len(moduli), basis, math.prod(moduli) // math.prod(r[j] for j, r in enumerate(basis)), window


class Subgroup:
    """A finitely generated subgroup of FreeZ or of a FiniteProduct, or a
    finitely supported subgroup of a DirectSum, canonicalized through the
    Hermite form of the generators, plus the modulus rows on a finite
    product or on the window of indices the generators reach.

    ``Subgroup.percoord(A, B0)`` builds a ``PercoordSubgroup`` instead: the
    coordinatewise subgroup B0^(index) of a DirectSum, which is how
    invariant subgroups like 2A enter the Addition Theorem checks.
    """

    def __init__(self, group, gens=()):
        self.group = group
        self.gens = tuple(gens)
        self._data = None
        self._key = None

    # construction ---------------------------------------------------------

    @classmethod
    def generated(cls, group, gens):
        gens = tuple(group.element(g) if not group.contains(g) else g for g in gens)
        return Subgroup(group, (g for g in gens if g != group.zero))

    @classmethod
    def _with_basis(cls, group: FiniteProduct, basis):
        """The subgroup of a finite product of lattice Hermite basis ``basis``,
        taken as given; its generators are the rows reduced mod the factors,
        zero rows dropped."""
        n = group.factors
        b = Subgroup(group, (g for row in basis if any(g := tuple(x % m for x, m in zip(row, n)))))
        b._data = _hermite_data(n, basis, None)
        return b

    @classmethod
    def trivial(cls, group):
        return Subgroup(group)

    @classmethod
    def full(cls, group):
        if isinstance(group, FiniteProduct):
            k = len(group.factors)
            return cls.generated(group, [tuple(int(i == j) % n for j, n in enumerate(group.factors)) for i in range(k)])
        if isinstance(group, DirectSum):
            return cls.percoord(group, Subgroup.full(group.base))
        raise UnsupportedQuotientError(f"no full subgroup for {group}")

    @classmethod
    def percoord(cls, group: DirectSum, base: "Subgroup"):
        if not isinstance(group, DirectSum):
            raise GroupMismatchError("percoord subgroups live in direct sums")
        if base.group != group.base:
            raise GroupMismatchError("base subgroup must live in the base group")
        return PercoordSubgroup(group, base)

    # canonical data --------------------------------------------------------

    def _flat(self):
        """(dim, basis, order, window) canonical lattice data."""
        if self._data is not None:
            return self._data
        g = self.group
        if isinstance(g, FreeZ):
            basis = lattices.hnf(list(self.gens), g.rank)
            self._data = (g.rank, basis, math.inf if basis else 1, None)
        elif isinstance(g, (FiniteProduct, DirectSum)):
            if isinstance(g, DirectSum):
                window = tuple(sorted({i for x in self.gens for i, _ in x}))
                moduli = g.base.factors * len(window)
                flat_gens = [_flatten(g, x, window) for x in self.gens]
            else:
                window, moduli, flat_gens = None, g.factors, list(self.gens)
            basis = lattices.hnf(flat_gens + _moduli_rows(moduli), len(moduli))
            self._data = _hermite_data(moduli, basis, window)
        else:
            raise UnsupportedQuotientError(f"subgroups of {g} are unsupported")
        return self._data

    # queries ----------------------------------------------------------------

    def order(self):
        return self._flat()[2]

    def contains(self, x) -> bool:
        _, basis, _, window = self._flat()
        if isinstance(self.group, DirectSum):
            if any(i not in window for i, _ in x):
                return False
            return lattices.contains(basis, _flatten(self.group, x, window))
        return lattices.contains(basis, list(x))

    def coset_key(self, x):
        """Canonical representative data of x + B; equal keys <=> same coset."""
        _, basis, _, window = self._flat()
        g = self.group
        if isinstance(g, DirectSum):
            outside = frozenset((i, v) for i, v in x if i not in window)
            return lattices.reduce_mod(basis, _flatten(g, x - outside, window)), outside
        return lattices.reduce_mod(basis, list(x))

    def elements(self):
        """All elements (finite subgroups only), by closure from generators."""
        o = self.order()
        if o == math.inf:
            raise BudgetExceededError("infinite subgroup")
        g = self.group
        seen = {g.zero}
        frontier = [g.zero]
        while frontier:
            nxt = []
            for x in frontier:
                for gen in self.gens:
                    y = g.add(x, gen)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(seen) != o:
            raise InconsistentSubgroupError(
                f"closure has {len(seen)} elements but the lattice order is {o}"
            )
        return seen

    def join(self, other: "Subgroup") -> "Subgroup":
        if self.group != other.group:
            raise GroupMismatchError("subgroup join across different groups")
        if isinstance(other, PercoordSubgroup):
            return other.join(self)
        return Subgroup.generated(self.group, self.gens + other.gens)

    def canonical_key(self):
        """Equal keys <=> equal subgroups, built once.  Each generator is
        nonzero on its support, so a window is where the subgroup is nonzero."""
        if self._key is None:
            _, basis, _, window = self._flat()
            self._key = ("fg", window, tuple(tuple(r) for r in basis))
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash((self.group, self.canonical_key()))

    def __repr__(self):
        return f"Subgroup<{len(self.gens)} gens, order {self.order()}>"

    # presentations -----------------------------------------------------------

    def _as_group(self):
        g = self.group
        if isinstance(g, FreeZ):
            rows = [list(r) for r in self._flat()[1]]

            def embed(t):
                return tuple(sum(c * row[j] for c, row in zip(t, rows)) for j in range(g.rank))

            def express(y):
                combo = lattices.express(rows, g.rank, list(y))
                if combo is None:
                    raise GroupMismatchError("element is outside the subgroup")
                return tuple(combo)

            return FreeZ(len(rows)), embed, express
        if isinstance(g, DirectSum):
            _, basis, _, window = self._flat()
            flat = FiniteProduct(g.base.factors * len(window))
            flat_sub = Subgroup.generated(flat, [tuple(r % n for r, n in zip(row, flat.factors)) for row in basis])
            new, f_embed, f_express = flat_sub._as_group()
            k = len(g.base.factors)

            def embed(t):
                flat_el = f_embed(t)
                return frozenset(
                    (i, v)
                    for pos, i in enumerate(window)
                    if (v := flat_el[pos * k : (pos + 1) * k]) != g.base.zero
                )

            def express(y):
                return f_express(tuple(_flatten(g, y, window)))

            return new, embed, express

        # finite product: present B as Z^m / relations via Smith normal form
        gens = [list(x) for x in self.gens]
        if not gens:
            return FiniteProduct(()), (lambda t: g.zero), (lambda y: ())
        m, k = len(gens), len(g.factors)
        stacked = gens + _moduli_rows(g.factors)
        relations = [c[:m] for c in lattices.kernel(stacked, k)]
        new, proj = _snf_quotient(FreeZ(m), relations, m)

        def embed(t):
            out = g.zero
            for c, gen in zip(proj.section(t), gens):
                out = g.add(out, g.scalar(c, tuple(gen)))
            return out

        def express(y):
            combo = lattices.express(stacked, k, list(y))
            if combo is None:
                raise GroupMismatchError("element is outside the subgroup")
            return proj(combo[:m])

        return new, embed, express

    def _quotient(self):
        a = self.group
        if not self.gens:
            return a, IdentityProjection(a, a)
        if isinstance(a, DirectSum):
            raise UnsupportedQuotientError(
                "direct-sum quotients are supported along coordinatewise subgroups only"
            )
        dim, basis, _, _ = self._flat()
        if len(basis) == dim:  # every finite-product lattice holds the moduli
            return _snf_quotient(a, basis, dim)
        unit_cols = set()
        for row in basis:
            nz = [j for j, c in enumerate(row) if c]
            if len(nz) != 1 or row[nz[0]] != 1:
                raise UnsupportedQuotientError(
                    "free-group quotients need full rank or a unit coordinate sublattice"
                )
            unit_cols.add(nz[0])
        kept = tuple(j for j in range(a.rank) if j not in unit_cols)
        target = FreeZ(len(kept))
        return target, DropProjection(a, target, kept)


class PercoordSubgroup(Subgroup):
    """B0^(index): the elements of a DirectSum whose every coordinate lies
    in ``base`` = B0, a subgroup of the base group."""

    def __init__(self, group: DirectSum, base: Subgroup):
        self.group = group
        self.base = base

    def _flat(self):
        raise UndecidableFamilyError("a coordinatewise subgroup has no finite support")

    def order(self):
        b = self.base.order()
        if b == 1:
            return 1
        if self.group.index.is_finite:
            return b ** len(self.group.index.window(1))
        return math.inf

    def contains(self, x) -> bool:
        return all(self.base.contains(v) for _, v in x)

    def coset_key(self, x):
        bk = self.base.coset_key
        bz = bk(self.group.base.zero)
        return frozenset((i, key) for i, v in x if (key := bk(v)) != bz)

    def elements(self):
        if self.order() == math.inf:
            raise BudgetExceededError("infinite subgroup")
        raise UnsupportedQuotientError("enumerate percoord subgroups via the base")

    def join(self, other: Subgroup) -> Subgroup:
        if self.group != other.group:
            raise GroupMismatchError("subgroup join across different groups")
        if isinstance(other, PercoordSubgroup):
            return PercoordSubgroup(self.group, self.base.join(other.base))
        if all(self.contains(x) for x in other.gens):
            return self
        raise UnsupportedQuotientError("mixed percoord/fg join is unsupported")

    def canonical_key(self):
        return ("percoord", self.base.canonical_key())

    def __repr__(self):
        return f"Subgroup.percoord({self.base!r})"

    def _as_group(self):
        g = self.group
        base_g, base_embed, base_express = self.base._as_group()
        if not base_g.factors:
            return FiniteProduct(()), (lambda t: g.zero), (lambda x: ())
        bzero = base_g.zero

        def embed(x):
            return frozenset((i, base_embed(v)) for i, v in x)

        def express(y):
            return frozenset((i, w) for i, v in y if (w := base_express(v)) != bzero)

        return DirectSum(base_g, g.index), embed, express

    def _quotient(self):
        qbase, base_proj = self.base._quotient()
        if qbase.order == 1:
            target = FiniteProduct(())
            return target, TrivialProjection(self.group, target)
        target = DirectSum(qbase, self.group.index)
        return target, PercoordProjection(self.group, target, base_proj)


def _flatten(group: DirectSum, x, window):
    k = len(group.base.factors)
    out = [0] * (len(window) * k)
    pos = {i: t for t, i in enumerate(window)}
    for i, v in x:
        at = pos[i] * k
        out[at : at + k] = v
    return out


def subgroup_as_group(B: Subgroup):
    """(G, embed, express): an abstract presentation of B.

    ``G`` is a FiniteProduct (FreeZ for subgroups of free groups, a
    DirectSum for coordinatewise ones), ``embed`` maps G-coordinates to
    elements of the ambient group, and ``express`` inverts it on B.  This
    is what induced actions on invariant subgroups run on.
    """
    return B._as_group()


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientProjection:
    """The projection of ``source`` onto the quotient ``target``, with
    ``section``, a set-theoretic right inverse; ``quotient_group`` builds
    one subclass per shape of quotient."""

    source: AbelianGroup
    target: AbelianGroup


@dataclass(frozen=True)
class IdentityProjection(QuotientProjection):
    """A -> A/0 = A."""

    def __call__(self, x):
        return x

    def section(self, q):
        return q


@dataclass(frozen=True)
class TrivialProjection(QuotientProjection):
    """A -> A/A = 0."""

    def __call__(self, x):
        return self.target.zero

    def section(self, q):
        return self.source.zero


@dataclass(frozen=True)
class SmithProjection(QuotientProjection):
    """Z^k, or a product of k cyclic groups, onto prod Z/d_j over the
    ``kept`` j with d_j != 1: x -> (x V)_j mod d_j, where the unimodular V
    maps the relation lattice onto the one spanned by the d_j e_j (the
    Smith form).  ``v_inv`` = V^-1 gives sections."""

    v: tuple
    diag: tuple
    kept: tuple
    v_inv: tuple

    def __call__(self, x):
        return tuple(sum(a * row[j] for a, row in zip(x, self.v)) % self.diag[j] for j in self.kept)

    def section(self, q):
        v_inv = self.v_inv
        return self.source.element(
            sum(a * v_inv[j][i] for a, j in zip(q, self.kept)) for i in range(len(self.diag))
        )


@dataclass(frozen=True)
class DropProjection(QuotientProjection):
    """Z^r onto its ``kept`` coordinates: the quotient by the sublattice
    spanned by the other unit vectors."""

    kept: tuple

    def __call__(self, x):
        return tuple(x[i] for i in self.kept)

    def section(self, q):
        out = [0] * self.source.rank
        for a, j in zip(q, self.kept):
            out[j] = a
        return tuple(out)


@dataclass(frozen=True)
class PercoordProjection(QuotientProjection):
    """K^(index) -> (K/B0)^(index), coordinate by coordinate through
    ``base``, the projection K -> K/B0."""

    base: QuotientProjection

    def __call__(self, x):
        base, bzero = self.base, self.target.base.zero
        return frozenset((i, w) for i, v in x if (w := base(v)) != bzero)

    def section(self, q):
        return frozenset((i, self.base.section(v)) for i, v in q)


def _snf_quotient(A: AbelianGroup, rows, k: int):
    """Z^k / (row lattice of full rank) as a FiniteProduct, with its Smith
    projection; the projection keeps the inverse transform for sections."""
    diag, v = lattices.snf_diagonal(rows, k)
    kept = tuple(j for j, d in enumerate(diag) if d != 1)
    target = FiniteProduct(tuple(diag[j] for j in kept))
    v_inv = lattices.unimodular_inverse(v)
    return target, SmithProjection(
        A, target, tuple(map(tuple, v)), tuple(diag), kept, tuple(map(tuple, v_inv))
    )


def quotient_group(A: AbelianGroup, B: Subgroup):
    """The quotient A/B plus a coordinate projection, for supported shapes."""
    if B.group != A:
        raise GroupMismatchError("subgroup is not inside the group")
    return B._quotient()
