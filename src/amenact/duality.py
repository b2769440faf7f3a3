"""Character duality for finite products, annihilators, and cotrajectories.

The dual of prod Z/n_i is the same product, paired by
<x, chi> = sum x_i chi_i / n_i mod 1 (kept as an exact integer test).
The compact dual K^I of a direct sum K^(I) is named by the direct sum;
its open subgroups constrain finitely many coordinates, and a cotrajectory
adds a coordinate when a translated constraint first reaches it, so every
reported index is exact and nothing is truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from operator import mul

from . import lattices
from .abelian import (
    DirectSum,
    FiniteProduct,
    Subgroup,
    _moduli_rows,
    ell_of_order,
)
from .actions import (
    Action,
    MatrixEndo,
    ShiftEndo,
    _live_mask,
    _subgroup_accumulator,
    subgroup_trajectory,
)
from .errors import (
    BudgetExceededError,
    GroupMismatchError,
    UndecidableFamilyError,
)
from .folner import DEFAULT_ELEMENT_BUDGET, FolnerNet, _counts_along, _is_box_net, _live_shells
from .integral import IntegralEstimate, IntegralRow
from .monoid import MSubset
from .tables import csv_table

SUBGROUP_LATTICE_BUDGET = 2**13  # the largest group order subgroup_lattice enumerates
SUBGROUP_COUNT_BUDGET = 2**16  # the most subgroups subgroup_lattice lists


@dataclass(frozen=True)
class DualGroup:
    """The Pontryagin dual of a finite product, with its exact pairing."""

    group: FiniteProduct

    def pairing(self, x, chi) -> Fraction:
        total = Fraction(0)
        for a, c, n in zip(x, chi, self.group.factors):
            total += Fraction(a * c, n)
        return total % 1


def _preimage(images, target_rows, dim: int) -> list[list[int]]:
    """Rows spanning {x in Z^m : sum_j x_j images[j] in L}, m = len(images),
    L the row lattice of ``target_rows`` in Z^dim: heads of kernel vectors."""
    m = len(images)
    return [c[:m] for c in lattices.kernel(images + target_rows, dim)]


def _annihilator_basis(factors, basis) -> list[list[int]]:
    """HNF basis (modulus rows included) of {chi : <h, chi> = 0 for all h}
    in Z^d, d = len(factors), for H = ``basis`` the full-rank Hermite basis
    of a subgroup of prod Z/factors[t].

    <h, chi> = sum_t h_t chi_t / n_t mod 1 vanishes for every row h of H
    iff H D^-1 chi is integral, D = diag(n): B-perp is the column span of
    D H^-1 = A, the integer matrix with A H = D (each n_i e_i lies in the
    row lattice of H).  H is upper triangular and so is A; row i of A is
    solved column by column with exact divisions by the pivots of H.
    """
    d = len(factors)
    columns = [[0] * d for _ in range(d)]  # columns[j][i] = A[i][j] mod n_i
    for i, n in enumerate(factors):
        a = [0] * d
        a[i] = n // basis[i][i]
        columns[i][i] = a[i] % n
        for j in range(i + 1, d):
            # (a H)[j] = sum_{i <= l <= j} a[l] H[l][j] must vanish
            a[j] = -sum(a[l] * basis[l][j] for l in range(i, j)) // basis[j][j]
            columns[j][i] = a[j] % n
    return lattices.hnf(columns + _moduli_rows(factors), d)


def annihilator(b: Subgroup) -> Subgroup:
    """B-perp = {chi : chi(B) = 0}, solved from the Hermite basis of B."""
    group = b.group
    if not isinstance(group, FiniteProduct):
        raise GroupMismatchError("annihilators are computed in finite products")
    return Subgroup._with_basis(group, _annihilator_basis(group.factors, b._flat()[1]))


def dual_endomorphism(phi: MatrixEndo) -> MatrixEndo:
    """The pairing adjoint: <phi x, chi> = <x, phi^ chi> for all x, chi."""
    group = phi.group
    if not isinstance(group, FiniteProduct):
        raise GroupMismatchError("dual endomorphisms act on finite products")
    n = group.factors
    k = len(n)
    rows = tuple(
        tuple((phi.rows[i][j] * n[j] // n[i]) % n[j] for i in range(k))
        for j in range(k)
    )
    return MatrixEndo(group, rows)


def dual_action(alpha: Action) -> Action:
    """Duals of all generator endomorphisms, as an action on the character
    group (the acting monoid must be commutative, which it is here)."""
    return Action(
        alpha.monoid, alpha.group, [dual_endomorphism(phi) for phi in alpha.gen_endos]
    )


def cotrajectory(gamma: Action, f_set: MSubset, u: Subgroup) -> Subgroup:
    """C_F(gamma, U) = intersection of gamma(s)^{-1}(U) over s in F."""
    acc = _GrowingCotrajectory(gamma, u)
    acc.extend(f_set.elements)
    return Subgroup.generated(gamma.group, acc.rows_on(range(len(acc.factors))))


@dataclass
class CtReport:
    trajectory_order: int
    cotrajectory_index: int

    @property
    def equal(self) -> bool:
        return self.trajectory_order == self.cotrajectory_index


def ct_check(alpha: Action, b: Subgroup, f_set: MSubset) -> CtReport:
    """|T_F(alpha, B)| against [A^ : C_F(alpha^, B-perp)], both exact."""
    left = subgroup_trajectory(alpha, f_set, b).order()
    cot = cotrajectory(dual_action(alpha), f_set, annihilator(b))
    return CtReport(left, alpha.group.order // cot.order())


# ---------------------------------------------------------------------------
# compact duals K^I of direct sums K^(I), named by the DirectSum itself as
# DualGroup names a finite product's characters by the product


@dataclass(frozen=True)
class OpenSubgroup:
    """An open subgroup of K^I cut out by congruences on finitely many
    coordinates; ``space`` is the direct sum K^(I) that K^I is dual to.

    ``support`` lists the constrained indices; ``rows`` is the full-rank
    Hermite basis (modulus rows inside) of the lattice over the flattened
    support coordinates that chi's support-restriction must lie in.  Each
    constructor returns that canonical form: equal fields, equal subgroups.
    """

    space: DirectSum
    support: tuple
    rows: tuple


def annihilator_window(space: DirectSum, b: Subgroup) -> OpenSubgroup:
    """The annihilator in K^I of a finitely supported subgroup of the direct
    sum ``space`` = K^(I), as congruence constraints over the union of its
    generators' supports."""
    if b.group != space:
        raise GroupMismatchError("subgroup must live in the matching direct sum")
    _, basis, _, support = b._flat()
    basis = _annihilator_basis(space.base.factors * len(support), basis)
    return OpenSubgroup(space, support, tuple(tuple(r) for r in basis))


class ProfiniteShiftAction:
    """The adjoint index-translation action on K^I, ``space`` = K^(I): when
    generator j shifts the direct sum by ``shifts[j]``, the dual moves
    constraints forward by sum_j e_j(s) shifts[j], e(s) the exponents of s
    over the monoid's generators."""

    def __init__(self, space: DirectSum, monoid, shifts):
        self.space = space
        self.monoid = monoid
        self.shifts = [tuple(shift) for shift in shifts]
        # entry k of every shift, per index coordinate k (none if no generator)
        self._columns = list(zip(*shifts)) or [()] * space.index.dim

    def translate_support(self, support, s):
        exponents = self.monoid.generator_exponents(s)
        move = tuple(sum(map(mul, exponents, col)) for col in self._columns)
        op = self.space.index.op
        return tuple(sorted(op(i, move) for i in support))


def cotrajectory_window(
    gamma: ProfiniteShiftAction, f_set: MSubset, u: OpenSubgroup
) -> OpenSubgroup:
    """C_F(gamma, U) for the shift action, as one merged constraint over the
    sorted union of the translated supports."""
    acc = _GrowingCotrajectory(gamma, u)
    acc.extend(f_set.elements)
    k = len(acc.factors)
    union = tuple(sorted(acc.pos))
    cols = [acc.pos[i] + t for i in union for t in range(k)]
    rows = acc.rows_on(cols) + _moduli_rows(acc.factors * len(union))
    basis = lattices.hnf(rows, len(cols))
    return OpenSubgroup(gamma.space, union, tuple(tuple(r) for r in basis))


class _GrowingCotrajectory:
    """C_F(gamma, U) on one growing ``lattices.ModularEchelon``, fed net
    shells through ``reset()``/``extend(added)``/``count`` as the
    trajectory is, and never derived from it.  ``count`` = [K : C_F] is
    the product of the pivots.  Each s in ``added`` meets the echelon with
    gamma(s)^{-1}(U): the rows with a nonzero image on U's constraint
    columns enter one kernel with U's rows, and the echelon is truncated
    at the first of them and refilled with the other rows after it and
    the kernel vectors.  ``gamma`` is an Action on a finite K (U a Subgroup) or a
    ProfiniteShiftAction (U an OpenSubgroup), where an index gets a block
    of free columns when a translated support first reaches it (``pos``
    holds its first column).  ``counts_along`` feeds a net to it: on a box
    net one element per live key of each shell, or, for one live shift by
    +-1 over N or Z, one translate of U per step until the state of the
    projection repeats (``_orbit_counts``, which sets ``limit``).  No
    budget is charged.
    """

    def __init__(self, gamma, u):
        self.gamma = gamma
        self.profinite = isinstance(gamma, ProfiniteShiftAction)
        if self.profinite:
            self.factors = gamma.space.base.factors
            self.support = u.support
            self.image_dim = len(u.support) * len(self.factors)
            self.target = [list(r) for r in u.rows]  # full rank: the moduli are inside
        elif isinstance(gamma.group, FiniteProduct):
            self.factors = gamma.group.factors
            self.target = u._flat()[1]
            self.image_dim = len(self.factors)
        else:
            raise GroupMismatchError("use a ProfiniteShiftAction on the dual of a direct sum")
        # (a, m) once _orbit_counts has certified that [C_j : C_{j+1}] = a
        # for every one-sided step j >= m
        self.limit = None
        self.reset()

    def reset(self):
        self.pos = {}
        self._echelon = lattices.ModularEchelon()
        self._full = 1  # the product of the moduli, so [K : C_F] = _full / order()
        if not self.profinite:
            self._add_free_columns()

    def _add_free_columns(self):
        d = self._echelon.dim
        self._echelon.add_columns(self.factors)
        for t, m in enumerate(self.factors):
            self._echelon.insert({d + t: 1})
            self._full *= m

    def extend(self, added):
        for s in sorted(added):
            images = self._images(s)
            if not images:
                continue
            rows = self._echelon.rows
            moved = list(images)
            # truncate and insert replace row dicts and never edit one, so these stay valid
            refill = [rows[j] for j in range(moved[0], len(rows)) if j not in images]
            for combo in _preimage([images[j] for j in moved], self.target, self.image_dim):
                vec = {}
                for a, j in zip(combo, moved):
                    if a:
                        for col, x in rows[j].items():
                            vec[col] = vec.get(col, 0) + a * x
                refill.append(vec)
            self._echelon.truncate(moved[0])
            for vec in refill:
                self._echelon.insert(vec)

    def _images(self, s):
        """Row number -> the nonzero image of that row on U's constraint
        columns; on K^I the indices s first reaches get their columns."""
        rows = self._echelon.rows
        if not self.profinite:
            n = self.factors
            images = ((j, self.gamma.apply(s, tuple(row.get(t, 0) % m for t, m in enumerate(n))))
                      for j, row in enumerate(rows))
        else:
            moved = self.gamma.translate_support(self.support, s)
            for i in moved:
                if i not in self.pos:
                    self.pos[i] = self._echelon.dim
                    self._add_free_columns()
            cols = [self.pos[i] + t for i in moved for t in range(len(self.factors))]
            moduli = self.factors * len(moved)
            # rows store no zeros: only a row with a key in the moved columns can move
            images = ((j, [row.get(c, 0) % m for c, m in zip(cols, moduli)])
                      for j, row in enumerate(rows) if not row.keys().isdisjoint(cols))
        return {j: img for j, img in images if any(img)}

    def counts_along(self, net: FolnerNet, prefix: int, live):
        """``_counts_along(self, net, prefix)``.  On a box net, shell i is
        fed as ``_live_shells`` gives it, pinning the coordinates where
        ``live`` (the trajectory's mask) is 0: the dual of a generator that
        acts as the identity is the identity, so gamma(s) depends only on
        the live coordinates of s, and one element per new key meets the
        echelon with every constraint of the shell.  When the one live
        generator shifts K^I by +-1 over N or Z, the translates of U are
        met one step at a time until the state repeats (``_orbit_counts``,
        which sets ``limit``)."""
        if not _is_box_net(net):
            yield from _counts_along(self, net, prefix)
            return
        orbit = self._shift_orbit(live)
        if orbit is not None:
            yield from self._orbit_counts(net, prefix, *orbit)
            return
        for _, size, shell in _live_shells(net, live, prefix):
            self.extend(shell)
            yield size, self.count

    def _shift_orbit(self, live):
        """(axis, sign) when gamma is a ProfiniteShiftAction on K^I over a
        one-dimensional index N or Z, generator ``axis`` alone is live by
        the mask ``live``, its shift is sign = +1, or -1 over a Z index,
        and coordinate ``axis`` of the monoid is N, or Z over a Z index;
        else None."""
        if not self.profinite or sum(live) != 1:
            return None
        axis = list(live).index(1)
        index, shift = self.gamma.space.index, self.gamma.shifts[axis]
        if index.coordinates not in (("N",), ("Z",)):
            return None
        if shift != (1,) and not (shift == (-1,) and index.is_group):
            return None
        coordinate = self.gamma.monoid.coordinates[axis]
        if coordinate == "N" or (coordinate == "Z" and index.is_group):
            return axis, shift[0]
        return None

    def _orbit_counts(self, net: FolnerNet, prefix: int, axis, sign):
        """``counts_along`` for one live shift by ``sign`` on K^N or K^Z:
        step j meets C_j, the meet of the translates of U by 0, .., j - 1,
        with the translate by j, through the one monoid element j e_axis.
        Net index i holds C_j for j the length of side ``axis`` of F_i: i
        steps on N, and 2i + 1 on Z, where [K : C_[-i,i]] = [K : C_[0,2i]]
        as K^Z is invariant under translation.  Index t gets its columns
        in the order of sign * t.  With w the width of U's support, the
        state P_j is the Hermite form of the projection of C_j onto the
        w - 1 indices that the translates from j on reach, moved back j
        places; C_j leaves the index after them free, so [C_j : C_{j+1}]
        depends on P_j alone, and so does P_{j+1}, which is shift(pi((P_j
        x K) meet U)).  That map is monotone and P_0 is the whole group, so
        the P_j decrease, and the first repeat P_{m+1} = P_m fixes every
        later state: ``limit`` becomes (a, m), a = [C_m : C_{m+1}], and every
        later count is the one before times a, with no more echelon work.
        An empty support (U = K^I) keeps index 1."""
        self.reset()
        self.limit = None
        k = len(self.factors)
        places = [sign * t for (t,) in self.support]
        lo = min(places, default=0)
        width = max(places, default=lo - 1) - lo + 1  # 0 for an empty support
        moduli = _moduli_rows(self.factors * max(width - 1, 0))
        pos, state = self.pos, None
        counts = [1]  # [K : C_j] for every step j met or certified
        for i in range(1, prefix + 1):
            sides = net.monoid.sides(i)
            n = len(sides[axis])
            while len(counts) <= n:
                if self.limit is not None:
                    counts.append(counts[-1] * self.limit[0])
                    continue
                j = len(counts) - 1
                while len(pos) < width + j:  # the indices up to the ones step j reaches
                    pos[(sign * (lo + len(pos)),)] = self._echelon.dim
                    self._add_free_columns()
                cols = [pos[(sign * u,)] + t for u in range(lo + j, lo + j + width - 1) for t in range(k)]
                last, state = state, lattices.hnf(self.rows_on(cols) + moduli, len(cols))
                if state == last:
                    self.limit = (counts[j] // counts[j - 1], j - 1)
                    continue
                if width:
                    self.extend([tuple(j if a == axis else 0 for a in range(len(sides)))])
                counts.append(self.count)
            size = math.prod(map(len, sides))
            yield size, counts[n]

    @property
    def count(self) -> int:
        return self._full // self._echelon.order()

    def rows_on(self, cols):
        """The echelon rows read on the columns ``cols``, as dense tuples."""
        return [tuple(row.get(c, 0) for c in cols) for row in self._echelon.rows]


def _cotrajectory_mask(gamma) -> tuple:
    """1 for each generator of gamma that does not act as the identity, 0
    for each that does: a zero shift of a ProfiniteShiftAction, or a
    generator endomorphism of an Action equal to the identity."""
    if isinstance(gamma, ProfiniteShiftAction):
        return tuple(int(any(shift)) for shift in gamma.shifts)
    return _live_mask(gamma)


def h_top_estimate(gamma, u, net: FolnerNet, prefix: int) -> IntegralEstimate:
    """Ratio table log [K : C_{F_i}(gamma, U)] / |F_i|.

    ``gamma`` is either an Action on a finite character group (with U a
    Subgroup) or a ProfiniteShiftAction on K^I (with U an OpenSubgroup),
    whose coordinates enter as translated supports first reach them.  On
    a box net the generators that act as the identity are pinned
    (``_cotrajectory_mask``), so one element per live key meets the
    echelon; when the one live generator shifts by +-1 over N or Z, the
    translates of U are met one step at a time until the state repeats
    (``_GrowingCotrajectory._orbit_counts``).
    """
    est = IntegralEstimate("h_top")
    indices = _GrowingCotrajectory(gamma, u).counts_along(net, prefix, _cotrajectory_mask(gamma))
    for i, (size, index) in enumerate(indices, start=1):
        value = math.log(index)
        est.rows.append(IntegralRow(i, size, value, value / size))
    return est


# ---------------------------------------------------------------------------
# the bridge report


@dataclass
class BridgeRow:
    index: int
    size: int
    ell_trajectory: float
    log_index: float

    @property
    def difference(self) -> float:
        return abs(self.ell_trajectory - self.log_index)


@dataclass
class BridgeReport:
    rows: list
    exact_at_every_index: bool
    # each side's certified (a, m), or None (``_GrowingTrajectory.limit``
    # and ``_GrowingCotrajectory.limit``)
    trajectory_limit: tuple | None = None
    cotrajectory_limit: tuple | None = None

    @property
    def algebraic_tail(self):
        return self.rows[-1].ell_trajectory / self.rows[-1].size

    @property
    def topological_tail(self):
        return self.rows[-1].log_index / self.rows[-1].size

    def to_csv(self) -> str:
        rows = (
            [r.index, r.size, repr(r.ell_trajectory), repr(r.log_index), repr(r.difference)]
            for r in self.rows
        )
        return csv_table("index,size,ell_trajectory,log_index,difference", rows)


def _dual_pair(alpha: Action, b: Subgroup):
    """(gamma, U): the dual action and U = B-perp, on the finite dual of a
    finite product or on the compact dual K^I of a direct sum K^(I)."""
    group = alpha.group
    if isinstance(group, FiniteProduct):
        return dual_action(alpha), annihilator(b)
    if not isinstance(group, DirectSum):
        raise GroupMismatchError(f"no bridge mode for {group}")
    for phi in alpha.gen_endos:
        if not isinstance(phi, ShiftEndo) or phi.base is not None:
            raise UndecidableFamilyError("bridge on direct sums needs pure shifts")
        if not group.index.is_group and min(phi.shift, default=0) < 0:
            # a coordinate shifted out of the index is annihilated, which no translate shows
            raise UndecidableFamilyError("bridge on a one-sided index needs shifts that stay in it")
    shifts = [phi.shift for phi in alpha.gen_endos]
    return ProfiniteShiftAction(group, alpha.monoid, shifts), annihilator_window(group, b)


def bridge_check(
    alpha: Action, b: Subgroup, net: FolnerNet, prefix: int, budget: int = DEFAULT_ELEMENT_BUDGET
) -> BridgeReport:
    """Pair the subgroup seed with its annihilator and compare trajectory
    length against cotrajectory log-index at every net index, exactly.
    The budget bounds the monoid elements the trajectory visits; the
    cotrajectory charges none.  On a box net it meets one element per key
    of the trajectory's live generators, or, when the one live generator
    shifts by +-1 over N or Z, one translate of U per step until its state
    repeats.  Each side keeps its own echelon and its own certificate: the
    report carries both limits, and the cotrajectory never reads the
    trajectory's."""
    gamma, u = _dual_pair(alpha, b)
    rows = []
    exact = True
    walk = _subgroup_accumulator(alpha, b, budget)
    cot = _GrowingCotrajectory(gamma, u)
    sides = zip(walk.counts_along(net, prefix), cot.counts_along(net, prefix, walk._mask))
    for i, ((size, order), (_, index)) in enumerate(sides, start=1):
        exact = exact and order == index
        rows.append(BridgeRow(i, size, ell_of_order(order), ell_of_order(index)))
    return BridgeReport(rows, exact, walk.limit, cot.limit)


def subgroup_lattice(group: FiniteProduct):
    """Every subgroup of a small finite product, as (gens, elements) pairs,
    one per Hermite form of ``_subgroup_gens``: the form's rows reduced
    mod the factors, zero rows dropped."""
    subs = (Subgroup._with_basis(group, form) for form in _subgroup_gens(group))
    return [(b.gens, b.elements()) for b in subs]


def _subgroup_gens(group: FiniteProduct):
    """Yield every subgroup of a small finite product once, as the rows of
    its full-rank Hermite form, which generate it.

    The subgroups of prod Z/n_j are the lattices diag(n) <= L <= Z^k, and
    each is listed once, as its Hermite normal form built from the last
    column back: row j is p_j e_j plus a tail whose entry in each later
    column l lies in [0, p_l), with p_j | n_j, and the row stays iff
    (n_j / p_j) tail lies in the lattice of the rows below (which is
    n_j e_j in L).  The forms on the last columns are the subgroups of a
    direct factor, never more than the whole group has, so the count
    budget is checked as they grow.
    """
    if group.order > SUBGROUP_LATTICE_BUDGET:
        raise BudgetExceededError(f"subgroup enumeration beyond {SUBGROUP_LATTICE_BUDGET} elements")
    n = group.factors
    forms = [[]]
    for j in reversed(range(len(n))):
        grown = []
        for rows in forms:
            tails = list(iproduct(*(range(row[l]) for l, row in enumerate(rows, j + 1))))
            for p in (d for d in range(1, n[j] + 1) if n[j] % d == 0):
                for tail in tails:
                    if lattices.contains(rows, [0] * (j + 1) + [n[j] // p * t for t in tail]):
                        grown.append([[0] * j + [p, *tail]] + rows)
            if len(grown) > SUBGROUP_COUNT_BUDGET:
                raise BudgetExceededError(f"subgroup enumeration beyond {SUBGROUP_COUNT_BUDGET} subgroups")
        forms = grown
    yield from forms


def random_endomorphism(group: FiniteProduct, rng) -> MatrixEndo:
    """A uniformly random well-defined matrix endomorphism.

    Entry (i, j) must be a multiple of n_i / gcd(n_i, n_j) mod n_i for the
    map to respect the factor orders.
    """
    n = group.factors
    k = len(n)
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            g = math.gcd(n[i], n[j])
            step = n[i] // g
            row.append((step * rng.randrange(g)) % n[i])
        rows.append(tuple(row))
    return MatrixEndo(group, tuple(rows))
