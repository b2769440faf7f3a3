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
    _EchelonWalk,
    _subgroup_accumulator,
    subgroup_trajectory,
)
from .errors import (
    BudgetExceededError,
    GroupMismatchError,
    UndecidableFamilyError,
)
from .folner import DEFAULT_ELEMENT_BUDGET, FolnerNet
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

    def _generator_step(self, j, step):
        """Generator j's shift of the direct sum, whose adjoint it is (as
        ``Action._generator_step``, for step 1)."""
        return ShiftEndo(self.space, self.shifts[j])


def cotrajectory_window(
    gamma: ProfiniteShiftAction, f_set: MSubset, u: OpenSubgroup
) -> OpenSubgroup:
    """C_F(gamma, U) for the shift action, as one merged constraint over the
    sorted union of the translated supports."""
    acc = _GrowingCotrajectory(gamma, u)
    acc.extend(f_set.elements)
    k = len(acc.factors)
    union = tuple(sorted(acc._pos))
    cols = [acc._pos[i] + t for i in union for t in range(k)]
    rows = acc.rows_on(cols) + _moduli_rows(acc.factors * len(union))
    basis = lattices.hnf(rows, len(cols))
    return OpenSubgroup(gamma.space, union, tuple(tuple(r) for r in basis))


class _GrowingCotrajectory(_EchelonWalk):
    """C_F(gamma, U), never derived from the trajectory; ``count`` = [K :
    C_F] is the product of the pivots, and the echelon always holds the
    modulus rows.  ``gamma`` is an Action on a finite K (U a Subgroup) or a
    ProfiniteShiftAction (U an OpenSubgroup), where each index's block is
    free columns.  ``_meet(s)`` meets the echelon with gamma(s)^{-1}(U):
    the rows with a nonzero image on U's constraint columns enter one
    kernel with U's rows, and the echelon is truncated at the first of
    them and refilled with the other rows after it and the kernel vectors.
    """

    name = "cotrajectory"

    def __init__(self, gamma, u, budget=DEFAULT_ELEMENT_BUDGET):
        indexed = isinstance(gamma, ProfiniteShiftAction)
        if indexed:
            factors = gamma.space.base.factors
            self.support = u.support
            self.image_dim = len(u.support) * len(factors)
            self.target = [list(r) for r in u.rows]  # full rank: the moduli are inside
        elif isinstance(gamma.group, FiniteProduct):
            factors = gamma.group.factors
            self.target = u._flat()[1]
            self.image_dim = len(factors)
        else:
            raise GroupMismatchError("use a ProfiniteShiftAction on the dual of a direct sum")
        super().__init__(gamma, factors, indexed, budget)

    def reset(self):
        self._full = 1  # the product of the moduli, so [K : C_F] = _full / order()
        super().reset()

    def _add_block(self):
        d = self._echelon.dim
        self._echelon.add_columns(self.factors)
        for t, m in enumerate(self.factors):
            self._echelon.insert({d + t: 1})
            self._full *= m

    def _walk(self, fresh):
        for s in sorted(fresh.values()):
            self._meet(s)

    def _meet(self, s):
        images = self._images(s)
        if not images:
            return
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
        if not self.indexed:
            n = self.factors
            images = ((j, self.action.apply(s, tuple(row.get(t, 0) % m for t, m in enumerate(n))))
                      for j, row in enumerate(self._echelon.rows))
        else:
            moved = self.action.translate_support(self.support, s)
            cols = [c + t for c in map(self._column, moved) for t in range(len(self.factors))]
            moduli = self.factors * len(moved)
            # rows store no zeros: only a row with a key in the moved columns can move
            images = ((j, [row.get(c, 0) % m for c, m in zip(cols, moduli)])
                      for j, row in enumerate(self._echelon.rows) if not row.keys().isdisjoint(cols))
        return {j: img for j, img in images if any(img)}

    def _stepper(self, axis, phi, lo, width):
        """Step j meets C_j, the meet of the translates of U by 0, .., j - 1,
        with the translate by j.  With w the width of U's support, the state
        P_j is the Hermite form of the projection of C_j onto the w - 1
        indices that the translates from j on reach, moved back j places;
        C_j leaves the index after them free, so [C_j : C_{j+1}] depends on
        P_j alone, and so does P_{j+1}, which is shift(pi((P_j x K) meet
        U)).  That map is monotone and P_0 is the whole group, so the P_j
        decrease, and the first repeat P_{m+1} = P_m fixes every later
        state.  An empty support (U = K^I) keeps index 1."""
        sign, k = phi.shift[0], len(self.factors)
        moduli = _moduli_rows(self.factors * max(width - 1, 0))
        state = None

        def step(j):
            nonlocal state
            cols = [self._pos[(sign * u,)] + t for u in range(lo + j, lo + j + width - 1) for t in range(k)]
            last, state = state, lattices.hnf(self.rows_on(cols) + moduli, len(cols))
            if state == last:
                return j - 1
            if width:
                self._meet(tuple(j if a == axis else 0 for a in range(len(self._mask))))
            return j

        return step

    @property
    def count(self) -> int:
        return self._full // self._echelon.order()

    def rows_on(self, cols):
        """The echelon rows read on the columns ``cols``, as dense tuples."""
        return [tuple(row.get(c, 0) for c in cols) for row in self._echelon.rows]


def h_top_estimate(gamma, u, net: FolnerNet, prefix: int) -> IntegralEstimate:
    """Ratio table log [K : C_{F_i}(gamma, U)] / |F_i|, along the walk of
    ``_GrowingCotrajectory.counts_along``.

    ``gamma`` is either an Action on a finite character group (with U a
    Subgroup) or a ProfiniteShiftAction on K^I (with U an OpenSubgroup),
    whose coordinates enter as translated supports first reach them.
    """
    est = IntegralEstimate("h_top")
    for i, (size, index) in enumerate(_GrowingCotrajectory(gamma, u).counts_along(net, prefix), start=1):
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
    Each side walks the net on its own echelon, derives its own live mask
    and certifies its own limit, and the report carries both.  Both charge
    the one budget the same amounts, and the trajectory is walked first,
    so a budget error names the trajectory."""
    gamma, u = _dual_pair(alpha, b)
    rows = []
    exact = True
    walk = _subgroup_accumulator(alpha, b, budget)
    cot = _GrowingCotrajectory(gamma, u, budget)
    sides = zip(walk.counts_along(net, prefix), cot.counts_along(net, prefix))
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
