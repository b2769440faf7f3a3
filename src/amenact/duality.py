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

from . import lattices
from .abelian import (
    DirectSum,
    FiniteProduct,
    Subgroup,
    _flatten,
    _moduli_rows,
    ell_of_order,
)
from .actions import (
    Action,
    MatrixEndo,
    ShiftEndo,
    _trajectory_orders,
    subgroup_trajectory,
)
from .errors import (
    BudgetExceededError,
    GroupMismatchError,
    UndecidableFamilyError,
)
from .folner import FolnerNet
from .integral import IntegralEstimate, IntegralRow
from .monoid import MSubset
from .tables import csv_table

SUBGROUP_LATTICE_BUDGET = 2**13  # the largest group order subgroup_lattice enumerates
SUBGROUP_COUNT_BUDGET = 2**16  # the most subgroups subgroup_lattice lists


@dataclass(frozen=True)
class DualGroup:
    """The Pontryagin dual of a finite product, with its exact pairing."""

    group: FiniteProduct

    @property
    def characters(self) -> FiniteProduct:
        return self.group

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


def _annihilator_basis(factors, gens) -> list[list[int]]:
    """HNF basis (modulus rows included) of {chi : <g, chi> = 0 for all g}
    in Z^d, d = len(factors), for flat generators of prod Z/factors[t]."""
    d = len(factors)
    lcm = math.lcm(*factors)
    # <g, chi> = sum_t g_t chi_t / n_t mod 1 vanishes iff the weighted sum
    # sum_t g_t chi_t (lcm / n_t) is 0 mod lcm: B-perp is the preimage of
    # lcm * Z^gens under chi -> (weighted sums)
    weighted = [[v * (lcm // n) for v, n in zip(g, factors)] for g in gens]
    columns = [[row[t] for row in weighted] for t in range(d)]
    sol_rows = _preimage(columns, _moduli_rows([lcm] * len(gens)), len(gens))
    return lattices.hnf(sol_rows + _moduli_rows(factors), d)


def annihilator(b: Subgroup) -> Subgroup:
    """B-perp = {chi : chi(B) = 0}, as an integer-lattice kernel."""
    group = b.group
    if not isinstance(group, FiniteProduct):
        raise GroupMismatchError("annihilators are computed in finite products")
    basis = _annihilator_basis(group.factors, b.gens)
    return Subgroup.generated(group, [tuple(r) for r in basis])


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
    acc.advance(f_set.elements)
    return Subgroup.generated(gamma.group, [tuple(r) for r in acc.basis])


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
    hat = dual_action(alpha)
    perp = annihilator(b)
    cot = cotrajectory(hat, f_set, perp)
    right = alpha.group.order // cot.order()
    return CtReport(left, right)


# ---------------------------------------------------------------------------
# compact duals K^I of direct sums K^(I), named by the DirectSum itself as
# DualGroup names a finite product's characters by the product


@dataclass(frozen=True)
class OpenSubgroup:
    """An open subgroup of K^I cut out by congruences on finitely many
    coordinates; ``space`` is the direct sum K^(I) that K^I is dual to.

    ``support`` lists the constrained indices; ``rows`` is a lattice basis
    (including the modulus rows) over the flattened support coordinates:
    membership of chi means its support-restriction lies in the row lattice.
    """

    space: DirectSum
    support: tuple
    rows: tuple

    def index_in_space(self) -> int:
        dim = len(self.support) * len(self.space.base.factors)
        if dim == 0:
            return 1
        idx = lattices.lattice_index(lattices.hnf([list(r) for r in self.rows], dim), dim)
        return idx


def vanishing_subgroup(space: DirectSum, coords, base_subgroup: Subgroup) -> OpenSubgroup:
    """{chi : chi_i in B0 for the listed i}; B0 a subgroup of the base."""
    coords = tuple(sorted(tuple(c) for c in coords))
    k = len(space.base.factors)
    for c in coords:
        if not space.index.contains(c):
            raise GroupMismatchError(f"coordinate {c} is not in the index monoid {space.index}")
    _, basis, _, _ = Subgroup.generated(space.base, base_subgroup.gens)._flat()
    blocks = []
    for t in range(len(coords)):
        for row in basis:
            placed = [0] * (len(coords) * k)
            placed[t * k : (t + 1) * k] = row
            blocks.append(placed)
    return OpenSubgroup(space, coords, tuple(tuple(r) for r in blocks))


def annihilator_window(space: DirectSum, b: Subgroup) -> OpenSubgroup:
    """The annihilator in K^I of a finitely supported subgroup of the direct
    sum ``space`` = K^(I), as congruence constraints over the union of its
    generators' supports."""
    group = b.group
    if group != space:
        raise GroupMismatchError("subgroup must live in the matching direct sum")
    if b.kind != "fg":
        raise UndecidableFamilyError("profinite annihilators need finite support")
    support = tuple(sorted({i for g in b.gens for i, _ in g}))
    factors = space.base.factors * len(support)
    flat = [_flatten(group, g, support) for g in b.gens]
    basis = _annihilator_basis(factors, flat)
    return OpenSubgroup(space, support, tuple(tuple(r) for r in basis))


class ProfiniteShiftAction:
    """The adjoint index-translation action on K^I, ``space`` = K^(I): the
    dual of the shift on the direct sum moves constraints forward by s."""

    def __init__(self, space: DirectSum, monoid):
        self.space = space
        self.monoid = monoid

    def translate_support(self, support, s):
        op = self.space.index.op
        return tuple(sorted(op(i, s) for i in support))


def cotrajectory_window(
    gamma: ProfiniteShiftAction, f_set: MSubset, u: OpenSubgroup
) -> OpenSubgroup:
    """C_F(gamma, U) for the shift action, as one merged constraint over the
    sorted union of the translated supports."""
    acc = _GrowingCotrajectory(gamma, u)
    acc.advance(f_set.elements)
    k = len(gamma.space.base.factors)
    union = tuple(sorted(acc.pos))
    cols = [acc.pos[i] + t for i in union for t in range(k)]
    basis = lattices.hnf([[row[c] for c in cols] for row in acc.basis], len(cols))
    return OpenSubgroup(gamma.space, union, tuple(tuple(r) for r in basis))


def _meet_preimage(basis, images, target_rows, image_dim: int):
    """HNF of {x in L : the image of x lies in L'}, for L the row lattice of
    a full-rank HNF ``basis`` (row j has its pivot in column j), images[r]
    the image of basis[r] under a linear map to Z^image_dim, and L' the row
    lattice of ``target_rows``, which must keep the intersection of full
    rank.

    Rows with a zero image lie in the preimage already; the others enter
    one kernel, whose heads are multiplied back into those rows.  Only the
    rows from the first moved pivot c on change, so ``hnf`` runs on that
    trailing block.  The rows above it stay reduced: a sublattice's pivots
    are multiples of the old ones, so the result is already in HNF.
    """
    dim = len(basis)
    moved = [j for j, img in enumerate(images) if any(img)]
    if not moved:
        return basis
    c = moved[0]
    tail = [basis[j][c:] for j in range(c, dim) if not any(images[j])]
    for combo in _preimage([images[j] for j in moved], target_rows, image_dim):
        vec = [0] * (dim - c)
        for a, j in zip(combo, moved):
            if a:
                vec = [v + a * x for v, x in zip(vec, basis[j][c:])]
        tail.append(vec)
    return basis[:c] + [[0] * c + r for r in lattices.hnf(tail, dim - c)]


class _GrowingCotrajectory:
    """C_F(gamma, U) as one HNF basis that grows along a net.

    ``advance(F)`` meets the basis with gamma(s)^{-1}(U) only for s new
    since the previous F, and starts over when the previous F is not inside
    F.  The basis always contains the modulus rows, so [K : C_F] is the
    product of its pivots.  ``gamma`` is an Action on a finite character
    group K (U a Subgroup) or a ProfiniteShiftAction (U an OpenSubgroup).
    On K^I an index gets a block of k unconstrained unit rows when a
    translated support first reaches it (``pos`` holds the first column of
    each block, in order of first appearance, and is the only record of
    which coordinates exist), so earlier rows stay valid and only the
    k |supp U| moved columns are constrained.
    """

    def __init__(self, gamma, u):
        self.gamma = gamma
        self.profinite = isinstance(gamma, ProfiniteShiftAction)
        if self.profinite:
            self.factors = gamma.space.base.factors
            self.support = u.support
            self.image_dim = len(u.support) * len(self.factors)
            # the moduli keep every intersection of full rank, whatever rows U lists
            moduli = _moduli_rows(self.factors * len(u.support))
            self.target = [list(r) for r in u.rows] + moduli
        elif isinstance(gamma.group, FiniteProduct):
            self.factors = gamma.group.factors
            self.target = u._flat()[1]
            self.image_dim = len(self.factors)
        else:
            raise GroupMismatchError("use a ProfiniteShiftAction on the dual of a direct sum")
        self._reset()

    def _reset(self):
        self.pos = {}
        d = 0 if self.profinite else len(self.factors)
        self.basis = [[int(i == j) for j in range(d)] for i in range(d)]
        self._done = frozenset()

    def advance(self, f_elements: frozenset):
        if not self._done <= f_elements:
            self._reset()
        for s in sorted(f_elements - self._done):
            images = self._images(s)  # before reading self.basis: it may grow
            self.basis = _meet_preimage(self.basis, images, self.target, self.image_dim)
        self._done = f_elements

    def _images(self, s):
        """The image of each basis row in the space of U's constraint rows;
        on K^I an index the moved support first reaches gets its block of
        unit rows."""
        n = self.factors
        if not self.profinite:
            apply = self.gamma.apply
            return [list(apply(s, tuple(v % m for v, m in zip(row, n)))) for row in self.basis]
        k = len(n)
        moved = self.gamma.translate_support(self.support, s)
        for i in moved:
            if i not in self.pos:
                d = self.pos[i] = len(self.basis)
                for row in self.basis:
                    row.extend([0] * k)
                self.basis.extend([int(j == d + t) for j in range(d + k)] for t in range(k))
        cols = [self.pos[i] + t for i in moved for t in range(k)]
        return [[row[c] for c in cols] for row in self.basis]

    def index(self) -> int:
        return lattices.lattice_index(self.basis, len(self.basis))


def _cotrajectory_indices(gamma, u, net: FolnerNet, prefix: int):
    """Yield (F_i, [K : C_{F_i}(gamma, U)]) for i = 1..prefix, from one
    accumulator along the net (it starts over wherever F_{i-1} is not
    inside F_i); on K^I the index is taken over the coordinates that some
    translate of U's support has reached, every other one being free."""
    acc = _GrowingCotrajectory(gamma, u)
    for i in range(1, prefix + 1):
        fi = net.subset(i)
        acc.advance(fi.elements)
        yield fi, acc.index()


def h_top_estimate(gamma, u, net: FolnerNet, prefix: int) -> IntegralEstimate:
    """Ratio table log [K : C_{F_i}(gamma, U)] / |F_i|.

    ``gamma`` is either an Action on a finite character group (with U a
    Subgroup) or a ProfiniteShiftAction on K^I (with U an OpenSubgroup),
    whose coordinates enter as translated supports first reach them.
    """
    est = IntegralEstimate("h_top")
    for i, (fi, index) in enumerate(_cotrajectory_indices(gamma, u, net, prefix), start=1):
        value = math.log(index)
        est.rows.append(IntegralRow(i, len(fi), value, value / len(fi)))
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
    return ProfiniteShiftAction(group, alpha.monoid), annihilator_window(group, b)


def bridge_check(alpha: Action, b: Subgroup, net: FolnerNet, prefix: int) -> BridgeReport:
    """Pair the subgroup seed with its annihilator and compare trajectory
    length against cotrajectory log-index at every net index, exactly."""
    gamma, u = _dual_pair(alpha, b)
    rows = []
    exact = True
    sides = zip(
        _trajectory_orders(alpha, b, net, prefix), _cotrajectory_indices(gamma, u, net, prefix)
    )
    for i, ((size, order), (_, index)) in enumerate(sides, start=1):
        exact = exact and order == index
        rows.append(BridgeRow(i, size, ell_of_order(order), ell_of_order(index)))
    return BridgeReport(rows, exact)


def subgroup_lattice(group: FiniteProduct):
    """Every subgroup of a small finite product, as (gens, elements) pairs.

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
    out = []
    for rows in forms:
        gens = tuple(g for row in rows if any(g := tuple(x % m for x, m in zip(row, n))))
        out.append((gens, Subgroup.generated(group, gens).elements()))
    return out


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
