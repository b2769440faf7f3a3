"""Monoid actions by endomorphisms, trajectories, and entropy estimates.

An action is defined by one endomorphism per canonical monoid generator;
group families additionally require the generators to be automorphisms.
Trajectory growth is computed exactly: for a finite seed set on Z under
one map x -> a x of N, |a| >= 2, along the box net by carry states, which
count the sumset without building it; for other finite seed sets as one
sumset along the net (on Z, runs of bits at least 2^12 zero bits apart while they
hold at most 64 bits per pair and, when there are several, 64 points per
run on average; tuples otherwise), and for subgroup seeds through one
modular echelon basis that grows along the net (exact big-integer orders),
which is what keeps the box-scale checks of the addition and vanishing
laws cheap.  On a box net where one shift by +-1 on K^(N) or K^(Z) is the
only generator that does not act as the identity, the basis follows the
seed's one-sided orbit until its state (the tail of the trajectory and
the seed's images, both moved back) repeats, or, when the shift's base
map is an automorphism, until the tail's order stops growing; from there
every count is the one before times a certified step ratio a, while the
budget still counts every element of every box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import itemgetter, mul

from . import lattices
from .abelian import (
    AbelianGroup,
    DirectSum,
    FiniteProduct,
    FiniteSubset,
    FreeZ,
    PercoordSubgroup,
    Subgroup,
    _moduli_rows,
    ell_of_order,
    quotient_group,
    subgroup_as_group,
)
from .errors import (
    BudgetExceededError,
    GroupMismatchError,
    MonoidMismatchError,
    NotInvariantError,
    UndecidableFamilyError,
)
from .folner import (
    DEFAULT_ELEMENT_BUDGET,
    FolnerNet,
    _counts_along,
    _is_box_net,
    _live_shells,
    box_net,
    translate_net,
)
from .integral import IntegralEstimate, IntegralRow, SetFunction
from .monoid import (
    MonoidHom,
    MSubset,
    SemidirectZZ,
)
from .tables import csv_table


# ---------------------------------------------------------------------------
# endomorphisms


class Endomorphism:
    group: AbelianGroup

    def apply(self, x):
        raise NotImplementedError

    def apply_set(self, xs: frozenset) -> frozenset:
        apply = self.apply
        return frozenset(apply(x) for x in xs)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        raise NotImplementedError

    def power(self, k: int) -> "Endomorphism":
        if k < 0:
            return self.inverse().power(-k)
        acc = identity_endo(self.group)
        base = self
        while k:
            if k & 1:
                acc = acc.compose(base)
            base = base.compose(base)
            k >>= 1
        return acc

    def inverse(self) -> "Endomorphism":
        raise NotImplementedError

    def is_automorphism(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class MatrixEndo(Endomorphism):
    """x -> M x on Z^r or on prod Z/n_i (columns must satisfy the order
    congruences M[i][j] * n_j = 0 mod n_i for the map to be well defined)."""

    group: AbelianGroup
    rows: tuple

    def __post_init__(self):
        k = len(self.rows)
        if isinstance(self.group, FiniteProduct):
            n = self.group.factors
            if k != len(n) or any(len(r) != len(n) for r in self.rows):
                raise GroupMismatchError("matrix shape does not match the group")
            for i in range(k):
                for j in range(k):
                    if (self.rows[i][j] * n[j]) % n[i]:
                        raise GroupMismatchError(
                            f"entry ({i},{j}) violates the order congruence"
                        )
        elif isinstance(self.group, FreeZ):
            if k != self.group.rank or any(len(r) != k for r in self.rows):
                raise GroupMismatchError("matrix shape does not match the group")
        else:
            raise GroupMismatchError("matrix endomorphisms act on flat groups")

    def apply(self, x):
        if isinstance(self.group, FiniteProduct):
            return tuple(sum(map(mul, r, x)) % m for r, m in zip(self.rows, self.group.factors))
        return tuple(sum(map(mul, r, x)) for r in self.rows)

    def apply_set(self, xs):
        if len(self.rows) == 1:
            a = self.rows[0][0]
            if isinstance(self.group, FiniteProduct):
                n = self.group.factors[0]
                return frozenset(((a * x[0]) % n,) for x in xs)
            return frozenset((a * x[0],) for x in xs)
        return frozenset(self.apply(x) for x in xs)

    def compose(self, other):
        if not isinstance(other, MatrixEndo) or other.group != self.group:
            raise GroupMismatchError("composition across different groups")
        k = len(self.rows)
        prod = tuple(
            tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(k)) for j in range(k))
            for i in range(k)
        )
        if isinstance(self.group, FiniteProduct):
            n = self.group.factors
            prod = tuple(
                tuple(prod[i][j] % n[i] for j in range(k)) for i in range(k)
            )
        return MatrixEndo(self.group, prod)

    def determinant_unit(self) -> bool:
        k = len(self.rows)
        return lattices.hnf(self.rows, k) == [list(_unit(k, j)) for j in range(k)]

    def is_automorphism(self):
        """Whether M is invertible on its group, worked out once per
        instance: the matrix is frozen, so the answer is kept beside it."""
        known = self.__dict__.get("_automorphism")
        if known is None:
            if isinstance(self.group, FreeZ):
                known = self.determinant_unit()
            else:
                k = len(self.group.factors)
                image = Subgroup.generated(self.group, [self.apply(_unit(k, j)) for j in range(k)])
                known = image.order() == self.group.order
            self.__dict__["_automorphism"] = known
        return known

    def inverse(self):
        if isinstance(self.group, FreeZ):
            inv = lattices.unimodular_inverse([list(r) for r in self.rows])
            return MatrixEndo(self.group, tuple(tuple(r) for r in inv))
        # column j of the inverse solves M x = e_j modulo the factor orders
        n = self.group.factors
        k = len(n)
        gens = [list(self.apply(_unit(k, j))) for j in range(k)] + _moduli_rows(n)
        cols = []
        for j in range(k):
            combo = lattices.express(gens, k, _unit(k, j))
            if combo is None:
                raise GroupMismatchError("endomorphism is not invertible")
            cols.append(combo[:k])
        rows = tuple(tuple(cols[j][i] % n[i] for j in range(k)) for i in range(k))
        return MatrixEndo(self.group, rows)


def _unit(k, j):
    return tuple(int(i == j) for i in range(k))


@dataclass(frozen=True)
class ShiftEndo(Endomorphism):
    """Index translation composed with a base endomorphism on a direct sum.

    The translation vector has one entry per index coordinate and is
    reduced at construction.  It translates by the index's own operation,
    so a finite index wraps around; over a one-sided index, coordinates
    whose translated index leaves it are annihilated (that is what makes
    one-sided truncating shifts locally nilpotent).
    """

    group: DirectSum
    shift: tuple
    base: MatrixEndo | None = None  # None = identity on the base

    def __post_init__(self):
        index = self.group.index
        if len(self.shift) != index.dim:
            raise GroupMismatchError(
                f"a shift of {index} needs {index.dim} entries, got {len(self.shift)}"
            )
        object.__setattr__(self, "shift", index.op(index.identity, self.shift))

    def apply(self, x):
        if self.base is None and not any(self.shift):
            return x
        # i -> i + shift is injective, so no two coordinates land together
        index, move = self.group.index, self.shift
        op, everywhere = index.op, index.is_group
        bapply = None if self.base is None else self.base.apply
        bzero = self.group.base.zero
        out = []
        for i, v in x:
            j = op(i, move)
            if everywhere or index.contains(j):
                w = v if bapply is None else bapply(v)
                if w != bzero:
                    out.append((j, w))
        return frozenset(out)

    def compose(self, other):
        if not isinstance(other, ShiftEndo) or other.group != self.group:
            raise GroupMismatchError("composition across different groups")
        # self after other: translations add; bases compose
        move = tuple(a + b for a, b in zip(self.shift, other.shift))
        if self.base is None:
            base = other.base
        elif other.base is None:
            base = self.base
        else:
            base = self.base.compose(other.base)
        return ShiftEndo(self.group, move, base)

    def is_automorphism(self):
        # a translation is a bijection of the index iff it is by a unit
        base_ok = self.base is None or self.base.is_automorphism()
        return self.group.index.is_unit(self.shift) and base_ok

    def inverse(self):
        if not self.is_automorphism():
            raise GroupMismatchError("shift endomorphism is not invertible")
        inv_base = None if self.base is None else self.base.inverse()
        return ShiftEndo(self.group, tuple(-a for a in self.shift), inv_base)


def identity_endo(group) -> Endomorphism:
    if isinstance(group, DirectSum):
        return ShiftEndo(group, (0,) * group.index.dim, None)
    if isinstance(group, (FreeZ, FiniteProduct)):
        k = group.rank if isinstance(group, FreeZ) else len(group.factors)
        return MatrixEndo(group, tuple(_unit(k, j) for j in range(k)))
    raise GroupMismatchError("identity endomorphisms act on flat groups and direct sums")


def scalar_endo(group, a: int) -> Endomorphism:
    """Multiplication by a."""
    if isinstance(group, FreeZ):
        k = group.rank
    elif isinstance(group, FiniteProduct):
        k = len(group.factors)
    else:
        raise GroupMismatchError("scalar endomorphisms act on flat groups")
    return MatrixEndo(group, tuple(tuple(a * int(i == j) for j in range(k)) for i in range(k)))


def shift_endo(group: DirectSum, move, base: MatrixEndo | None = None) -> ShiftEndo:
    return ShiftEndo(group, tuple(move), base)


# ---------------------------------------------------------------------------
# actions


class Action:
    """A left action by endomorphisms over a commutative acting monoid."""

    def __init__(self, monoid, group, gen_endos):
        if isinstance(monoid, SemidirectZZ):
            raise UndecidableFamilyError("semidirect acting monoids are not supported")
        self.monoid = monoid
        self.group = group
        self.gen_endos = tuple(gen_endos)
        self._cache = {}
        self._inverses = {}
        self._validate()

    def _validate(self):
        gens = self.monoid.generators()
        if len(gens) != len(self.gen_endos):
            raise MonoidMismatchError(
                f"need {len(gens)} generator endomorphisms, got {len(self.gen_endos)}"
            )
        for phi in self.gen_endos:
            if phi.group != self.group:
                raise GroupMismatchError("generator endomorphism on the wrong group")
        for i, phi in enumerate(self.gen_endos):
            for psi in self.gen_endos[i + 1:]:
                if phi.compose(psi) != psi.compose(phi):
                    raise MonoidMismatchError("generator endomorphisms must commute")
        if self.monoid.is_group:
            for phi in self.gen_endos:
                if not phi.is_automorphism():
                    raise MonoidMismatchError(
                        "group actions need invertible generator images"
                    )
        # generator j is coordinate j, of order k on a coordinate Z/k
        for k, phi in zip(self.monoid.coordinates, self.gen_endos):
            if isinstance(k, int) and phi.power(k) != identity_endo(self.group):
                raise MonoidMismatchError(
                    "generator image must respect the generator's order"
                )

    def endo(self, s) -> Endomorphism:
        """alpha(s), cached by exponent vector.  Nets add one generator step
        at a time, so a cached neighbour s - g_j (s + g_j for a negative
        exponent) gives alpha(s) with one compose; otherwise it is built
        from generator powers."""
        exponents = self.monoid.generator_exponents(s)
        cache = self._cache
        acc = cache.get(exponents)
        if acc is not None:
            return acc
        found = self._neighbour(exponents, cache.get)
        if found is not None:
            acc = found[0].compose(found[1])
        else:
            acc = identity_endo(self.group)
            for phi, k in zip(self.gen_endos, exponents):
                if k:
                    acc = acc.compose(phi.power(k))
        cache[exponents] = acc
        return acc

    def _neighbour(self, e, lookup):
        """(lookup(n), phi_j^step) for the first neighbour n = e - step e_j,
        step the sign of e_j != 0, that ``lookup`` finds (not None), else None.
        The acting monoid is commutative: alpha(e) is phi_j^step after alpha(n)."""
        for j, k in enumerate(e):
            if k:
                step = 1 if k > 0 else -1
                near = lookup(e[:j] + (k - step,) + e[j + 1 :])
                if near is not None:
                    return near, self._generator_step(j, step)

    def _generator_step(self, j, step):
        """phi_j for step 1, its inverse (computed once) for step -1."""
        if step > 0:
            return self.gen_endos[j]
        inv = self._inverses.get(j)
        if inv is None:
            inv = self._inverses[j] = self.gen_endos[j].inverse()
        return inv

    def apply(self, s, x):
        return self.endo(s).apply(x)

    def apply_set(self, s, xs: frozenset) -> frozenset:
        return self.endo(s).apply_set(xs)

    def __repr__(self):
        return f"Action({self.monoid} on {self.group})"


class ConjugatedAction(Action):
    """xi . alpha(eta^{-1}(t)) . xi^{-1}, for isomorphisms xi, eta."""

    def __init__(self, base_action, xi, eta):
        self.base_action = base_action
        self.xi = xi
        self.eta = eta
        self.monoid = eta.target
        self.group = xi.target
        self._cache = {}

    def endo(self, t):
        if t not in self._cache:
            inner = self.base_action.endo(self.eta.inv(t))
            self._cache[t] = _SandwichEndo(self.group, self.xi, inner)
        return self._cache[t]

    def _generator_step(self, j, step):
        g = self.monoid.generators()[j]
        return self.endo(g if step > 0 else self.monoid.inverse(g))


@dataclass(frozen=True)
class _SandwichEndo(Endomorphism):
    group: AbelianGroup
    xi: object
    inner: Endomorphism

    def apply(self, x):
        return self.xi.fwd(self.inner.apply(self.xi.inv(x)))

    def compose(self, other):
        raise UndecidableFamilyError("conjugated endomorphisms do not compose here")


@dataclass(frozen=True)
class GroupIso:
    source: AbelianGroup
    target: AbelianGroup
    fwd: object
    inv: object
    label: str = "iso"

    def __call__(self, x):
        return self.fwd(x)

    @classmethod
    def identity(cls, group):
        return cls(group, group, lambda x: x, lambda x: x, "id")

    @classmethod
    def negation(cls, group):
        return cls(group, group, group.neg, group.neg, "-id")

    @classmethod
    def from_matrix(cls, group, rows):
        endo = MatrixEndo(group, tuple(tuple(r) for r in rows))
        if not endo.is_automorphism():
            raise GroupMismatchError("matrix is not an automorphism")
        inv = endo.inverse()
        return cls(group, group, endo.apply, inv.apply, "matrix")

    def check(self, rng, trials=50, bound=5):
        for _ in range(trials):
            x = self.source.sample(rng, bound)
            y = self.source.sample(rng, bound)
            if self.fwd(self.source.add(x, y)) != self.target.add(self.fwd(x), self.fwd(y)):
                raise GroupMismatchError("map is not additive")
            if self.inv(self.fwd(x)) != x:
                raise GroupMismatchError("inverse does not invert")


@dataclass(frozen=True)
class MonoidIso:
    source: object
    target: object
    fwd: object
    inv: object
    label: str = "iso"

    @classmethod
    def identity(cls, monoid):
        return cls(monoid, monoid, lambda x: x, lambda x: x, "id")

    @classmethod
    def negation(cls, monoid):
        if not monoid.is_group:
            raise MonoidMismatchError("negation needs a group")
        return cls(monoid, monoid, monoid.inverse, monoid.inverse, "-id")


def conjugate_action(alpha: Action, xi: GroupIso, eta: MonoidIso) -> Action:
    """The weakly conjugated action beta with xi . alpha(s) = beta(eta(s)) . xi."""
    if xi.source != alpha.group or eta.source != alpha.monoid:
        raise GroupMismatchError("isomorphisms do not match the action")
    return ConjugatedAction(alpha, xi, eta)


# ---------------------------------------------------------------------------
# trajectories


def trajectory(
    alpha: Action, f_set: MSubset, x: FiniteSubset, budget: int = DEFAULT_ELEMENT_BUDGET
) -> FiniteSubset:
    """T_F(X): the Minkowski sum of the images alpha(s)(X) over s in F."""
    if f_set.monoid != alpha.monoid:
        raise MonoidMismatchError("F lives in a different monoid")
    if x.group != alpha.group:
        raise GroupMismatchError("X lives in a different group")
    if not x.elements:
        raise ValueError("the seed set must be nonempty")
    inc = _IncrementalTrajectory(alpha, x, budget)
    inc.advance(f_set)
    return FiniteSubset(alpha.group, inc.elements())


# Packing rules for set-seed sums on Z (see ``_IncrementalTrajectory``).
_BITS_PER_PAIR = 64  # packed bits allowed per pair x + y the tuple route would add
_FLOOR_PAIRS = 1 << 17  # pairs allowed whatever the count: 2^23 bits
_RUN_GAP = 1 << 12  # zero bits that keep two runs apart
_POINTS_PER_RUN = 64  # the least average a sum of several runs keeps packed


class _IncrementalTrajectory:
    """T_F(X) along a net, exploiting T_{F u D} = T_F + T_D: ``advance(F)``
    adds only the images alpha(s)(X) for s new since the previous F when
    that F lies inside this one, and starts over from T_empty = {0}
    otherwise.

    On Z the sum is a sorted list ``_runs`` of runs ``(start, bits,
    count)``: bit i of ``bits`` stands for the point ``start + i``, bit 0
    is set, and ``count`` is the popcount.  Consecutive runs lie at least
    2^12 zero bits apart.  Adding an image Y moves every run by every y by
    changing its start, ORs together only the pieces that overlap or lie
    less than 2^12 bits apart, and popcounts only the runs that merged.
    Merging only shrinks gaps and the first image is split at its points,
    so no run holds 2^12 zero bits in a row.  While the sum is one run and
    Y spans less than that run plus 2^12 bits, the sum stays one run, and
    adding Y is the OR of |Y| shifts of it.

    A sum whose runs would hold more than 64 bits per pair x + y that the
    tuple route would add (at most ``budget`` pairs counted, and 2^17 at
    least), or that has several runs averaging fewer than 64 points each,
    unpacks once and goes on with ``group.sumset``: the only route for
    sparse sets on Z and for every other group.  That route adds Y one
    translate T + y at a time and stops once the count passes the budget,
    so no step holds more than the budget plus one translate, and the runs
    never hold more than 64 bits per element of the budget, or 2^23 bits
    if that is more.
    """

    def __init__(self, alpha, x: FiniteSubset, budget):
        self.alpha = alpha
        self.x = x
        self.budget = budget
        self._packs = alpha.group == FreeZ(1)
        self._last_f = None
        self.reset()

    def reset(self):
        """Start over from T_empty = {0}."""
        self.count = 1
        if self._packs:
            self._set, self._runs = None, [(0, 1, 1)]
        else:
            self._set = frozenset([self.alpha.group.zero])

    def extend(self, added):
        """Add alpha(s)(X) for s in ``added``, in sorted order; raises
        ``BudgetExceededError`` carrying the element s whose image took the
        count past the budget."""
        for s in sorted(added):
            self._add(self.alpha.apply_set(s, self.x.elements))
            if self.count > self.budget:
                raise BudgetExceededError(
                    f"trajectory exceeded {self.budget} elements", completed=s
                )

    def advance(self, f_set: MSubset) -> int:
        """|T_F(X)|, extending the previous F when it lies inside F."""
        if self._last_f is not None and self._last_f <= f_set.elements:
            new = f_set.elements - self._last_f
        else:
            self.reset()
            new = f_set.elements
        self._last_f = None  # an unfinished advance leaves nothing to extend
        self.extend(new)
        self._last_f = f_set.elements
        return self.count

    def _add(self, img: frozenset):
        if self._set is None:
            runs = self._packed_sum([y for (y,) in img])
            if runs is not None:
                self._runs = runs
                self.count = sum(n for _, _, n in runs)
                sparse = len(runs) > 1 and self.count < _POINTS_PER_RUN * len(runs)
                if sparse and self.count <= self.budget:  # past it the sum is dropped
                    self._set = self.elements()
                return
            self._set = self.elements()
        old, sumset, out = self._set, self.alpha.group.sumset, set()
        for y in img:
            out.update(sumset(old, (y,)))
            if len(out) > self.budget:
                break
        self._set = frozenset(out)
        self.count = len(out)

    def _packed_sum(self, ys):
        """The runs of the sum plus the points ``ys``, or None when they
        would hold more bits than the pairs allow."""
        bound = _BITS_PER_PAIR * max(min(self.count * len(ys), self.budget), _FLOOR_PAIRS)
        runs, low, high = self._runs, min(ys), max(ys)
        if len(runs) == 1 and high - low < runs[0][1].bit_length() + _RUN_GAP:
            start, bits, _ = runs[0]
            if bits.bit_length() + high - low > bound:
                return None
            rest = iter(ys)
            acc = bits << (next(rest) - low)
            for y in rest:
                acc |= bits << (y - low)
            return [(start + low, acc, acc.bit_count())]
        pieces = sorted(((start + y, bits, n) for y in ys for start, bits, n in runs),
                        key=itemgetter(0))
        groups = []  # [start, end, pieces] of the runs to come
        for piece in pieces:
            start, bits, _ = piece
            end = start + bits.bit_length()
            if groups and start < groups[-1][1] + _RUN_GAP:
                groups[-1][1] = max(groups[-1][1], end)
                groups[-1][2].append(piece)
            else:
                groups.append([start, end, [piece]])
        if sum(end - start for start, end, _ in groups) > bound:
            return None
        return [group[0] if len(group) == 1 else _merge_pieces(group) for _, _, group in groups]

    def elements(self) -> frozenset:
        """The elements of the current T_F(X)."""
        if self._set is not None:
            return self._set
        out = []
        for start, bits, _ in self._runs:
            # the k-th one bit ends the k-th run of zeros, counting from bit 0
            zeros = bin(bits)[:1:-1].split("1")[:-1]
            out.extend((start - 1 + end,) for end in accumulate(len(z) + 1 for z in zeros))
        return frozenset(out)


def _merge_pieces(pieces):
    """One run from pieces (start, bits, count) sorted by start, ORed in
    pairs so that a long chain of pieces costs log(len) copies of each
    bit, not len."""
    while len(pieces) > 1:
        pairs = zip(pieces[::2], pieces[1::2])
        merged = [(a, x | (y << (b - a)), None) for (a, x, _), (b, y, _) in pairs]
        pieces = merged + pieces[len(merged) * 2:]
    start, bits, _ = pieces[0]
    return start, bits, bits.bit_count()


def _carry_scalar(alpha: Action, seed: FiniteSubset, net: FolnerNet):
    """The scalar a of the one generator x -> a x when ``_CarryTrajectory``
    counts the trajectories of the set seed along the net: a nonempty seed
    on Z, an action of N^1 whose generator is a 1x1 matrix with |a| >= 2,
    and a box net; else None."""
    if not (alpha.group == FreeZ(1) and seed.group == alpha.group and seed.elements
            and alpha.monoid.coordinates == ("N",) and _is_box_net(net)):
        return None
    phi = alpha._generator_step(0, 1)
    if isinstance(phi, MatrixEndo) and abs(phi.rows[0][0]) >= 2:
        return phi.rows[0][0]
    return None


class _CarryTrajectory:
    """|T_[0,n)(D)| for a set seed D on Z under x -> a x, |a| >= 2, without
    the sumset: the carry states of radix representations (Frougny, Math.
    Systems Theory 25, 1992).

    T_[0,n)(D) is V_n, where V_0 = {0} and V_n = D + a V_{n-1}.  For a
    finite K in Z, the sums d + k (d in D, k in K) that are r mod |a|
    give the points r + a (V_{n-1} + K_r) of V_n + K, where K_r =
    {(d + k - r) / a : d + k = r mod |a|}, so |V_n + K| is the sum over the
    residues met of |V_{n-1} + K_r|.  A state is such a K moved to min K =
    0, as a sorted tuple: a translate has the same counts.  The residues are
    read off the sums met, so a large |a| costs no more than a small one.
    States are expanded one depth at a time and each state's successors
    (state -> how many residues lead to it) are kept; with w_n(K) the
    number of paths of n steps from {0} to K, |V_n| = sum of w_n(K) |K|.
    Every state met at depth n has w_n >= 1, so the states there hold at
    most |V_n| points.  Each distinct sum d + k of a state of weight w adds
    w to the next count, so expanding a state stops as soon as its sums
    would take that count past the budget, which still counts elements:
    no depth meets more distinct sums than the budget.
    """

    def __init__(self, a: int, seed: FiniteSubset, budget):
        self.a = a
        self.digits = sorted(x for (x,) in seed.elements)
        self.budget = budget
        # (a, m) once the counts are certified to grow by a per step from m on
        self.limit = None
        self._next = {}  # state -> ((successor, residues leading to it), ...)

    def _successors(self, state, allowance):
        """((successor, residues leading to it), ...) for the state, kept
        once made; None, and nothing kept, when the state meets more than
        ``allowance`` distinct sums d + k."""
        out = self._next.get(state)
        if out is not None:
            return out
        a, modulus, buckets = self.a, abs(self.a), {}
        met = set()
        for k in state:
            for d in self.digits:
                s = d + k
                if s not in met:
                    if len(met) == allowance:
                        return None
                    met.add(s)
                    r = s % modulus
                    buckets.setdefault(r, []).append((s - r) // a)
        tally = {}
        for carries in buckets.values():
            low = min(carries)
            key = tuple(sorted(c - low for c in carries))
            tally[key] = tally.get(key, 0) + 1
        out = self._next[state] = tuple(tally.items())
        return out

    def counts_along(self, net: FolnerNet, prefix: int):
        """Yield (|F_i|, |T_{F_i}(D)|) for i = 1..prefix on the box net of
        N, F_i = [0, i); the first count past the budget raises
        ``BudgetExceededError`` naming s = i - 1, whose image took it
        there, and index i.  After the last index ``limit`` is set when the
        counts certify it (``_certified_limit``)."""
        weights, counts = {(0,): 1}, [1]
        for i in range(1, prefix + 1):
            step, count = {}, 0
            for state, w in weights.items():
                out = self._successors(state, (self.budget - count) // w)
                if out is None:
                    count = self.budget + 1
                else:
                    for nxt, ways in out:
                        step[nxt] = step.get(nxt, 0) + w * ways
                        count += w * ways * len(nxt)
                if count > self.budget:
                    raise BudgetExceededError(
                        f"trajectory exceeded {self.budget} elements", completed=(i - 1,), index=i
                    )
            weights = step
            counts.append(count)
            yield net.size(i), count
        self.limit = self._certified_limit(counts)

    def _certified_limit(self, counts):
        """(a, m) when c_{n+1} = a c_n for every n >= m, else None.  Once
        the states met are closed under successors, there are d of them and
        c_n = e M^n v for a d x d matrix M, so the c_n follow the recurrence
        of M's characteristic polynomial (Cayley-Hamilton), and so do the
        u_n = c_{n+1} - a c_n.  So d steps c_m..c_{m+d} of integer ratio a
        make u_n = 0 for every n >= m; m is the first step of the last run
        of such steps.  The states first met at the last index are not
        expanded, so they leave the states open; then d > last - m, as a
        state first met at depth j follows one first met at depth j - 1,
        and no certificate was due."""
        known = self._next
        if any(nxt not in known for out in known.values() for nxt, _ in out):
            return None
        last = len(counts) - 1
        a, rest = divmod(counts[last], counts[last - 1])
        if rest:
            return None
        m = last - 1
        while m and counts[m] == a * counts[m - 1]:
            m -= 1
        return (a, m) if last - m >= len(known) else None


def trajectory_function(
    alpha: Action, x: FiniteSubset, budget: int = DEFAULT_ELEMENT_BUDGET
) -> SetFunction:
    """The trajectory-length function F -> log |T_F(X)|.  Along a net it
    runs a fresh ``_IncrementalTrajectory`` fed the net's increments."""
    inc = _IncrementalTrajectory(alpha, x, budget)
    return SetFunction(
        alpha.monoid,
        lambda f: math.log(inc.advance(f)),
        f"traj({len(x)} pts)",
        probe=False,
        accumulator=partial(_LogTrajectory, alpha, x, budget),
    )


class _LogTrajectory:
    """log |T_F(X)| for the F fed to one ``_IncrementalTrajectory``."""

    def __init__(self, alpha, x: FiniteSubset, budget):
        self._inc = _IncrementalTrajectory(alpha, x, budget)
        self.reset, self.extend = self._inc.reset, self._inc.extend

    @property
    def count(self) -> float:
        return math.log(self._inc.count)


def subgroup_trajectory(alpha: Action, f_set: MSubset, b: Subgroup) -> Subgroup:
    """T_F(B) = <alpha(s)(B) : s in F>, with exact order."""
    if b.group != alpha.group:
        raise GroupMismatchError("subgroup lives in a different group")
    if not f_set.elements:
        return Subgroup.trivial(alpha.group)
    percoord = isinstance(b, PercoordSubgroup)
    if percoord and not alpha.group.index.is_group:
        raise UndecidableFamilyError("coordinatewise trajectories need full shift actions")
    gens = []
    for s in sorted(f_set.elements):
        psi, c = _on_base(alpha.endo(s), b)
        gens.extend(psi.apply(g) for g in c.gens)
    span = Subgroup.generated(c.group, gens)
    return Subgroup.percoord(alpha.group, span) if percoord else span


def _on_base(phi, b: Subgroup):
    """(psi, C) such that phi acts on B through psi on C.  A finitely
    generated B gives (phi, B).  For B = B0^(I), phi must be a shift, psi
    is its base map and C = B0: phi(B) = psi(B0)^(I) over a group index,
    and over any index phi(B) lies in B iff psi(B0) lies in B0."""
    if not isinstance(b, PercoordSubgroup):
        return phi, b
    if not isinstance(phi, ShiftEndo):
        raise UndecidableFamilyError("coordinatewise subgroups need shift actions")
    return (identity_endo(b.base.group) if phi.base is None else phi.base), b.base


class _EchelonWalk:
    """What both sides of the bridge share: one growing
    ``lattices.ModularEchelon`` fed a net's shells, each side with its own
    join or meet (``_walk``) and its own ``count``.  Its columns are one
    block of ``factors`` (the base K = prod Z/factors) on a finite product,
    and on a direct sum (``indexed``) one block per index of K^(I), which
    an index gets when it is first touched (``_column``), so earlier rows
    stay valid.

    ``extend(added)`` charges every element of ``added`` against
    ``budget`` and walks one element per new key: a generator that acts
    as the identity drops out (``_live_mask``), so elements with the same
    live exponents act alike, and each key is walked once per ``reset()``.
    ``counts_along`` feeds a net to it: a box net shell by shell with the
    identity generators pinned (``shell_counts``), or, for one live shift
    by +-1 on a direct sum over N or Z, along the shift's one-sided orbit
    (``_orbit_counts``, which sets ``limit``); any other net through
    ``folner._counts_along``.  Every route charges every element of every
    shell, restarts included, and the element that passes the budget is
    the one a walk of the whole shell by increasing l1 norm reaches.
    """

    def __init__(self, action, factors, indexed, budget):
        self.action = action
        self.factors = factors
        self.indexed = indexed
        self.budget = budget
        self.visited = 0
        # (a, m) once _orbit_counts has certified that each one-sided step
        # j >= m multiplies the count by a
        self.limit = None
        # _mask zeroes the exponents of identity generators; with any, _key
        # reads the live exponents of s
        self._mask = _live_mask(action)
        live = [j for j, on in enumerate(self._mask) if on]
        self._key = None
        if len(live) < len(self._mask):
            self._key = itemgetter(*live) if live else lambda e: ()
        self.reset()

    def reset(self):
        self._echelon = lattices.ModularEchelon()
        self._pos = {}  # index -> the first column of its block
        self._walked = set()  # the _key values walked since the reset
        if not self.indexed:
            self._add_block()

    def _column(self, i):
        """The first column of index i's block, added on first touch."""
        c = self._pos.get(i)
        if c is None:
            c = self._pos[i] = self._echelon.dim
            self._add_block()
        return c

    def counts_along(self, net: FolnerNet, prefix: int):
        """``_counts_along(self, net, prefix)``.  On a box net, one live
        shift by +-1 on a direct sum over N or Z walks its orbit
        (``_orbit_counts``), and any other action walks the live shells
        (``shell_counts``)."""
        if not _is_box_net(net):
            yield from _counts_along(self, net, prefix)
            return
        orbit = self._shift_orbit()
        if orbit is None:
            yield from self.shell_counts(net, prefix)
        else:
            yield from self._orbit_counts(net, prefix, *orbit)

    def shell_counts(self, net: FolnerNet, prefix: int):
        """``_counts_along(self, net, prefix)`` on a box net: shell i is
        walked as ``_live_shells`` gives it, with the identity generators'
        coordinates pinned to 0: one element for each new key, whose
        exponents are its masked exponents.  The boxes are nested, so no key
        of F_{i-1} comes again.  The budget still counts the whole shell,
        |F_i| - |F_{i-1}| from the windows' sides; with an identity
        generator the shell is built only to name the element where the
        budget runs out."""
        before = 0
        for i, size, shell in _live_shells(net, self._mask, prefix):
            self._charge_shell(net, i, size - before)
            self._walk({s: s for s in shell})
            before = size
            yield size, self.count

    def _shift_orbit(self):
        """(axis, phi) when generator ``axis`` alone is live, its map phi is
        a ShiftEndo by +1, or by -1 over a Z index, on a direct sum over a
        one-dimensional index N or Z, and coordinate ``axis`` of the acting
        monoid is N or phi is an automorphism; else None."""
        if sum(self._mask) != 1:
            return None
        axis = self._mask.index(1)
        phi = self.action._generator_step(axis, 1)
        if not isinstance(phi, ShiftEndo) or phi.group.index.coordinates not in (("N",), ("Z",)):
            return None
        if phi.shift != (1,) and not (phi.shift == (-1,) and phi.group.index.is_group):
            return None
        if self.action.monoid.coordinates[axis] == "N" or phi.is_automorphism():
            return axis, phi
        return None

    def _orbit_counts(self, net: FolnerNet, prefix: int, axis, phi):
        """``shell_counts`` for one live shift phi by sign = +-1 on K^(N) or
        K^(Z), through one monoid element j e_axis per step j.  Net index i
        holds step j, the length of side ``axis`` of F_i: i steps on N, and
        2i + 1 on Z, where the box [-i, i] counts as [0, 2i] since alpha(-i)
        is an automorphism.  Index t gets its block in the order of sign * t,
        from the first index of the ``support`` of step 0, so the blocks
        from column j k (k = len(factors)) hold the indices that step j
        reaches and the later ones.  The side's ``_stepper`` keys each step
        by a finite state and walks the step when its state is new; once
        the state of step j is that of step m < j, ``limit`` becomes (a, m),
        a = count_{m+1} / count_m, and every later count is the one before
        times a, with no more echelon work.  The budget is charged shell by
        shell as ``shell_counts`` charges it."""
        self.reset()
        self.limit = None
        places = [phi.shift[0] * t for (t,) in self.support]
        lo = min(places, default=0)
        width = max(places, default=lo - 1) - lo + 1  # 0 for an empty support
        step = self._stepper(axis, phi, lo, width)
        counts = [1]  # the count at every step walked or certified
        before = 0
        for i in range(1, prefix + 1):
            sides = net.monoid.sides(i)
            size = math.prod(map(len, sides))
            self._charge_shell(net, i, size - before)
            before = size
            n = len(sides[axis])
            while len(counts) <= n:
                if self.limit is not None:
                    counts.append(counts[-1] * self.limit[0])
                    continue
                j = len(counts) - 1
                while len(self._pos) < width + j:  # the indices up to the ones step j reaches
                    self._column((phi.shift[0] * (lo + len(self._pos)),))
                first = step(j)
                if first < j:
                    self.limit = (counts[first + 1] // counts[first], first)
                else:
                    counts.append(self.count)
            yield size, counts[n]

    def _charge_shell(self, net: FolnerNet, i: int, n: int):
        """``_charge`` the n elements of shell i of a box net, naming index i
        in a budget error."""
        if self.visited + n > self.budget:  # only then is the shell built
            try:
                self._charge(n, lambda: net.shell(i).elements)
            except BudgetExceededError as err:
                err.index = i
                raise
        self.visited += n

    def _charge(self, n, shell):
        """Count the n elements of the shell ``shell()`` as visited, or
        raise naming the one that passes the budget."""
        if self.visited + n > self.budget:
            exponents = self.action.monoid.generator_exponents
            order = sorted(shell(), key=lambda s: _l1_order(exponents(s)))
            raise BudgetExceededError(
                f"{self.name} visited more than {self.budget} monoid elements",
                completed=order[self.budget - self.visited],
            )
        self.visited += n

    def extend(self, added):
        self._charge(len(added), lambda: added)
        exponents = self.action.monoid.generator_exponents
        if self._key is None:
            fresh = {exponents(s): s for s in added}
        else:
            key, mask = self._key, self._mask
            reps = {key(exponents(s)): s for s in added}
            new = reps.keys() - self._walked
            self._walked |= new
            fresh = {tuple(map(mul, exponents(reps[k]), mask)): reps[k] for k in new}
        self._walk(fresh)


class _GrowingTrajectory(_EchelonWalk):
    """T_F(alpha, B) for a finitely generated seed B of a FiniteProduct or
    DirectSum; ``count`` is |T_F|.  ``_walk`` joins the images alpha(s)(g)
    of the seed generators g for each key, by increasing l1 norm.  The
    acting monoid is commutative, so alpha(s)(g) = phi_j^{+-1}(alpha(s -+
    e_j)(g)): a key takes its images from a neighbour key in the previous
    or the current shell with one generator step (``Action._neighbour``,
    as ``Action.endo`` does), and only a key with no such neighbour builds
    alpha(s); on box nets only the identity builds one.  An image already
    met in either shell is not inserted again.
    """

    name = "subgroup trajectory"  # the side a budget error names

    def __init__(self, alpha: Action, seed: Subgroup, budget=DEFAULT_ELEMENT_BUDGET):
        self.seed = seed
        group = alpha.group
        indexed = isinstance(group, DirectSum)
        super().__init__(alpha, group.base.factors if indexed else group.factors, indexed, budget)

    def reset(self):
        super().reset()
        self._images = {}  # masked exponents -> seed images, new in the current shell
        self._before = {}  # the same for the previous shell that had new keys
        self._seen, self._seen_before = set(), set()  # images met in those shells

    def _add_block(self):
        self._echelon.add_columns(self.factors)

    @property
    def support(self):
        """The indices that the seed generators touch."""
        return {i for x in self.seed.gens for i, _ in x}

    def _stepper(self, axis, phi, lo, width):
        """Step j of the seed's orbit: T_j is spanned by B_t = phi^t(B) for
        t < j, so the rows from column j k span the tail R_j of T_j, its part
        on the indices that B_j reaches and later ones, moved back j places.
        The state (R_j, B'_j), B'_j the seed images moved back j places,
        fixes a_j = |T_{j+1}| / |T_j| = |B_j| / |B_j meet R_j| and the state
        after it.  So once the state met at step m comes again, the a_j
        repeat from m on; each divides the one before (Dikranjan, Goldsmith,
        Salce and Zanardo, Trans. AMS 361, 2009), so they all equal a_m.

        When phi's base map psi is the identity or an automorphism of K
        (``_base_is_automorphism``), m is the first step j with |R_{j+1}| =
        |R_j|, read off the pivots (``ModularEchelon.order(j k)``).  With
        Psi = psi on every coordinate and G(X) = X meet K^[1,oo) moved back
        one place, R_{j+1} = G(R_j + B'_j) and B'_j = Psi^j(B'_0).  Psi is
        an automorphism, so it keeps meets and commutes with G, and S_j =
        Psi^{-j}(R_j) follows S_{j+1} = Psi^{-1}(G(S_j + B'_0)): a monotone
        map from S_0 = 0, so the S_j grow until their first fixed point f,
        and as |S_j| = |R_j|, f is the first step where the tail's order
        stops growing.  From f on the state is Psi^{j-f} of the state at f,
        so a_j = a_f; before f the orders grow strictly, so no earlier state
        comes again, and f is the m that the repeat rule below finds.  The
        S_j form a chain of subgroups of K^(w-1), w the width of the seed's
        support, so the walk takes at most one step per link of the
        longest such chain, plus one.  Any other base keys step j by the
        Hermite form of R_j and the images B'_j, and m is the first step
        whose state comes again."""
        sign, k, echelon = phi.shift[0], len(self.factors), self._echelon
        images = list(self.seed.gens)
        tails = [] if _base_is_automorphism(phi) else None  # |R_j| for every step j walked
        states = {}  # state key -> the first step it was met at, on any other base

        def step(j):
            nonlocal images
            if tails is not None:
                tails.append(echelon.order(j * k))
                if j and tails[j] == tails[j - 1]:
                    return j - 1
            else:
                moved = tuple(frozenset((sign * t - j, v) for (t,), v in x) for x in images)
                first = states.setdefault((tuple(map(tuple, echelon.basis(j * k))), moved), j)
                if first < j:
                    return first
            for x in images:
                if x:
                    echelon._insert(self._flat(x))
            images = [phi.apply(x) for x in images]
            return j

        return step

    def _walk(self, fresh):
        """Insert the seed images of the keys in ``fresh`` (masked
        exponents -> an element with them), by increasing l1 norm."""
        if not fresh:
            return
        self._before, self._images = self._images, {}
        self._seen_before, self._seen = self._seen, set()
        seen, seen_before = self._seen, self._seen_before
        insert = self._echelon._insert
        for e in sorted(fresh, key=_l1_order):
            images = self._images[e] = self._seed_images(e, fresh[e])
            for x in images:
                if x not in seen:
                    seen.add(x)
                    if x not in seen_before:
                        insert(self._flat(x, grow=True))

    def _seed_images(self, e, s):
        found = self.action._neighbour(e, lambda n: self._images.get(n, self._before.get(n)))
        if found is not None:
            images, phi = found
            return [phi.apply(x) for x in images]
        endo = self.action.endo(s)
        return [endo.apply(g) for g in self.seed.gens]

    def _flat(self, x, grow=False):
        """Column -> coordinate of x reduced mod the column's modulus, zeros
        left out, or None when x leaves the columns (grow=False)."""
        if not self.indexed:
            return {j: r for j, (a, m) in enumerate(zip(x, self.factors)) if (r := a % m)}
        flat = {}
        for i, v in x:
            c = self._column(i) if grow else self._pos.get(i)
            if c is None:
                return None
            for a, m in zip(v, self.factors):
                if r := a % m:
                    flat[c] = r
                c += 1
        return flat

    @property
    def count(self) -> int:
        return self._echelon.order()

    def contains(self, x) -> bool:
        flat = self._flat(x)
        return flat is not None and self._echelon.contains(flat)


def _base_is_automorphism(phi: ShiftEndo) -> bool:
    """Whether the base map of the shift phi is the identity or an
    automorphism of K."""
    return phi.base is None or phi.base.is_automorphism()


def _live_mask(action) -> tuple:
    """1 for each generator of the action (an Action, or a
    ProfiniteShiftAction) that does not act as the identity, 0 for each
    that does."""
    steps = (action._generator_step(j, 1) for j in range(len(action.monoid.coordinates)))
    return tuple(int(phi != identity_endo(phi.group)) for phi in steps)


def _l1_order(e):
    return sum(map(abs, e)), e


def _subgroup_accumulator(alpha: Action, seed: Subgroup, budget=DEFAULT_ELEMENT_BUDGET):
    """The growing trajectory of a finite subgroup seed.  A coordinatewise
    seed over a finite index becomes the finitely generated subgroup it
    equals; a seed of infinite order has no entropy and is refused."""
    group = alpha.group
    if seed.group != group:
        raise GroupMismatchError("subgroup lives in a different group")
    if not isinstance(group, (FiniteProduct, DirectSum)):
        raise GroupMismatchError(
            "subgroup seeds need a finite product or a direct sum; a free group's only finite subgroup is {0}"
        )
    if isinstance(seed, PercoordSubgroup):
        if seed.order() == math.inf:
            raise UndecidableFamilyError("a coordinatewise seed over an infinite index has infinite order")
        index = sorted(group.index.window(1).elements)
        seed = Subgroup.generated(group, [group.basis_vector(i, g) for i in index for g in seed.base.gens])
    return _GrowingTrajectory(alpha, seed, budget)


# ---------------------------------------------------------------------------
# entropy estimates


@dataclass
class EntropyEstimate:
    """Ratio table of log |T_{F_i}(X)| / |F_i| for one seed along one net."""

    estimate: IntegralEstimate
    counts: list
    seed_label: str
    net_label: str
    # (a, m): from one-sided step m on, each step of a certified shift
    # orbit, or of a certified carry-state count, multiplies the count by a
    # (``_GrowingTrajectory.limit``, ``_CarryTrajectory.limit``)
    limit: tuple | None = None

    @property
    def tail(self):
        return self.estimate.tail

    @property
    def oscillation(self):
        return self.estimate.oscillation

    def to_csv(self) -> str:
        rows = (
            [row.index, row.size, count, repr(float(row.ratio))]
            for row, count in zip(self.estimate.rows, self.counts)
        )
        return csv_table("index,size,count,ratio", rows)


def h_alg_estimate(
    alpha: Action,
    seed,
    net: FolnerNet,
    prefix: int,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> EntropyEstimate:
    """Entropy ratio table for a finite seed set or a subgroup seed.

    A subgroup seed must be a finite subgroup of a finite product or a
    direct sum (a coordinatewise one needs a finite index); any other is
    refused before anything is counted.  Its trajectory grows one modular
    echelon basis (orders stay exact even when they are astronomically
    large), and the budget bounds the monoid elements it visits.

    A set seed on Z under an action of N^1 whose generator is x -> a x,
    |a| >= 2 (a scalar or 1x1 matrix), along the box net [0, n), is counted
    by carry states (``_CarryTrajectory``): a state is a finite K in Z
    moved to min K = 0, |V_n + K| is the sum of |V_{n-1} + K_r| over the
    residues r mod |a| that the sums d + k meet, and the counts are
    exact integers, so the table is the one the sumset gives.  The budget
    still bounds the count: the first index whose count passes it raises,
    naming s = i - 1 and index i, as the sumset does.  Once the states met
    are closed under successors (d of them) and the counts end in d steps
    or more of one integer ratio a, ``limit`` is (a, m), m the first step
    of that run.  Any other set seed grows one sumset along the net, and
    the budget bounds its size.  On Z the sumset is a sorted list of
    runs of bits, at least 2^12 zero bits apart, each counted by popcount
    when it changes.  No tuple is made unless the runs would hold more than
    64 bits per pair x + y the tuple route would add, or several runs
    average fewer than 64 points each (see ``_IncrementalTrajectory``).
    Sumsets and subgroup seeds are fed ``net.increments``, except a subgroup seed on a box net
    (``_EchelonWalk.counts_along``): it walks the live shells, or,
    for one live shift by +-1 on K^(N) or K^(Z), the seed's one-sided
    orbit until its state repeats (on a base map that is an automorphism,
    until the order of the trajectory's tail stops growing), and then
    keeps (a, m) as ``limit``: from one-sided step m on each step
    multiplies the count by a, so h = log a per step.  On a nested net |F_i| is the running sum of its shell
    sizes, and a subgroup seed's budget counts every element of every shell.
    """
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    acc = None
    if isinstance(seed, Subgroup):
        acc = _subgroup_accumulator(alpha, seed, budget)
        along = acc.counts_along(net, prefix)
        seed_label = "subgroup"
    elif isinstance(seed, FiniteSubset):
        a = _carry_scalar(alpha, seed, net)
        if a is None:
            along = _counts_along(_IncrementalTrajectory(alpha, seed, budget), net, prefix)
        else:
            acc = _CarryTrajectory(a, seed, budget)
            along = acc.counts_along(net, prefix)
        seed_label = f"set({len(seed)})"
    else:
        raise GroupMismatchError("seed must be a FiniteSubset or a Subgroup")
    est = IntegralEstimate("h_alg")
    counts = []
    for i, (size, count) in enumerate(along, start=1):
        counts.append(count)
        value = ell_of_order(count)
        est.rows.append(IntegralRow(i, size, value, value / size))
    return EntropyEstimate(est, counts, seed_label, net.label,
                           None if acc is None else acc.limit)


@dataclass
class GeneratorCertificate:
    window_scale: int
    monoid_scale: int
    covered: bool


@dataclass
class EntReport:
    """Entropy over finite subgroups: certified value or flagged lower bound."""

    value: float
    certified: bool
    estimate: EntropyEstimate
    certificate: GeneratorCertificate | None
    note: str = ""


def _window_certificate(alpha, seed: Subgroup, scale: int):
    """Check that the full trajectory of the seed exhausts the torsion part
    over a bounded window: the window's generators must land in T_F(seed)
    for a matching monoid window F.  T_F is a subgroup, so it then holds
    every window element, and none is enumerated."""
    group = alpha.group
    if isinstance(group, FiniteProduct):
        targets = Subgroup.full(group).gens
    elif isinstance(group, DirectSum):
        units = Subgroup.full(group.base).gens
        targets = [
            group.basis_vector(i, u)
            for i in sorted(group.index.window(scale).elements)
            for u in units
        ]
    else:
        raise GroupMismatchError("certificates need torsion groups")
    acc = _subgroup_accumulator(alpha, seed)
    last = 4 * scale + 4
    # the windows are the nested boxes
    for m_scale, _ in enumerate(acc.shell_counts(box_net(alpha.monoid), last), start=1):
        if m_scale >= scale and all(acc.contains(x) for x in targets):
            return GeneratorCertificate(scale, m_scale, True)
    return GeneratorCertificate(scale, last, False)


def ent_estimate(
    alpha: Action,
    generator_subgroup: Subgroup | None,
    family,
    net: FolnerNet,
    prefix: int,
    cert_scale: int = 1,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> EntReport:
    """Entropy over finite subgroups.

    With a generating subgroup (plus a window certificate that its full
    trajectory exhausts the torsion part), the single estimate is the
    entropy.  Otherwise the max over the supplied family is returned,
    flagged as a lower bound.
    """
    if not alpha.group.is_torsion:
        raise GroupMismatchError("subgroup entropy needs a torsion group")
    if generator_subgroup is not None:
        cert = _window_certificate(alpha, generator_subgroup, cert_scale)
        est = h_alg_estimate(alpha, generator_subgroup, net, prefix, budget)
        note = "" if cert.covered else "window certificate failed; value is a lower bound"
        return EntReport(est.tail, cert.covered, est, cert, note)
    if not family:
        raise ValueError("supply a generator subgroup or a family of subgroups")
    best = None
    for b in family:
        est = h_alg_estimate(alpha, b, net, prefix, budget)
        if best is None or est.tail > best.tail:
            best = est
    return EntReport(best.tail, False, best, None, "max over supplied family (lower bound)")


# ---------------------------------------------------------------------------
# restriction / quotient / addition


def restriction(alpha: Action, embed: MonoidHom) -> Action:
    """The action of the embedded submonoid: t -> alpha(embed(t))."""
    if embed.target != alpha.monoid:
        raise MonoidMismatchError("embedding does not land in the acting monoid")
    endos = [alpha.endo(embed(g)) for g in embed.source.generators()]
    return Action(embed.source, alpha.group, endos)


def _check_invariant(alpha: Action, b: Subgroup):
    for k, phi in enumerate(alpha.gen_endos):
        psi, c = _on_base(phi, b)
        for g in c.gens:
            if not c.contains(psi.apply(g)):
                raise NotInvariantError(
                    "generator image escapes the subgroup", generator=k, element=g
                )


def _matrix_of(group, column) -> MatrixEndo:
    """The matrix endomorphism of a flat group whose j-th column is
    column(e_j)."""
    k = len(group.factors) if isinstance(group, FiniteProduct) else group.rank
    cols = [column(_unit(k, j)) for j in range(k)]
    return MatrixEndo(group, tuple(tuple(col[i] for col in cols) for i in range(k)))


def _induced(phi, target, up, down) -> Endomorphism:
    """x -> down(phi(up(x))) on ``target``, for homomorphisms ``up`` into
    phi's group and ``down`` back.  A flat target takes its matrix.  On a
    direct-sum target phi is a shift, and up and down act coordinate by
    coordinate; the induced map is phi's shift with the base map that up,
    phi's base and down give at one index."""
    if not isinstance(target, DirectSum):
        return _matrix_of(target, lambda e: down(phi.apply(up(e))))
    if phi.base is None:
        return ShiftEndo(target, phi.shift)
    i, source = target.index.identity, phi.group

    def at_i(f, src, dst):
        return lambda v: dict(f(src.basis_vector(i, v))).get(i, dst.base.zero)

    up_i, down_i = at_i(up, target, source), at_i(down, source, target)
    base = _matrix_of(target.base, lambda e: down_i(phi.base.apply(up_i(e))))
    return ShiftEndo(target, phi.shift, base)


def quotient_and_sub_actions(alpha: Action, b: Subgroup):
    """(alpha_B, alpha_{A/B}, context) for an invariant subgroup B.

    The context carries the presentation of B and the quotient projection,
    so callers can translate seeds between the three groups.
    """
    if b.group != alpha.group:
        raise GroupMismatchError("subgroup lives in a different group")
    _check_invariant(alpha, b)
    b_group, embed, express = subgroup_as_group(b)
    q_group, proj = quotient_group(alpha.group, b)
    sub_endos = [_induced(phi, b_group, embed, express) for phi in alpha.gen_endos]
    quo_endos = [_induced(phi, q_group, proj.section, proj) for phi in alpha.gen_endos]
    sub_action = Action(alpha.monoid, b_group, sub_endos)
    quo_action = Action(alpha.monoid, q_group, quo_endos)
    context = {
        "b_group": b_group,
        "embed": embed,
        "express": express,
        "quotient": q_group,
        "projection": proj,
    }
    return sub_action, quo_action, context


@dataclass
class AdditionReport:
    total: EntReport
    sub: EntReport
    quotient: EntReport
    exact_at_every_index: bool

    @property
    def residual(self) -> float:
        return abs(self.total.value - self.sub.value - self.quotient.value)


def addition_check(
    alpha: Action,
    b: Subgroup,
    net: FolnerNet,
    prefix: int,
    seed_total: Subgroup,
    seed_sub: Subgroup,
    seed_quotient: Subgroup,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> AdditionReport:
    """Entropy additivity over an invariant subgroup, with the per-index
    integer identity |T(A-seed)| = |T(B-seed)| * |T(Q-seed)| checked exactly
    whenever it holds.  The budget bounds each of the three estimates."""
    sub_action, quo_action, _ = quotient_and_sub_actions(alpha, b)
    total = ent_estimate(alpha, seed_total, None, net, prefix, budget=budget)
    sub = ent_estimate(sub_action, seed_sub, None, net, prefix, budget=budget)
    quo = ent_estimate(quo_action, seed_quotient, None, net, prefix, budget=budget)
    exact = all(
        t == s * q
        for t, s, q in zip(total.estimate.counts, sub.estimate.counts, quo.estimate.counts)
    )
    return AdditionReport(total, sub, quo, exact)


# ---------------------------------------------------------------------------
# local nilpotency probe


@dataclass
class NilpotencyReport:
    annihilator: object  # the monoid element found, or None
    tail: float | None
    note: str = ""


def locally_nilpotent_probe(
    alpha: Action, x: FiniteSubset, net: FolnerNet, prefix: int, window_scale: int = 6
) -> NilpotencyReport:
    """Search a window for s annihilating X; if found, the entropy tail
    along the right-translated net F_i s is reported (it vanishes)."""
    if alpha.monoid.is_group:
        return NilpotencyReport(None, None, "no group admits a weakly locally nilpotent action")
    zero = alpha.group.zero
    if all(v == zero for v in x.elements):
        return NilpotencyReport(alpha.monoid.identity, 0.0, "seed is zero")
    for s in sorted(alpha.monoid.window(window_scale).elements):
        if all(alpha.apply(s, v) == zero for v in x.elements):
            shift = MSubset(alpha.monoid, frozenset({s}))
            est = h_alg_estimate(alpha, x, translate_net(net, shift), prefix)
            return NilpotencyReport(s, est.tail)
    return NilpotencyReport(None, None, f"no annihilator in window {window_scale}")
