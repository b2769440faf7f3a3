"""The subadditive integral: averaged limits f(F_i)/|F_i| along a net.

The class of admissible functions (increasing, subadditive, left
subinvariant, bounded on singletons) is sampled, not proved; the limit
itself exists by the subadditive convergence theorem for cancellative
amenable semigroups, so an estimate reports the ratio table, its tail
value, and the tail oscillation instead of pretending to certify a limit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

from .errors import MonoidMismatchError
from .folner import DEFAULT_ELEMENT_BUDGET, FolnerNet, _counts_along, kernel_box_net
from .monoid import MonoidHom, MSubset, Section, set_product
from .tables import csv_table


class SetFunction:
    """Memoized nonnegative function on the finite subsets of a monoid.

    ``accumulator``, when given, makes an accumulator that follows f along
    a net (see ``SetFunction.accumulator``) without the evaluator."""

    def __init__(self, monoid, evaluator, label="f", probe=True, accumulator=None):
        self.monoid = monoid
        self._evaluator = evaluator
        self.label = label
        self._memo = {}
        self._accumulator = accumulator
        if probe:
            one = MSubset(monoid, frozenset({monoid.identity}))
            if evaluator(one) < 0:
                raise ValueError(f"{label} is negative on the singleton identity")

    def __call__(self, f_set: MSubset) -> float:
        if f_set.monoid != self.monoid:
            raise MonoidMismatchError(f"{self.label} expects subsets of {self.monoid}")
        key = f_set.sorted_key()
        if key not in self._memo:
            self._memo[key] = self._evaluate(f_set)
        return self._memo[key]

    def _evaluate(self, f_set: MSubset) -> float:
        """f at ``f_set`` from the evaluator, past the memo."""
        value = self._evaluator(f_set)
        if value < 0:
            raise ValueError(f"{self.label} is negative on {f_set.sorted_key()[:4]}...")
        return value

    def accumulator(self):
        """A new accumulator for f, holding the empty set: ``reset()``
        empties it, ``extend(added)`` adds elements, and ``count`` is f at
        the set it holds (the protocol of ``folner._counts_along``)."""
        return self._accumulator() if self._accumulator else _Scratch(self)

    def __repr__(self):
        return f"SetFunction({self.label})"


class _Scratch:
    """Any f along a net: the set held is passed to f's evaluator after each
    extension, and not memoized, since a running set seldom comes again."""

    def __init__(self, f: SetFunction):
        self._f = f
        self.reset()

    def reset(self):
        self._set = frozenset()

    def extend(self, added):
        self._set = self._set | added if self._set else frozenset(added)
        self.count = self._f._evaluate(MSubset(self._f.monoid, self._set))


class _Sized:
    """f(F) = value(|F|), from the running size alone."""

    def __init__(self, value):
        self._value = value
        self.reset()

    def reset(self):
        self._size = 0

    def extend(self, added):
        self._size += len(added)

    @property
    def count(self):
        return self._value(self._size)


class _Image:
    """|pi(F)|, with pi(F) extended by the image of each increment."""

    def __init__(self, pi: MonoidHom):
        self._pi = pi
        self.reset()

    def reset(self):
        self._image = set()

    def extend(self, added):
        self._image.update(map(self._pi, added))

    @property
    def count(self) -> int:
        return len(self._image)


def card(monoid) -> SetFunction:
    return SetFunction(monoid, len, "card", accumulator=partial(_Sized, int))


def constant(monoid, a) -> SetFunction:
    if a < 0:
        raise ValueError("constant must be nonnegative")
    return SetFunction(monoid, lambda f: a, f"const({a})", accumulator=partial(_Sized, lambda n: a))


def card_pi(pi: MonoidHom) -> SetFunction:
    """F -> |pi(F)|; its integral is 1/|kernel| on supported families."""
    return SetFunction(
        pi.source, lambda f: len(pi.apply_set(f)), "card_pi", accumulator=partial(_Image, pi)
    )


class _Shifted:
    """f^E along a net: holds X E, and passes f's own accumulator only the
    products x e that are new, so X E is never rebuilt from all of X."""

    def __init__(self, f: SetFunction, e: MSubset):
        self._acc = f.accumulator()
        self._op = f.monoid.op
        self._e = tuple(e.elements)
        self.reset()

    def reset(self):
        self._acc.reset()
        self._held = set()

    def extend(self, added):
        op = self._op
        new = {op(x, y) for x in added for y in self._e}
        new -= self._held
        self._held |= new
        self._acc.extend(new)

    @property
    def count(self):
        return self._acc.count


def shifted(f: SetFunction, e: MSubset) -> SetFunction:
    """The shift f^E : X -> f(X E).  f's own memo is passed by: the shift
    keeps its values by X, and X E is a running set along a net."""
    if e.monoid != f.monoid:
        raise MonoidMismatchError("shift set lives in a different monoid")
    return SetFunction(
        f.monoid,
        lambda x: f._evaluate(set_product(x, e)),
        f"{f.label}^E",
        probe=False,
        accumulator=partial(_Shifted, f, e),
    )


@dataclass
class IntegralRow:
    index: int
    size: int
    value: float
    ratio: float


@dataclass
class IntegralEstimate:
    """Ratio table f(F_i)/|F_i| with the tail value and tail oscillation."""

    label: str
    rows: list = field(default_factory=list)

    @property
    def tail(self) -> float:
        return self.rows[-1].ratio

    @property
    def oscillation(self) -> float:
        back = self.rows[-max(1, len(self.rows) // 4):]
        ratios = [r.ratio for r in back]
        return max(ratios) - min(ratios)

    def ratios(self):
        return [r.ratio for r in self.rows]

    def to_csv(self) -> str:
        rows = ([r.index, r.size, repr(float(r.value)), repr(float(r.ratio))] for r in self.rows)
        return csv_table("index,size,value,ratio", rows)


def integral(f: SetFunction, net: FolnerNet, prefix: int,
             budget: int = DEFAULT_ELEMENT_BUDGET) -> IntegralEstimate:
    """Evaluate the ratio table over the first ``prefix`` net indices.

    f follows the net's increments through ``f.accumulator()``, so on a
    nested net card, constant, card_pi, trajectory functions and their
    shifts never build an F_i.  An F_i of more than ``budget`` elements
    raises ``BudgetExceededError`` naming i, before it is built on a net
    that knows its sizes."""
    if prefix < 2:
        raise ValueError("prefix must be >= 2")
    if net.monoid != f.monoid:
        raise MonoidMismatchError(f"{f.label} expects subsets of {f.monoid}")
    est = IntegralEstimate(f.label)
    for i, (size, value) in enumerate(_counts_along(f.accumulator(), net, prefix, budget), start=1):
        value = float(value)
        est.rows.append(IntegralRow(i, size, value, value / size))
    return est


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple
    values: tuple


@dataclass
class AxiomReport:
    seed: int
    trials: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def sample_axioms(f: SetFunction, monoid, trials: int, window: int, seed: int = 0) -> AxiomReport:
    """Randomized check of the admissibility axioms, with witnesses.

    Verifies, on random subsets of the canonical window: monotonicity,
    subadditivity, left subinvariance f(sF) <= f(F), and the singleton
    bound f({s}) <= f({1}).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    pool = sorted(monoid.window(window).elements)
    report = AxiomReport(seed, trials, [])
    tol = 1e-9
    one = MSubset(monoid, frozenset({monoid.identity}))
    f_one = f(one)
    for _ in range(trials):
        f1 = MSubset(monoid, frozenset(rng.sample(pool, rng.randint(1, min(5, len(pool))))))
        f2 = MSubset(monoid, frozenset(rng.sample(pool, rng.randint(1, min(5, len(pool))))))
        s = pool[rng.randrange(len(pool))]
        union = f1.union(f2)
        v1, v2, vu = f(f1), f(f2), f(union)
        if vu > v1 + v2 + tol:
            report.violations.append(AxiomViolation("subadditive", (f1, f2), (v1, v2, vu)))
        if v1 > vu + tol:
            report.violations.append(AxiomViolation("increasing", (f1, union), (v1, vu)))
        moved = MSubset(monoid, frozenset(monoid.op(s, x) for x in f1.elements))
        vm = f(moved)
        if vm > v1 + tol:
            report.violations.append(AxiomViolation("left-subinvariant", (s, f1), (vm, v1)))
        vs = f(MSubset(monoid, frozenset({s})))
        if vs > f_one + tol:
            report.violations.append(AxiomViolation("singleton-bound", (s,), (vs, f_one)))
    return report


def theta(
    f: SetFunction,
    pi: MonoidHom,
    sigma: Section,
    y: MSubset,
    n_net: FolnerNet | None,
    prefix: int,
) -> float:
    """The kernel average at Y: the integral of f^{sigma(Y)} over N."""
    if n_net is None:
        n_net = kernel_box_net(pi)
    lifted = sigma.apply_set(y)
    return integral(shifted(f, lifted), n_net, prefix).tail


def theta_function(
    f: SetFunction, pi: MonoidHom, sigma: Section, n_net: FolnerNet | None, prefix: int
) -> SetFunction:
    """The transform of f as a set function on the quotient monoid."""
    if n_net is None:
        n_net = kernel_box_net(pi)
    return SetFunction(
        pi.target,
        lambda y: theta(f, pi, sigma, y, n_net, prefix),
        f"theta({f.label})",
        probe=False,
    )


@dataclass
class FubiniReport:
    left: IntegralEstimate       # integral of f over S
    right: IntegralEstimate      # integral of theta over C
    c_prefix: int
    n_prefix: int

    @property
    def difference(self) -> float:
        return abs(self.left.tail - self.right.tail)


def fubini_check(
    f: SetFunction,
    pi: MonoidHom,
    sigma: Section,
    s_net: FolnerNet,
    c_net: FolnerNet,
    n_net: FolnerNet | None,
    prefix: int,
    c_prefix: int | None = None,
    n_prefix: int | None = None,
) -> FubiniReport:
    """Evaluate both sides of the product formula and report the gap.

    The kernel direction must outpace the quotient direction for the two
    finite-prefix estimates to meet, so the inner prefixes default to
    roughly the square root of the outer one.
    """
    if c_prefix is None:
        c_prefix = max(2, math.isqrt(prefix))
    if n_prefix is None:
        n_prefix = max(4, math.isqrt(prefix) + 2)
    left = integral(f, s_net, prefix)
    th = theta_function(f, pi, sigma, n_net, n_prefix)
    right = integral(th, c_net, c_prefix)
    return FubiniReport(left, right, c_prefix, n_prefix)
