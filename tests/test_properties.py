"""Randomized lemma-level laws; every case is exact, any failure is fatal.

Each law runs on at least 200 seeded random instances (the acceptance
gate re-runs this module under its time budget).
"""

import math
import random
from fractions import Fraction
from functools import reduce

from amenact.abelian import (
    DirectSum,
    FiniteProduct,
    FiniteSubset,
    FreeZ,
    Subgroup,
    minkowski_sum,
)
from amenact.actions import (
    Action,
    GroupIso,
    MatrixEndo,
    MonoidIso,
    conjugate_action,
    scalar_endo,
    shift_endo,
    subgroup_trajectory,
    trajectory,
    trajectory_function,
)
from amenact.duality import random_endomorphism
from amenact.folner import box_net
from amenact.integral import SetFunction, card, card_pi, sample_axioms
from amenact.monoid import (
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    mod_hom,
    set_product,
)

N1 = FreeCommutative(1)
Z1 = FreeAbelian(1)
CASES = 220


def random_msubset(rng, monoid, scale, size):
    pool = sorted(monoid.window(scale).elements)
    return MSubset(monoid, frozenset(rng.sample(pool, min(size, len(pool)))))


def random_action(rng):
    """A small random action drawn from the supported families."""
    roll = rng.randrange(4)
    if roll == 0:
        a = rng.choice([-3, -2, 2, 3, 4])
        return Action(N1, FreeZ(1), [scalar_endo(FreeZ(1), a)]), FreeZ(1)
    if roll == 1:
        g = FiniteProduct(rng.choice([(8,), (2, 4), (3, 3), (12,)]))
        return Action(N1, g, [random_endomorphism(g, rng)]), g
    if roll == 2:
        g = DirectSum(FiniteProduct((rng.choice([2, 3]),)), Z1)
        return Action(Z1, g, [shift_endo(g, (1,))]), g
    g = DirectSum(FiniteProduct((2,)), N1)
    return Action(N1, g, [shift_endo(g, (rng.choice([1, 2]),))]), g


def random_seed(rng, group, with_zero=True):
    elems = {group.sample(rng, 2) for _ in range(rng.randint(1, 3))}
    if with_zero:
        elems.add(group.zero)
    return FiniteSubset(group, frozenset(elems))


def action_window(action, rng, size):
    monoid = action.monoid
    pool = sorted(monoid.window(2).elements)
    return MSubset(monoid, frozenset(rng.sample(pool, min(size, len(pool)))))


def test_eps_equivalence_triangle_law():
    # F ~_eps F' iff |F| = |F'| and |F sym-diff F'| <= eps |F|
    rng = random.Random(101)
    pool = sorted(Z1.window(10).elements)
    for _ in range(CASES):
        size = rng.randint(4, 9)
        f1 = frozenset(rng.sample(pool, size))
        f2 = frozenset(rng.sample(pool, size))
        f3 = frozenset(rng.sample(pool, size))
        e1 = Fraction(len(f1 ^ f2), size)
        e2 = Fraction(len(f2 ^ f3), size)
        assert len(f1 ^ f3) <= (e1 + e2) * size
        assert len(f2 ^ f1) <= e1 * size  # symmetry
        assert not f1 ^ f1  # reflexivity


def test_union_and_translation_preserve_eps():
    s = ProductMonoid((FreeCommutative(1), FiniteAbelianMonoid((2,))))
    rng = random.Random(102)
    for _ in range(CASES):
        n1, n2 = rng.randint(3, 6), rng.randint(3, 6)
        f1 = frozenset((i, 0) for i in rng.sample(range(12), n1))
        f2 = frozenset((i, 0) for i in rng.sample(range(12), n1))
        e1 = frozenset((i, 1) for i in rng.sample(range(12), n2))
        e2 = frozenset((i, 1) for i in rng.sample(range(12), n2))
        eps = max(Fraction(len(f1 ^ f2), n1), Fraction(len(e1 ^ e2), n2))
        # disjoint unions stay equivalent: |F sym-diff F'| <= eps |F|
        assert len((f1 | e1) ^ (f2 | e2)) <= eps * (n1 + n2)
        # right translation preserves equivalence and cardinality
        t = (rng.randint(0, 5), rng.randint(0, 1))
        m1 = MSubset(s, f1).translate(t)
        m2 = MSubset(s, f2).translate(t)
        assert len(m1) == n1 == len(m2)
        assert len(m1.elements ^ m2.elements) <= len(f1 ^ f2)


def test_whole_set_defect_bounded_by_elementwise_defects():
    rng = random.Random(103)
    for _ in range(CASES):
        monoid = rng.choice([N1, Z1, FreeCommutative(2)])
        net = box_net(monoid)
        i = rng.randint(2, 8)
        f = net.subset(i)
        e = random_msubset(rng, monoid, 2, rng.randint(1, 3))
        fe = set_product(f, e).elements
        whole = len(fe ^ f.elements)
        total = sum(len(f.translate(s).elements ^ f.elements) for s in e)
        assert whole <= total
        # and the defect vanishes along the net: quadrupling the index helps
        f4 = net.subset(4 * i)
        fe4 = set_product(f4, e).elements
        assert Fraction(len(fe4 ^ f4.elements), len(f4)) <= Fraction(whole, len(f)) + Fraction(1, 1)


def test_trajectory_length_functions_satisfy_the_axioms():
    rng = random.Random(104)
    total = 0
    while total < CASES:
        action, group = random_action(rng)
        seed = random_seed(rng, group)
        f = trajectory_function(action, seed)
        report = sample_axioms(f, action.monoid, trials=25, window=2, seed=rng.randrange(10**6))
        assert report.ok, report.violations[:1]
        total += 25


def test_trajectory_composition_inclusions():
    # T_{FF'}(X) <= T_F(T_{F'}(X)) <= T_{FF'}(X_{|F'|}), equality on subgroups
    rng = random.Random(105)
    for _ in range(CASES):
        action, group = random_action(rng)
        f = action_window(action, rng, rng.randint(1, 3))
        fp = action_window(action, rng, rng.randint(1, 3))
        x = random_seed(rng, group)
        ff = set_product(f, fp)
        outer = trajectory(action, ff, x)
        inner = trajectory(action, f, trajectory(action, fp, x))
        fat = trajectory(action, ff, reduce(minkowski_sum, [x] * len(fp)))
        assert outer.elements <= inner.elements <= fat.elements
    g = FiniteProduct((2, 4))
    for _ in range(60):
        phi = random_endomorphism(g, random.Random(rng.randrange(10**6)))
        action = Action(N1, g, [phi])
        b = Subgroup.generated(g, [g.sample(rng, 0)])
        bset = FiniteSubset(g, frozenset(b.elements()))
        f = random_msubset(rng, N1, 3, 2)
        fp = random_msubset(rng, N1, 3, 2)
        outer = trajectory(action, set_product(f, fp), bset)
        inner = trajectory(action, f, trajectory(action, fp, bset))
        assert outer.elements == inner.elements


def test_trajectory_commutes_with_iterated_sums():
    rng = random.Random(106)
    for _ in range(CASES):
        action, group = random_action(rng)
        b = random_seed(rng, group, with_zero=rng.random() < 0.5)
        f = action_window(action, rng, rng.randint(1, 3))
        m = rng.randint(1, 3)
        left = trajectory(action, f, reduce(minkowski_sum, [b] * m))
        right = reduce(minkowski_sum, [trajectory(action, f, b)] * m)
        assert left.elements == right.elements


def test_entropy_subadditive_over_seed_sums():
    rng = random.Random(107)
    for _ in range(CASES):
        action, group = random_action(rng)
        b = random_seed(rng, group)
        c = random_seed(rng, group)
        f = action_window(action, rng, rng.randint(1, 4))
        lhs = math.log(len(trajectory(action, f, minkowski_sum(b, c))))
        rhs = math.log(len(trajectory(action, f, b))) + math.log(len(trajectory(action, f, c)))
        assert lhs <= rhs + 1e-9
        neg = FiniteSubset(group, frozenset(group.neg(v) for v in b.elements))
        assert len(trajectory(action, f, neg)) == len(trajectory(action, f, b))


def test_weak_conjugacy_preserves_trajectory_cardinalities():
    rng = random.Random(108)
    for _ in range(CASES):
        roll = rng.randrange(3)
        if roll == 0:
            group = DirectSum(FiniteProduct((2,)), Z1)
            action = Action(Z1, group, [shift_endo(group, (1,))])
            xi, eta = GroupIso.identity(group), MonoidIso.negation(Z1)
            eta_fwd = eta.fwd
        elif roll == 1:
            g = FiniteProduct((2, 2))
            swap = MatrixEndo(g, ((0, 1), (1, 0)))
            action = Action(N1, g, [swap])
            xi, eta = GroupIso.from_matrix(g, ((0, 1), (1, 0))), MonoidIso.identity(N1)
            eta_fwd = eta.fwd
        else:
            action = Action(N1, FreeZ(1), [scalar_endo(FreeZ(1), rng.choice([2, 3]))])
            xi, eta = GroupIso.negation(FreeZ(1)), MonoidIso.identity(N1)
            eta_fwd = eta.fwd
        beta = conjugate_action(action, xi, eta)
        x = random_seed(rng, action.group)
        f = action_window(action, rng, rng.randint(1, 3))
        eta_f = MSubset(beta.monoid, frozenset(eta_fwd(s) for s in f.elements))
        xi_x = FiniteSubset(beta.group, frozenset(xi.fwd(v) for v in x.elements))
        assert len(trajectory(beta, eta_f, xi_x)) == len(trajectory(action, f, x))


def test_average_bounded_by_value_at_identity():
    rng = random.Random(109)
    for _ in range(CASES):
        monoid = rng.choice([N1, Z1])
        kind = rng.randrange(3)
        if kind == 0:
            f = card(monoid)
        elif kind == 1:
            f = card_pi(mod_hom(monoid, (rng.randint(2, 6),)))
        else:
            cap = rng.randint(1, 9)
            f = SetFunction(monoid, lambda s, c=cap: float(min(len(s), c)), "capped")
        fi = random_msubset(rng, monoid, 6, rng.randint(1, 8))
        one = MSubset(monoid, frozenset({monoid.identity}))
        assert f(fi) / len(fi) <= f(one) + 1e-12


def test_entropy_monotone_in_the_seed():
    rng = random.Random(110)
    for _ in range(CASES):
        action, group = random_action(rng)
        x = random_seed(rng, group)
        y = FiniteSubset(group, x.elements | {group.sample(rng, 2)})
        f = action_window(action, rng, rng.randint(1, 3))
        assert len(trajectory(action, f, x)) <= len(trajectory(action, f, y))


def test_entropy_of_trajectory_seed_matches_termwise():
    # for a subgroup seed and a window containing 1: T_{F_i}(T_F(X)) = T_{F_i F}(X)
    rng = random.Random(111)
    group = DirectSum(FiniteProduct((2,)), Z1)
    action = Action(Z1, group, [shift_endo(group, (1,))])
    net = box_net(Z1)
    for _ in range(60):
        b = Subgroup.generated(group, [group.basis_vector((rng.randint(-1, 1),))])
        f = MSubset.of(Z1, [(0,), (rng.randint(1, 2),)])
        tf = subgroup_trajectory(action, f, b)
        for i in (1, 2, 3):
            fi = net.subset(i)
            left = subgroup_trajectory(action, fi, tf).order()
            right = subgroup_trajectory(action, set_product(fi, f), b).order()
            assert left == right


def test_quotient_projection_commutes_with_trajectories():
    from amenact.actions import quotient_and_sub_actions

    rng = random.Random(112)
    base = FiniteProduct((4,))
    group = DirectSum(base, Z1)
    action = Action(Z1, group, [shift_endo(group, (1,))])
    b = Subgroup.percoord(group, Subgroup.generated(base, [(2,)]))
    sub, quo, ctx = quotient_and_sub_actions(action, b)
    proj = ctx["projection"]
    for _ in range(60):
        x = random_seed(rng, group)
        f = MSubset.of(Z1, [(i,) for i in range(rng.randint(1, 3))])
        left = {proj(v) for v in trajectory(action, f, x).elements}
        right = trajectory(quo, f, FiniteSubset(proj.target, frozenset(map(proj, x.elements)))).elements
        assert left == right
