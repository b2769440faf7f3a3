"""actions-entropy: trajectories, entropy tables, induced actions."""

import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from amenact import cli, lattices
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
    _GrowingTrajectory,
    _IncrementalTrajectory,
    _subgroup_accumulator,
    GeneratorCertificate,
    GroupIso,
    MatrixEndo,
    MonoidIso,
    _window_certificate,
    addition_check,
    conjugate_action,
    ent_estimate,
    h_alg_estimate,
    identity_endo,
    locally_nilpotent_probe,
    quotient_and_sub_actions,
    restriction,
    scalar_endo,
    shift_endo,
    subgroup_trajectory,
    trajectory,
    trajectory_function,
)
from amenact.duality import _GrowingCotrajectory, random_endomorphism
from amenact.errors import (
    BudgetExceededError,
    GroupMismatchError,
    MonoidMismatchError,
    NotInvariantError,
    UndecidableFamilyError,
)
from amenact.folner import (
    FolnerNet,
    _counts_along,
    _is_box_net,
    box_net,
    kernel_box_net,
    product_net,
    translate_net,
)
from amenact.integral import sample_axioms
from amenact.monoid import (
    BoxSubset,
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    mod_hom,
    scale_hom,
)

N1 = FreeCommutative(1)
Z1 = FreeAbelian(1)
Z = FreeZ(1)


def m4_action():
    return Action(N1, Z, [scalar_endo(Z, 4)])


def shift_action(base_factors=(2,), index=Z1):
    group = DirectSum(FiniteProduct(base_factors), index)
    return Action(index if isinstance(index, FreeCommutative) else index, group,
                  [shift_endo(group, (1,))]), group


def ms(monoid, items):
    return MSubset.of(monoid, items)


def interval(n):
    return ms(N1, [(i,) for i in range(n)])


# --- construction and validation ---------------------------------------------

def test_action_generator_count_must_match():
    with pytest.raises(MonoidMismatchError):
        Action(FreeCommutative(2), Z, [scalar_endo(Z, 2)])


def test_group_actions_need_automorphisms():
    with pytest.raises(MonoidMismatchError):
        Action(Z1, Z, [scalar_endo(Z, 2)])
    Action(FreeCommutative(2), Z, [scalar_endo(Z, 2), scalar_endo(Z, 3)])


def test_noncommuting_generators_rejected():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    proj = MatrixEndo(g, ((1, 0), (0, 0)))
    with pytest.raises(MonoidMismatchError):
        Action(FreeCommutative(2), g, [swap, proj])


def test_semidirect_acting_monoids_rejected():
    from amenact.monoid import SemidirectZZ

    with pytest.raises(UndecidableFamilyError):
        Action(SemidirectZZ(), Z, [scalar_endo(Z, 2)])


def test_finite_monoid_generator_order_respected():
    g = FiniteProduct((8,))
    neg = scalar_endo(g, -1)  # an involution: valid for S = Z/2
    Action(FiniteAbelianMonoid((2,)), g, [neg])
    g5 = FiniteProduct((5,))
    with pytest.raises(MonoidMismatchError):
        # x -> 3x has multiplicative order 4 mod 5, too big for S = Z/2
        Action(FiniteAbelianMonoid((2,)), g5, [scalar_endo(g5, 3)])


def test_shifts_on_a_finite_index_wrap_around():
    group = DirectSum(FiniteProduct((2,)), FiniteAbelianMonoid((3,)))
    by_one = shift_endo(group, (1,))
    assert by_one.apply(group.basis_vector((2,))) == group.basis_vector((0,))
    assert shift_endo(group, (3,)) == identity_endo(group)
    assert shift_endo(group, (-1,)) == shift_endo(group, (2,)) == by_one.inverse()
    assert by_one.is_automorphism() and by_one.power(3) == identity_endo(group)
    # the generator of Z/3 may act by the shift, whose order is 3
    Action(FiniteAbelianMonoid((3,)), group, [by_one])
    # along the finite part of N x Z/3 too, and not along the one-sided part
    mixed = DirectSum(FiniteProduct((2,)), ProductMonoid((N1, FiniteAbelianMonoid((3,)))))
    along = shift_endo(mixed, (0, 1))
    assert along.is_automorphism() and along.power(3) == identity_endo(mixed)
    Action(FiniteAbelianMonoid((3,)), mixed, [along])
    assert not shift_endo(mixed, (1, 0)).is_automorphism()


def test_shift_vector_of_the_wrong_length_is_refused():
    group = DirectSum(FiniteProduct((4,)), FreeAbelian(2))
    with pytest.raises(GroupMismatchError):
        shift_endo(group, (1,))
    with pytest.raises(GroupMismatchError):
        shift_endo(group, (1, 0, 0))


def test_endo_power_table():
    alpha = m4_action()
    assert alpha.endo((3,)).apply((1,)) == (64,)
    assert alpha.apply((0,), (5,)) == (5,)


def _endo_by_powers(alpha, s):
    """alpha(s) as the product of generator powers, each by repeated squaring."""
    acc = identity_endo(alpha.group)
    for phi, k in zip(alpha.gen_endos, alpha.monoid.generator_exponents(s)):
        if k:
            acc = acc.compose(phi.power(k))
    return acc


def _z2_on_z2():
    z2 = FreeZ(2)
    phi = MatrixEndo(z2, ((2, 1), (1, 1)))
    return Action(FreeAbelian(2), z2, [phi, phi.compose(scalar_endo(z2, -1))])


def _n2_on_finite():
    g = FiniteProduct((8, 4))
    return Action(FreeCommutative(2), g, [MatrixEndo(g, ((3, 2), (1, 1))), scalar_endo(g, 5)])


def _finite_part_product():
    g = FiniteProduct((7,))
    monoid = ProductMonoid((FiniteAbelianMonoid((3,)), FreeAbelian(1)))
    return Action(monoid, g, [scalar_endo(g, 2), scalar_endo(g, 3)])


def _z2_shifts_with_bases():
    group = DirectSum(FiniteProduct((6, 6)), Z1)
    fibonacci = MatrixEndo(group.base, ((0, 1), (1, 1)))
    return Action(FreeAbelian(2), group, [
        shift_endo(group, (1,), fibonacci), shift_endo(group, (0,), scalar_endo(group.base, -1)),
    ])


ENDO_CASES = {
    "Z2-on-Z2": _z2_on_z2,
    "N2-on-Z8xZ4": _n2_on_finite,
    "Z3xZ-on-Z7": _finite_part_product,
    "Z2-shifts-with-bases": _z2_shifts_with_bases,
}


@pytest.mark.parametrize("name", ENDO_CASES)
def test_endo_from_cached_neighbour_matches_repeated_squaring(name, monkeypatch):
    alpha = ENDO_CASES[name]()
    endo_type = type(alpha.gen_endos[0])
    composes = []
    original = endo_type.compose
    monkeypatch.setattr(endo_type, "compose", lambda a, b: composes.append(1) or original(a, b))
    net = box_net(alpha.monoid)
    built = {s: alpha.endo(s) for i in range(1, 6) for s in sorted(net.subset(i).elements)}
    monkeypatch.undo()
    # along a box net almost every element is one compose from a cached one
    assert len(composes) <= 2 * len(built)
    assert any(k < 0 for s in built for k in s) == alpha.monoid.is_group
    for s, endo in built.items():
        assert endo == _endo_by_powers(alpha, s), s


def test_endo_far_from_every_cached_element_needs_no_recursion():
    g = FiniteProduct((101,))
    alpha = Action(Z1, g, [scalar_endo(g, 3)])
    far = 10**6
    assert alpha.endo((far,)) == _endo_by_powers(alpha, (far,))
    assert alpha.endo((-far,)) == _endo_by_powers(alpha, (-far,))
    # walks outward from 0 build each step from the last one
    for k in (*range(3000), *range(0, -3000, -1)):
        assert alpha.endo((k,)).apply((1,)) == (pow(3, k, 101),)


@pytest.mark.parametrize("rows,unit", [
    (((2, 1), (1, 1)), True),
    (((0, 1), (1, 0)), True),
    (((2, 0), (0, 1)), False),
    (((1, 2), (2, 4)), False),
])
def test_free_matrix_automorphisms_and_inverses(rows, unit):
    z2 = FreeZ(2)
    phi = MatrixEndo(z2, rows)
    assert phi.determinant_unit() == unit == phi.is_automorphism()
    if unit:
        assert phi.compose(phi.inverse()) == identity_endo(z2)
    else:
        with pytest.raises(ValueError):
            phi.inverse()


# --- trajectories -------------------------------------------------------------

def test_doubling_trajectory_counts():
    alpha = m4_action()
    x = FiniteSubset.of(Z, [(0,), (1,)])
    for n in range(1, 9):
        t = trajectory(alpha, interval(n), x)
        assert len(t) == 2**n


def test_wide_seed_trajectory_counts():
    alpha = m4_action()
    xp = FiniteSubset.of(Z, [(0,), (1,), (4,), (5,)])
    # the base-4 digit pattern is {0,1} x {0,1,2}^(n-1) x {0,1}
    for n in range(1, 7):
        t = trajectory(alpha, interval(n), xp)
        assert len(t) == 4 * 3 ** (n - 1)
    # cross-check the closed form by brute force at n = 3
    brute = {a + 4 * b + 16 * c for a in (0, 1, 4, 5) for b in (0, 1, 4, 5) for c in (0, 1, 4, 5)}
    assert len(trajectory(alpha, interval(3), xp)) == len(brute) == 36


def test_trajectory_of_identity_window_is_seed():
    alpha = m4_action()
    x = FiniteSubset.of(Z, [(0,), (3,)])
    assert trajectory(alpha, interval(1), x).elements == x.elements


def test_trajectory_sum_splits_over_seed_sums():
    alpha = m4_action()
    rng = random.Random(3)
    for _ in range(40):
        x = FiniteSubset.of(Z, [(rng.randint(-3, 3),) for _ in range(2)] + [(0,)])
        y = FiniteSubset.of(Z, [(rng.randint(-3, 3),) for _ in range(2)] + [(0,)])
        f = interval(rng.randint(1, 4))
        left = trajectory(alpha, f, minkowski_sum(x, y))
        right = minkowski_sum(trajectory(alpha, f, x), trajectory(alpha, f, y))
        assert left.elements == right.elements


# --- packed trajectories on Z against the former tuple accumulator ------------

class TupleTrajectory:
    """The former accumulator: one ``group.sumset`` of tuples per new s."""

    def __init__(self, alpha, x, budget=10**7):
        self.alpha, self.x, self.budget = alpha, x, budget
        self._last_f = frozenset()
        self._last_t = None

    def advance(self, f_set):
        group = self.alpha.group
        if self._last_t is not None and self._last_f <= f_set.elements:
            acc = self._last_t
            new = f_set.elements - self._last_f
        else:
            acc = None
            new = f_set.elements
        for s in sorted(new):
            img = self.alpha.apply_set(s, self.x.elements)
            acc = img if acc is None else group.sumset(acc, img)
            if len(acc) > self.budget:
                raise BudgetExceededError("trajectory over budget", completed=s)
        self._last_f = f_set.elements
        self._last_t = acc
        return acc


def packed_route_along(alpha, x, net, prefix):
    """Compare with the oracle at every index; returns, per index, whether
    the accumulator was still packed."""
    inc, oracle = _IncrementalTrajectory(alpha, x, 10**7), TupleTrajectory(alpha, x)
    packed = []
    for i in range(1, prefix + 1):
        fi = net.subset(i)
        want = oracle.advance(fi)
        assert inc.advance(fi) == len(want), i
        assert inc.elements() == want, i
        packed.append(inc._set is None)
    return packed


def sliding_net(monoid, dim=1):
    # [n, 2n]^dim: never nested, so every index starts over
    return FolnerNet(
        monoid,
        lambda n: MSubset(monoid, frozenset(itertools.product(range(n, 2 * n + 1), repeat=dim))),
        "sliding",
    )


SCALAR_SEEDS = [[0, 1], [-2, 0, 3], [-5, -4, 7], [-1, 1], [3]]


@pytest.mark.parametrize("a", [2, 3, 4, 10, -3])
def test_packed_trajectory_matches_tuples_for_scalar_actions(a):
    alpha = Action(N1, Z, [scalar_endo(Z, a)])
    for points in SCALAR_SEEDS:
        x = FiniteSubset.of(Z, [(p,) for p in points])
        prefix = 7 if abs(a) == 10 else 9
        assert packed_route_along(alpha, x, box_net(N1), prefix)
        packed_route_along(alpha, x, sliding_net(N1), 5)
        packed_route_along(alpha, x, translate_net(box_net(N1), ms(N1, [(2,), (0,)])), 6)


def test_packed_trajectory_on_two_generators_and_a_group():
    n2 = FreeCommutative(2)
    alpha = Action(n2, Z, [scalar_endo(Z, 2), scalar_endo(Z, -3)])
    x = FiniteSubset.of(Z, [(-1,), (0,), (2,)])
    assert all(packed_route_along(alpha, x, box_net(n2), 4))
    packed_route_along(alpha, x, sliding_net(n2, 2), 3)
    beta = Action(Z1, Z, [scalar_endo(Z, -1)])
    packed_route_along(beta, x, box_net(Z1), 5)


def test_packed_trajectory_switches_to_tuples_mid_advance():
    # x -> 10x on {0, 1}: 2^n points over a span of about 10^n
    alpha = Action(N1, Z, [scalar_endo(Z, 10)])
    x = FiniteSubset.of(Z, [(0,), (1,)])
    jumps = {1: interval(3), 2: interval(10), 3: interval(12), 4: interval(2)}
    net = FolnerNet(N1, jumps.__getitem__, "jumps")
    # packed at {0,1,2}, unpacked inside the advance to {0..9}, and packed
    # again after the restart at {0,1}
    assert packed_route_along(alpha, x, net, 4) == [True, False, False, True]


@pytest.mark.parametrize("points, budget, stop", [
    ([0, 1, 4, 5], 1000, 6),  # x -> 4x, packed throughout
    ([0, 1], 200, 7),         # x -> 10x, unpacked at (4,): two runs of 16 points
    ([0, 10**15], 40, 5),     # x -> 10x, tuples from the start
])
def test_budget_stops_at_the_same_element_on_both_routes(points, budget, stop):
    a = 4 if points[-1] == 5 else 10
    alpha = Action(N1, Z, [scalar_endo(Z, a)])
    x = FiniteSubset.of(Z, [(p,) for p in points])
    stops = []
    for inc in (_IncrementalTrajectory(alpha, x, budget), TupleTrajectory(alpha, x, budget)):
        with pytest.raises(BudgetExceededError) as err:
            for i in range(1, 12):
                inc.advance(interval(i))
        stops.append(err.value.completed)
    assert stops == [(stop,), (stop,)]
    # an advance cut short by the budget is not extended later
    inc = _IncrementalTrajectory(alpha, x, budget)
    inc.advance(interval(2))
    with pytest.raises(BudgetExceededError):
        inc.advance(interval(stop + 1))
    assert inc.advance(interval(stop)) == len(TupleTrajectory(alpha, x).advance(interval(stop)))


def test_sparse_sums_on_z_leave_the_packed_route():
    alpha = Action(N1, Z, [scalar_endo(Z, 10)])
    x = FiniteSubset.of(Z, [(0,), (1,)])
    oracle = TupleTrajectory(alpha, x)
    start = time.perf_counter()
    for i in range(1, 21):
        want = oracle.advance(interval(i))
    tuple_seconds = time.perf_counter() - start
    inc = _IncrementalTrajectory(alpha, x, 10**7)
    start = time.perf_counter()
    counts = [inc.advance(interval(i)) for i in range(1, 21)]
    packed_seconds = time.perf_counter() - start
    assert counts == [2**i for i in range(1, 21)]
    assert inc._set is not None and inc.elements() == want
    assert packed_seconds < 2 * tuple_seconds + 0.5


def test_far_apart_seed_is_never_packed():
    # packing {0, 10^15} would need a 10^15-bit integer
    alpha = Action(N1, Z, [scalar_endo(Z, 2)])
    x = FiniteSubset.of(Z, [(0,), (10**15,)])
    assert packed_route_along(alpha, x, box_net(N1), 6) == [False] * 6


@pytest.mark.parametrize("name", ["example-wide-seed", "example-doubling", "fubini-product"])
def test_set_seed_builtins_stay_packed(name, tmp_path, monkeypatch):
    def tuple_route(self, xs, ys):
        raise AssertionError(f"{name} left the packed route")

    monkeypatch.setattr(FreeZ, "sumset", tuple_route)
    code, message = cli.run_scenario(name, out_dir=tmp_path)
    assert code == 0, message

# --- packed sums on Z as runs of bits ----------------------------------------

def runs_along(alpha, x, net, prefix):
    """Compare with the oracle at every index; returns, per index, the
    number of runs the accumulator holds (0 once it has unpacked)."""
    inc, oracle = _IncrementalTrajectory(alpha, x, 10**7), TupleTrajectory(alpha, x)
    held = []
    for i in range(1, prefix + 1):
        fi = net.subset(i)
        want = oracle.advance(fi)
        assert inc.advance(fi) == len(want), i
        assert inc.elements() == want, i
        held.append(0 if inc._set is not None else len(inc._runs))
    return held


RUN_CASES = [
    (4, [0, 1], 10),
    (4, [0, 1, 4, 5], 9),
    (-4, [0, 1], 10),
    (10, [0, 1, 2], 7),
    (4, [0, 5000], 8),  # the first image is two runs
    (2, [-7000, 0, 1], 8),
]


@pytest.mark.parametrize("a, points, prefix", RUN_CASES)
def test_runs_match_tuples_at_every_index(a, points, prefix):
    alpha = Action(N1, Z, [scalar_endo(Z, a)])
    x = FiniteSubset.of(Z, [(p,) for p in points])
    held = runs_along(alpha, x, box_net(N1), prefix)
    runs_along(alpha, x, sliding_net(N1), 5)
    runs_along(alpha, x, translate_net(box_net(N1), ms(N1, [(2,), (0,)])), 5)
    if abs(a) == 4 and points[:2] == [0, 1]:
        assert held[-1] > 1  # packed over several runs


def test_dense_first_image_with_a_gap_packs_as_two_runs():
    alpha = Action(N1, Z, [scalar_endo(Z, 4)])
    x = FiniteSubset.of(Z, [(p,) for p in list(range(64)) + list(range(5000, 5064))])
    assert runs_along(alpha, x, box_net(N1), 3)[0] == 2


@pytest.mark.parametrize("points, prefix", [([0, 1, 4, 5], 14), ([0, 1], 20)])
def test_run_sums_stay_packed_and_small(points, prefix):
    """x -> 4x: |T_n| grows like |X|^n but its span like 4^n.  As one
    bitset, {0,1,4,5}@14 took 176 MB and {0,1}@20 unpacked to 254 MB of
    tuples."""
    import tracemalloc

    alpha = Action(N1, Z, [scalar_endo(Z, 4)])
    x = FiniteSubset.of(Z, [(p,) for p in points])
    tracemalloc.start()
    try:
        inc = _IncrementalTrajectory(alpha, x, 10**7)
        counts = [inc.advance(interval(i)) for i in range(1, prefix + 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if len(points) == 4:
        assert counts == [4 * 3 ** (i - 1) for i in range(1, prefix + 1)]
    else:
        assert counts == [2**i for i in range(1, prefix + 1)]
    assert inc._set is None and len(inc._runs) > 1
    assert peak < 16 * 2**20


def test_dense_sums_keep_one_run_and_the_shift_loop(tmp_path, monkeypatch):
    """x -> 2x on {0,1,2} and fubini-product's trajectories fill one
    interval: every sum is one run, added by the OR of shifted copies."""
    import amenact.actions as actions

    held = []
    add = _IncrementalTrajectory._add

    def recording_add(self, img):
        add(self, img)
        held.append(len(self._runs) if self._set is None else 0)

    def no_merge(pieces):
        raise AssertionError("a dense sum left the one-run path")

    monkeypatch.setattr(_IncrementalTrajectory, "_add", recording_add)
    monkeypatch.setattr(actions, "_merge_pieces", no_merge)
    alpha = Action(N1, Z, [scalar_endo(Z, 2)])
    x = FiniteSubset.of(Z, [(0,), (1,), (2,)])
    runs_along(alpha, x, box_net(N1), 12)
    n2 = FreeCommutative(2)
    beta = Action(n2, Z, [scalar_endo(Z, 2), scalar_endo(Z, 2)])
    runs_along(beta, x, box_net(n2), 5)
    code, message = cli.run_scenario("fubini-product", out_dir=tmp_path)
    assert code == 0, message
    assert len(held) > 700 and set(held) == {1}


# --- carry states for one-scalar set seeds on Z ------------------------------

CARRY_SCALARS = [2, -2, 3, -3, 4, 5, 6, 10**12]
CARRY_BUDGET = 10**5  # keeps the tuple oracle of a = 10^12 small


def carry_family():
    """(a, seed points, prefix): for each scalar, 12 seeds of 1-5 points of
    [-12, 12], each with a prefix of 1-9."""
    rng = random.Random(34)
    for a in CARRY_SCALARS:
        for _ in range(12):
            points = rng.sample(range(-12, 13), rng.randint(1, 5))
            yield a, sorted(points), rng.randint(1, 9)


def oracle_counts(alpha, x, prefix, budget):
    """The counts of the sumset route, and the element and index of its
    budget error, or None."""
    counts = []
    try:
        for _, count in _counts_along(_IncrementalTrajectory(alpha, x, budget), box_net(N1), prefix):
            counts.append(count)
    except BudgetExceededError as err:
        return counts, (err.completed, err.index)
    return counts, None


def carry_counts(alpha, x, prefix, budget):
    est, stop = None, None
    try:
        est = h_alg_estimate(alpha, x, box_net(N1), prefix, budget)
    except BudgetExceededError as err:
        stop = (err.completed, err.index)
    return est, stop


@pytest.mark.parametrize("a", CARRY_SCALARS)
def test_carry_counts_match_the_sumset_oracle(a):
    """Carry-state counts equal the sumset's at every index, and both
    routes stop at the same element and index under one budget."""
    alpha = Action(N1, Z, [scalar_endo(Z, a)])
    for b, points, prefix in carry_family():
        if b != a:
            continue
        x = FiniteSubset.of(Z, [(p,) for p in points])
        want, want_stop = oracle_counts(alpha, x, prefix, CARRY_BUDGET)
        est, stop = carry_counts(alpha, x, prefix, CARRY_BUDGET)
        assert stop == want_stop, (points, prefix)
        if est is not None:
            assert est.counts == want, (points, prefix)


@pytest.mark.parametrize("a, points", [(4, [0, 1, 4, 5]), (-3, [-2, 0, 7]), (10**12, [0, 1])])
def test_carry_budget_stops_where_the_sumset_does(a, points):
    alpha = Action(N1, Z, [scalar_endo(Z, a)])
    x = FiniteSubset.of(Z, [(p,) for p in points])
    for budget in [0, 1, 2, 3, 4, 5, 11, 12, 13, 100, 972, 1000]:
        want, want_stop = oracle_counts(alpha, x, 9, budget)
        est, stop = carry_counts(alpha, x, 9, budget)
        assert stop == want_stop, budget
        if stop is None:
            assert est.counts == want, budget


def test_carry_counts_match_the_tuple_oracle_on_small_seeds():
    rng = random.Random(3434)
    for _ in range(40):
        a = rng.choice([2, -2, 3, -3, 4, 5, 6])
        alpha = Action(N1, Z, [scalar_endo(Z, a)])
        x = FiniteSubset.of(Z, [(p,) for p in rng.sample(range(-12, 13), rng.randint(1, 4))])
        oracle = TupleTrajectory(alpha, x)
        want = [len(oracle.advance(interval(i))) for i in range(1, 7)]
        assert h_alg_estimate(alpha, x, box_net(N1), 6).counts == want


def test_carry_limit_holds_past_the_prefix_it_was_certified_at():
    """Wherever the counts up to a prefix certify (q, m), the counts of a
    longer prefix grow by q per step from m on."""
    certified = 0
    for a, points, prefix in carry_family():
        if abs(a) > 6:
            continue
        alpha = Action(N1, Z, [scalar_endo(Z, a)])
        x = FiniteSubset.of(Z, [(p,) for p in points])
        limit = h_alg_estimate(alpha, x, box_net(N1), prefix).limit
        if limit is None:
            continue
        certified += 1
        q, m = limit
        counts = [1] + h_alg_estimate(alpha, x, box_net(N1), prefix + 8, 10**40).counts
        assert all(counts[n + 1] == q * counts[n] for n in range(m, prefix + 8)), (a, points)
    assert certified > 20


def test_carry_limit_waits_for_one_step_per_state():
    # {0,1,4,5} under x -> 4x has two states, {0} and {0,1}: counts 1, 4,
    # 12, 36, ... need c_1..c_3 in ratio 3 before (3, 1) is certified
    alpha = Action(N1, Z, [scalar_endo(Z, 4)])
    x = FiniteSubset.of(Z, [(0,), (1,), (4,), (5,)])
    limits = [h_alg_estimate(alpha, x, box_net(N1), n).limit for n in (1, 2, 3, 12)]
    assert limits == [None, None, (3, 1), (3, 1)]


def test_carry_limit_needs_an_integer_ratio():
    # {0, 1, 3} under x -> 2x: the counts 3, 8, 19, 42, 89, ... have
    # c_{n+1} - 2 c_n = n + 1, so their ratio tends to 2 and never reaches it
    alpha = Action(N1, Z, [scalar_endo(Z, 2)])
    x = FiniteSubset.of(Z, [(0,), (1,), (3,)])
    est = h_alg_estimate(alpha, x, box_net(N1), 12)
    assert est.limit is None
    assert est.counts == oracle_counts(alpha, x, 12, 10**7)[0]


@pytest.mark.parametrize("name, limit", [("example-wide-seed", (3, 1)), ("example-doubling", (2, 0))])
def test_set_seed_builtins_certify_their_step_ratio(name, limit, tmp_path):
    sc = cli.BUILTINS[name]
    alpha, seed, net = cli._action_parts(sc)
    assert h_alg_estimate(alpha, seed, net, sc["prefix"]).limit == limit
    source = tmp_path / f"{name}.json"
    source.write_text(json.dumps(dict(sc, checks=[{"type": "limit", "a": limit[0]}])))
    code, message = cli.run_scenario(str(source), tmp_path)
    assert code == 0, message


def test_carry_steps_with_a_huge_scalar_cost_what_small_ones_do():
    # a = 10^12: every sum leaves its own residue, so {0} is the one state
    alpha = Action(N1, Z, [scalar_endo(Z, 10**12)])
    x = FiniteSubset.of(Z, [(-12,), (0,), (5,)])
    est = h_alg_estimate(alpha, x, box_net(N1), 200, budget=10**200)
    assert est.counts == [3**n for n in range(1, 201)] and est.limit == (3, 0)


def record_sumset_routes(monkeypatch):
    init, built = _IncrementalTrajectory.__init__, []
    monkeypatch.setattr(_IncrementalTrajectory, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    return built


@pytest.mark.parametrize("name", ["example-wide-seed", "example-doubling"])
def test_one_scalar_builtins_take_the_carry_route(name, tmp_path, monkeypatch):
    built = record_sumset_routes(monkeypatch)
    code, message = cli.run_scenario(name, out_dir=tmp_path)
    assert code == 0, message
    assert built == []


def test_other_set_seeds_keep_the_sumset_route(tmp_path, monkeypatch):
    built = record_sumset_routes(monkeypatch)
    code, message = cli.run_scenario("fubini-product", out_dir=tmp_path)
    assert code == 0, message
    assert built
    x = FiniteSubset.of(Z, [(0,), (1,)])
    for a, net in ((4, sliding_net(N1)), (1, box_net(N1)), (-1, box_net(N1))):
        del built[:]
        h_alg_estimate(Action(N1, Z, [scalar_endo(Z, a)]), x, net, 4)
        assert len(built) == 1, a


def test_subgroup_trajectory_shift_span():
    (alpha, group) = shift_action((2,), Z1)
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    for n in (1, 3, 6):
        f = ms(Z1, [(i,) for i in range(n)])
        t = subgroup_trajectory(alpha, f, b)
        assert t.order() == 2**n


def test_subgroup_trajectory_of_the_empty_set_is_trivial():
    (alpha, group) = shift_action((2,), Z1)
    empty = MSubset(Z1, frozenset())
    seeds = [
        Subgroup.percoord(group, Subgroup.full(group.base)),
        Subgroup.generated(group, [group.basis_vector((0,))]),
    ]
    for b in seeds:
        t = subgroup_trajectory(alpha, empty, b)
        assert t == Subgroup.trivial(group) and t.order() == 1


def test_subgroup_trajectory_contains_seed_when_identity_present():
    (alpha, group) = shift_action((3,), Z1)
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    t = subgroup_trajectory(alpha, ms(Z1, [(0,), (1,)]), b)
    for g in b.gens:
        assert t.contains(g)


def test_subgroup_trajectory_swap_on_klein_group():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    alpha = Action(N1, g, [swap])
    b = Subgroup.generated(g, [(1, 0)])
    t = subgroup_trajectory(alpha, interval(2), b)
    assert t.order() == 4


# --- entropy tables -------------------------------------------------------------

def test_h_alg_bernoulli_one_sided_exact_log2():
    group = DirectSum(FiniteProduct((2,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    seed = FiniteSubset.of(group, [group.zero, group.basis_vector((0,))])
    est = h_alg_estimate(alpha, seed, box_net(N1), 12)
    assert est.estimate.rows[0].ratio == pytest.approx(math.log(2))
    for row, count in zip(est.estimate.rows, est.counts):
        assert count == 2**row.index
        assert row.ratio == pytest.approx(math.log(2))


def test_h_alg_doubling_map_ratios():
    alpha = m4_action()
    est = h_alg_estimate(alpha, FiniteSubset.of(Z, [(0,), (1,)]), box_net(N1), 12)
    assert [c for c in est.counts] == [2**n for n in range(1, 13)]
    est2 = h_alg_estimate(alpha, FiniteSubset.of(Z, [(0,), (1,), (4,), (5,)]), box_net(N1), 10)
    assert [c for c in est2.counts] == [4 * 3 ** (n - 1) for n in range(1, 11)]
    # the second table drifts toward log 3 like (log 4 + (n-1) log 3)/n
    n = 10
    assert est2.tail == pytest.approx((math.log(4) + (n - 1) * math.log(3)) / n)


def test_h_alg_subgroup_seed_two_sided_shift():
    (alpha, group) = shift_action((2,), Z1)
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    est = h_alg_estimate(alpha, b, box_net(Z1), 8)
    for row, count in zip(est.estimate.rows, est.counts):
        n = row.index
        assert count == 2 ** (2 * n + 1)
        assert row.ratio == pytest.approx(math.log(2))


def test_trajectory_function_satisfies_the_axioms():
    (alpha, group) = shift_action((3,), Z1)
    seed = FiniteSubset.of(group, [group.zero, group.basis_vector((0,))])
    f = trajectory_function(alpha, seed)
    report = sample_axioms(f, Z1, trials=120, window=3, seed=21)
    assert report.ok


def test_ent_estimate_certified_for_generating_seed():
    (alpha, group) = shift_action((3,), Z1)
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    report = ent_estimate(alpha, b, None, box_net(Z1), 8)
    assert report.certified
    assert report.value == pytest.approx(math.log(3))


def test_ent_estimate_finite_monoid_on_finite_group():
    s = FiniteAbelianMonoid((2,))
    a = FiniteProduct((8,))
    alpha = Action(s, a, [scalar_endo(a, -1)])
    seed = Subgroup.full(a)
    report = ent_estimate(alpha, seed, None, box_net(s), 4)
    assert report.certified
    assert report.value == pytest.approx(math.log(8) / 2)


def test_ent_estimate_certifies_a_group_past_the_former_cap():
    # the former certificate enumerated the group and refused more than 4096 elements
    s = FiniteAbelianMonoid((2,))
    a = FiniteProduct((8192,))
    alpha = Action(s, a, [scalar_endo(a, -1)])
    report = ent_estimate(alpha, Subgroup.full(a), None, box_net(s), 4)
    assert report.certified
    assert report.value == pytest.approx(math.log(8192) / 2)


def test_trivial_action_has_vanishing_tail():
    a = FiniteProduct((8,))
    alpha = Action(Z1, a, [identity_endo(a)])
    seed = FiniteSubset.of(a, [(0,), (1,)])
    est = h_alg_estimate(alpha, seed, box_net(Z1), 16)
    n = 16
    assert est.counts[-1] <= (2 * n + 2) ** 2
    assert est.tail < 0.12
    assert est.tail < est.estimate.rows[0].ratio


def test_ent_estimate_family_lower_bound_flagged():
    (alpha, group) = shift_action((2,), Z1)
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    report = ent_estimate(alpha, None, [b], box_net(Z1), 6)
    assert not report.certified and "lower bound" in report.note


# --- restriction -----------------------------------------------------------------

def test_restriction_to_even_shifts_doubles_entropy():
    (alpha, group) = shift_action((3,), Z1)
    beta = restriction(alpha, scale_hom(Z1, Z1, (2,)))
    seed = Subgroup.generated(
        group, [group.basis_vector((0,)), group.basis_vector((1,))]
    )
    est = h_alg_estimate(beta, seed, box_net(Z1), 6)
    for row, count in zip(est.estimate.rows, est.counts):
        n = row.index
        assert count == 3 ** (2 * (2 * n + 1))
        assert row.ratio == pytest.approx(2 * math.log(3))


def test_restriction_to_trivial_monoid_gives_seed_length():
    (alpha, group) = shift_action((2,), Z1)
    trivial = FreeCommutative(0)
    beta = restriction(alpha, scale_hom(trivial, Z1, ()))
    seed = FiniteSubset.of(group, [group.zero, group.basis_vector((0,)), group.basis_vector((2,))])
    est = h_alg_estimate(beta, seed, box_net(trivial), 3)
    assert est.tail == pytest.approx(math.log(3))


# --- induced actions ---------------------------------------------------------------

def klein_shift():
    base = FiniteProduct((4,))
    group = DirectSum(base, Z1)
    alpha = Action(Z1, group, [shift_endo(group, (1,))])
    two_a = Subgroup.percoord(group, Subgroup.generated(base, [(2,)]))
    return alpha, group, two_a


def test_quotient_and_sub_actions_of_the_mod4_shift():
    alpha, group, two_a = klein_shift()
    sub, quo, ctx = quotient_and_sub_actions(alpha, two_a)
    assert isinstance(sub.group, DirectSum) and sub.group.base == FiniteProduct((2,))
    assert isinstance(quo.group, DirectSum) and quo.group.base == FiniteProduct((2,))
    x = sub.group.basis_vector((0,))
    assert sub.apply((1,), x) == sub.group.basis_vector((1,))


def test_quotient_actions_trivial_and_full_subgroup():
    alpha, group, _ = klein_shift()
    sub, quo, _ = quotient_and_sub_actions(alpha, Subgroup.trivial(group))
    assert quo.group == group
    sub2, quo2, _ = quotient_and_sub_actions(alpha, Subgroup.full(group))
    assert quo2.group == FiniteProduct(())


def test_invariance_violation_reported_with_witness():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    alpha = Action(N1, g, [swap])
    with pytest.raises(NotInvariantError) as err:
        quotient_and_sub_actions(alpha, Subgroup.generated(g, [(1, 0)]))
    assert err.value.element == (1, 0)


def test_addition_theorem_exact_for_mod4_shift():
    alpha, group, two_a = klein_shift()
    sub, quo, ctx = quotient_and_sub_actions(alpha, two_a)
    seed_total = Subgroup.generated(group, [group.basis_vector((0,))])
    seed_sub = Subgroup.generated(sub.group, [sub.group.basis_vector((0,))])
    seed_quo = Subgroup.generated(quo.group, [quo.group.basis_vector((0,))])
    report = addition_check(alpha, two_a, box_net(Z1), 6, seed_total, seed_sub, seed_quo)
    assert report.exact_at_every_index
    assert report.residual < 1e-12
    assert report.total.value == pytest.approx(math.log(4))
    assert report.sub.value == pytest.approx(math.log(2))
    assert report.quotient.value == pytest.approx(math.log(2))


def test_addition_is_exact_over_a_finite_index():
    # Z on (Z/4)^(Z/3) over its doubled part: every box F_n, n >= 1, covers
    # the three indices, so the counts are 4^3 = 2^3 * 2^3 at every index
    base = FiniteProduct((4,))
    group = DirectSum(base, FiniteAbelianMonoid((3,)))
    alpha = Action(Z1, group, [shift_endo(group, (1,))])
    b = Subgroup.percoord(group, Subgroup.generated(base, [(2,)]))
    sub, quo, _ = quotient_and_sub_actions(alpha, b)
    report = addition_check(
        alpha,
        b,
        box_net(Z1),
        4,
        Subgroup.generated(group, [group.basis_vector((0,))]),
        Subgroup.generated(sub.group, [sub.group.basis_vector((0,))]),
        Subgroup.generated(quo.group, [quo.group.basis_vector((0,))]),
    )
    assert report.total.estimate.counts == [64] * 4
    assert report.sub.estimate.counts == report.quotient.estimate.counts == [8] * 4


def test_addition_splits_products_of_primes():
    base = FiniteProduct((6,))
    group = DirectSum(base, Z1)
    alpha = Action(Z1, group, [shift_endo(group, (1,))])
    b = Subgroup.percoord(group, Subgroup.generated(base, [(2,)]))  # = (Z/3)-part
    sub, quo, _ = quotient_and_sub_actions(alpha, b)
    report = addition_check(
        alpha,
        b,
        box_net(Z1),
        5,
        Subgroup.generated(group, [group.basis_vector((0,))]),
        Subgroup.generated(sub.group, [sub.group.basis_vector((0,))]),
        Subgroup.generated(quo.group, [quo.group.basis_vector((0,))]),
    )
    assert report.exact_at_every_index
    assert report.total.value == pytest.approx(math.log(6))


# --- conjugation -----------------------------------------------------------------

def test_conjugation_by_inversion_preserves_counts():
    (alpha, group) = shift_action((2,), Z1)
    beta = conjugate_action(alpha, GroupIso.identity(group), MonoidIso.negation(Z1))
    x = FiniteSubset.of(group, [group.zero, group.basis_vector((0,))])
    for n in (1, 2, 4):
        f = ms(Z1, [(i,) for i in range(n)])
        eta_f = ms(Z1, [(-i,) for i in range(n)])
        left = trajectory(beta, eta_f, x)
        right = trajectory(alpha, f, x)
        assert len(left) == len(right)


def test_conjugated_action_feeds_subgroup_trajectories():
    # the box net on Z is symmetric, so inverting the monoid keeps every count
    group = DirectSum(FiniteProduct((2, 3)), Z1)
    alpha = Action(Z1, group, [shift_endo(group, (1,), MatrixEndo(group.base, ((1, 0), (0, 2))))])
    beta = conjugate_action(alpha, GroupIso.identity(group), MonoidIso.negation(Z1))
    seed = Subgroup.generated(group, [group.element({(0,): (1, 1), (2,): (0, 1)})])
    counts = h_alg_estimate(alpha, seed, box_net(Z1), 6).counts
    assert h_alg_estimate(beta, seed, box_net(Z1), 6).counts == counts
    assert counts == [order for _, order in fresh_orders(beta, seed, box_net(Z1), 6)]


def test_conjugation_identity_is_identity():
    alpha = m4_action()
    beta = conjugate_action(alpha, GroupIso.identity(Z), MonoidIso.identity(N1))
    x = FiniteSubset.of(Z, [(0,), (1,)])
    assert trajectory(beta, interval(5), x).elements == trajectory(alpha, interval(5), x).elements


def test_conjugation_by_coordinate_swap():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    alpha = Action(N1, g, [swap])
    xi = GroupIso.from_matrix(g, ((0, 1), (1, 0)))
    beta = conjugate_action(alpha, xi, MonoidIso.identity(N1))
    x = FiniteSubset.of(g, [(0, 0), (1, 0)])
    for n in (1, 2, 3):
        t1 = trajectory(alpha, interval(n), FiniteSubset.of(g, [xi.inv(v) for v in x.elements]))
        t2 = trajectory(beta, interval(n), x)
        assert len(t1) == len(t2)


# --- local nilpotency ---------------------------------------------------------------

def test_truncating_shift_probe_vanishes():
    group = DirectSum(FiniteProduct((3,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (-1,))])
    seed = FiniteSubset.of(group, [group.zero, group.basis_vector((0,)), group.basis_vector((1,))])
    report = locally_nilpotent_probe(alpha, seed, box_net(N1), 8)
    assert report.annihilator == (2,)
    assert report.tail == 0.0


def test_probe_refuses_group_monoids():
    (alpha, group) = shift_action((2,), Z1)
    seed = FiniteSubset.of(group, [group.zero])
    report = locally_nilpotent_probe(alpha, seed, box_net(Z1), 4)
    assert report.annihilator is None and "group" in report.note


def test_probe_zero_seed():
    alpha = m4_action()
    report = locally_nilpotent_probe(alpha, FiniteSubset.of(Z, [(0,)]), box_net(N1), 4)
    assert report.tail == 0.0


# --- one growing echelon basis per net, against the former join path ------------

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def join_path_counts(alpha, seed, net, prefix):
    """Oracle: the former subgroup route of h_alg_estimate, which joined the
    new images into a Subgroup and redid its HNF at every net index."""
    running = None
    done = frozenset()
    counts = []
    for i in range(1, prefix + 1):
        fi = net.subset(i)
        if running is not None and done <= fi.elements:
            extra = MSubset(alpha.monoid, fi.elements - done)
            if len(extra):
                running = running.join(subgroup_trajectory(alpha, extra, seed))
        else:
            running = subgroup_trajectory(alpha, fi, seed)
        done = fi.elements
        counts.append(running.order())
    return counts


def window_elements(group, scale):
    """Every element of a DirectSum supported inside the index window."""
    idx = sorted(group.index.window(scale).elements)
    vals = list(group.base.elements())
    zero = group.base.zero
    return {
        frozenset((i, v) for i, v in zip(idx, combo) if v != zero)
        for combo in itertools.product(vals, repeat=len(idx))
    }


def window_certificate_oracle(alpha, seed, scale):
    """Oracle: the former _window_certificate, which tested every element of
    the window against one fresh trajectory per scale."""
    group = alpha.group
    if isinstance(group, FiniteProduct):
        targets = set(group.elements())
    else:
        targets = window_elements(group, scale)
    for m_scale in range(scale, 4 * scale + 5):
        t = subgroup_trajectory(alpha, alpha.monoid.window(m_scale), seed)
        if all(t.contains(x) for x in targets):
            return GeneratorCertificate(scale, m_scale, True)
    return GeneratorCertificate(scale, 4 * scale + 4, False)


def scenario_parts(name):
    sc = cli.BUILTINS[name]
    monoid = cli.parse_monoid(sc["monoid"])
    group = cli.parse_group(sc["group"])
    action = cli.parse_action(monoid, group, sc["action"])
    return sc, monoid, group, action


SUBGROUP_SEED_BUILTINS = sorted(
    name for name, sc in cli.BUILTINS.items()
    if sc["kind"] in ("entropy", "bridge") and "subgroup_basis" in sc.get("seed", {})
)


def test_subgroup_seed_builtins_are_covered():
    assert {"bernoulli-one-sided", "quotient-vanishing", "bridge-bernoulli"} <= set(
        SUBGROUP_SEED_BUILTINS
    )


@pytest.mark.parametrize("name", SUBGROUP_SEED_BUILTINS)
def test_growing_basis_matches_join_path_on_builtins(name):
    sc, monoid, group, action = scenario_parts(name)
    seed = cli.parse_seed(group, sc["seed"])
    net = cli.parse_net(monoid, sc["net"])
    est = h_alg_estimate(action, seed, net, 12)
    assert est.counts == join_path_counts(action, seed, net, 12)


@pytest.mark.parametrize("factors", [(4, 6), (2, 4, 8), (9, 3), (12,), (2, 2, 2, 2)])
def test_growing_basis_matches_join_path_on_finite_products(factors):
    group = FiniteProduct(factors)
    rng = random.Random(f"route:{factors}")
    for _ in range(4):
        alpha = Action(N1, group, [random_endomorphism(group, rng)])
        gens = [tuple(rng.randrange(n) for n in factors) for _ in range(rng.randint(1, 2))]
        seed = Subgroup.generated(group, gens)
        est = h_alg_estimate(alpha, seed, box_net(N1), 12)
        assert est.counts == join_path_counts(alpha, seed, box_net(N1), 12)


def test_growing_basis_matches_join_path_on_a_two_generator_monoid():
    group = FiniteProduct((4, 6))
    phi = MatrixEndo(group, ((1, 2), (0, 5)))
    alpha = Action(FreeCommutative(2), group, [phi, phi.compose(phi)])
    seed = Subgroup.generated(group, [(1, 0)])
    est = h_alg_estimate(alpha, seed, box_net(alpha.monoid), 6)
    assert est.counts == join_path_counts(alpha, seed, box_net(alpha.monoid), 6)


def fibonacci_shift():
    base = FiniteProduct((6, 6))
    group = DirectSum(base, Z1)
    fib = MatrixEndo(base, ((0, 1), (1, 1)))
    alpha = Action(Z1, group, [shift_endo(group, (1,), fib)])
    seed = Subgroup.generated(group, [
        group.element({(0,): (1, 0), (1,): (0, 1)}),
        group.element({(0,): (2, 3), (2,): (1, 1)}),
    ])
    return alpha, seed


def test_fibonacci_shift_matches_join_path_and_golden_counts():
    alpha, seed = fibonacci_shift()
    est = h_alg_estimate(alpha, seed, box_net(Z1), 40)
    assert est.counts[:12] == join_path_counts(alpha, seed, box_net(Z1), 12)
    golden = json.loads(GOLDEN.read_text())
    assert est.counts == golden["fibonacci-shift@40"]["counts"]


def test_growing_basis_on_translated_and_non_nested_nets():
    alpha, seed = fibonacci_shift()
    shifted = translate_net(box_net(Z1), ms(Z1, [(3,), (-2,)]))
    assert h_alg_estimate(alpha, seed, shifted, 8).counts == join_path_counts(
        alpha, seed, shifted, 8
    )

    def sliding(n):  # [n, 2n]: never nested, so every index starts over
        return ms(Z1, [(i,) for i in range(n, 2 * n + 1)])

    net = FolnerNet(Z1, sliding, "sliding")
    counts = h_alg_estimate(alpha, seed, net, 8).counts
    assert counts == join_path_counts(alpha, seed, net, 8)
    fresh = [subgroup_trajectory(alpha, sliding(n), seed).order() for n in range(1, 9)]
    assert counts == fresh


def infinite_seeds():
    """(alpha, seed, error): 2A on (Z/4)^(Z) has infinite order, and Z^2's
    only finite subgroup is {0}."""
    alpha, _, two_a = klein_shift()
    yield alpha, two_a, UndecidableFamilyError
    z2 = FreeZ(2)
    beta = Action(N1, z2, [MatrixEndo(z2, ((2, 1), (1, 1)))])
    yield beta, Subgroup.generated(z2, [(1, 0)]), GroupMismatchError


class UnreadNet:
    """A net that fails the test as soon as anything counts along it."""

    label = "unread"

    def __getattr__(self, name):
        raise AssertionError(f"net.{name} was read before the seed was refused")


@pytest.mark.parametrize("alpha,seed,error", list(infinite_seeds()))
def test_seeds_of_infinite_order_are_refused_before_counting(alpha, seed, error):
    with pytest.raises(error):
        h_alg_estimate(alpha, seed, UnreadNet(), 3)
    with pytest.raises(error):
        ent_estimate(alpha, None, [seed], UnreadNet(), 3)


INFINITE_SEED_SCENARIOS = {
    "percoord-over-Z": {
        "kind": "entropy",
        "monoid": {"family": "Z^d", "dim": 1},
        "group": {"family": "direct-sum", "base": [4], "index": {"family": "Z^d", "dim": 1}},
        "action": {"generators": [{"kind": "shift", "by": [1]}]},
        "seed": {"percoord_basis": [[2]]},
        "net": {"family": "box"},
    },
    "free-subgroup": {
        "kind": "entropy",
        "monoid": {"family": "N^d", "dim": 1},
        "group": {"family": "free", "rank": 2},
        "action": {"generators": [{"kind": "matrix", "rows": [[2, 1], [1, 1]]}]},
        "seed": {"subgroup_basis": [[1, 0]]},
        "net": {"family": "box"},
    },
}


@pytest.mark.parametrize("name", sorted(INFINITE_SEED_SCENARIOS))
def test_cli_refuses_seeds_of_infinite_order(tmp_path, name):
    source = tmp_path / f"{name}.json"
    source.write_text(json.dumps(INFINITE_SEED_SCENARIOS[name]))
    code, message = cli.run_scenario(str(source), out_dir=tmp_path / "out", prefix=3)
    assert code == 2 and message.startswith("invalid scenario: "), message
    assert not (tmp_path / "out").exists()


def closure_order(group, gens):
    """Oracle: the order of the subgroup that ``gens`` generate, by closure."""
    seen = {group.zero}
    frontier = [group.zero]
    while frontier:
        frontier = [y for x in frontier for g in gens if (y := group.add(x, g)) not in seen]
        seen.update(frontier)
    return len(seen)


@pytest.mark.parametrize("wrap", [True, False], ids=["shift", "identity"])
def test_percoord_seed_over_a_finite_index_is_its_finitely_generated_form(wrap):
    # (2 Z/4)^(Z/3) is the subgroup of order 8 generated by 2 e_0, 2 e_1, 2 e_2
    base = FiniteProduct((4,))
    group = DirectSum(base, FiniteAbelianMonoid((3,)))
    alpha = Action(Z1, group, [shift_endo(group, (1,)) if wrap else identity_endo(group)])
    two_a = Subgroup.percoord(group, Subgroup.generated(base, [(2,)]))
    fg = Subgroup.generated(group, [group.basis_vector((i,), (2,)) for i in range(3)])
    net = box_net(Z1)
    counts = h_alg_estimate(alpha, two_a, net, 3).counts
    subsets = [net.subset(i) for i in range(1, 4)]
    assert counts == [subgroup_trajectory(alpha, f, fg).order() for f in subsets]
    assert counts == [
        closure_order(group, [alpha.apply(s, g) for s in f.elements for g in fg.gens]) for f in subsets
    ]
    assert counts == [8, 8, 8]
    # 2A is invariant, so its trajectory never fills the window
    cert = _window_certificate(alpha, two_a, 1)
    assert cert == _window_certificate(alpha, fg, 1) == GeneratorCertificate(1, 8, False)


def test_percoord_seed_over_a_finite_index_keeps_its_csv(tmp_path):
    source = tmp_path / "percoord-identity.json"
    source.write_text(json.dumps({
        "kind": "entropy",
        "monoid": {"family": "Z^d", "dim": 1},
        "group": {"family": "direct-sum", "base": [4], "index": {"family": "finite", "factors": [3]}},
        "action": {"generators": [{"kind": "identity"}]},
        "seed": {"percoord_basis": [[2]]},
        "net": {"family": "box"},
        "prefix": 3,
    }))
    code, message = cli.run_scenario(str(source), out_dir=tmp_path)
    assert code == 0, message
    data = (tmp_path / "percoord-identity.csv").read_bytes()
    assert data.splitlines()[1:] == [b"1,3,8,0.6931471805599453", b"2,5,8,0.4158883083359671",
                                     b"3,7,8,0.29706307738283366"]
    assert hashlib.sha256(data).hexdigest() == (
        "9f93e035b1a6c809ad924613392966d034df126d42a710bf87b5bfddf7b37ab9"
    )


def certificate_cases():
    """(alpha, seed, scale, covered) for the ent_estimate cases above, two
    seeds that never cover their window, and the addition builtin."""
    (alpha, group) = shift_action((3,), Z1)
    yield alpha, Subgroup.generated(group, [group.basis_vector((0,))]), 1, True
    yield alpha, Subgroup.generated(group, [group.basis_vector((0,))]), 2, True
    s = FiniteAbelianMonoid((2,))
    a = FiniteProduct((8,))
    yield Action(s, a, [scalar_endo(a, -1)]), Subgroup.full(a), 1, True
    yield Action(s, a, [scalar_endo(a, -1)]), Subgroup.generated(a, [(2,)]), 1, False
    (alpha4, group4) = shift_action((4,), Z1)
    yield alpha4, Subgroup.generated(group4, [group4.basis_vector((0,), (2,))]), 1, False
    sc, monoid, group, action = scenario_parts("addition-mod4")
    b = cli.parse_seed(group, sc["subgroup"])
    sub, quo, _ = quotient_and_sub_actions(action, b)
    for act in (action, sub, quo):
        yield act, cli._default_generator_subgroup(act.group), 1, True


@pytest.mark.parametrize("alpha,seed,scale,covered", list(certificate_cases()))
def test_window_certificates_unchanged(alpha, seed, scale, covered):
    cert = _window_certificate(alpha, seed, scale)
    assert cert == window_certificate_oracle(alpha, seed, scale)
    assert cert.covered == covered


# --- the shell-fed trajectory engine, against a fresh trajectory per index ---------

def trajectory_orders(alpha, seed, net, prefix):
    """(|F_i|, |T_{F_i}(alpha, B)|) along the net, as h_alg_estimate counts them."""
    return list(_subgroup_accumulator(alpha, seed).counts_along(net, prefix))


def fresh_orders(alpha, seed, net, prefix):
    """Oracle: |F_i| and |T_{F_i}(alpha, B)| built from all of F_i at every index."""
    return [
        (len(net.subset(i)), subgroup_trajectory(alpha, net.subset(i), seed).order())
        for i in range(1, prefix + 1)
    ]


def fresh_set_counts(alpha, x, net, prefix):
    return [(len(net.subset(i)), len(trajectory(alpha, net.subset(i), x))) for i in range(1, prefix + 1)]


def builtin_trajectory_cases():
    """(name, alpha, seed, net): every builtin entropy and bridge seed, and
    the three generator subgroups of every addition builtin."""
    for name, sc in sorted(cli.BUILTINS.items()):
        if sc["kind"] in ("entropy", "bridge"):
            action, seed, net = cli._action_parts(sc)
            yield name, action, seed, net
        elif sc["kind"] == "addition":
            action, b, net = cli._action_parts(sc, "subgroup")
            sub, quo, _ = quotient_and_sub_actions(action, b)
            for part in (action, sub, quo):
                yield name, part, cli._default_generator_subgroup(part.group), net


def test_builtin_trajectory_cases_cover_every_kind():
    kinds = {cli.BUILTINS[name]["kind"] for name, *_ in builtin_trajectory_cases()}
    assert kinds == {"entropy", "bridge", "addition"}


@pytest.mark.parametrize("name, alpha, seed, net", list(builtin_trajectory_cases()))
def test_shell_fed_counts_match_fresh_trajectories_on_builtins(name, alpha, seed, net):
    prefix = min(cli.BUILTINS[name].get("prefix", 8), 8)
    est = h_alg_estimate(alpha, seed, net, prefix)
    got = [(row.size, count) for row, count in zip(est.estimate.rows, est.counts)]
    if isinstance(seed, Subgroup):
        assert got == fresh_orders(alpha, seed, net, prefix)
        assert trajectory_orders(alpha, seed, net, prefix) == got
    else:
        assert got == fresh_set_counts(alpha, seed, net, prefix)


def box_shift(monoid):
    """Each generator of N^d or Z^d shifts (Z/2 x Z/3)^(monoid); the first
    also multiplies the base by the automorphism diag(1, 2)."""
    base = FiniteProduct((2, 3))
    group = DirectSum(base, monoid)
    twist = MatrixEndo(base, ((1, 0), (0, 2)))
    units = monoid.generators()
    alpha = Action(monoid, group, [shift_endo(group, u, twist if j == 0 else None)
                                   for j, u in enumerate(units)])
    zero = monoid.identity
    seed = Subgroup.generated(group, [
        group.element({zero: (1, 1)}),
        group.element({zero: (0, 1), units[-1]: (1, 0)}),
    ])
    return alpha, seed


def finite_product_action():
    """Z/3 x Z acting on Z/7 x Z/7 by diag(2, 4) (order 3) and diag(3, 5)."""
    monoid = ProductMonoid((FiniteAbelianMonoid((3,)), Z1))
    group = FiniteProduct((7, 7))
    alpha = Action(monoid, group, [MatrixEndo(group, ((2, 0), (0, 4))),
                                   MatrixEndo(group, ((3, 0), (0, 5)))])
    return alpha, Subgroup.generated(group, [(1, 1)])


def truncating(dim):
    monoid = FreeCommutative(dim)
    group = DirectSum(FiniteProduct((3,)), monoid)
    alpha = Action(monoid, group, [shift_endo(group, tuple(-a for a in u)) for u in monoid.generators()])
    far = (2,) * dim
    seed = Subgroup.generated(group, [group.element({far: (1,)}), group.element({(0,) * dim: (2,)})])
    return alpha, seed


def net_shape_cases():
    """(alpha, seed, net, prefix) over every net shape the engine meets."""
    for family in (FreeCommutative, FreeAbelian):
        for dim, prefix in ((1, 6), (2, 3), (3, 2)):
            monoid = family(dim)
            alpha, seed = box_shift(monoid)
            yield alpha, seed, box_net(monoid), prefix
    alpha, seed = finite_product_action()
    yield alpha, seed, box_net(alpha.monoid), 5
    for dim, prefix in ((1, 7), (2, 4)):
        alpha, seed = truncating(dim)
        yield alpha, seed, box_net(alpha.monoid), prefix
    alpha, seed = fibonacci_shift()
    yield alpha, seed, translate_net(box_net(Z1), ms(Z1, [(3,), (-2,)])), 5
    pi = mod_hom(Z1, (3,))
    yield alpha, seed, kernel_box_net(pi), 4
    yield alpha, seed, sliding_net(Z1), 5
    alpha, seed = box_shift(FreeCommutative(2))
    yield alpha, seed, sliding_net(alpha.monoid, 2), 3
    yield alpha, seed, product_net(box_net(N1), box_net(N1)), 6


@pytest.mark.parametrize("alpha, seed, net, prefix", list(net_shape_cases()))
def test_shell_fed_counts_match_fresh_trajectories_on_every_net_shape(alpha, seed, net, prefix):
    assert trajectory_orders(alpha, seed, net, prefix) == fresh_orders(alpha, seed, net, prefix)


def test_non_nested_nets_start_over():
    alpha, seed = box_shift(FreeCommutative(2))
    for net in (sliding_net(alpha.monoid, 2), product_net(box_net(N1), box_net(N1))):
        assert any(fresh for _, _, fresh, _ in net.increments(6))


def test_subgroup_seed_budget_counts_visited_elements():
    alpha, seed = box_shift(FreeAbelian(2))
    # |F_1| + ... : 9, 25, 49 on the nested boxes; the 35th element is in F_3
    with pytest.raises(BudgetExceededError) as err:
        h_alg_estimate(alpha, seed, box_net(alpha.monoid), 5, budget=34)
    assert err.value.index == 3 and err.value.completed is not None
    assert h_alg_estimate(alpha, seed, box_net(alpha.monoid), 3, budget=49).counts
    # restarts count too: the sliding net visits 4 + 9 + 16 elements by index 3
    net = sliding_net(alpha.monoid, 2)
    assert h_alg_estimate(alpha, seed, net, 3, budget=29).counts
    with pytest.raises(BudgetExceededError) as err:
        h_alg_estimate(alpha, seed, net, 3, budget=28)
    assert err.value.index == 3


FIBONACCI_SCENARIO = {
    "kind": "entropy",
    "monoid": {"family": "Z^d", "dim": 1},
    "group": {"family": "direct-sum", "base": [6, 6], "index": {"family": "Z^d", "dim": 1}},
    "action": {"generators": [
        {"kind": "shift", "by": [1], "base": {"kind": "matrix", "rows": [[0, 1], [1, 1]]}},
    ]},
    "seed": {"subgroup_basis": [
        [[[0], [1, 0]], [[1], [0, 1]]],
        [[[0], [2, 3]], [[2], [1, 1]]],
    ]},
    "net": {"family": "box"},
}


# the echelon inserts of the trajectory and its certified (a, m): each
# step of the seed's one-sided orbit inserts one image per seed generator.
# Both bases are automorphisms, so the walk stops at the first step whose
# tail order equals the one before: fibonacci-shift's tail grows at step 1
# and stops at step 2, though its state first repeats only at step 25
# (Z/6's Fibonacci numbers have period 24); quotient-vanishing's tail
# stays {0} at step 1
WORK = {"quotient-vanishing": (1, (2, 0)), "fibonacci-shift": (2 * 2, (12, 1))}


def count_inserts(monkeypatch):
    """The echelons that ``ModularEchelon._insert`` is called on, one entry per call."""
    insert, echelons = lattices.ModularEchelon._insert, []
    monkeypatch.setattr(lattices.ModularEchelon, "_insert",
                        lambda self, v: echelons.append(self) or insert(self, v))
    return echelons


def record_engines(monkeypatch):
    init, engines = _GrowingTrajectory.__init__, []
    monkeypatch.setattr(_GrowingTrajectory, "__init__",
                        lambda self, *args: engines.append(self) or init(self, *args))
    return engines


def inserts_into(engine, echelons):
    return sum(echelon is engine._echelon for echelon in echelons)


@pytest.mark.parametrize("name, prefix", [("quotient-vanishing", 24), ("fibonacci-shift", 40)])
def test_trajectory_work_counts(monkeypatch, tmp_path, name, prefix):
    """A count of work, not of time: the trajectory walks the seed's
    one-sided orbit until its tail order stops growing, taking images
    with the shift alone, and inserts nothing after that; alpha(s) is
    built for no s, every element of F_prefix still counts as visited,
    and no F_i is built."""
    inserts, limit = WORK[name]
    source = name
    if name == "fibonacci-shift":
        source = tmp_path / "fibonacci-shift.json"
        source.write_text(json.dumps(FIBONACCI_SCENARIO))
    endo, subset = Action.endo, FolnerNet.subset
    endo_calls, subsets = [], []
    monkeypatch.setattr(Action, "endo", lambda self, s: endo_calls.append(s) or endo(self, s))
    monkeypatch.setattr(FolnerNet, "subset", lambda self, i: subsets.append(i) or subset(self, i))
    echelons, engines = count_inserts(monkeypatch), record_engines(monkeypatch)
    code, message = cli.run_scenario(str(source), tmp_path, prefix)
    assert code == 0, message
    sc = json.loads(source.read_text()) if name == "fibonacci-shift" else cli.BUILTINS[name]
    monoid = cli.parse_monoid(sc["monoid"])
    window = monoid.window(prefix).elements
    assert endo_calls == []
    [engine] = engines
    assert inserts_into(engine, echelons) == inserts
    assert engine.limit == limit
    assert engine.visited == len(window)
    assert not subsets


def test_fibonacci_base_is_checked_for_invertibility_once(monkeypatch, tmp_path):
    """The Action checks that the Fibonacci base is an automorphism, and the
    orbit walk asks again: the matrix keeps its answer, so one Hermite form
    of its image is made per run, where two were."""
    hnf, calls = lattices.hnf, []
    monkeypatch.setattr(lattices, "hnf", lambda *args: calls.append(args) or hnf(*args))
    source = tmp_path / "fibonacci-shift.json"
    source.write_text(json.dumps(FIBONACCI_SCENARIO))
    code, message = cli.run_scenario(str(source), tmp_path, 40)
    assert code == 0, message
    assert len(calls) == 1


@pytest.mark.parametrize("name, limit", [
    ("fibonacci-shift", (12, 1)),
    ("bernoulli-one-sided", (2, 0)),
    ("bridge-bernoulli", (2, 0)),
    ("restricted-shift-doubles", None),
])
def test_entropy_runs_keep_the_certified_limit(name, limit):
    """h_alg_estimate keeps the orbit's (a, m) and the entropy run puts it in
    its context; the CSV is the one of the shell walk.  On the
    Fibonacci-base shift h = log 12 per step, and a shift by 2 has no
    certificate."""
    sc = FIBONACCI_SCENARIO if name == "fibonacci-shift" else cli.BUILTINS[name]
    alpha, seed, net = cli._action_parts(sc)
    est = h_alg_estimate(alpha, seed, net, 16)
    assert est.limit == limit
    text, context = cli._run_entropy(dict(sc, kind="entropy"), 16, 10**7)
    assert context["limit"] == limit
    engine = _GrowingTrajectory(alpha, seed)
    assert [count for _, count in _counts_along(engine, net, 16)] == est.counts
    assert text == est.to_csv()
    if limit is not None:
        # |T_j| for j one-sided steps: j = i on N and 2i + 1 on Z
        a, m = limit
        steps = [len(net.monoid.sides(i)[0]) for i in range(1, 17)]
        for i in range(1, 16):
            if steps[i - 1] >= m:
                assert est.counts[i] == est.counts[i - 1] * a ** (steps[i] - steps[i - 1])
    if name == "fibonacci-shift":
        assert math.log(limit[0]) == pytest.approx(2.484907, abs=1e-6)


@pytest.mark.parametrize("name, a, want", [
    ("fibonacci-shift", 12, (0, "")),
    ("fibonacci-shift", 13, (1, "check failed: the trajectory certified step ratio 12, expected 13")),
    ("restricted-shift-doubles", 9, (1, "check failed: the trajectory has no certified step ratio")),
    ("bridge-bernoulli", 2, (0, "")),
])
def test_limit_check_reads_the_certified_step_ratio(tmp_path, name, a, want):
    """{"type": "limit", "a": a} passes when the run certified step ratio
    a (on a bridge, both sides did), and otherwise names the side that
    found another ratio or none; a shift by 2 has no certificate."""
    sc = FIBONACCI_SCENARIO if name == "fibonacci-shift" else cli.BUILTINS[name]
    sc = dict(sc, name=name, prefix=16, checks=[{"type": "limit", "a": a}])
    source = tmp_path / f"{name}.json"
    source.write_text(json.dumps(sc))
    code, message = cli.run_scenario(str(source), tmp_path)
    assert (code, message if code else "") == want


def test_limit_check_names_the_bridge_side_without_a_certificate():
    """A bridge passes only when both sides certified a."""
    _, context = cli._run_bridge(cli.BUILTINS["bridge-bernoulli"], 8, 10**7)
    cli.run_checks([{"type": "limit", "a": 2}], context)
    context["limits"]["cotrajectory"] = None
    with pytest.raises(cli.CheckFailure, match="^the cotrajectory has no certified step ratio$"):
        cli.run_checks([{"type": "limit", "a": 2}], context)


# --- identity generators share one image set, against the full walk ----------------

class FullWalkTrajectory(_GrowingTrajectory):
    """Oracle: the former ``extend``, which took seed images for every
    element of a shell, by increasing l1 norm of its full exponents, and
    counted each against the budget as it went."""

    def extend(self, added):
        self._before, self._images = self._images, {}
        self._seen_before, self._seen = self._seen, set()
        seen, seen_before = self._seen, self._seen_before
        exponents = self.action.monoid.generator_exponents
        steps = [(exponents(s), s) for s in added]
        steps.sort(key=lambda step: (sum(map(abs, step[0])), step[0]))
        for e, s in steps:
            self.visited += 1
            if self.visited > self.budget:
                raise BudgetExceededError(
                    f"subgroup trajectory visited more than {self.budget} monoid elements",
                    completed=s,
                )
            images = self._images[e] = self._seed_images(e, s)
            for x in images:
                if x not in seen:
                    seen.add(x)
                    if x not in seen_before:
                        self._echelon.insert(self._flat(x, grow=True))


def identity_generator_cases():
    """(alpha, seed, net, prefix, mask): actions with one or two generators
    that act as the identity, on finite products and direct sums, over
    nested and restarting nets; mask marks the generators left live (None:
    all of them)."""
    sc, monoid, group, vanishing = scenario_parts("quotient-vanishing")
    point = cli.parse_seed(group, sc["seed"])
    yield vanishing, point, box_net(monoid), 8, (0, 1)
    yield vanishing, point, sliding_net(monoid, 2), 4, (0, 1)
    yield vanishing, point, translate_net(box_net(monoid), ms(monoid, [(3, 0), (0, -2)])), 4, (0, 1)

    n2 = FreeCommutative(2)
    flat = FiniteProduct((4, 6))
    phi = MatrixEndo(flat, ((1, 2), (0, 5)))
    alpha = Action(n2, flat, [phi, identity_endo(flat)])
    yield alpha, Subgroup.generated(flat, [(1, 0)]), box_net(n2), 6, (1, 0)
    yield alpha, Subgroup.generated(flat, [(1, 1)]), sliding_net(n2, 2), 4, (1, 0)
    still = Action(n2, flat, [identity_endo(flat)] * 2)
    yield still, Subgroup.generated(flat, [(1, 3)]), box_net(n2), 4, (0, 0)

    z3 = FreeAbelian(3)
    base = FiniteProduct((2, 3))
    line = DirectSum(base, Z1)
    twist = MatrixEndo(base, ((1, 0), (0, 2)))
    alpha = Action(z3, line, [identity_endo(line), shift_endo(line, (1,), twist), identity_endo(line)])
    seed = Subgroup.generated(line, [line.element({(0,): (1, 1)}),
                                     line.element({(0,): (0, 1), (2,): (1, 0)})])
    yield alpha, seed, box_net(z3), 3, (0, 1, 0)
    yield alpha, seed, sliding_net(z3, 3), 2, (0, 1, 0)

    plane = DirectSum(FiniteProduct((3,)), FreeAbelian(2))
    z2 = FreeAbelian(2)
    alpha = Action(z2, plane, [shift_endo(plane, (1, 0)), shift_endo(plane, (0, 0))])
    seed = Subgroup.generated(plane, [plane.element({(0, 0): (1,), (0, 1): (2,)})])
    yield alpha, seed, box_net(z2), 5, (1, 0)

    product = ProductMonoid((FiniteAbelianMonoid((3,)), Z1))
    square = FiniteProduct((7, 7))
    alpha = Action(product, square, [identity_endo(square), MatrixEndo(square, ((3, 0), (0, 5)))])
    yield alpha, Subgroup.generated(square, [(1, 1)]), box_net(product), 5, (0, 1)
    yield alpha, Subgroup.generated(square, [(1, 0)]), product_net(box_net(FiniteAbelianMonoid((3,))),
                                                                   box_net(Z1)), 5, (0, 1)

    # xi alpha xi^{-1} with the identity generator is not recognised as
    # the identity, so the conjugated action walks every element
    beta = conjugate_action(vanishing, GroupIso.negation(group), MonoidIso.negation(monoid))
    yield beta, point, box_net(monoid), 4, None


@pytest.mark.parametrize("alpha, seed, net, prefix, mask", list(identity_generator_cases()))
def test_live_keys_match_the_full_walk(alpha, seed, net, prefix, mask):
    engine, oracle = _GrowingTrajectory(alpha, seed), FullWalkTrajectory(alpha, seed)
    assert engine._mask == (mask or (1,) * len(engine._mask))
    assert list(_counts_along(engine, net, prefix)) == list(_counts_along(oracle, net, prefix))
    assert engine.visited == oracle.visited


def refuse_shells(monkeypatch, net):
    """Make ``net`` fail the test if it builds a shell or the cells of a box."""
    def refuse(i):
        raise AssertionError(f"{i!r} of the full box was built")

    net._shell = refuse
    monkeypatch.setattr(BoxSubset, "__iter__", refuse)


@pytest.mark.parametrize("alpha, seed, net, prefix, mask", list(identity_generator_cases()))
def test_trajectory_route_matches_the_full_walk(monkeypatch, alpha, seed, net, prefix, mask):
    """The route of h_alg_estimate and bridge_check: on a box net it walks
    the shells pinned at the identity generators, read off the windows'
    sides, and never has the net build a shell or a box's cells; it
    agrees with the full walk at every index, visited counts included.
    Every other net is fed its increments."""
    oracle = FullWalkTrajectory(alpha, seed)
    want = list(_counts_along(oracle, net, prefix))
    engine = _GrowingTrajectory(alpha, seed)
    if _is_box_net(net):
        net = box_net(net.monoid)
        refuse_shells(monkeypatch, net)
    assert list(engine.counts_along(net, prefix)) == want
    assert engine.visited == oracle.visited
    assert trajectory_orders(alpha, seed, net, prefix) == want


def stop_of(engine, net, prefix):
    """The counts along the net, or where the budget stopped them."""
    try:
        return list(_counts_along(engine, net, prefix))
    except BudgetExceededError as err:
        return str(err), err.completed, err.index


def live_stop_of(engine, net, prefix):
    """``stop_of`` for the route of ``_GrowingTrajectory.counts_along``."""
    try:
        return list(engine.counts_along(net, prefix))
    except BudgetExceededError as err:
        return str(err), err.completed, err.index


def budget_cases():
    """(alpha, seed, net, prefix, scenario): the box-net cases over Z^3 (one
    live axis of three) and Z/3 x Z (the finite axis dead), and the
    Fibonacci-base shift and bernoulli-two-sided, whose orbits certify at
    net index 12 and 1 (scenario: the one ``amenact run`` takes)."""
    cases = list(identity_generator_cases())
    yield (*cases[6][:4], None)
    yield (*cases[9][:4], None)
    alpha, seed, net = cli._action_parts(FIBONACCI_SCENARIO)
    yield alpha, seed, net, 16, FIBONACCI_SCENARIO
    sc = cli.BUILTINS["bernoulli-two-sided"]
    yield (*cli._action_parts(sc), 8, sc)


@pytest.mark.parametrize("case", range(4), ids=["Z^3", "Z/3 x Z", "fibonacci-shift", "bernoulli-two-sided"])
def test_live_route_stops_where_the_full_walk_stops(case, tmp_path):
    """Budgets at each shell boundary and one element to either side, before
    and after an orbit's certificate, stop at the element and net index of
    the full walk, and ``amenact run`` exits 3 naming them."""
    alpha, seed, net, prefix, scenario = list(budget_cases())[case]
    assert _is_box_net(net)
    source = tmp_path / "budget.json"
    if scenario is not None:
        source.write_text(json.dumps({k: v for k, v in scenario.items() if k != "prefix"}))
    sizes = [net.size(i) for i in range(1, prefix + 1)]
    stops = set()
    for budget in sorted(size + d for size in sizes for d in (-1, 0, 1)):
        want = stop_of(FullWalkTrajectory(alpha, seed, budget), net, prefix)
        assert live_stop_of(_GrowingTrajectory(alpha, seed, budget), net, prefix) == want, budget
        stops.add(want[-1] if isinstance(want, tuple) else None)
        if scenario is not None:
            code, message = cli.run_scenario(str(source), tmp_path, prefix, budget)
            if isinstance(want, list):
                assert code == 0, message
            else:
                text, completed, index = want
                assert (code, message) == (
                    3, f"budget exceeded: {text} (ran out at {completed}, net index {index})"
                ), budget
    assert stops == {*range(1, prefix + 1), None}
    engine = _GrowingTrajectory(alpha, seed)
    list(engine.counts_along(net, prefix))
    if scenario is not None:
        assert engine.limit == ((12, 1) if scenario is FIBONACCI_SCENARIO else (2, 0))


def test_quotient_vanishing_walks_one_element_per_live_key(monkeypatch, tmp_path):
    """At prefix 192 the trajectory inserts the seed's one image, sees its
    state repeat at the next step of the orbit and inserts nothing more,
    while all 385^2 elements count as visited; no shell or box of Z^2 is
    built unless the budget runs out, and then only the shell it runs out
    in."""
    shell, subset = FolnerNet.shell, FolnerNet.subset
    built = []
    echelons, engines = count_inserts(monkeypatch), record_engines(monkeypatch)
    monkeypatch.setattr(FolnerNet, "shell", lambda self, i: built.append(("shell", i)) or shell(self, i))
    monkeypatch.setattr(FolnerNet, "subset", lambda self, i: built.append(("subset", i)) or subset(self, i))
    code, message = cli.run_scenario("quotient-vanishing", tmp_path, 192)
    assert code == 0, message
    [engine] = engines
    assert inserts_into(engine, echelons) == 1 and engine.limit == (2, 0)
    assert engine.visited == 385**2
    assert built == []
    engines.clear()
    code, message = cli.run_scenario("quotient-vanishing", tmp_path, 64, budget=1000)
    assert code == 3 and message.endswith(", net index 16)"), message
    assert built == [("shell", 16)]
    [engine] = engines
    assert inserts_into(engine, echelons) == 1


def test_budget_stops_where_the_full_walk_stops(tmp_path):
    """Budgets at each shell boundary of quotient-vanishing and one element
    to either side stop at the element and net index of the per-element
    rule, and exit 3 names them."""
    sc, monoid, group, alpha = scenario_parts("quotient-vanishing")
    seed, net, prefix = cli.parse_seed(group, sc["seed"]), box_net(monoid), 8
    sizes = [(2 * i + 1) ** 2 for i in range(1, prefix + 1)]
    for budget in sorted(size + d for size in sizes for d in (-1, 0, 1)):
        got = stop_of(_GrowingTrajectory(alpha, seed, budget), net, prefix)
        want = stop_of(FullWalkTrajectory(alpha, seed, budget), net, prefix)
        assert got == want, budget
        code, message = cli.run_scenario("quotient-vanishing", tmp_path, prefix, budget)
        if isinstance(want, list):
            assert code == 0, message
        else:
            text, completed, index = want
            assert (code, message) == (
                3, f"budget exceeded: {text} (ran out at {completed}, net index {index})"
            ), budget


def test_bridge_on_an_action_through_a_quotient_stays_exact(tmp_path, monkeypatch):
    """Each side walks the shift's orbit until its own state repeats: the
    trajectory makes one insert, and the cotrajectory meets the one
    element (0, 0), as U has a single index; their orders still agree at
    every index."""
    sc = dict(cli.BUILTINS["quotient-vanishing"], kind="bridge", prefix=8,
              checks=[{"type": "exact_rows"}])
    sc.pop("demonstrates")
    source = tmp_path / "bridge-through-quotient.json"
    source.write_text(json.dumps(sc))
    meet, met = _GrowingCotrajectory._meet, []
    echelons, engines = count_inserts(monkeypatch), record_engines(monkeypatch)
    monkeypatch.setattr(_GrowingCotrajectory, "_meet", lambda self, s: met.append(s) or meet(self, s))
    code, message = cli.run_scenario(str(source), tmp_path)
    assert code == 0, message
    [engine] = engines
    assert inserts_into(engine, echelons) == 1 and engine.limit == (2, 0)
    assert met == [(0, 0)]
    rows = (tmp_path / "bridge-through-quotient.csv").read_text().splitlines()[1:]
    assert len(rows) == 8 and all(row.endswith(",0.0") for row in rows)


# --- the certified orbit of one live shift, against the shell walk -------------

ORBIT_MODULI = (2, 3, 4, 6, 8, 9)


def random_base(base, rng, invertible):
    """A random matrix endomorphism of ``base`` that is an automorphism
    or is not, as asked; None (the identity) if 200 draws find none."""
    for _ in range(200):
        phi = random_endomorphism(base, rng)
        if phi.is_automorphism() == invertible:
            return phi
    return None


def orbit_case(rng):
    """(alpha, seed, prefix): one live shift by +-1 on K^(N) or K^(Z), K of
    one or two factors, with no base, an automorphism or a map that is
    not one, over N or Z, perhaps beside a generator that acts as the
    identity; the seed has one or two generators within 1-4 indices."""
    base = FiniteProduct(tuple(rng.choice(ORBIT_MODULI) for _ in range(rng.randint(1, 2))))
    index = rng.choice((N1, Z1))
    over = Z1 if index is Z1 and rng.random() < 0.5 else N1
    group = DirectSum(base, index)
    sign = rng.choice((1, -1)) if index is Z1 else 1
    kind = rng.choice(("none", "automorphism", "endomorphism" if over is N1 else "automorphism"))
    phi = shift_endo(group, (sign,), None if kind == "none" else random_base(base, rng, kind == "automorphism"))
    extra = rng.choice((None, N1, Z1, FiniteAbelianMonoid((2,))))
    if extra is None:
        alpha = Action(over, group, [phi])
    elif rng.random() < 0.5:
        alpha = Action(ProductMonoid((over, extra)), group, [phi, identity_endo(group)])
    else:
        alpha = Action(ProductMonoid((extra, over)), group, [identity_endo(group), phi])
    width = rng.randint(1, 4)
    start = rng.randint(0, 3) if index is N1 else rng.randint(-3, 3)
    gens = [
        group.element({(start + t,): tuple(rng.randrange(m) for m in base.factors) for t in range(width)})
        for _ in range(rng.randint(1, 2))
    ]
    return alpha, Subgroup.generated(group, gens), rng.randint(1, 25)


def orbit_cases(count=200):
    rng = random.Random("orbit-route")
    return [orbit_case(rng) for _ in range(count)]


def test_orbit_route_matches_the_shell_walk_on_a_random_family():
    """Every case takes the orbit route and agrees with the shell walk of
    ``_counts_along`` at every index, visited counts included; the family
    holds cases whose state repeats by the prefix and cases where it
    does not."""
    limits = []
    for n, (alpha, seed, prefix) in enumerate(orbit_cases()):
        net = box_net(alpha.monoid)
        engine, oracle = _GrowingTrajectory(alpha, seed), _GrowingTrajectory(alpha, seed)
        assert engine._shift_orbit() is not None, n
        assert list(engine.counts_along(net, prefix)) == list(_counts_along(oracle, net, prefix)), n
        assert engine.visited == oracle.visited, n
        limits.append(engine.limit)
    certified = [limit for limit in limits if limit is not None]
    assert 50 < len(certified) < len(limits)
    assert {a for a, _ in certified} > {1, 2}


def orbit_run(monkeypatch, alpha, seed, prefix, repeat=False):
    """(counts, limit, trajectory inserts) of the orbit walk to ``prefix``;
    with ``repeat``, every base takes the repeat rule, as a base that is
    not an automorphism does."""
    with monkeypatch.context() as patch:
        echelons = count_inserts(patch)
        if repeat:
            patch.setattr("amenact.actions._base_is_automorphism", lambda phi: False)
        engine = _GrowingTrajectory(alpha, seed)
        counts = [count for _, count in engine.counts_along(box_net(alpha.monoid), prefix)]
    return counts, engine.limit, inserts_into(engine, echelons)


def chain_length(n):
    """The length of the longest subgroup chain of a group of order n:
    its prime factors, counted with multiplicity."""
    out, p = 0, 2
    while n > 1:
        while n % p == 0:
            n, out = n // p, out + 1
        p += 1
    return out


def test_tail_rule_matches_the_repeat_rule_on_the_random_family(monkeypatch):
    """On an automorphism base the walk stops at the first step whose
    tail order equals the one before; the repeat rule walks on until the
    state comes again.  They yield the same counts, at the case's prefix
    and at 60, and the same (a, m) wherever the repeat rule certifies,
    which it does on every case by 60, cases with a non-identity base and
    m > 0 among them.  The tail rule walks at most one step per link of
    the longest subgroup chain of K^(w-1), plus one, w the width of the
    seed's support."""
    automorphisms, moved = 0, 0
    for n, (alpha, seed, prefix) in enumerate(orbit_cases()):
        _, phi = _GrowingTrajectory(alpha, seed)._shift_orbit()
        if phi.base is not None and not phi.base.is_automorphism():
            continue
        for p in (prefix, 60):
            counts, limit, inserts = orbit_run(monkeypatch, alpha, seed, p)
            want, repeat_limit, _ = orbit_run(monkeypatch, alpha, seed, p, repeat=True)
            assert counts == want, (n, p)
            assert repeat_limit in (None, limit), (n, p)
        assert limit is not None and repeat_limit == limit, n
        automorphisms += 1
        moved += phi.base is not None and limit[1] > 0
        places = [t for x in seed.gens for (t,), _ in x]
        width = max(places, default=0) - min(places, default=0) + 1
        steps = chain_length(alpha.group.base.order) * (width - 1) + 1
        assert inserts <= steps * len(seed.gens), n
    assert automorphisms > 150 and moved > 25, (automorphisms, moved)


def test_tail_rule_stops_a_base_of_large_order_at_once(monkeypatch):
    """x -> 2x on (Z/101)^(N), whose period is 100, with the seed <e_0 +
    5 e_1>: the tail of T_1 is {0}, as the one before, so one insert
    certifies (101, 0) at any prefix.  The repeat rule waits for the
    images to come again: 100 inserts by prefix 200, and no certificate
    at prefix 50.  In general the tail rule walks at most one step per
    link of the longest subgroup chain of K^(w-1), plus one, here 2."""
    base = FiniteProduct((101,))
    group = DirectSum(base, N1)
    alpha = Action(N1, group, [shift_endo(group, (1,), MatrixEndo(base, ((2,),)))])
    seed = Subgroup.generated(group, [group.element({(0,): (1,), (1,): (5,)})])
    for repeat, prefix, inserts, limit in [
        (False, 50, 1, (101, 0)), (False, 200, 1, (101, 0)),
        (True, 50, 50, None), (True, 200, 100, (101, 0)),
    ]:
        counts, *work = orbit_run(monkeypatch, alpha, seed, prefix, repeat)
        assert counts == [101 ** i for i in range(1, prefix + 1)]
        assert work == [limit, inserts], (repeat, prefix)


def two_part_orbit(rows, gens, index=N1):
    """A shift by +1 with base ``rows`` on (Z/2 x Z/2)^(index), over N."""
    base = FiniteProduct((2, 2))
    group = DirectSum(base, index)
    alpha = Action(N1, group, [shift_endo(group, (1,), MatrixEndo(base, rows))])
    return alpha, Subgroup.generated(group, [group.element(g) for g in gens])


@pytest.mark.parametrize("rows, gens, limit, counts", [
    # (x, y) -> (y, 0): the tail stays {0} while the images go (0, 1) at 0,
    # (1, 0) at 1, then 0, so a key of the tail alone repeats at step 1
    # and would read a = 2 for ever
    (((0, 1), (0, 0)), [{(0,): (0, 1)}], (1, 2), [2, 4, 4, 4, 4, 4]),
    # identity base, B = <e_0, e_1> on the first factor: the images repeat
    # at step 1, but the tail does so only at step 2, after a_0 = 4 has
    # dropped to a_1 = 2, so a key of the images alone would read a = 4
    (((1, 0), (0, 1)), [{(0,): (1, 0)}, {(1,): (1, 0)}], (2, 1), [4, 8, 16, 32, 64, 128]),
], ids=["tail-repeats-first", "images-repeat-first"])
def test_orbit_state_needs_both_the_tail_and_the_images(rows, gens, limit, counts):
    alpha, seed = two_part_orbit(rows, gens)
    net = box_net(N1)
    engine, oracle = _GrowingTrajectory(alpha, seed), _GrowingTrajectory(alpha, seed)
    got = list(engine.counts_along(net, len(counts)))
    assert got == list(_counts_along(oracle, net, len(counts)))
    assert [count for _, count in got] == counts
    assert engine.limit == limit


def test_tuple_sums_stop_at_the_budget(tmp_path):
    """x -> 5x on Z^2 with the 25 digits {0..4}^2: |T_n| = 25^n, so at a
    budget of 25^3 the fourth element's image would make 25 times the
    budget.  The sum stops within one translate of the budget instead."""
    import tracemalloc

    scenario = {
        "kind": "entropy",
        "monoid": {"family": "N^d", "dim": 1},
        "group": {"family": "free", "rank": 2},
        "action": {"generators": [{"kind": "matrix", "rows": [[5, 0], [0, 5]]}]},
        "seed": {"set": [[a, b] for a in range(5) for b in range(5)]},
        "net": {"family": "box"},
    }
    source = tmp_path / "wide-digits.json"
    source.write_text(json.dumps(scenario))
    tracemalloc.start()
    try:
        code, message = cli.run_scenario(str(source), prefix=6, budget=25**3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, message) == (
        3, "budget exceeded: trajectory exceeded 15625 elements (ran out at (3,), net index 4)"
    )
    assert peak < 16 * 2**20  # the whole sum of 25^4 tuples took 53 MB


def test_bitset_sums_stay_within_the_budget(tmp_path):
    """x -> 1024x on Z with the seed 64 {0..1023}: T_1 fills the budget of
    1024 points, and T_2 would span 2^26 bits, 64 per pair x + y of 1024 x
    1024.  The carry route stops expanding the state {0..63} once its sums
    pass the budget; the sumset route, below, does not count the pairs
    past the budget, so the sum unpacks to tuples and stops within one
    translate of the budget."""
    import tracemalloc

    scenario = {
        "kind": "entropy",
        "monoid": {"family": "N^d", "dim": 1},
        "group": {"family": "free", "rank": 1},
        "action": {"generators": [{"kind": "matrix", "rows": [[1024]]}]},
        "seed": {"set": [[64 * k] for k in range(1024)]},
        "net": {"family": "box"},
    }
    source = tmp_path / "wide-gaps.json"
    source.write_text(json.dumps(scenario))
    tracemalloc.start()
    try:
        code, message = cli.run_scenario(str(source), prefix=4, budget=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, message) == (
        3, "budget exceeded: trajectory exceeded 1024 elements (ran out at (1,), net index 2)"
    )
    assert peak < 4 * 2**20  # T_2 as a bitset peaks at 26 MB


def test_bitset_sums_off_the_box_net_stay_within_the_budget():
    import tracemalloc

    alpha = Action(N1, Z, [scalar_endo(Z, 1024)])
    x = FiniteSubset.of(Z, [(64 * k,) for k in range(1024)])
    net = translate_net(box_net(N1), ms(N1, [(0,)]))  # the boxes, but not as a box net
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            h_alg_estimate(alpha, x, net, 4, budget=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.completed, err.value.index) == ((1,), 2)
    assert peak < 4 * 2**20
