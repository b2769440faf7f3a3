"""duality-bridge: pairings, annihilators, cotrajectories, the bridge."""

import hashlib
import json
import math
import operator
import random
from collections import Counter
from itertools import product as iproduct

import pytest

from amenact import cli, lattices
from amenact.abelian import DirectSum, FiniteProduct, Subgroup
from amenact.actions import (
    Action,
    GroupIso,
    MatrixEndo,
    MonoidIso,
    ShiftEndo,
    _GrowingTrajectory,
    _live_mask,
    _subgroup_accumulator,
    conjugate_action,
    identity_endo,
    scalar_endo,
    shift_endo,
)
from amenact.duality import (
    DualGroup,
    OpenSubgroup,
    ProfiniteShiftAction,
    _dual_pair,
    _GrowingCotrajectory,
    _subgroup_gens,
    annihilator,
    annihilator_window,
    bridge_check,
    cotrajectory,
    cotrajectory_window,
    ct_check,
    dual_endomorphism,
    h_top_estimate,
    random_endomorphism,
    subgroup_lattice,
)
from amenact.errors import BudgetExceededError, GroupMismatchError, UndecidableFamilyError
from amenact.folner import FolnerNet, _counts_along, box_net
from amenact.monoid import (
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    Monoid,
    MSubset,
    ProductMonoid,
)
from test_acceptance import _abelian_types

N1 = FreeCommutative(1)
Z1 = FreeAbelian(1)


def ms(monoid, items):
    return MSubset.of(monoid, items)


# --- pairing and annihilators ---------------------------------------------------

def test_pairing_bilinear_and_nondegenerate_z4():
    g = FiniteProduct((4,))
    dual = DualGroup(g)
    for x in g.elements():
        for c in g.elements():
            for y in g.elements():
                left = dual.pairing(g.add(x, y), c)
                right = (dual.pairing(x, c) + dual.pairing(y, c)) % 1
                assert left == right
    # non-degeneracy: only 0 pairs to zero with everything
    for x in g.elements():
        if all(dual.pairing(x, c) == 0 for c in g.elements()):
            assert x == g.zero


def test_annihilator_of_two_in_z4():
    g = FiniteProduct((4,))
    b = Subgroup.generated(g, [(2,)])
    perp = annihilator(b)
    assert perp.elements() == {(0,), (2,)}
    assert b.order() * perp.order() == g.order


def test_annihilator_extremes():
    g = FiniteProduct((6, 2))
    assert annihilator(Subgroup.trivial(g)).order() == g.order
    assert annihilator(Subgroup.full(g)).order() == 1


def test_double_annihilator_small_groups():
    for factors in [(8,), (2, 4), (3, 9), (2, 2, 2)]:
        g = FiniteProduct(factors)
        for gens, elems in subgroup_lattice(g):
            b = Subgroup.generated(g, gens)
            perp = annihilator(b)
            back = annihilator(perp)
            assert back.elements() == elems
            assert b.order() * perp.order() == g.order
            # the canonical data annihilator hands over is what _flat derives
            assert perp._flat() == Subgroup.generated(g, perp.gens)._flat()


def test_annihilator_reads_its_hermite_form_once(monkeypatch):
    g = FiniteProduct((4, 6))
    b = Subgroup.generated(g, [(2, 3)])
    b._flat()  # B's own Hermite form, which the annihilator starts from
    calls = []
    hnf = lattices.hnf
    monkeypatch.setattr(lattices, "hnf", lambda rows, dim: calls.append(dim) or hnf(rows, dim))
    perp = annihilator(b)
    assert perp.order() == 12 and perp.contains((1, 1)) and not perp.contains((1, 0))
    assert perp.canonical_key() == ("fg", None, ((1, 1), (0, 2)))  # c1 + c2 even
    assert calls == [2]


def kernel_annihilator_basis(factors, gens):
    """Oracle: the Hermite basis (modulus rows inside) of {chi : <g, chi> = 0
    for every g in ``gens``} as an integer-lattice kernel, by dense
    elimination alone.  <g, chi> = sum_t g_t chi_t / n_t vanishes mod 1 iff
    sum_t g_t chi_t (lcm / n_t) is 0 mod lcm, so B-perp is the preimage of
    lcm * Z^len(gens) under chi -> those weighted sums."""
    d, m = len(factors), len(gens)
    lcm = math.lcm(*factors)
    columns = [[g[t] * (lcm // n) for g in gens] for t, n in enumerate(factors)]
    targets = [[lcm * (i == j) for j in range(m)] for i in range(m)]
    solutions = [c[:d] for c in lattices.kernel(columns + targets, m)]
    moduli = [[n * (i == j) for j in range(d)] for i, n in enumerate(factors)]
    return dense_hnf(solutions + moduli, d)


def test_annihilator_matches_the_kernel_oracle():
    rng = random.Random("annihilator-kernel")
    for _ in range(2000):
        factors = tuple(rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12]) for _ in range(rng.randint(1, 6)))
        g = FiniteProduct(factors)
        b = Subgroup.generated(g, [tuple(rng.randrange(n) for n in factors) for _ in range(rng.randint(0, 3))])
        perp = annihilator(b)
        assert perp._flat()[1] == kernel_annihilator_basis(factors, b.gens), (factors, b.gens)
        assert b.order() * perp.order() == g.order


def test_annihilator_window_matches_the_kernel_oracle():
    rng = random.Random("annihilator-window")
    for _ in range(300):
        base = tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 2)))
        space = DirectSum(FiniteProduct(base), Z1)
        gens = [
            space.element({(rng.randrange(-2, 3),): tuple(rng.randrange(n) for n in base) for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(0, 3))
        ]
        b = Subgroup.generated(space, gens)
        u = annihilator_window(space, b)
        window = tuple(sorted({i for x in b.gens for i, _ in x}))
        zero = (0,) * len(base)
        flat = [sum((dict(x).get(i, zero) for i in window), ()) for x in b.gens]
        assert u.support == window
        assert [list(r) for r in u.rows] == kernel_annihilator_basis(base * len(window), flat), gens


def test_annihilator_makes_no_kernel_call(monkeypatch):
    def refuse(rows, dim):
        raise AssertionError("lattices.kernel called")

    monkeypatch.setattr(lattices, "kernel", refuse)
    for factors in [(8,), (2, 4), (2, 2, 2), (3, 9), (12,)]:
        g = FiniteProduct(factors)
        for gens, elems in subgroup_lattice(g):
            assert len(elems) * annihilator(Subgroup.generated(g, gens)).order() == g.order
    space = shift_space(4)
    b = Subgroup.generated(space, [space.element({(0,): (2,), (3,): (1,)})])
    u = annihilator_window(space, b)
    assert math.prod(row[j] for j, row in enumerate(u.rows)) == 4


def test_listed_forms_are_the_hermite_forms_of_their_generators():
    # subgroup_lattice and duality-props take each listed form as the
    # subgroup's Hermite form, with no elimination of their own
    for factors in [(), (1,), (4, 2), (6, 4, 2)] + _abelian_types(64):
        g = FiniteProduct(factors)
        for form, (gens, _) in zip(_subgroup_gens(g), subgroup_lattice(g)):
            assert form == Subgroup.generated(g, gens)._flat()[1], (factors, form)


def test_annihilator_of_sum_is_intersection():
    g = FiniteProduct((4, 2))
    subs = subgroup_lattice(g)
    for gens1, elems1 in subs:
        for gens2, elems2 in subs:
            b1 = Subgroup.generated(g, gens1)
            b2 = Subgroup.generated(g, gens2)
            joint = annihilator(b1.join(b2)).elements()
            meet = annihilator(b1).elements() & annihilator(b2).elements()
            assert joint == meet


# the groups of duality-props-small, and two with more subgroups
DUALITY_GROUPS = [tuple(f) for f in cli.BUILTINS["duality-props-small"]["groups"]] + [(4, 6), (2, 6, 4)]


@pytest.mark.parametrize("factors", DUALITY_GROUPS)
def test_annihilator_of_a_join_of_raw_generators_matches_its_hermite_form(factors):
    # duality-props reads (B1 + B2)-perp from the subgroup the join equals;
    # here the kernel still runs on the two generating sets stacked as given
    g = FiniteProduct(factors)
    subs = [Subgroup.generated(g, gens) for gens, _ in subgroup_lattice(g)]
    for b1, b2 in iproduct(subs, repeat=2):
        raw = Subgroup.generated(g, b1.gens + b2.gens)
        hermite = Subgroup.generated(g, [tuple(r) for r in raw._flat()[1]])
        assert annihilator(raw) == annihilator(hermite), (b1.gens, b2.gens)


@pytest.mark.parametrize("factors", DUALITY_GROUPS)
def test_join_and_meet_of_listed_forms_do_not_depend_on_argument_order(factors):
    # duality-props takes each unordered pair of listed forms in one argument
    # order; here every ordered pair, against the element sets
    g = FiniteProduct(factors)
    k = len(factors)
    listed = [(form, elems) for form, (_, elems) in zip(_subgroup_gens(g), subgroup_lattice(g))]
    for (h1, e1), (h2, e2) in iproduct(listed, repeat=2):
        join = lattices.hnf(h1 + h2, k)
        meet = lattices.intersect(h1, h2, k)
        assert join == lattices.hnf(h2 + h1, k), (h1, h2)
        assert meet == lattices.intersect(h2, h1, k), (h1, h2)
        assert join == Subgroup.generated(g, sorted(e1 | e2))._flat()[1], (h1, h2)
        assert meet == Subgroup.generated(g, sorted(e1 & e2))._flat()[1], (h1, h2)


# --- dual endomorphisms ----------------------------------------------------------

def test_dual_of_identity_and_scalar():
    g = FiniteProduct((4,))
    assert dual_endomorphism(identity_endo(g)) == identity_endo(g)
    assert dual_endomorphism(scalar_endo(g, 3)) == scalar_endo(g, 3)


def test_dual_of_swap_is_swap():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    assert dual_endomorphism(swap) == swap


@pytest.mark.parametrize("factors", [(4,), (2, 4), (2, 6), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_adjoint_identity_exhaustively(factors, seed):
    g = FiniteProduct(factors)
    rng = random.Random((factors, seed).__repr__())
    phi = random_endomorphism(g, rng)
    hat = dual_endomorphism(phi)
    dual = DualGroup(g)
    for x in g.elements():
        for chi in g.elements():
            assert dual.pairing(phi.apply(x), chi) == dual.pairing(x, hat.apply(chi))


def test_image_annihilator_is_preimage_of_annihilator():
    g = FiniteProduct((4, 2))
    rng = random.Random(5)
    for _ in range(20):
        phi = random_endomorphism(g, rng)
        hat = dual_endomorphism(phi)
        gens, _ = subgroup_lattice(g)[rng.randrange(len(subgroup_lattice(g)))]
        b = Subgroup.generated(g, gens)
        image = Subgroup.generated(g, [phi.apply(x) for x in b.gens])
        left = annihilator(image).elements()
        perp = annihilator(b).elements()
        right = {chi for chi in g.elements() if hat.apply(chi) in perp}
        assert left == right


# --- cotrajectories ---------------------------------------------------------------

def test_cotrajectory_identity_window_is_u():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    gamma = Action(N1, g, [swap])
    u = Subgroup.generated(g, [(1, 0)])
    cot = cotrajectory(gamma, ms(N1, [(0,)]), u)
    assert cot.elements() == u.elements()


def test_cotrajectory_trivial_action_keeps_u():
    g = FiniteProduct((8,))
    gamma = Action(N1, g, [identity_endo(g)])
    u = Subgroup.generated(g, [(4,)])
    cot = cotrajectory(gamma, ms(N1, [(0,), (1,), (2,)]), u)
    assert cot.elements() == u.elements()


def test_ct_identity_on_klein_swap():
    g = FiniteProduct((2, 2))
    swap = MatrixEndo(g, ((0, 1), (1, 0)))
    alpha = Action(N1, g, [swap])
    b = Subgroup.generated(g, [(1, 0)])
    report = ct_check(alpha, b, ms(N1, [(0,), (1,)]))
    assert report.equal and report.trajectory_order == 4


def test_ct_full_subgroup_and_identity_window():
    g = FiniteProduct((4, 2))
    alpha = Action(N1, g, [scalar_endo(g, 3)])
    full = Subgroup.full(g)
    report = ct_check(alpha, full, ms(N1, [(0,), (1,)]))
    assert report.equal and report.trajectory_order == 8
    b = Subgroup.generated(g, [(2, 0)])
    report2 = ct_check(alpha, b, ms(N1, [(0,)]))
    assert report2.equal and report2.trajectory_order == b.order()


@pytest.mark.parametrize("factors", [(8,), (2, 4), (2, 2, 2), (9,), (3, 3)])
def test_ct_random_sample(factors):
    g = FiniteProduct(factors)
    rng = random.Random(repr(factors))
    subs = subgroup_lattice(g)
    for _ in range(6):
        phi = random_endomorphism(g, rng)
        alpha = Action(N1, g, [phi])
        gens, _ = subs[rng.randrange(len(subs))]
        b = Subgroup.generated(g, gens)
        k = rng.randint(1, 4)
        report = ct_check(alpha, b, ms(N1, [(i,) for i in range(k)]))
        assert report.equal


# --- profinite duals of direct sums ------------------------------------------------

def shift_space(p=2):
    """The direct sum (Z/p)^(N), naming its compact dual (Z/p)^N."""
    return DirectSum(FiniteProduct((p,)), N1)


def dense_hnf(rows, dim):
    """Oracle: the Hermite form by dense elimination alone, which
    ``lattices.hnf`` skips once every column has a modulus row."""
    return lattices._echelon(rows, dim)[0]


def _assert_hermite_rows(u):
    """An OpenSubgroup's rows are the full-rank Hermite form of their own
    lattice, which frozen-dataclass equality and the index in K^I (the
    product of the pivots) rely on."""
    dim = len(u.support) * len(u.space.base.factors)
    assert len(u.rows) == dim and [list(r) for r in u.rows] == dense_hnf(u.rows, dim)


def test_vanishing_subgroup_index():
    # {chi : chi_i in B0 at the listed i} is the annihilator of B0-perp
    # placed at each of them; B0 = 0 has B0-perp = K
    space = shift_space(3)
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,))]))
    assert math.prod(row[j] for j, row in enumerate(u.rows)) == 3
    _assert_hermite_rows(u)
    space = DirectSum(FiniteProduct((2, 4)), N1)
    perp = annihilator(Subgroup.generated(space.base, [(1, 2)]))
    b = Subgroup.generated(space, [space.element({i: g}) for i in [(2,), (0,)] for g in perp.gens])
    u = annihilator_window(space, b)
    assert u.support == ((0,), (2,))
    assert math.prod(row[j] for j, row in enumerate(u.rows)) == (8 // 2) ** 2
    _assert_hermite_rows(u)


def test_vanishing_subgroup_refuses_a_coordinate_outside_the_index_monoid():
    space = shift_space(2)
    with pytest.raises(GroupMismatchError):
        annihilator_window(space, Subgroup.generated(space, [space.element({(-1,): (1,)})]))


def test_cotrajectory_window_shift_stacks_constraints():
    space = shift_space(2)
    gamma = ProfiniteShiftAction(space, N1, [(1,)])
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,))]))
    for n in (1, 2, 5):
        cot = cotrajectory_window(gamma, ms(N1, [(i,) for i in range(n)]), u)
        assert math.prod(row[j] for j, row in enumerate(cot.rows)) == 2**n


def test_cotrajectory_window_brute_force_oracle():
    # count solutions over K^{0..4} directly
    space = shift_space(2)
    gamma = ProfiniteShiftAction(space, N1, [(1,)])
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,)), space.basis_vector((2,))]))
    f = ms(N1, [(0,), (1,)])
    cot = cotrajectory_window(gamma, f, u)
    count = 0
    for vec in iproduct(range(2), repeat=5):
        ok = True
        for (s,) in f.elements:
            if vec[0 + s] != 0 or vec[2 + s] != 0:
                ok = False
        if ok:
            count += 1
    assert math.prod(row[j] for j, row in enumerate(cot.rows)) == 2**5 // count


def test_cotrajectory_window_reaches_new_coordinates_exactly():
    # F = {0, 3} moves U's constraint at 0 to 3: the coordinates 0..3 all
    # exist at once, and the index is the brute-force one over K^{0..3}
    space = shift_space(2)
    gamma = ProfiniteShiftAction(space, N1, [(1,)])
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,))]))
    f = ms(N1, [(0,), (3,)])
    cot = cotrajectory_window(gamma, f, u)
    count = sum(
        all(vec[s] == 0 for (s,) in f.elements) for vec in iproduct(range(2), repeat=4)
    )
    assert cot.support == ((0,), (3,))
    assert math.prod(row[j] for j, row in enumerate(cot.rows)) == 2**4 // count == 4


def test_h_top_shift_is_log_p():
    space = shift_space(5)
    gamma = ProfiniteShiftAction(space, N1, [(1,)])
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,))]))
    est = h_top_estimate(gamma, u, box_net(N1), 8)
    for row in est.rows:
        assert row.ratio == pytest.approx(math.log(5))


def test_h_top_shift_is_log_p_at_prefix_30():
    # no extent is fixed in advance: F_30 = [0, 30) reaches 30 coordinates
    space = shift_space(3)
    gamma = ProfiniteShiftAction(space, N1, [(1,)])
    u = annihilator_window(space, Subgroup.generated(space, [space.basis_vector((0,))]))
    est = h_top_estimate(gamma, u, box_net(N1), 30)
    assert len(est.rows) == 30
    for row in est.rows:
        assert row.ratio == pytest.approx(math.log(3))


def test_h_top_trivial_action_on_finite_group_vanishes():
    g = FiniteProduct((8,))
    gamma = Action(Z1, g, [identity_endo(g)])
    u = Subgroup.generated(g, [(4,)])
    est = h_top_estimate(gamma, u, box_net(Z1), 20)
    assert est.rows[0].ratio == pytest.approx(math.log(4) / 3)
    assert est.tail == pytest.approx(math.log(4) / 41)


def test_h_top_finite_monoid_constant_net():
    s = FiniteAbelianMonoid((2,))
    g = FiniteProduct((8,))
    gamma = Action(s, g, [scalar_endo(g, 3)])
    u = Subgroup.generated(g, [(4,)])
    est = h_top_estimate(gamma, u, box_net(s), 3)
    cot = cotrajectory(gamma, ms(s, [(0,), (1,)]), u)
    expected = math.log(g.order // cot.order()) / 2
    assert est.tail == pytest.approx(expected)


# --- the bridge -------------------------------------------------------------------

def test_bridge_one_sided_bernoulli():
    group = DirectSum(FiniteProduct((3,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    report = bridge_check(alpha, b, box_net(N1), 8)
    assert report.exact_at_every_index
    assert report.algebraic_tail == pytest.approx(math.log(3))
    assert report.topological_tail == pytest.approx(math.log(3))


def test_bridge_two_sided_bernoulli():
    group = DirectSum(FiniteProduct((2,)), Z1)
    alpha = Action(Z1, group, [shift_endo(group, (1,))])
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    report = bridge_check(alpha, b, box_net(Z1), 5)
    assert report.exact_at_every_index
    assert report.algebraic_tail == pytest.approx(math.log(2))


def test_bridge_trivial_action_vanishes_both_sides():
    g = FiniteProduct((4,))
    alpha = Action(Z1, g, [identity_endo(g)])
    b = Subgroup.generated(g, [(2,)])
    report = bridge_check(alpha, b, box_net(Z1), 12)
    assert report.exact_at_every_index
    assert report.algebraic_tail == pytest.approx(math.log(2) / 25)
    assert report.topological_tail == report.algebraic_tail


def test_bridge_finite_monoid_finite_group():
    s = FiniteAbelianMonoid((2,))
    g = FiniteProduct((8,))
    alpha = Action(s, g, [scalar_endo(g, -1)])
    report = bridge_check(alpha, Subgroup.full(g), box_net(s), 3)
    assert report.exact_at_every_index
    assert report.algebraic_tail == pytest.approx(math.log(8) / 2)
    assert report.topological_tail == pytest.approx(math.log(8) / 2)


def test_bridge_over_a_finite_index_wraps_around():
    # N on (Z/2)^(Z/3) by the cyclic shift, seed e_0: both sides reach all
    # of (Z/2)^3 at index 3 and stay there
    group = DirectSum(FiniteProduct((2,)), FiniteAbelianMonoid((3,)))
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    report = bridge_check(alpha, b, box_net(N1), 6)
    assert report.exact_at_every_index
    assert [r.log_index for r in report.rows] == pytest.approx([math.log(2 ** min(n, 3)) for n in range(1, 7)])
    gamma = ProfiniteShiftAction(group, N1, [(1,)])
    assert gamma.translate_support(((0,), (2,)), (4,)) == ((0,), (1,))


# --- supports move by the generators' shift vectors ---------------------------

def test_translate_support_moves_by_the_shift_vectors():
    space = shift_space(2)
    assert ProfiniteShiftAction(space, N1, [(1,)]).translate_support(((0,), (2,)), (3,)) == ((3,), (5,))
    assert ProfiniteShiftAction(space, FreeCommutative(0), []).translate_support(((4,),), ()) == ((4,),)
    by_two = ProfiniteShiftAction(space, N1, [(2,)])
    assert by_two.translate_support(((0,), (2,)), (3,)) == ((6,), (8,))
    line = ProfiniteShiftAction(DirectSum(FiniteProduct((2,)), Z1), FreeAbelian(2), [(0,), (1,)])
    assert line.translate_support(((0,), (1,)), (5, -2)) == ((-2,), (-1,))


def test_bridge_holds_for_a_shift_by_two(tmp_path):
    # <e_0, e_1> under the shift by 2 spans e_0..e_{2n-1} over F_n = [0, n):
    # the cotrajectory must move U's constraints by 2s, not by s
    sc = dict(cli.BUILTINS["bridge-bernoulli"], checks=[{"type": "exact_rows"}])
    sc["action"] = {"generators": [{"kind": "shift", "by": [2]}]}
    sc["seed"] = {"subgroup_basis": [[[[0], [1]]], [[[1], [1]]]]}
    path = tmp_path / "bridge-shift-by-two.json"
    path.write_text(json.dumps(sc))
    code, message = cli.run_scenario(str(path), out_dir=tmp_path, prefix=4)
    assert code == 0, message
    alpha, b, net = cli._action_parts(sc)
    report = bridge_check(alpha, b, net, 6)
    assert report.exact_at_every_index
    assert [r.log_index for r in report.rows] == pytest.approx([2 * n * math.log(2) for n in range(1, 7)])


def test_bridge_holds_for_quotient_vanishing_on_a_line_net():
    # Z^2 acts through its second coordinate only, so along
    # F_n = {(a, 0) : |a| <= n} nothing moves and both sides stay at log 2
    alpha, b, _ = cli._action_parts(cli.BUILTINS["quotient-vanishing"])
    m = alpha.monoid
    line = FolnerNet(m, lambda n: MSubset(m, frozenset((a, 0) for a in range(-n, n + 1))), "line")
    report = bridge_check(alpha, b, line, 4)
    assert report.exact_at_every_index
    assert [r.log_index for r in report.rows] == pytest.approx([math.log(2)] * 4)


def test_bridge_refuses_a_shift_out_of_a_one_sided_index():
    # the truncating shift annihilates what leaves N, which no translate shows
    group = DirectSum(FiniteProduct((2,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (-1,))])
    b = Subgroup.generated(group, [group.basis_vector((0,))])
    with pytest.raises(UndecidableFamilyError):
        _dual_pair(alpha, b)


# --- enumeration oracles -------------------------------------------------------
# The library solves annihilators by triangular substitution, and
# cotrajectories and finite-product inverses as integer-lattice kernels;
# these oracles scan the whole group instead.


def _enum_annihilator(b):
    """{chi : <g, chi> = 0 for every generator g}, by scanning all characters."""
    group = b.group
    lcm = math.lcm(*group.factors)
    chis = list(group.elements())
    for g in b.gens:
        weighted = [x * (lcm // n) for x, n in zip(g, group.factors)]
        chis = [c for c in chis if sum(map(operator.mul, weighted, c)) % lcm == 0]
    return set(chis)


def _enum_cotrajectory(gamma, f_set, u):
    """{chi : gamma(s) chi in U for every s in F}, by scanning all characters."""
    u_elems = u.elements()
    return {
        chi
        for chi in gamma.group.elements()
        if all(gamma.apply(s, chi) in u_elems for s in f_set.elements)
    }


def _enum_inverse(phi):
    """Rows of phi^-1 from the preimages of the unit vectors; None if there is none."""
    k = len(phi.group.factors)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    found = {}
    for x in phi.group.elements():
        found.setdefault(phi.apply(x), x)
    if any(e not in found for e in units):
        return None
    return tuple(tuple(found[units[j]][i] for j in range(k)) for i in range(k))


def _all_subgroups(factors):
    """(gens, elements) of every subgroup of prod Z/n_i, each exactly once.

    Goursat on the first factor: a subgroup B is fixed by B' = B meet
    (0 x rest), the image dZ/n of its first coordinate, and the coset
    a + B' with (d, a) in B, which needs (n/d) a in B'.
    """
    if not factors:
        return [((), frozenset({()}))]
    n, rest = factors[0], factors[1:]
    rest_elements = list(iproduct(*(range(m) for m in rest)))

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, rest))

    def mul(c, x):
        return tuple((c * a) % m for a, m in zip(x, rest))

    out = []
    for gens, elems in _all_subgroups(rest):
        reps, covered = [], set()
        for a in rest_elements:
            if a not in covered:
                reps.append(a)
                covered.update(add(a, h) for h in elems)
        for d in range(1, n + 1):
            if n % d:
                continue
            for a in reps:
                if mul(n // d, a) not in elems:
                    continue
                new = frozenset(
                    ((t * d) % n,) + add(mul(t, a), h) for t in range(n // d) for h in elems
                )
                out.append((((d % n,) + a,) + tuple((0,) + g for g in gens), new))
    return out


def _bfs_subgroups(group):
    """The element set of every subgroup, by breadth-first closure over
    one-element extensions (one extension per coset)."""
    add = group.add
    all_elements = list(group.elements())
    seen = {frozenset({group.zero})}
    frontier = list(seen)
    while frontier:
        nxt = []
        for elems in frontier:
            covered = set(elems)
            for x in all_elements:
                if x in covered:
                    continue
                coset = {add(h, x) for h in elems}
                covered |= coset
                new = coset | elems
                shift = add(x, x)
                while shift not in elems:
                    new.update(add(h, shift) for h in elems)
                    shift = add(shift, x)
                newf = frozenset(new)
                if newf not in seen:
                    seen.add(newf)
                    nxt.append(newf)
        frontier = nxt
    return seen


@pytest.mark.parametrize("factors", [(8,), (2, 4), (2, 2, 2), (3, 9), (2, 6), (4, 4)])
def test_goursat_oracle_lists_the_subgroup_lattice(factors):
    mine = sorted(sorted(elems) for _, elems in _all_subgroups(factors))
    lattice = sorted(sorted(elems) for _, elems in subgroup_lattice(FiniteProduct(factors)))
    assert mine == lattice


def test_hermite_forms_list_the_bfs_subgroups_once_each():
    for factors in _abelian_types(64) + [(2, 64), (4, 4, 8), (9, 27), (2, 60)]:
        group = FiniteProduct(factors)
        listed = [frozenset(elems) for _, elems in subgroup_lattice(group)]
        assert len(set(listed)) == len(listed), factors
        assert set(listed) == _bfs_subgroups(group), factors


def _gaussian_binomial(k, m, p):
    num = den = 1
    for i in range(m):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "p, k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4), (5, 3), (7, 2)]
)
def test_elementary_subgroup_counts_are_gaussian_binomials(p, k):
    # (Z/p)^k has [k choose m]_p subgroups of order p^m
    counts = Counter(len(elems) for _, elems in subgroup_lattice(FiniteProduct((p,) * k)))
    assert counts == {p**m: _gaussian_binomial(k, m, p) for m in range(k + 1)}


def test_cyclic_group_at_the_order_cap_lists_its_subgroups():
    # Z/2^13: one subgroup per divisor; the element-set search never ended here
    subs = subgroup_lattice(FiniteProduct((2**13,)))
    assert sorted(len(elems) for _, elems in subs) == [2**m for m in range(14)]


def test_annihilator_matches_enumeration_on_every_group_of_order_64_or_less():
    for factors in _abelian_types(64):
        group = FiniteProduct(factors)
        for gens, _ in _all_subgroups(factors):
            b = Subgroup.generated(group, gens)
            assert annihilator(b).elements() == _enum_annihilator(b), (factors, gens)


@pytest.mark.parametrize("factors", [(8,), (2, 4), (2, 2, 2), (4, 4), (3, 9), (2, 6), (2, 2, 4)])
def test_cotrajectory_matches_enumeration(factors):
    g = FiniteProduct(factors)
    rng = random.Random(f"cotrajectory:{factors}")
    subs = _all_subgroups(factors)
    for _ in range(5):
        gamma = Action(N1, g, [random_endomorphism(g, rng)])
        u = Subgroup.generated(g, subs[rng.randrange(len(subs))][0])
        for k in range(1, 5):
            f = ms(N1, [(i,) for i in range(k)])
            assert cotrajectory(gamma, f, u).elements() == _enum_cotrajectory(gamma, f, u)


@pytest.mark.parametrize("factors", [(8,), (2, 4), (2, 2, 2), (4, 4), (3, 9), (2, 6)])
def test_inverse_matches_enumeration(factors):
    g = FiniteProduct(factors)
    rng = random.Random(f"inverse:{factors}")
    seen = set()
    for _ in range(30):
        phi = random_endomorphism(g, rng)
        expected = _enum_inverse(phi)
        if expected is None:
            with pytest.raises(GroupMismatchError, match="not invertible"):
                phi.inverse()
        else:
            assert phi.inverse().rows == expected
        seen.add(expected is None)
    assert seen == {True, False}


def test_duality_on_a_group_of_order_two_to_the_eighteen():
    g = FiniteProduct((512, 512))
    b = Subgroup.generated(g, [(2, 6), (0, 128)])
    perp = annihilator(b)
    assert b.order() * perp.order() == g.order
    assert annihilator(perp).canonical_key() == b.canonical_key()
    phi = MatrixEndo(g, ((3, 1), (5, 2)))
    inv = phi.inverse()
    for e in [(1, 0), (0, 1)]:
        assert phi.apply(inv.apply(e)) == e == inv.apply(phi.apply(e))
    rng = random.Random(512)
    for endo in (phi, random_endomorphism(g, rng)):
        alpha = Action(N1, g, [endo])
        for k in range(1, 4):
            assert ct_check(alpha, b, ms(N1, [(i,) for i in range(k)])).equal


# --- the growing cotrajectory against the from-scratch intersection ------------
# The library grows one sparse ModularEchelon along a net; these oracles
# rebuild C_F(gamma, U) at every index with one lattices.intersect per
# element of F, or grow the former dense Hermite basis.


def _scratch_preimage(images, target_rows, dim):
    m = len(images)
    return [c[:m] for c in lattices.kernel(images + target_rows, dim)]


def _scratch_cotrajectory(gamma, f_set, u):
    """C_F(gamma, U) of an Action on a finite product, as an HNF basis."""
    k = len(gamma.group.factors)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    _, u_basis, _, _ = u._flat()
    acc = [list(e) for e in units]
    for s in f_set.elements:
        images = [list(gamma.apply(s, e)) for e in units]
        acc = lattices.intersect(acc, _scratch_preimage(images, u_basis, k), k)
    return dense_hnf(acc, k)


def _scratch_cotrajectory_window(gamma, f_set, u):
    """C_F(gamma, U) of a ProfiniteShiftAction, over the sorted union of the
    translated supports, every preimage padded with unit rows."""
    k = len(gamma.space.base.factors)
    translated = [gamma.translate_support(u.support, s) for s in sorted(f_set.elements)]
    union = tuple(sorted({i for moved in translated for i in moved}))
    pos = {i: t for t, i in enumerate(union)}
    d = len(union) * k
    acc = [[int(i == j) for j in range(d)] for i in range(d)]
    for moved in translated:
        pre = []
        for row in u.rows:
            placed = [0] * d
            for t, i in enumerate(moved):
                placed[pos[i] * k : (pos[i] + 1) * k] = row[t * k : (t + 1) * k]
            pre.append(placed)
        for i in union:
            if i not in moved:
                pre.extend([int(j == pos[i] * k + t) for j in range(d)] for t in range(k))
        acc = lattices.intersect(acc, pre, d)
    return OpenSubgroup(gamma.space, union, tuple(tuple(r) for r in dense_hnf(acc, d)))


def _scratch_index(gamma, f_set, u):
    if isinstance(gamma, ProfiniteShiftAction):
        rows = _scratch_cotrajectory_window(gamma, f_set, u).rows
    else:
        rows = _scratch_cotrajectory(gamma, f_set, u)
    return math.prod(row[j] for j, row in enumerate(rows))


def _dense_meet_preimage(basis, images, target_rows, image_dim):
    """HNF of {x in L : the image of x lies in L'}, for L the row lattice of
    a full-rank HNF ``basis`` and images[r] the image of basis[r]: rows with
    a zero image stay, the others enter one kernel, and ``hnf`` runs on the
    block from the first moved pivot on."""
    dim = len(basis)
    moved = [j for j, img in enumerate(images) if any(img)]
    if not moved:
        return basis
    c = moved[0]
    tail = [basis[j][c:] for j in range(c, dim) if not any(images[j])]
    for combo in _scratch_preimage([images[j] for j in moved], target_rows, image_dim):
        vec = [0] * (dim - c)
        for a, j in zip(combo, moved):
            if a:
                vec = [v + a * x for v, x in zip(vec, basis[j][c:])]
        tail.append(vec)
    return basis[:c] + [[0] * c + r for r in dense_hnf(tail, dim - c)]


class DenseCotrajectory:
    """Oracle: the former growing cotrajectory, one dense full-rank HNF
    basis that holds the modulus rows, met with gamma(s)^{-1}(U) by
    ``_dense_meet_preimage``; on K^I each newly reached index pads every
    row with k zeros and adds k unit rows."""

    def __init__(self, gamma, u):
        self.gamma = gamma
        self.profinite = isinstance(gamma, ProfiniteShiftAction)
        if self.profinite:
            self.factors = gamma.space.base.factors
            self.support = u.support
            self.image_dim = len(u.support) * len(self.factors)
            moduli = [[m if i == j else 0 for j in range(self.image_dim)]
                      for i, m in enumerate(self.factors * len(u.support))]
            self.target = [list(r) for r in u.rows] + moduli
        else:
            self.factors = gamma.group.factors
            self.target = u._flat()[1]
            self.image_dim = len(self.factors)
        self.reset()

    def reset(self):
        self.pos = {}
        d = 0 if self.profinite else len(self.factors)
        self.basis = [[int(i == j) for j in range(d)] for i in range(d)]

    def extend(self, added):
        for s in sorted(added):
            images = self._images(s)
            self.basis = _dense_meet_preimage(self.basis, images, self.target, self.image_dim)

    def _images(self, s):
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

    @property
    def count(self):
        return math.prod(row[j] for j, row in enumerate(self.basis))


def _assert_echelon_invariants(echelon):
    """Row j of a ModularEchelon: pivot p_j | m_j in column j and nothing
    before it, later entries in [0, m_k), no stored zero, and order() the
    product of the m_j / p_j."""
    order = 1
    for j, (row, m) in enumerate(zip(echelon.rows, echelon.moduli)):
        assert min(row) == j and m % row[j] == 0
        assert all(row.values())
        assert all(0 <= x < echelon.moduli[k] for k, x in row.items() if k != j)
        order *= m // row[j]
    assert echelon.order() == order


def _assert_matches_scratch(gamma, u, net, prefix):
    acc, dense = _GrowingCotrajectory(gamma, u), DenseCotrajectory(gamma, u)
    counts = zip(_counts_along(acc, net, prefix), _counts_along(dense, net, prefix), strict=True)
    for i, ((size, index), (_, want)) in enumerate(counts, start=1):
        # the accumulator the net drove keeps the ModularEchelon invariants
        # at every index, not only after the last one
        _assert_echelon_invariants(acc._echelon)
        fi = net.subset(i)
        assert size == len(fi)
        assert index == want == _scratch_index(gamma, fi, u), i
        if isinstance(gamma, ProfiniteShiftAction):
            window = cotrajectory_window(gamma, fi, u)
            _assert_hermite_rows(u)
            _assert_hermite_rows(window)
            assert window == _scratch_cotrajectory_window(gamma, fi, u)
        else:
            scratch = _scratch_cotrajectory(gamma, fi, u)
            expected = Subgroup.generated(gamma.group, [tuple(r) for r in scratch])
            assert cotrajectory(gamma, fi, u).canonical_key() == expected.canonical_key()
    assert i == prefix


def _assert_matches_dense_in_random_order(gamma, u, elements, rng, splits=3):
    """Feed the same elements one at a time in a random order, with a few
    restarts, to the accumulator and the dense oracle: equal counts at every
    step."""
    acc, dense = _GrowingCotrajectory(gamma, u), DenseCotrajectory(gamma, u)
    for _ in range(splits):
        order = list(elements)
        rng.shuffle(order)
        acc.reset()
        dense.reset()
        for s in order:
            acc.extend([s])
            dense.extend([s])
            _assert_echelon_invariants(acc._echelon)
            assert acc.count == dense.count, s


BRIDGE_BUILTINS = sorted(name for name, sc in cli.BUILTINS.items() if sc["kind"] == "bridge")


def test_bridge_builtins_are_covered():
    assert "bridge-bernoulli" in BRIDGE_BUILTINS


@pytest.mark.parametrize("name", BRIDGE_BUILTINS)
def test_cotrajectory_accumulator_matches_scratch_on_builtin_bridges(name):
    alpha, b, net = cli._action_parts(cli.BUILTINS[name])
    prefix = max(cli.BUILTINS[name].get("prefix", 8), 16)
    gamma, u = _dual_pair(alpha, b)
    _assert_matches_scratch(gamma, u, net, prefix)
    assert bridge_check(alpha, b, net, prefix).exact_at_every_index


@pytest.mark.parametrize("name", BRIDGE_BUILTINS)
def test_cotrajectory_accumulator_matches_dense_in_random_order_on_builtin_bridges(name):
    alpha, b, net = cli._action_parts(cli.BUILTINS[name])
    gamma, u = _dual_pair(alpha, b)
    elements = net.subset(max(cli.BUILTINS[name].get("prefix", 8), 16)).elements
    _assert_matches_dense_in_random_order(gamma, u, elements, random.Random(name))


def _two_block_shift(index):
    """A shift on (Z/2 x Z/4)^(index) with a seed spread over three indices,
    so translated supports overlap and constrain old columns as well."""
    group = DirectSum(FiniteProduct((2, 4)), index)
    gens = [frozenset({((0,) * index.dim, (1, 2)), ((2,) + (0,) * (index.dim - 1), (0, 1))}),
            frozenset({((1,) + (0,) * (index.dim - 1), (1, 1))})]
    moves = [tuple(int(i == j) for j in range(index.dim)) for i in range(index.dim)]
    alpha = Action(index, group, [shift_endo(group, m) for m in moves])
    return alpha, Subgroup.generated(group, gens)


@pytest.mark.parametrize(
    "index, prefix", [(Z1, 5), (N1, 8), (FreeCommutative(2), 4)], ids=["Z", "N", "N2"]
)
def test_cotrajectory_accumulator_matches_scratch_on_overlapping_supports(index, prefix):
    alpha, b = _two_block_shift(index)
    net = box_net(index)
    gamma, u = _dual_pair(alpha, b)
    _assert_matches_scratch(gamma, u, net, prefix)
    assert bridge_check(alpha, b, net, prefix).exact_at_every_index
    rng = random.Random(f"two-block:{index}")
    _assert_matches_dense_in_random_order(gamma, u, net.subset(prefix).elements, rng)


def _sliding_net(monoid, width):
    """F_i = {i, ..., i + width - 1} on N: consecutive sets overlap but are
    not nested, so every index starts the accumulator over."""
    return FolnerNet(monoid, lambda i: ms(monoid, [(i + t,) for t in range(width)]), "sliding")


def test_cotrajectory_accumulator_restarts_on_a_sliding_net():
    alpha, b = _two_block_shift(N1)
    net = _sliding_net(N1, 3)
    gamma, u = _dual_pair(alpha, b)
    _assert_matches_scratch(gamma, u, net, 6)
    assert bridge_check(alpha, b, net, 6).exact_at_every_index
    g = FiniteProduct((4, 6))
    rng = random.Random("sliding")
    gamma = Action(N1, g, [random_endomorphism(g, rng)])
    u = Subgroup.generated(g, [(2, 3)])
    _assert_matches_scratch(gamma, u, net, 6)


def test_cotrajectory_accumulator_starts_over_when_the_last_set_is_not_inside():
    # one accumulator driven by hand: nested, then a jump, then nested again
    alpha, b = _two_block_shift(Z1)
    sets = [[(0,)], [(0,), (1,)], [(3,), (4,)], [(2,), (3,), (4,)], [(-1,)]]
    net = FolnerNet(Z1, lambda i: ms(Z1, sets[i - 1]), "jumps")
    gamma, u = _dual_pair(alpha, b)
    fresh = [fresh for _, _, fresh, _ in net.increments(len(sets))]
    assert fresh == [False, False, True, False, True]
    counts = _counts_along(_GrowingCotrajectory(gamma, u), net, len(sets))
    for items, (_, index) in zip(sets, counts, strict=True):
        assert index == _scratch_index(gamma, ms(Z1, items), u), items


def test_cotrajectory_accumulator_matches_scratch_on_every_group_of_order_64_or_less():
    rng = random.Random("criterion-10 groups")
    net = box_net(N1)
    for factors in _abelian_types(64):
        g = FiniteProduct(factors)
        subs = _all_subgroups(factors)
        for _ in range(2):
            gamma = Action(N1, g, [random_endomorphism(g, rng)])
            u = Subgroup.generated(g, subs[rng.randrange(len(subs))][0])
            acc = _GrowingCotrajectory(gamma, u)
            indices = [index for _, index in _counts_along(acc, net, 4)]
            expected = [_scratch_index(gamma, net.subset(i), u) for i in range(1, 5)]
            assert indices == expected, factors
            _assert_echelon_invariants(acc._echelon)
            elements = net.subset(4).elements
            _assert_matches_dense_in_random_order(gamma, u, elements, rng, splits=1)


def test_cotrajectory_accumulator_on_a_product_monoid_with_a_finite_part():
    monoid = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    g = FiniteProduct((3, 9))
    alpha = Action(monoid, g, [scalar_endo(g, -1), MatrixEndo(g, ((1, 0), (3, 1)))])
    b = Subgroup.generated(g, [(1, 1)])
    net = box_net(monoid)
    gamma, u = _dual_pair(alpha, b)
    _assert_matches_scratch(gamma, u, net, 4)
    assert bridge_check(alpha, b, net, 4).exact_at_every_index


def test_bridge_bernoulli_makes_one_kernel_and_no_intersection_per_new_element(monkeypatch):
    calls = {"kernel": 0, "intersect": 0}
    for name in calls:
        def counted(*args, _orig=getattr(lattices, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(lattices, name, counted)
    alpha, b, net = cli._action_parts(cli.BUILTINS["bridge-bernoulli"])
    assert bridge_check(alpha, b, net, 40).exact_at_every_index
    # U has one index, so the cotrajectory's state repeats after the meet
    # with the translate by 0: one kernel in all, where the walk of every
    # element of F_40 made 40; the annihilator is solved without one
    assert calls == {"kernel": 1, "intersect": 0}


def test_bridge_bernoulli_makes_as_many_kernels_at_prefix_1280_as_at_40(monkeypatch):
    """A count of work, not of time: once its state repeats the
    cotrajectory meets no more translates, however long the prefix."""
    calls = []
    kernel = lattices.kernel
    monkeypatch.setattr(lattices, "kernel", lambda *args: calls.append(1) or kernel(*args))
    alpha, b, net = cli._action_parts(cli.BUILTINS["bridge-bernoulli"])
    made = []
    for prefix in (40, 1280):
        calls.clear()
        report = bridge_check(alpha, b, net, prefix)
        assert report.exact_at_every_index and len(report.rows) == prefix
        made.append(len(calls))
    assert made == [1, 1]


def _box_bridges():
    """(alpha, B, box net, prefix): every bridge builtin, the overlapping
    two-block shift on Z, N and N^2, and finite products over Z and over a
    product monoid."""
    for name in BRIDGE_BUILTINS:
        alpha, b, net = cli._action_parts(cli.BUILTINS[name])
        yield alpha, b, net, 24
    for index, prefix in [(Z1, 5), (N1, 8), (FreeCommutative(2), 4)]:
        alpha, b = _two_block_shift(index)
        yield alpha, b, box_net(index), prefix
    g = FiniteProduct((4, 6))
    alpha = Action(Z1, g, [MatrixEndo(g, ((1, 2), (3, 1)))])
    yield alpha, Subgroup.generated(g, [(2, 3)]), box_net(Z1), 6
    monoid = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    g = FiniteProduct((3, 9))
    alpha = Action(monoid, g, [scalar_endo(g, -1), MatrixEndo(g, ((1, 0), (3, 1)))])
    yield alpha, Subgroup.generated(g, [(1, 1)]), box_net(monoid), 4


def test_box_net_bridges_build_no_net_set(monkeypatch):
    """A count of work, not of time: on a box net neither side of the
    bridge, nor h_top_estimate, builds an F_i or a window."""
    calls = []
    subset = FolnerNet.subset
    monkeypatch.setattr(FolnerNet, "subset", lambda self, i: calls.append(i) or subset(self, i))
    for cls in [Monoid, *Monoid.__subclasses__()]:
        if "window" in vars(cls):
            def counted(self, n, _orig=vars(cls)["window"]):
                calls.append(n)
                return _orig(self, n)
            monkeypatch.setattr(cls, "window", counted)
    for alpha, b, net, prefix in _box_bridges():
        assert bridge_check(alpha, b, net, prefix).exact_at_every_index
        gamma, u = _dual_pair(alpha, b)
        assert len(h_top_estimate(gamma, u, net, prefix).rows) == prefix
    assert calls == []


def _identity_generator_bridges():
    """(alpha, B, box net, prefix): bridges with a generator that acts as
    the identity, on a direct sum over Z^2 and over Z/2 x Z, and on a
    finite product over N^2 (its dual is the identity matrix)."""
    alpha, b, net = cli._action_parts(dict(cli.BUILTINS["quotient-vanishing"], kind="bridge"))
    yield alpha, b, net, 12
    monoid = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    line = DirectSum(FiniteProduct((2,)), FreeAbelian(1))
    alpha = Action(monoid, line, [shift_endo(line, (0,)), shift_endo(line, (1,))])
    yield alpha, Subgroup.generated(line, [line.element({(0,): (1,)})]), box_net(monoid), 6
    n2, g = FreeCommutative(2), FiniteProduct((4, 6))
    alpha = Action(n2, g, [identity_endo(g), MatrixEndo(g, ((1, 2), (0, 5)))])
    yield alpha, Subgroup.generated(g, [(1, 0)]), box_net(n2), 5


class FullWalkCotrajectory(_GrowingCotrajectory):
    """Oracle: the cotrajectory met with every element of every shell."""

    def extend(self, added):
        for s in sorted(added):
            self._meet(s)


def full_walk(gamma, u, net, prefix):
    return list(_counts_along(FullWalkCotrajectory(gamma, u), net, prefix))


@pytest.mark.parametrize("alpha, b, net, prefix", list(_identity_generator_bridges()))
def test_live_cotrajectory_matches_the_full_walk(alpha, b, net, prefix):
    """Fed one element per live key of each box shell, by the mask it
    derives from gamma, the cotrajectory has the index of the one fed
    every element, at every net index."""
    gamma, u = _dual_pair(alpha, b)
    engine = _GrowingCotrajectory(gamma, u)
    assert 0 in engine._mask
    assert list(engine.counts_along(net, prefix)) == full_walk(gamma, u, net, prefix)
    assert bridge_check(alpha, b, net, prefix).exact_at_every_index


@pytest.mark.parametrize("alpha, b, net, prefix", list(_identity_generator_bridges()))
def test_h_top_estimate_feeds_one_element_per_live_key(monkeypatch, alpha, b, net, prefix):
    """The ratio table pins the dual's identity generators as the bridge
    does: its indices are those of the walk fed every element.  On a
    finite product the cotrajectory meets one element per live key of
    F_prefix; on K^Z, with one live shift by +1 and U on one index, it
    meets only the translate by 0, after which its state repeats."""
    gamma, u = _dual_pair(alpha, b)
    want = full_walk(gamma, u, net, prefix)
    mask = _live_mask(gamma)
    meet, fed = _GrowingCotrajectory._meet, []
    monkeypatch.setattr(_GrowingCotrajectory, "_meet", lambda self, s: fed.append(s) or meet(self, s))
    est = h_top_estimate(gamma, u, net, prefix)
    assert [(row.size, row.value) for row in est.rows] == [(size, math.log(index)) for size, index in want]
    if isinstance(gamma, ProfiniteShiftAction):
        assert fed == [(0, 0)]
    else:
        keys = {tuple(a * on for a, on in zip(s, mask)) for s in net.monoid.window(prefix).elements}
        assert sorted(fed) == sorted(keys)


def test_live_masks_of_dual_actions():
    """A zero shift of a ProfiniteShiftAction, or a generator equal to the
    identity, acts as the identity."""
    line = DirectSum(FiniteProduct((2,)), FreeAbelian(1))
    assert _live_mask(ProfiniteShiftAction(line, FreeAbelian(2), [(0,), (1,)])) == (0, 1)
    assert _live_mask(ProfiniteShiftAction(line, FreeCommutative(0), [])) == ()
    g = FiniteProduct((4, 6))
    n2 = FreeCommutative(2)
    assert _live_mask(Action(n2, g, [MatrixEndo(g, ((1, 2), (0, 5))), identity_endo(g)])) == (1, 0)


def test_dual_shift_builds_its_generator_steps_once(monkeypatch, tmp_path):
    """A ProfiniteShiftAction builds one ShiftEndo per generator when it is
    made, and every later step reads it back: bridge-bernoulli builds 4."""
    built, post_init = [], ShiftEndo.__post_init__
    monkeypatch.setattr(ShiftEndo, "__post_init__", lambda self: built.append(1) or post_init(self))
    assert cli.run_scenario("bridge-bernoulli", tmp_path)[0] == 0
    assert len(built) == 4
    gamma = ProfiniteShiftAction(DirectSum(FiniteProduct((2,)), FreeAbelian(1)), FreeAbelian(2), [(1,), (0,)])
    built.clear()
    steps = [gamma._generator_step(j, 1) for j in (0, 1, 0)]
    assert built == [] and steps[0] is steps[2] and steps[1].shift == (0,)


@pytest.mark.parametrize("prefix, digest", [
    (16, "8d11f0c86979ac16df59e803b6f69f3bdb5500be1ca775d7ef37c1fe5a4e0040"),
    (32, "8787ab8350b44350bd704a58394de48c6acbc312a2d23f6eb91e27090ad2e8de"),
    (64, "c38011670a29cd95f5c63cbf81dcf27325c0fadb0fc997683ee974b9de90ad8b"),
])
def test_quotient_vanishing_as_a_bridge_keeps_its_csv(tmp_path, prefix, digest):
    """quotient-vanishing run as a bridge, where the cotrajectory walks one
    element per live key; digests recorded when it walked every element."""
    sc = dict(cli.BUILTINS["quotient-vanishing"], kind="bridge", name="qv-bridge", prefix=prefix)
    sc.pop("checks")
    source = tmp_path / "qv-bridge.json"
    source.write_text(json.dumps(sc))
    assert cli.run_scenario(str(source), tmp_path)[0] == 0
    assert hashlib.sha256((tmp_path / "qv-bridge.csv").read_bytes()).hexdigest() == digest


# --- the certified orbit of one live shift on the cotrajectory side ----------------

ORBIT_MODULI = (2, 3, 4, 6, 8, 9)


def cotrajectory_orbit_case(rng):
    """(alpha, B, prefix): a pure shift by +-1 on K^(N) or K^(Z), K of one
    or two factors, over N or Z, perhaps beside a generator that acts as
    the identity; B has one or two generators, each nonzero at both ends
    of 1-4 indices and perhaps not between them, so U = B-perp has
    support widths 1-4, some with gaps."""
    base = FiniteProduct(tuple(rng.choice(ORBIT_MODULI) for _ in range(rng.randint(1, 2))))
    index = rng.choice((N1, Z1))
    over = Z1 if index is Z1 and rng.random() < 0.5 else N1
    group = DirectSum(base, index)
    phi = shift_endo(group, (rng.choice((1, -1)) if index is Z1 else 1,))
    extra = rng.choice((None, None, N1, FiniteAbelianMonoid((2,))))
    if extra is None:
        alpha = Action(over, group, [phi])
    elif rng.random() < 0.5:
        alpha = Action(ProductMonoid((over, extra)), group, [phi, identity_endo(group)])
    else:
        alpha = Action(ProductMonoid((extra, over)), group, [identity_endo(group), phi])
    width = rng.randint(1, 4)
    start = rng.randint(0, 3) if index is N1 else rng.randint(-3, 3)

    def nonzero():
        while not any(v := tuple(rng.randrange(m) for m in base.factors)):
            pass
        return v

    gens = []
    for _ in range(rng.randint(1, 2)):
        offsets = [t for t in range(width) if t in (0, width - 1) or rng.random() < 0.5]
        gens.append(group.element({(start + t,): nonzero() for t in offsets}))
    return alpha, Subgroup.generated(group, gens), rng.randint(1, 14)


def test_cotrajectory_orbit_route_matches_the_full_walk_on_a_random_family():
    """Every case takes the orbit route and has the indices of the
    cotrajectory fed every element of every F_i.  The two sides' states
    are dual (P_j is the annihilator of the trajectory's tail R_j), so
    wherever both certify, their limits agree."""
    rng = random.Random("cotrajectory-orbit-route")
    limits, widths, gaps = [], set(), 0
    for n in range(300):
        alpha, b, prefix = cotrajectory_orbit_case(rng)
        net = box_net(alpha.monoid)
        gamma, u = _dual_pair(alpha, b)
        walk = _subgroup_accumulator(alpha, b)
        engine = _GrowingCotrajectory(gamma, u)
        assert engine._shift_orbit() is not None, n
        got = list(engine.counts_along(net, prefix))
        assert got == full_walk(gamma, u, net, prefix), n
        assert [order for _, order in walk.counts_along(net, prefix)] == [index for _, index in got], n
        if engine.limit is not None and walk.limit is not None:
            assert engine.limit == walk.limit, n
        limits.append(engine.limit)
        places = [t for (t,) in u.support]
        widths.add(max(places) - min(places) + 1)
        gaps += len(places) < max(places) - min(places) + 1
    certified = [limit for limit in limits if limit is not None]
    assert widths == {1, 2, 3, 4} and gaps > 20
    assert 50 < len(certified) < len(limits)
    assert {m for _, m in certified} > {0, 1}


def test_cotrajectory_orbit_state_is_the_projection():
    """B = <e_2, e_0 + e_1> on (Z/2)^(N), so U asks chi_0 = chi_1 and
    chi_2 = 0.  The projection of C_j onto the two indices from j on is
    Z/2 x 0 at j = 1 and 0 x 0 from j = 2 on: the state repeats at m = 2,
    and a = 2.  The part of C_j that vanishes before index j is 0 x 0 x
    Z/2 at j = 1 and at j = 2 already, so a state keyed by that
    intersection would repeat at m = 1 and read a = [C_1 : C_2] = 4."""
    group = DirectSum(FiniteProduct((2,)), N1)
    alpha = Action(N1, group, [shift_endo(group, (1,))])
    b = Subgroup.generated(group, [group.element({(2,): (1,)}), group.element({(0,): (1,), (1,): (1,)})])
    gamma, u = _dual_pair(alpha, b)
    engine = _GrowingCotrajectory(gamma, u)
    got = list(engine.counts_along(box_net(N1), 6))
    assert got == full_walk(gamma, u, box_net(N1), 6)
    assert [index for _, index in got] == [4, 16, 32, 64, 128, 256]
    assert engine.limit == (2, 2)


def mask_cases():
    """(alpha, B): the random orbit family, the identity-generator bridges
    and every bridge builtin."""
    rng = random.Random("cotrajectory-orbit-route")
    for _ in range(300):
        yield cotrajectory_orbit_case(rng)[:2]
    for alpha, b, _, _ in _identity_generator_bridges():
        yield alpha, b
    for name in BRIDGE_BUILTINS:
        yield cli._action_parts(cli.BUILTINS[name])[:2]


def test_the_dual_derives_the_live_mask_of_the_trajectory():
    """The cotrajectory reads its live mask off gamma alone, and it is the
    trajectory's mask: the dual of a generator that acts as the identity
    is the identity, and the dual of any other generator is not."""
    cases = list(mask_cases())
    assert len(cases) == 303 + len(BRIDGE_BUILTINS)
    pinned = 0
    for n, (alpha, b) in enumerate(cases):
        mask = _subgroup_accumulator(alpha, b)._mask
        assert _GrowingCotrajectory(*_dual_pair(alpha, b))._mask == mask, n
        pinned += 0 in mask
    assert pinned > 50


def budget_stop(engine, net, prefix):
    with pytest.raises(BudgetExceededError) as err:
        list(engine.counts_along(net, prefix))
    return str(err.value).split(" visited")[0], err.value.completed, err.value.index


@pytest.mark.parametrize("case", range(4), ids=["bridge-bernoulli", "qv-bridge", "Z2-x-Z", "N2-finite"])
def test_both_sides_charge_one_budget(case, tmp_path):
    """Each side alone runs out of a budget at the element and net index
    where the other does: on bridge-bernoulli, whose orbit certifies at
    once, and on the identity-generator bridges, two on the orbit route
    and one on the live-shell walk.  A bridge run names the trajectory,
    which it walks first."""
    if case == 0:
        alpha, b, net = cli._action_parts(cli.BUILTINS["bridge-bernoulli"])
        prefix = 12
    else:
        alpha, b, net, prefix = list(_identity_generator_bridges())[case - 1]
    gamma, u = _dual_pair(alpha, b)
    sizes = [net.size(i) for i in range(1, prefix + 1)]
    for budget in sorted({size + d for size in sizes for d in (-1, 0, 1)} - {sizes[-1], sizes[-1] + 1}):
        walk = budget_stop(_subgroup_accumulator(alpha, b, budget), net, prefix)
        cot = budget_stop(_GrowingCotrajectory(gamma, u, budget), net, prefix)
        assert walk[0] == "subgroup trajectory" and cot[0] == "cotrajectory"
        assert walk[1:] == cot[1:], budget
        with pytest.raises(BudgetExceededError) as err:
            bridge_check(alpha, b, net, prefix, budget)
        assert str(err.value).startswith("subgroup trajectory") and err.value.index == walk[2]
    if case == 0:
        assert cli.run_scenario("bridge-bernoulli", tmp_path, budget=5) == (3, (
            "budget exceeded: subgroup trajectory visited more than 5 monoid elements"
            " (ran out at (5,), net index 6)"))


def refused_orbit_shapes():
    """shape -> (alpha, gamma): actions whose one live generator is not a
    shift by +-1 that the orbit route takes, on the trajectory side (alpha)
    and on the dual side (gamma, None where the shape has no dual)."""
    line = DirectSum(FiniteProduct((2,)), N1)
    two_sided = DirectSum(FiniteProduct((2,)), Z1)
    plane = DirectSum(FiniteProduct((3,)), FreeAbelian(2))
    doubles, _, _ = cli._action_parts(cli.BUILTINS["restricted-shift-doubles"])
    thirds = doubles.group
    n2, z2 = FreeCommutative(2), FreeAbelian(2)
    over_z = ProductMonoid((Z1, N1))
    g = FiniteProduct((4, 6))
    square = FiniteProduct((7, 7))
    vanishing, _, _ = cli._action_parts(cli.BUILTINS["quotient-vanishing"])
    return {
        "shift-by-2": (doubles, ProfiniteShiftAction(line, N1, [(2,)])),
        "two-live-shifts": (Action(n2, thirds, [shift_endo(thirds, (1,)), shift_endo(thirds, (2,))]),
                            ProfiniteShiftAction(two_sided, n2, [(1,), (-1,)])),
        "2-D-index": (Action(z2, plane, [shift_endo(plane, (1, 0)), shift_endo(plane, (0, 0))]),
                      ProfiniteShiftAction(plane, Z1, [(1, 0)])),
        "Z-over-N": (Action(over_z, line, [shift_endo(line, (1,)), identity_endo(line)]),
                     ProfiniteShiftAction(line, Z1, [(1,)])),
        "minus-1-over-N": (Action(N1, line, [shift_endo(line, (-1,))]),
                           ProfiniteShiftAction(line, N1, [(-1,)])),
        "finite-product": (Action(ProductMonoid((FiniteAbelianMonoid((3,)), Z1)), square,
                                  [MatrixEndo(square, ((2, 0), (0, 4))), MatrixEndo(square, ((3, 0), (0, 5)))]),
                           Action(N1, g, [MatrixEndo(g, ((1, 2), (3, 1)))])),
        "conjugated-shift": (conjugate_action(vanishing, GroupIso.negation(vanishing.group),
                                              MonoidIso.negation(vanishing.monoid)), None),
    }


@pytest.mark.parametrize("shape", list(refused_orbit_shapes()))
def test_refused_orbit_shapes_keep_the_shell_walk(shape):
    """Neither engine takes the orbit route for these shapes: a shift by
    2, two live shifts, a 2-D index, a monoid coordinate Z over a one-sided
    index, -1 over N, a finite product and (trajectory side only) a
    conjugated shift.  Each keeps the live-shell walk."""
    alpha, gamma = refused_orbit_shapes()[shape]
    assert _GrowingTrajectory(alpha, Subgroup.trivial(alpha.group))._shift_orbit() is None
    if gamma is None:
        return
    if isinstance(gamma, ProfiniteShiftAction):
        u = OpenSubgroup(gamma.space, (gamma.space.index.identity,), ((1,),))
    else:
        u = Subgroup.generated(gamma.group, [(2, 3)])
    assert _GrowingCotrajectory(gamma, u)._shift_orbit() is None


@pytest.mark.parametrize("index, prefix", [(N1, 6), (Z1, 5)])
def test_an_empty_support_keeps_index_one(index, prefix):
    """B = {0}: U = K^I constrains no index, so [K : C_F] = 1 at every net
    index, on the orbit route, on the walk fed every element, and through
    bridge_check and h_top_estimate."""
    group = DirectSum(FiniteProduct((2, 3)), index)
    alpha = Action(index, group, [shift_endo(group, (1,))])
    b = Subgroup.trivial(group)
    net = box_net(index)
    gamma, u = _dual_pair(alpha, b)
    assert u.support == ()
    engine = _GrowingCotrajectory(gamma, u)
    assert [count for _, count in engine.counts_along(net, prefix)] == [1] * prefix
    assert engine.limit == (1, 0)
    assert [count for _, count in full_walk(gamma, u, net, prefix)] == [1] * prefix
    report = bridge_check(alpha, b, net, prefix)
    assert report.exact_at_every_index
    assert [row.log_index for row in report.rows] == [0.0] * prefix
    assert report.trajectory_limit == report.cotrajectory_limit == (1, 0)
    assert [row.value for row in h_top_estimate(gamma, u, net, prefix).rows] == [0.0] * prefix


@pytest.mark.parametrize("name", ["bridge-bernoulli", "quotient-vanishing"])
def test_bridge_runs_keep_both_limits(name):
    """Each side certifies its own (a, m), and a bridge run puts both in
    its context next to the report."""
    sc = dict(cli.BUILTINS[name], kind="bridge")
    text, context = cli._run_bridge(sc, 16, 10**7)
    report = context["report"]
    assert report.exact_at_every_index and text == report.to_csv()
    assert (report.trajectory_limit, report.cotrajectory_limit) == ((2, 0), (2, 0))
    assert context["limits"] == {"trajectory": (2, 0), "cotrajectory": (2, 0)}
