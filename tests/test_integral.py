"""subadditive-integral: ratio tables, axiom sampling, the transform."""

import csv
import io
import json
import math
import sys
from functools import partial
from itertools import product

import pytest

from amenact.abelian import FiniteSubset, FreeZ
from amenact.actions import Action, identity_endo, scalar_endo, trajectory_function
from amenact.errors import BudgetExceededError, MonoidMismatchError
from amenact.folner import FolnerNet, _counts_along, box_net, kernel_box_net, product_net, translate_net
from amenact.integral import (
    IntegralEstimate,
    IntegralRow,
    SetFunction,
    card,
    card_pi,
    constant,
    fubini_check,
    integral,
    sample_axioms,
    shifted,
    theta,
    theta_function,
)
from amenact.monoid import (
    BoxSubset,
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MSubset,
    ProductMonoid,
    find_good_section,
    mod_hom,
    projection_hom,
    set_product,
)

N1 = FreeCommutative(1)
Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)


def test_card_integral_is_exactly_one():
    est = integral(card(Z1), box_net(Z1), 12)
    assert all(r.ratio == 1.0 for r in est.rows)
    assert est.tail == 1.0 and est.oscillation == 0.0


def test_constant_function_on_infinite_monoid_vanishes():
    est = integral(constant(Z1, 5.0), box_net(Z1), 40)
    assert est.rows[0].ratio == pytest.approx(5 / 3)
    assert est.tail == pytest.approx(5 / 81)
    assert est.rows[-1].ratio < est.rows[0].ratio


def test_constant_function_on_finite_monoid():
    g = FiniteAbelianMonoid((6,))
    est = integral(constant(g, 7.0), box_net(g), 5)
    assert all(r.ratio == pytest.approx(7 / 6) for r in est.rows)


def test_negative_function_rejected_at_construction():
    with pytest.raises(ValueError):
        SetFunction(Z1, lambda f: -len(f), "neg")


def test_shifted_by_identity_is_same_function():
    f = card(Z1)
    g = shifted(f, MSubset.of(Z1, [(0,)]))
    fi = box_net(Z1).subset(4)
    assert g(fi) == f(fi)


def test_shifted_card_grows_boxes():
    f = card(Z1)
    g = shifted(f, MSubset.of(Z1, [(0,), (1,)]))
    # [-n, n] * {0, 1} = [-n, n+1]
    assert g(box_net(Z1).subset(5)) == 12


def test_shift_invariance_of_the_integral():
    f = card_pi(mod_hom(Z1, (5,)))
    plain = integral(f, box_net(Z1), 40)
    moved = integral(shifted(f, MSubset.of(Z1, [(0,), (1,), (2,)])), box_net(Z1), 40)
    assert abs(plain.tail - moved.tail) <= plain.oscillation + moved.oscillation + 1e-9


def test_sample_axioms_card_passes():
    report = sample_axioms(card(Z2), Z2, trials=300, window=4, seed=9)
    assert report.ok and report.trials == 300


def test_sample_axioms_detects_violations():
    # |F|^2 is not subadditive
    f = SetFunction(Z1, lambda s: float(len(s) ** 2), "sq")
    report = sample_axioms(f, Z1, trials=200, window=5, seed=1)
    assert not report.ok
    assert any(v.axiom == "subadditive" for v in report.violations)


def test_integral_tail_bounded_by_value_at_identity():
    for f in (card(Z1), card_pi(mod_hom(Z1, (3,)))):
        est = integral(f, box_net(Z1), 30)
        one = MSubset.of(Z1, [(0,)])
        assert est.tail <= f(one) + est.oscillation + 1e-9


def test_linearity_on_the_sampled_cone():
    f = card(Z1)
    g = card_pi(mod_hom(Z1, (4,)))
    h = SetFunction(Z1, lambda s: f(s) + g(s), "f+g")
    net = box_net(Z1)
    ef, eg, eh = (integral(x, net, 30) for x in (f, g, h))
    assert abs(eh.tail - ef.tail - eg.tail) <= ef.oscillation + eg.oscillation + 1e-9


def test_automorphism_invariance_termwise():
    # the table of f . phi along (F_i) is the table of f along (phi F_i)
    f = card_pi(mod_hom(Z1, (5,)))
    net = box_net(Z1)
    composed = SetFunction(
        Z1, lambda s: f(MSubset(Z1, frozenset((-a,) for (a,) in s.elements))), "f.neg"
    )
    left = integral(composed, net, 20)
    for row, i in zip(left.rows, range(1, 21)):
        fi = net.subset(i)
        moved = MSubset(Z1, frozenset((-a,) for (a,) in fi.elements))
        assert row.value == f(moved)


def test_bounded_function_has_zero_tail():
    f = SetFunction(Z1, lambda s: min(float(len(s)), 7.0), "capped")
    est = integral(f, box_net(Z1), 60)
    assert est.tail == pytest.approx(7 / 121)


# --- card_pi ------------------------------------------------------------------


def test_card_pi_finite_kernel_exact_half():
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    pi = projection_hom(s, (1,))
    est = integral(card_pi(pi), box_net(s), 16)
    assert all(r.ratio == 0.5 for r in est.rows)


def test_card_pi_identity_projection_is_card():
    pi = projection_hom(Z1, (0,))
    est = integral(card_pi(pi), box_net(Z1), 8)
    assert all(r.ratio == 1.0 for r in est.rows)


def test_card_pi_infinite_kernel_vanishes():
    pi = mod_hom(Z1, (5,))
    est = integral(card_pi(pi), box_net(Z1), 128)
    assert est.tail == pytest.approx(5 / 257)
    assert est.tail < 0.02


# --- theta and the product formula ---------------------------------------------


def test_theta_of_constant_vanishes_on_infinite_kernel():
    s = Z2
    pi = projection_hom(s, (0,))
    sigma = find_good_section(pi)
    y = MSubset.of(pi.target, [(0,), (1,)])
    val = theta(constant(s, 3.0), pi, sigma, y, None, 40)
    assert val == pytest.approx(3 / 81)


def test_theta_of_card_pi_is_size_over_kernel_order():
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    pi = projection_hom(s, (1,))
    sigma = find_good_section(pi)
    f = card_pi(pi)
    for size in (1, 2, 3):
        y = MSubset.of(pi.target, [(i,) for i in range(size)])
        assert theta(f, pi, sigma, y, None, 6) == pytest.approx(size / 2)


def test_theta_at_identity_recovers_kernel_integral():
    s = Z2
    pi = projection_hom(s, (0,))
    sigma = find_good_section(pi)
    f = card(s)
    one = MSubset.of(pi.target, [(0,)])
    n_net = kernel_box_net(pi)
    assert theta(f, pi, sigma, one, n_net, 12) == pytest.approx(
        integral(SetFunction(s, lambda x: f(x), "f|N", probe=False), n_net, 12).tail
    )


def test_fubini_card_on_Z2_exact_on_both_sides():
    pi = projection_hom(Z2, (0,))
    sigma = find_good_section(pi)
    s_net = box_net(Z2)
    c_net = box_net(pi.target)
    report = fubini_check(card(Z2), pi, sigma, s_net, c_net, None, 16)
    assert report.left.tail == 1.0
    assert report.right.tail == pytest.approx(1.0)
    assert report.difference < 1e-9


def test_fubini_constant_zero_both_sides():
    pi = projection_hom(Z2, (0,))
    sigma = find_good_section(pi)
    report = fubini_check(
        constant(Z2, 2.0), pi, sigma, box_net(Z2), box_net(pi.target), None, 36
    )
    assert report.left.tail < 0.05 and report.right.tail < 0.05


def test_restriction_scaling_along_the_projection():
    # pulling a quotient-side function back along pi divides its average by |N|
    s = ProductMonoid((FiniteAbelianMonoid((2,)), FreeAbelian(1)))
    pi = projection_hom(s, (1,))
    c = pi.target
    f = SetFunction(c, lambda y: 3.0 * len(y), "3card")
    pulled = SetFunction(s, lambda x: f(pi.apply_set(x)), "pullback")
    est_c = integral(f, box_net(c), 24)
    est_s = integral(pulled, box_net(s), 24)
    assert est_s.tail == pytest.approx(est_c.tail / 2)


def test_theta_function_memoizes_on_the_quotient():
    pi = projection_hom(Z2, (0,))
    sigma = find_good_section(pi)
    th = theta_function(card(Z2), pi, sigma, None, 8)
    y = MSubset.of(pi.target, [(0,), (1,)])
    assert th(y) == th(y) == pytest.approx(2.0)


# --- integral against the subset-by-subset table --------------------------------


def integral_by_subsets(f, net, prefix):
    """Oracle: f at every F_i, each built whole by net.subset(i)."""
    est = IntegralEstimate(f.label)
    for i in range(1, prefix + 1):
        fi = net.subset(i)
        value = float(f(fi))
        est.rows.append(IntegralRow(i, len(fi), value, value / len(fi)))
    return est


N2 = FreeCommutative(2)
Z6 = FiniteAbelianMonoid((6,))
TWO_BY_Z = ProductMonoid((FiniteAbelianMonoid((2,)), Z1))
N_BY_Z = ProductMonoid((N1, Z1))


def sliding_net(monoid):
    # [n, 2n]^d: never nested, so every set starts over
    return FolnerNet(
        monoid, lambda n: MSubset(monoid, frozenset(product(range(n, 2 * n + 1), repeat=monoid.dim))),
        "sliding",
    )


# name -> (monoid, net factory): nested box nets, then nets that are not
NETS = {
    "boxes-N2": (N2, lambda: box_net(N2)),
    "boxes-Z2": (Z2, lambda: box_net(Z2)),
    "constant-Z6": (Z6, lambda: box_net(Z6)),
    "boxes-2xZ": (TWO_BY_Z, lambda: box_net(TWO_BY_Z)),
    "boxes-NxZ": (N_BY_Z, lambda: box_net(N_BY_Z)),
    "translate-Z2": (Z2, lambda: translate_net(box_net(Z2), MSubset.of(Z2, [(0, 0), (1, 2), (-1, 0)]))),
    "half-line": (Z1, lambda: FolnerNet(Z1, lambda n: MSubset.of(Z1, [(i,) for i in range(n)]), "N-boxes")),
    "kernel-2xZ": (TWO_BY_Z, lambda: kernel_box_net(projection_hom(TWO_BY_Z, (0,)))),
    "kernel-mod3": (Z1, lambda: kernel_box_net(mod_hom(Z1, (3,)))),
    "product-NxZ": (N_BY_Z, lambda: product_net(box_net(N1), box_net(Z1))),
    "sliding-Z2": (Z2, lambda: sliding_net(Z2)),
}

# name -> function factory on a monoid: the counted ones, then evaluators
FUNCTIONS = {
    "card": card,
    "constant": lambda m: constant(m, 2.5),
    "card_pi-project": lambda m: card_pi(projection_hom(m, (0,))),
    "card_pi-mod3": lambda m: card_pi(mod_hom(m, (3,))),
    "evaluator": lambda m: SetFunction(m, lambda f: math.sqrt(len(f)), "sqrt"),
    "shifted": lambda m: shifted(
        card_pi(projection_hom(m, (m.dim - 1,))), MSubset.of(m, [m.identity, *m.generators()])
    ),
}

Z = FreeZ(1)
DOUBLING = Action(N1, Z, [scalar_endo(Z, 2)])
PAIR = FiniteSubset(Z, frozenset({(0,), (1,)}))
N1_BY_N1 = ProductMonoid((N1, N1))
PI_Z2 = projection_hom(Z2, (0,))

# (f factory, net factory, prefix) beyond the grid of NETS x FUNCTIONS
EXTRA = {
    "trajectory-boxes": (lambda: trajectory_function(DOUBLING, PAIR), lambda: box_net(N1), 8),
    "trajectory-sliding": (lambda: trajectory_function(DOUBLING, PAIR), lambda: sliding_net(N1), 6),
    "trajectory-product": (
        lambda: trajectory_function(Action(N1_BY_N1, Z, [scalar_endo(Z, 2), identity_endo(Z)]), PAIR),
        lambda: product_net(box_net(N1), box_net(N1)), 10,
    ),
    "theta": (
        lambda: theta_function(card(Z2), PI_Z2, find_good_section(PI_Z2), None, 5),
        lambda: box_net(PI_Z2.target), 4,
    ),
    # x mod 2 merges images, so |pi(F)| < |F|
    "card_pi-mod2-boxes": (lambda: card_pi(mod_hom(N1, (2,))), lambda: box_net(N1), 6),
    "card_pi-mod2-sliding": (lambda: card_pi(mod_hom(N1, (2,))), lambda: sliding_net(N1), 6),
}

CASES = {
    f"{fname}@{nname}": (partial(make_f, monoid), make_net, 5)
    for nname, (monoid, make_net) in NETS.items()
    for fname, make_f in FUNCTIONS.items()
} | EXTRA


@pytest.mark.parametrize("make_f, make_net, prefix", CASES.values(), ids=CASES.keys())
def test_integral_matches_the_subset_table(make_f, make_net, prefix):
    # fresh functions and nets on each side, so that no memo is shared
    f = make_f()
    got = integral(f, make_net(), prefix)
    want = integral_by_subsets(make_f(), make_net(), prefix)
    assert got.label == want.label and got.rows == want.rows
    assert f._memo == {}  # a running set is evaluated, not kept


def refuse(i):
    raise AssertionError(f"F_{i} was built whole")


@pytest.mark.parametrize("fname", FUNCTIONS)
def test_integral_builds_no_set_of_a_nested_net(fname):
    net = box_net(Z2)
    net._generate = refuse
    want = integral_by_subsets(FUNCTIONS[fname](Z2), box_net(Z2), 5)
    assert integral(FUNCTIONS[fname](Z2), net, 5).rows == want.rows


def test_integral_refuses_a_net_on_another_monoid():
    with pytest.raises(MonoidMismatchError):
        integral(card(Z1), box_net(N1), 4)


def test_integral_refuses_a_negative_value_along_the_net():
    # 0 at the identity, -2 at F_1 = {-1, 0, 1}
    with pytest.raises(ValueError, match="negative"):
        integral(SetFunction(Z1, lambda f: 1.0 - len(f), "1-card"), box_net(Z1), 4)


def test_fubini_run_keeps_no_running_set_and_matches_the_subset_tables(tmp_path, monkeypatch):
    from amenact import cli

    made = []

    def recorded(*args):
        made.append(trajectory_function(*args))
        return made[-1]

    monkeypatch.setattr(cli, "trajectory_function", recorded)
    assert cli.run_scenario("fubini-product", out_dir=tmp_path, prefix=256)[0] == 0
    assert [f._memo for f in made] == [{}]

    # both sides again, every F_i and kernel box built whole: the scenario's
    # action, seed and hom, n_prefix 10 and the default c_prefix isqrt(256)
    action = Action(N1_BY_N1, Z, [scalar_endo(Z, 2), identity_endo(Z)])
    pi = projection_hom(N1_BY_N1, (1,))
    sigma = find_good_section(pi)
    left = integral_by_subsets(
        trajectory_function(action, PAIR), product_net(box_net(N1), box_net(N1)), 256
    )

    def theta_by_subsets(y):
        f, lifted = trajectory_function(action, PAIR), sigma.apply_set(y)
        shift = SetFunction(N1_BY_N1, lambda x: f(set_product(x, lifted)), "f^E", probe=False)
        return integral_by_subsets(shift, kernel_box_net(pi), 10).tail

    theta_f = SetFunction(pi.target, theta_by_subsets, "theta", probe=False)
    right = integral_by_subsets(theta_f, box_net(pi.target), 16)
    want = [
        [tag, str(r.index), str(r.size), repr(r.value), repr(r.ratio)]
        for tag, est in (("S", left), ("C", right))
        for r in est.rows
    ]
    want.append(["difference", "", "", "", repr(abs(left.tail - right.tail))])
    got = list(csv.reader(io.StringIO((tmp_path / "fubini-product.csv").read_text())))
    assert got[1:] == want


# --- the shift and the trajectory function along a net -------------------------

FUBINI_ACTION = Action(N1_BY_N1, Z, [scalar_endo(Z, 2), identity_endo(Z)])
SHIFT_SETS = {
    "identity": MSubset.of(N1_BY_N1, [(0, 0)]),
    "spread": MSubset.of(N1_BY_N1, [(0, 0), (0, 2), (1, 1), (3, 0)]),
}
# the kernel's box net is nested; the other two start over
SHIFT_NETS = {
    "kernel": lambda: kernel_box_net(projection_hom(N1_BY_N1, (1,))),
    "product": lambda: product_net(box_net(N1), box_net(N1)),
    "sliding": lambda: sliding_net(N1_BY_N1),
}
SHIFT_FUNCTIONS = {
    "trajectory": lambda: trajectory_function(FUBINI_ACTION, PAIR),
    "card": lambda: card(N1_BY_N1),
    "card_pi": lambda: card_pi(projection_hom(N1_BY_N1, (0,))),
    "evaluator": lambda: SetFunction(N1_BY_N1, lambda f: math.sqrt(len(f)), "sqrt"),
}


def counts(acc, net, prefix):
    return [count for _, count in _counts_along(acc, net, prefix)]


@pytest.mark.parametrize("nname", SHIFT_NETS)
@pytest.mark.parametrize("ename", SHIFT_SETS)
@pytest.mark.parametrize("fname", SHIFT_FUNCTIONS)
def test_shift_accumulator_matches_the_evaluator_route(fname, ename, nname):
    e, net = SHIFT_SETS[ename], SHIFT_NETS[nname]()
    got = counts(shifted(SHIFT_FUNCTIONS[fname](), e).accumulator(), net, 9)
    f = SHIFT_FUNCTIONS[fname]()
    assert got == [f._evaluate(set_product(net.subset(i), e)) for i in range(1, 10)]


@pytest.mark.parametrize("nname", SHIFT_NETS)
def test_trajectory_accumulator_matches_the_evaluator_route(nname):
    net = SHIFT_NETS[nname]()
    f = trajectory_function(FUBINI_ACTION, PAIR)
    # each accumulator starts from the empty set, whatever ran before
    first = counts(f.accumulator(), net, 9)
    assert counts(f.accumulator(), net, 9) == first
    assert first == [f._evaluate(net.subset(i)) for i in range(1, 10)]


@pytest.mark.parametrize("nname", SHIFT_NETS)
def test_shift_budget_error_names_the_evaluator_routes_element_and_index(nname):
    def stop(g):
        with pytest.raises(BudgetExceededError) as err:
            integral(g, SHIFT_NETS[nname](), 30)
        return err.value.completed, err.value.index

    def make_g():
        return shifted(trajectory_function(FUBINI_ACTION, PAIR, 300), SHIFT_SETS["spread"])

    want = stop(SetFunction(N1_BY_N1, make_g()._evaluator, "f^E", probe=False))
    assert want[0] is not None and want[1] > 1
    assert stop(make_g()) == want


def test_fubini_run_makes_no_set_product(tmp_path, monkeypatch):
    from amenact import cli, folner, monoid

    calls = []

    def counted(f_set, e):
        calls.append(len(f_set))
        return set_product(f_set, e)

    for module in (sys.modules["amenact.integral"], folner, monoid):
        monkeypatch.setattr(module, "set_product", counted)
    assert cli.run_scenario("fubini-product", out_dir=tmp_path)[0] == 0
    assert calls == []
    # the shift's evaluator, outside a net, still goes through the counted name
    shifted(card(Z1), MSubset.of(Z1, [(0,), (1,)]))(MSubset.of(Z1, [(0,)]))
    assert calls == [1]


def test_integral_stops_before_building_a_set_over_the_budget(tmp_path, monkeypatch):
    """|F_i| of Z^6 boxes is 3^6, 5^6, ...: a budget of 1000 stops an
    integral at net index 2, before any of F_2 is built: only shell 1 is,
    and no box's cells."""
    from amenact import cli, folner

    built, shell = [], folner._box_shell  # the index of each shell built, off its outer sides
    monkeypatch.setattr(folner, "_box_shell", lambda inner, outer: built.append(outer[0].stop - 1) or shell(inner, outer))
    monkeypatch.setattr(BoxSubset, "__iter__", refuse)
    sc = {"kind": "integral", "name": "int6", "monoid": {"family": "Z^d", "dim": 6},
          "function": {"kind": "card"}, "net": {"family": "box"}, "prefix": 5, "budget": 1000}
    source = tmp_path / "int6.json"
    source.write_text(json.dumps(sc))
    assert cli.run_scenario(str(source), tmp_path) == (
        3, "budget exceeded: F_2 has 15625 elements, over the budget of 1000 (net index 2)"
    )
    assert built == [1]
    monkeypatch.undo()
    z6 = FreeAbelian(6)
    with pytest.raises(BudgetExceededError) as err:
        integral(card(z6), box_net(z6), 5, 3**6 - 1)
    assert err.value.index == 1
    assert integral(card(z6), box_net(z6), 2, 5**6).rows == integral(card(z6), box_net(z6), 2).rows
