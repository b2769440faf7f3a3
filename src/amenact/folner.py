"""Right Folner nets: generators, defect diagnostics, and eps-tilings.

A net here is a linearized sequence index -> finite subset, memoized on
demand.  Canonically indexed nets keep their (E, n) indexing and expose a
cofinal linearization for integral evaluation.  All defect and tiling
quantities are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct
from itertools import count, repeat
from math import isqrt, prod
from operator import add, floordiv, gt, itemgetter, mod, mul, sub

from .errors import (
    BudgetExceededError,
    InvalidWitnessError,
    MonoidMismatchError,
    UndecidableFamilyError,
)
from .monoid import (
    BoxSubset,
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    MonoidHom,
    MSubset,
    ProductMonoid,
    SemidirectZZ,
    set_product,
)
from .tables import csv_table

DEFAULT_ELEMENT_BUDGET = 10**7
FRAME_BUDGET = 2**24  # cells of the frame a tiling is packed into


class FolnerNet:
    """Lazily generated, memoized sequence of finite subsets.

    ``shell``, when given, maps i to F_i \\ F_{i-1} (F_0 is empty) and
    marks the net as nested: F_{i-1} <= F_i at every index.  ``size``, when
    given, maps i to |F_i| without building F_i.
    """

    def __init__(self, monoid, generate, label="net", shell=None, size=None):
        self.monoid = monoid
        self._generate = generate
        self.label = label
        self._shell = shell
        self._size = size
        self._cache = {}

    @property
    def nested(self) -> bool:
        return self._shell is not None

    def subset(self, i: int) -> MSubset:
        if i < 1:
            raise ValueError("net indices start at 1")
        if i not in self._cache:
            self._cache[i] = self._generate(i)
        return self._cache[i]

    def shell(self, i: int) -> MSubset:
        """F_i \\ F_{i-1}; all of F_1 at i = 1."""
        if i < 1:
            raise ValueError("net indices start at 1")
        if self.nested:
            return MSubset(self.monoid, self._shell(i))
        before = self.subset(i - 1).elements if i > 1 else frozenset()
        return MSubset(self.monoid, self.subset(i).elements - before)

    def size(self, i: int) -> int:
        """|F_i|, built only when the net cannot tell it otherwise."""
        return self._size(i) if self._size is not None else len(self.subset(i))

    def increments(self, prefix: int, budget=None):
        """Yield (i, added, fresh, |F_i|) for i = 1..prefix: a set that
        holds F_{i-1} becomes F_i by adding ``added``, after it starts over
        from the empty set when ``fresh``.  ``added`` never meets the set it
        is added to.  The first increment is never ``fresh``, so whatever
        is fed these increments must start out holding the empty set.  A
        nested net hands out its shells and never builds F_i.  Any other
        net is compared with its previous set and starts over wherever
        F_{i-1} is not inside F_i.

        With a ``budget``, an F_i of more elements raises
        ``BudgetExceededError`` naming i: before anything of F_i is built
        when the net knows its sizes, else before ``added`` is handed out."""
        size, last = 0, frozenset()
        for i in range(1, prefix + 1):
            if budget is not None and self._size is not None:
                _charge_net(self._size(i), budget, i)
            if self.nested:
                added, fresh = self.shell(i).elements, False
                size += len(added)
            else:
                fi = self.subset(i).elements
                fresh = not last <= fi
                added = fi if fresh else fi - last
                size, last = len(fi), fi
            if budget is not None:
                _charge_net(size, budget, i)
            yield i, added, fresh, size

    def __repr__(self):
        return f"FolnerNet({self.label} on {self.monoid})"


def _charge_net(size, budget, i):
    if size > budget:
        raise BudgetExceededError(f"F_{i} has {size} elements, over the budget of {budget}", index=i)


def _counts_along(acc, net: FolnerNet, prefix: int, budget=None):
    """Yield (|F_i|, acc.count) for i = 1..prefix from one accumulator fed
    with ``net.increments`` (under ``budget``, when given): ``acc.reset()``
    empties it, ``acc.extend(added)`` adds elements to it, and
    ``acc.count`` is its value at the set it holds.  A budget error gets
    the index it stopped at."""
    for i, added, fresh, size in net.increments(prefix, budget):
        if fresh:
            acc.reset()
        try:
            acc.extend(added)
        except BudgetExceededError as err:
            err.index = i
            raise
        yield size, acc.count


def _box_shell(inner, outer) -> frozenset:
    """outer \\ inner for boxes inner <= outer given by their sides, one
    range per coordinate (inner None: the empty box), as disjoint parts:
    part k is the product of the values of coordinate k in outer and not
    in inner, those of the coordinates before it in inner, and those of
    the coordinates after it in outer."""
    parts = list(outer)
    if inner is None:
        return frozenset(iproduct(*parts))
    out = []
    for k, have in enumerate(inner):
        full = parts[k]
        if have != full:
            parts[k] = [*range(full.start, have.start), *range(have.stop, full.stop)]
            out.extend(iproduct(*parts))
            parts[k] = have
    return frozenset(out)


def _is_box_net(net: FolnerNet) -> bool:
    """The net's sets are its monoid's windows, as on a ``box_net``."""
    return net.nested and net._generate == net.monoid.window


def _live_shells(net: FolnerNet, live, prefix: int):
    """Yield (i, |F_i|, shell) for i = 1..prefix on a box net, where shell
    is F_i \\ F_{i-1} with each coordinate k where live[k] is 0 pinned to
    0: the difference of the two windows' sides (``monoid.sides``), both
    pinned.  It holds one element for each value that the live
    coordinates take in F_i and not in F_{i-1}, and no cell of F_i is
    built."""
    inner = None
    for i in range(1, prefix + 1):
        sides = net.monoid.sides(i)
        outer = [side if on else range(1) for side, on in zip(sides, live)]
        yield i, prod(map(len, sides)), _box_shell(inner, outer)
        inner = outer


def box_net(monoid) -> FolnerNet:
    """The standard box sequence F_n = monoid.window(n): [0,n)^d for N^d,
    [-n,n]^d for Z^d, the whole group for finite S, and componentwise boxes
    for products.  The shear product's boxes are not Folner.  The boxes are
    nested: shell n is the difference of the sides of window(n - 1) and
    window(n), and |F_n| the product of window(n)'s sides, both read off
    ``monoid.sides`` (kept for each n), so neither a box nor its cells
    are built.  Coordinate j of the monoid is the exponent of its
    generator j."""
    if monoid.coordinates is None:
        raise UndecidableFamilyError(f"no box net for {monoid}")
    label = "constant" if isinstance(monoid, FiniteAbelianMonoid) else "boxes"
    sides = lru_cache(maxsize=None)(monoid.sides)
    return FolnerNet(monoid, monoid.window, label, lambda i: _box_shell(sides(i - 1) if i > 1 else None, sides(i)),
                     lambda i: prod(map(len, sides(i))))


@dataclass(frozen=True)
class DefectRow:
    index: int
    size: int
    element: object  # a monoid element, or "E" for the whole test set
    ratio: Fraction


@dataclass
class DefectReport:
    """Per-index translation defects |F s (sym diff) F| / |F|."""

    net_label: str
    rows: list = field(default_factory=list)

    def max_defect(self, index: int) -> Fraction:
        return max(r.ratio for r in self.rows if r.index == index)

    def indices(self):
        return sorted({r.index for r in self.rows})

    def tail_max(self) -> Fraction:
        return self.max_defect(self.indices()[-1])

    def to_csv(self) -> str:
        rows = ([r.index, r.size, r.element, float(r.ratio)] for r in self.rows)
        return csv_table("index,size,element,ratio", rows)


class _Overlaps:
    """|F T (sym diff) F| for each right factor set T as F grows, read as
    |F T| + |F| - 2 |F T meet F|.  F, each image F T and each overlap count
    are kept; a translation need not be injective, so |F T| < |F| may hold.

    When A is added to F (A does not meet F), the image gains N = A T \\ F T,
    and the overlap gains |F T meet A| + |N meet (F u A)|: the four parts of
    the new overlap are disjoint because A misses F and N misses F T."""

    def __init__(self, op, rights):
        self._op = op
        self._rights = rights
        self.reset()

    def reset(self):
        self._f = set()
        self._images = [set() for _ in self._rights]
        self._meets = [0] * len(self._rights)

    def extend(self, added):
        op, f = self._op, self._f
        f.update(added)
        for k, (right, image) in enumerate(zip(self._rights, self._images)):
            new = {op(x, t) for x in added for t in right} - image
            self._meets[k] += len(image.intersection(added)) + len(new & f)
            image |= new

    @property
    def count(self) -> list:
        size = len(self._f)
        return [len(image) + size - 2 * meet for image, meet in zip(self._images, self._meets)]


def verify_folner(net: FolnerNet, test: MSubset, prefix: int,
                  budget: int = DEFAULT_ELEMENT_BUDGET) -> DefectReport:
    """Exact defect table of the net against every element of ``test`` and
    against the whole set at once.  The sets F s and F E grow with the net's
    increments, so a nested net builds no F_i.  An F_i of more than
    ``budget`` elements raises ``BudgetExceededError`` naming i, before it
    is built on a net that knows its sizes."""
    if prefix < 2:
        raise ValueError("prefix must be >= 2")
    if test.monoid != net.monoid:
        raise MonoidMismatchError("test set lives in a different monoid")
    report = DefectReport(net.label)
    tags = [*test, "E"]
    overlaps = _Overlaps(net.monoid.op, [(s,) for s in test] + [tuple(test.elements)])
    for i, (size, moved) in enumerate(_counts_along(overlaps, net, prefix, budget), start=1):
        report.rows.extend(DefectRow(i, size, s, Fraction(m, size)) for s, m in zip(tags, moved))
    return report


def translate_net(net: FolnerNet, e: MSubset) -> FolnerNet:
    """Index-wise right product F_i E."""
    if e.monoid != net.monoid:
        raise MonoidMismatchError("translate set lives in a different monoid")
    return FolnerNet(net.monoid, lambda i: set_product(net.subset(i), e), f"{net.label}*E")


class CanonicalNet:
    """Canonically indexed net: at (E, n), the smallest box F of its family
    with F s ~_{1/n} F for every s in E.

    The searches count the cells of every box they build against one
    ``budget``, and raise ``BudgetExceededError`` before they build a box
    that would take the count over it."""

    def __init__(self, monoid, budget: int = DEFAULT_ELEMENT_BUDGET):
        if monoid.coordinates is None:
            raise UndecidableFamilyError(f"no canonical boxes for {monoid}")
        self.monoid = monoid
        self.budget = budget
        self._cells = 0  # cells of the boxes built so far
        self._cache = {}

    def at(self, e: MSubset, n: int) -> MSubset:
        key = (e.sorted_key(), n)
        if key in self._cache:
            return self._cache[key]
        # the box of side m: [0, m) on N and Z, all of Z/k; a finite
        # group's box is the whole group, which every s fixes
        table = self.monoid.coordinates
        for m in count(1):
            f = BoxSubset(self.monoid, [0] * len(table), [k - 1 if isinstance(k, int) else m - 1 for k in table])
            size = len(f)
            self._cells += size
            if self._cells > self.budget:
                raise BudgetExceededError(
                    f"a canonical box of side {m} takes the cells built to {self._cells}, "
                    f"over the budget of {self.budget}"
                )
            if all(
                n * len(f.translate(s).elements ^ f.elements) <= size for s in e
            ):
                self._cache[key] = f
                return f


def product_net(net_h: FolnerNet, net_k: FolnerNet, monoid=None) -> FolnerNet:
    """Doubly indexed product net (H_i x K_j), linearized diagonally: pairs
    enumerated with max(i, j) increasing."""
    target = monoid if monoid is not None else ProductMonoid((net_h.monoid, net_k.monoid))
    if target.dim != net_h.monoid.dim + net_k.monoid.dim:
        raise MonoidMismatchError("product monoid does not fit the factor nets")

    def pair(index: int):
        # pairs with max(i, j) = k form the block (1, k) .. (k - 1, k),
        # (k, 1) .. (k, k - 1), (k, k) after the (k - 1)^2 pairs before it,
        # so that prefix tails sit on square indices
        k = isqrt(index - 1) + 1
        r = index - (k - 1) ** 2
        return (r, k) if r < k else (k, r - k + 1) if r < 2 * k - 1 else (k, k)

    def gen(i):
        a, b = pair(i)
        ks = net_k.subset(b).elements
        return MSubset(target, frozenset(h + k for h in net_h.subset(a).elements for k in ks))

    def size(i):
        a, b = pair(i)
        return net_h.size(a) * net_k.size(b)

    return FolnerNet(target, gen, f"{net_h.label}x{net_k.label}", size=size)


def kernel_box_net(pi: MonoidHom) -> FolnerNet:
    """Box net of the kernel N = pi^{-1}(1), embedded back into the source.
    It is nested: its shells are the embedded shells of N's box net."""
    n_mon, embed = pi.kernel_embedding()
    if n_mon.dim == 0:
        one = MSubset(pi.source, frozenset({pi.source.identity}))
        return FolnerNet(
            pi.source, lambda i: one, "ker-boxes", lambda i: one.elements if i == 1 else frozenset()
        )
    inner = box_net(n_mon)

    def gen(i):
        return MSubset(pi.source, frozenset(embed(t) for t in inner.subset(i).elements))

    def shell(i):
        return frozenset(map(embed, inner.shell(i).elements))

    return FolnerNet(pi.source, gen, "ker-boxes", shell)


def semidirect_defect(n: int, m: int, x, budget: int = DEFAULT_ELEMENT_BUDGET) -> Fraction:
    """delta_{n,m}(x) = |G_{m,n} x \\ G_{m,n}| / |G_{m,n}| in Z^2 x| Z with
    A_m = [0, m-1]^2 and C_n = [0, n-1], counted exactly slice by slice.

    Right-translating by x moves the slice at height c by the integer
    vector w = phi(c)(x_1, x_2), which is M w' for M the shear matrix and
    w' the slice below's.  The slice is a box, so the two axes count
    independently, and on one axis max(0, m - |w_i|) of the m points a
    have a + w_i in [0, m).  The count walks the n slices, so the budget
    bounds n.
    """
    g = SemidirectZZ()
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if n > budget:
        raise BudgetExceededError(f"{n} slices exceed budget {budget}")
    x = tuple(x)
    if len(x) == 2:
        x = (x[0], x[1], 0)
    (a, b), (d, e) = g.matrix
    w1, w2 = x[0], x[1]  # phi(0) = I
    escaped = 0
    for c in range(n):
        if 0 <= c + x[2] < n:
            escaped += m * m - max(0, m - abs(w1)) * max(0, m - abs(w2))
        else:
            escaped += m * m
        w1, w2 = a * w1 + b * w2, d * w1 + e * w2
    return Fraction(escaped, n * m * m)


# ---------------------------------------------------------------------------
# eps-disjointness and tilings


def _max_flow(adj, source, sink, capacity):
    """Plain BFS augmenting-path max flow on a small graph."""
    flow = {e: 0 for e in capacity}
    total = 0
    while True:
        parent = {source: None}
        queue = [source]
        while queue and sink not in parent:
            u = queue.pop(0)
            for v in adj[u]:
                residual = capacity.get((u, v), 0) - flow.get((u, v), 0) + flow.get((v, u), 0)
                if v not in parent and residual > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total, flow
        # trace back, push one unit (all capacities here are integral)
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(
            capacity.get(e, 0) - flow.get(e, 0) + flow.get((e[1], e[0]), 0) for e in path
        )
        for (u, v) in path:
            back = flow.get((v, u), 0)
            if back >= push:
                flow[(v, u)] = back - push
            else:
                flow[(v, u)] = 0
                flow[(u, v)] = flow.get((u, v), 0) + push - back
        total += push


def is_eps_disjoint(family, eps):
    """Decide eps-disjointness exactly; on success return a certificate.

    The family (Y_j) is eps-disjoint when pairwise disjoint Z_j <= Y_j
    exist with (1 - eps)|Y_j| <= |Z_j|.  Existence is a flow-feasibility
    question on the element-set incidence graph.
    """
    eps = Fraction(eps)
    family = list(family)
    need = []
    for y in family:
        bound = (1 - eps) * len(y)
        need.append(max(0, -(-bound.numerator // bound.denominator)))  # ceil
    elements = sorted({e for y in family for e in y.elements})
    source, sink = ("src",), ("snk",)
    adj = {source: [], sink: []}
    capacity = {}
    for j, y in enumerate(family):
        sn = ("set", j)
        adj.setdefault(sn, []).append(source)
        adj[source].append(sn)
        capacity[(source, sn)] = need[j]
        for e in y.elements:
            en = ("el", e)
            adj.setdefault(en, [])
            adj[sn].append(en)
            adj[en].append(sn)
            capacity[(sn, en)] = 1
            if (en, sink) not in capacity:
                adj[en].append(sink)
                adj[sink].append(en)
                capacity[(en, sink)] = 1
    total, flow = _max_flow(adj, source, sink, capacity)
    if total < sum(need):
        return False, None
    cert = []
    for j, y in enumerate(family):
        sn = ("set", j)
        chosen = frozenset(
            e for e in y.elements if flow.get((sn, ("el", e)), 0) == 1
        )
        cert.append(MSubset(y.monoid, chosen))
    return True, cert


@dataclass(frozen=True)
class TilingWitness:
    """Tiles F_j with center sets P_j; the translates P_j F_j should be
    pairwise disjoint and nearly cover the target set."""

    tiles: tuple
    centers: tuple


@dataclass
class TilingReport:
    d: int
    u: int
    b: int
    disjoint: bool  # the sets P_j F_j are pairwise disjoint across tiles
    within: bool    # each translate family (s F_j)_{s in P_j} is eps-disjoint
    inside: bool
    covers: bool    # d - u < eps d
    mass: bool      # 0 <= b - u < eps b
    eps: Fraction

    @property
    def ok(self):
        return self.disjoint and self.within and self.inside and self.covers and self.mass


def _require_lattice(monoid):
    if not isinstance(monoid, (FreeCommutative, FreeAbelian)):
        raise UndecidableFamilyError(f"packed tilings need N^d or Z^d, not {monoid}")


class _Cells:
    """A nonempty finite subset of N^d or Z^d with its bounding box lo..hi
    and its coordinate columns.  A BoxSubset is read by its corners, and
    its columns are built only when they are asked for; any other subset
    is read by its cells."""

    def __init__(self, subset: MSubset):
        self.subset = subset
        self.size = len(subset)
        if isinstance(subset, BoxSubset):
            self.lo, self.hi = subset.lo, subset.hi
        else:
            self.lo = [min(c) for c in self.cols]
            self.hi = [max(c) for c in self.cols]

    @cached_property
    def cols(self) -> list:
        cells = self.subset.elements
        # one pass per coordinate: zip(*cells) would make an iterator per cell
        return [list(map(itemgetter(k), cells)) for k in range(self.subset.monoid.dim)]

    def is_box(self) -> bool:
        """The cells fill their bounding box."""
        return self.size == prod(b - a + 1 for a, b in zip(self.lo, self.hi))


def _pack(offsets, low=0) -> int:
    """The int with bit p - low set for each p in ``offsets`` (all >= low)."""
    if not offsets:
        return 0
    digits = bytearray(b"0") * (max(offsets) - low + 1)
    for p in offsets:
        digits[p - low] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


class _Frame:
    """A box lo..hi of Z^d whose cells are the bits of one Python int: cell
    x is bit offset(x) - origin.

    The first coordinate has the largest stride, so bit order is the
    lexicographic order of cells.  offset is additive, so s + t is bit
    offset(s) - origin + offset(t) whenever s + t lies in the box."""

    def __init__(self, lo, hi):
        strides, cells = [], 1
        for a, b in zip(reversed(lo), reversed(hi)):
            strides.append(cells)
            cells *= b - a + 1
        if cells > FRAME_BUDGET:
            raise BudgetExceededError(
                f"tiling frame has {cells} cells, over the bound of {FRAME_BUDGET}"
            )
        self.lo = tuple(lo)
        self.strides = tuple(reversed(strides))
        self.origin = self.offset(self.lo)

    def offset(self, t) -> int:
        return sum(map(mul, t, self.strides))

    def offsets(self, cells: _Cells) -> list:
        out = [0] * cells.size
        for col, stride in zip(cells.cols, self.strides):
            out = map(add, out, map(mul, col, repeat(stride)))
        return list(out)

    def mask(self, cells: _Cells) -> int:
        """The bits of ``cells``; a box is written out row by row."""
        if not cells.is_box():
            return _pack(self.offsets(cells), self.origin)
        rows = "1"
        for a, b, stride in zip(reversed(cells.lo), reversed(cells.hi), reversed(self.strides)):
            rows = rows.rjust(stride, "0") * (b - a + 1)
        return int(rows, 2) << (self.offset(cells.lo) - self.origin)

    def cells(self, indices) -> list:
        """The cells at bit indices ``indices``, decoded one coordinate at a
        time over the whole list."""
        cols, rest = [], indices
        for a, stride in zip(self.lo, self.strides):
            cols.append(list(map(add, map(floordiv, rest, repeat(stride)), repeat(a))))
            rest = list(map(mod, rest, repeat(stride)))
        return list(zip(*cols)) if cols else [()] * len(indices)


def check_tiling(d_set: MSubset, witness: TilingWitness, eps) -> TilingReport:
    """Verify the tiling clauses exactly and report all margins.

    Cells are bits of a frame that holds D and every placed cell; a frame
    over FRAME_BUDGET cells raises BudgetExceededError.  A BoxSubset region
    is read by its bounds, any other region by its cells.  A family
    (s F_j)_{s in P_j} is disjoint exactly when the product of the masks of
    P_j and F_j makes no carry, and then that product is its union; a family
    that overlaps is handed to is_eps_disjoint."""
    eps = Fraction(eps)
    monoid = d_set.monoid
    _require_lattice(monoid)
    families = [
        (_Cells(t), _Cells(c), t, c)
        for t, c in zip(witness.tiles, witness.centers)
        if len(t) and len(c)
    ]
    union = placed = 0
    within = inside = True
    if families:
        region = _Cells(d_set) if len(d_set) else None
        boxes = [(region.lo, region.hi)] if region else []
        boxes += [(list(map(add, t.lo, c.lo)), list(map(add, t.hi, c.hi))) for t, c, *_ in families]
        lows, highs = zip(*boxes)
        frame = _Frame([min(c) for c in zip(*lows)], [max(c) for c in zip(*highs)])
        for shape, spots, tile, centers in families:
            offsets = frame.offsets(shape)
            low = min(offsets)
            starts = _pack(frame.offsets(spots), frame.origin - low)
            cover = starts * _pack(offsets, low)
            if cover.bit_count() != len(tile) * len(centers):
                cover = 0
                for r in offsets:
                    cover |= starts << (r - low)
                translates = [
                    MSubset(monoid, frozenset(monoid.op(s, t) for t in tile.elements))
                    for s in sorted(centers.elements)
                ]
                ok, _ = is_eps_disjoint(translates, eps)
                within = within and ok
            placed += cover.bit_count()
            union |= cover
        inside = region is not None and not union & ~frame.mask(region)
    d = len(d_set)
    u = union.bit_count()
    disjoint = placed == u
    b = sum(len(c) * len(t) for c, t in zip(witness.centers, witness.tiles))
    covers = Fraction(d - u) < eps * d
    mass = 0 <= b - u and (Fraction(b - u) < eps * b if b else False)
    return TilingReport(d, u, b, disjoint, within, inside, covers, mass, eps)


def remtil_check(d_set: MSubset, witness: TilingWitness, eps) -> bool:
    """u <= b and |1/d - 1/b| < 2 eps / b, in exact rational arithmetic."""
    report = check_tiling(d_set, witness, eps)
    if not report.ok:
        raise InvalidWitnessError("witness fails the tiling clauses")
    return _reciprocal_gap_ok(report)


def _reciprocal_gap_ok(report: TilingReport) -> bool:
    """The remtil clauses, read off a valid witness's report."""
    if report.u > report.b:
        return False
    return abs(Fraction(1, report.d) - Fraction(1, report.b)) < 2 * report.eps / report.b


def _first_fit(fits: int, clash: int):
    """Yield the set bits of ``fits`` from the lowest up, ruling out the
    bits of clash << at after each bit ``at`` yielded (bit 0 of ``clash``
    is set).  The mask is read in blocks at least as wide as ``clash``, so
    a step costs the width of ``clash``, not of ``fits``."""
    step = max(clash.bit_length(), 1 << 12) // 8 + 1  # bytes per block
    raw = fits.to_bytes(-(-fits.bit_length() // 8), "little")
    ruled = 0  # bits ruled out, from the start of the block on
    for start in range(0, len(raw), step):
        block = int.from_bytes(raw[start : start + step], "little") & ~ruled
        while block:
            at = (block & -block).bit_length() - 1
            yield 8 * start + at
            ruled |= clash << at
            block &= ~ruled
        ruled >>= 8 * step


def greedy_tiler(d_set: MSubset, tiles, eps, *, validate=True):
    """Greedy largest-first placement of disjoint translates s F_j inside D.

    Scans centers s in D in lexicographic order and takes each s with
    s F_j inside D and off every cell already covered; stops as soon as the
    uncovered fraction drops below eps.  D lives in a frame of N^d or Z^d,
    D's bounding box grown on each side by the tiles' reach, so that every
    cell s + t and every s + (t - t') stays in the frame; a frame over
    FRAME_BUDGET cells raises BudgetExceededError.  A BoxSubset region is
    read by its bounds and its bits are written row by row, so none of
    its cells is built; any other region is read by its cells.  A tile's
    cells give the shifts of the scan, and a tile reaching further than
    D's extent cannot fit and is skipped.  Per tile the
    centers that fit are D and the |F_j| shifts of the free cells; taking
    the lowest one (``_first_fit``) rules out the centers s + (t - t').
    With ``validate`` the witness is checked with check_tiling and None is
    returned when it fails (the bound is unreachable); without, the
    caller checks it.
    """
    eps = Fraction(eps)
    monoid = d_set.monoid
    _require_lattice(monoid)
    tiles = sorted(tiles, key=len, reverse=True)
    d = len(d_set)
    shapes = {}  # tile position -> its cells, for the tiles that fit in D
    if d:
        region = _Cells(d_set)
        room = list(map(sub, region.hi, region.lo))
        reach = [0] * monoid.dim
        for j, tile in enumerate(tiles):
            shape = _Cells(tile) if len(tile) else None  # empty: fits anywhere
            if shape:
                need = [max(b, -a, b - a) for a, b in zip(shape.lo, shape.hi)]
                if any(map(gt, need, room)):
                    continue
                reach = list(map(max, reach, need))
            shapes[j] = shape
        frame = _Frame(list(map(sub, region.lo, reach)), list(map(add, region.hi, reach)))
        in_d = free = frame.mask(region)
    covered, centers, done = 0, [], False
    for j, tile in enumerate(tiles):
        chosen = []
        if not done and j in shapes:
            offsets = frame.offsets(shapes[j]) if shapes[j] else []
            low = min(offsets, default=0)
            body = _pack(offsets, low)
            fits, clash = in_d, 1  # bit 0 of clash: the center itself
            for r in offsets:
                fits &= free >> r if r >= 0 else free << -r
                clash |= body >> (r - low)  # the bits t - t' >= 0
            size, num, den = len(tile), eps.numerator, eps.denominator
            for at in _first_fit(fits, clash):
                chosen.append(at)
                covered += size
                if (d - covered) * den < num * d:  # d - covered < eps d
                    done = True
                    break
            free ^= _pack(chosen, -low) * body  # disjoint translates: no carry
        # with no region there is no frame, and nothing was chosen
        centers.append(MSubset(monoid, frozenset(frame.cells(chosen) if chosen else ())))
    witness = TilingWitness(tuple(tiles), tuple(centers))
    if not validate:
        return witness
    report = check_tiling(d_set, witness, eps)
    return witness if report.ok else None
