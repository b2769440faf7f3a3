"""Finitely described cancellative monoids and their finite subsets.

Elements of every family are flat integer tuples, so they hash fast, sort
deterministically, and serialize trivially.  The monoid object owns all
arithmetic; subsets are thin immutable wrappers around frozensets.

Supported families: N^d, Z^d, finite abelian groups, flat products of
those, and the semidirect product Z^2 x| Z given by a unimodular 2x2
integer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import prod
from operator import add

from .errors import (
    MonoidMismatchError,
    NotSemiGoodError,
    UndecidableFamilyError,
)


class MonoidBase:
    """Minimal monoid protocol: identity, multiplication, membership."""

    is_cancellative = True
    # the box table, one entry per coordinate: "N", "Z", or the order k of
    # Z/k; None in a family without boxes
    coordinates = None

    @property
    def identity(self):
        raise NotImplementedError

    def op(self, x, y):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def subset(self, elements) -> "MSubset":
        return MSubset.of(self, elements)


class Monoid(MonoidBase):
    """Base class for the cancellative families."""

    dim = 0
    is_group = False
    is_finite = False

    def inverse(self, x):
        raise NotImplementedError(f"{self} is not a group")

    def is_unit(self, x) -> bool:
        return self.is_group or x == self.identity

    def sides(self, n: int) -> list:
        """The box of scale n as one range per coordinate, read off the box
        table: [0, n) on N, [-n, n] on Z and [0, k) on Z/k, so all of a
        finite group at every n."""
        table = self.coordinates
        if table is None:
            raise UndecidableFamilyError(f"no boxes in {self}")
        return [range(n) if c == "N" else range(-n, n + 1) if c == "Z" else range(c) for c in table]

    def window(self, n: int) -> "BoxSubset":
        """The BoxSubset of the sides of scale n: its corners are [0, n-1]
        on N, [-n, n] on Z and [0, k-1] on Z/k."""
        sides = self.sides(n)
        return BoxSubset(self, [side.start for side in sides], [side.stop - 1 for side in sides])

    def generators(self):
        """Canonical generating directions: generator j is the unit vector
        of coordinate j of the box table."""
        if self.coordinates is None:
            raise UndecidableFamilyError(f"{self} carries no action generators here")
        d = len(self.coordinates)
        return [tuple(int(i == j) for j in range(d)) for i in range(d)]

    def generator_exponents(self, x):
        """Exponent vector of x over generators(); negative parts allowed
        only in group families."""
        return tuple(x)

    def sample(self, rng, n: int):
        elems = sorted(self.window(n).elements)
        return elems[rng.randrange(len(elems))]


@dataclass(frozen=True)
class FreeCommutative(Monoid):
    """N^d under addition."""

    dim: int

    @property
    def identity(self):
        return (0,) * self.dim

    def op(self, x, y):
        return tuple(map(add, x, y))

    def contains(self, x):
        return len(x) == self.dim and all(isinstance(a, int) and a >= 0 for a in x)

    def is_unit(self, x):
        return not any(x)

    @cached_property
    def coordinates(self):
        return ("N",) * self.dim

    def __str__(self):
        return f"N^{self.dim}"


@dataclass(frozen=True)
class FreeAbelian(Monoid):
    """Z^d under addition."""

    dim: int
    is_group = True

    @property
    def identity(self):
        return (0,) * self.dim

    def op(self, x, y):
        return tuple(map(add, x, y))

    def inverse(self, x):
        return tuple(-a for a in x)

    def contains(self, x):
        return len(x) == self.dim and all(isinstance(a, int) for a in x)

    @cached_property
    def coordinates(self):
        return ("Z",) * self.dim

    def __str__(self):
        return f"Z^{self.dim}"


@dataclass(frozen=True)
class FiniteAbelianMonoid(Monoid):
    """The finite abelian group prod Z/n_i, seen as a (cancellative) monoid."""

    factors: tuple

    is_group = True
    is_finite = True

    def __post_init__(self):
        if not all(isinstance(n, int) and n >= 1 for n in self.factors):
            raise ValueError("factors must be positive integers")

    @property
    def dim(self):
        return len(self.factors)

    @property
    def order(self):
        return prod(self.factors)

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def op(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.factors))

    def inverse(self, x):
        return tuple((-a) % n for a, n in zip(x, self.factors))

    def contains(self, x):
        return len(x) == len(self.factors) and all(
            isinstance(a, int) and 0 <= a < n for a, n in zip(x, self.factors)
        )

    @property
    def coordinates(self):
        return self.factors

    def elements(self):
        return iproduct(*(range(n) for n in self.factors))

    def __str__(self):
        return " x ".join(f"Z/{n}" for n in self.factors) if self.factors else "1"


@dataclass(frozen=True)
class ProductMonoid(Monoid):
    """Direct product of monoid families, with flat concatenated coordinates."""

    parts: tuple

    def __post_init__(self):
        if not all(isinstance(p, Monoid) for p in self.parts):
            raise ValueError("parts must be Monoid instances")

    @property
    def dim(self):
        return sum(p.dim for p in self.parts)

    @property
    def is_group(self):
        return all(p.is_group for p in self.parts)

    @property
    def is_finite(self):
        return all(p.is_finite for p in self.parts)

    @cached_property
    def _slices(self):
        out, at = [], 0
        for p in self.parts:
            out.append((p, at, at + p.dim))
            at += p.dim
        return out

    @property
    def identity(self):
        return sum((p.identity for p in self.parts), ())

    def op(self, x, y):
        out = ()
        for p, a, b in self._slices:
            out += p.op(x[a:b], y[a:b])
        return out

    def inverse(self, x):
        out = ()
        for p, a, b in self._slices:
            out += p.inverse(x[a:b])
        return out

    def contains(self, x):
        if len(x) != self.dim:
            return False
        return all(p.contains(x[a:b]) for p, a, b in self._slices)

    def is_unit(self, x):
        return all(p.is_unit(x[a:b]) for p, a, b in self._slices)

    @cached_property
    def coordinates(self):
        tables = [p.coordinates for p in self.parts]
        return None if None in tables else sum(tables, ())

    def __str__(self):
        return " x ".join(str(p) for p in self.parts)


def _mat_apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


@lru_cache(maxsize=4096)
def _mat_power(matrix, inv, n):
    base = matrix if n >= 0 else inv
    out = ((1, 0), (0, 1))
    for _ in range(abs(n)):
        out = _mat_mul(out, base)
    return out


@dataclass(frozen=True)
class SemidirectZZ(Monoid):
    """Z^2 x| Z with (a1, c1) * (a2, c2) = (a1 + phi(c1) a2, c1 + c2).

    phi(n) is the n-th power of a fixed unimodular integer matrix; the
    default shear phi(n)(v1, v2) = (v1 + n*v2, v2) is the interesting
    non-Folner-product case.  Elements are (v1, v2, c).
    """

    matrix: tuple = ((1, 1), (0, 1))

    is_group = True
    dim = 3

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if a * d - b * c not in (1, -1):
            raise ValueError("matrix must be unimodular")

    @property
    def identity(self):
        return (0, 0, 0)

    def phi(self, n: int):
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        inv = ((d * det, -b * det), (-c * det, a * det))
        return _mat_power(self.matrix, inv, n)

    def op(self, x, y):
        v = _mat_apply(self.phi(x[2]), (y[0], y[1]))
        return (x[0] + v[0], x[1] + v[1], x[2] + y[2])

    def inverse(self, x):
        w = _mat_apply(self.phi(-x[2]), (-x[0], -x[1]))
        return (w[0], w[1], -x[2])

    def contains(self, x):
        return len(x) == 3 and all(isinstance(a, int) for a in x)

    def window(self, n):
        rng = range(-n, n + 1)
        return MSubset(self, frozenset((a, b, c) for a in rng for b in rng for c in rng))

    def __str__(self):
        return "Z^2 x| Z"


@dataclass(frozen=True)
class CappedAdd(MonoidBase):
    """{0, ..., cap} with x (+) y = min(cap, x + y).

    Not cancellative; allowed only as the target of a homomorphism (the
    no-good-section fixture), never as an acting monoid.
    """

    cap: int

    is_cancellative = False
    is_group = False
    is_finite = True
    dim = 1

    @property
    def identity(self):
        return (0,)

    def op(self, x, y):
        return (min(self.cap, x[0] + y[0]),)

    def contains(self, x):
        return len(x) == 1 and 0 <= x[0] <= self.cap

    def elements(self):
        return ((i,) for i in range(self.cap + 1))

    def __str__(self):
        return f"min-cap({self.cap})"


@dataclass(frozen=True)
class MSubset:
    """Nonempty-by-convention finite subset of a monoid."""

    monoid: MonoidBase
    elements: frozenset

    @classmethod
    def of(cls, monoid, elements):
        elems = frozenset(tuple(e) for e in elements)
        for e in elems:
            if not monoid.contains(e):
                raise MonoidMismatchError(f"{e} is not an element of {monoid}")
        return cls(monoid, elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def __contains__(self, x):
        return x in self.elements

    def sorted_key(self):
        return tuple(sorted(self.elements))

    def union(self, other):
        _same_monoid(self, other)
        return MSubset(self.monoid, self.elements | other.elements)

    def translate(self, s):
        """Right translate F*s."""
        op = self.monoid.op
        return MSubset(self.monoid, frozenset(op(f, s) for f in self.elements))


class BoxSubset(MSubset):
    """The box lo..hi (both corners included) of a monoid with a box table
    (N^d, Z^d, finite groups and their products), kept as its corners: its
    size is the product of its sides, and its cells are built only when
    ``elements`` is read.  A nonempty box has both corners in the monoid.
    It equals the MSubset of the same cells; a side below 1 makes it
    empty.  Every ``window`` of these families is one."""

    def __init__(self, monoid, lo, hi):
        lo, hi = tuple(lo), tuple(hi)
        table = monoid.coordinates
        if table is None or not len(lo) == len(hi) == len(table):
            raise MonoidMismatchError(f"no box {lo}..{hi} in {monoid}")
        size, inside = 1, True
        for c, a, b in zip(table, lo, hi):
            size *= b - a + 1 if a <= b else 0
            # lo <= hi in a nonempty box: lo >= 0 on N and Z/k, hi < k on Z/k
            if c != "Z" and (a < 0 or c != "N" and b >= c):
                inside = False
        if size and not inside:
            raise MonoidMismatchError(f"a corner of {lo}..{hi} is not an element of {monoid}")
        # a frozen dataclass: the fields go straight into the instance dict
        self.__dict__.update(monoid=monoid, lo=lo, hi=hi, size=size)

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self)

    def __len__(self):
        return self.size

    def __iter__(self):
        """The cells in sorted (lexicographic) order."""
        return iproduct(*[range(a, b + 1) for a, b in zip(self.lo, self.hi)])

    def __contains__(self, x):
        return len(x) == len(self.lo) and all(a <= c <= b for a, c, b in zip(self.lo, x, self.hi))

    def __eq__(self, other):
        if not isinstance(other, MSubset):
            return NotImplemented
        if self.monoid != other.monoid or len(self) != len(other):
            return False
        if isinstance(other, BoxSubset) and self.size:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return all(map(self.__contains__, other.elements))  # equal sizes, no repeats

    __hash__ = MSubset.__hash__

    def __repr__(self):
        return f"BoxSubset({self.monoid}, {self.lo}, {self.hi})"


def _same_monoid(F, E):
    if F.monoid != E.monoid:
        raise MonoidMismatchError(f"{F.monoid} != {E.monoid}")


def set_product(F: MSubset, E: MSubset) -> MSubset:
    """Elementwise product set {f e : f in F, e in E}."""
    _same_monoid(F, E)
    op = F.monoid.op
    return MSubset(F.monoid, frozenset(op(f, e) for f in F.elements for e in E.elements))


def sym_diff_ratio(F: MSubset, s) -> Fraction:
    """|Fs (sym diff) F| / |F| as an exact rational."""
    if not F.elements:
        raise ValueError("F must be nonempty")
    fs = F.translate(s).elements
    return Fraction(len(fs ^ F.elements), len(F.elements))


# ---------------------------------------------------------------------------
# homomorphisms, kernels, sections


@dataclass(frozen=True)
class MonoidHom:
    """Coordinate-level homomorphism between supported families."""

    source: MonoidBase
    target: MonoidBase
    kind: str  # 'project' | 'mod' | 'scale' | 'semidirect-c'
    data: tuple = ()

    def __call__(self, x):
        if self.kind == "project":
            return tuple(x[i] for i in self.data)
        if self.kind == "mod":
            return tuple(a % n for a, n in zip(x, self.target.factors))
        if self.kind == "scale":
            return tuple(a * k for a, k in zip(x, self.data))
        if self.kind == "semidirect-c":
            return (x[2],)
        raise UndecidableFamilyError(self.kind)

    def apply_set(self, F: MSubset) -> MSubset:
        if F.monoid != self.source:
            raise MonoidMismatchError("subset not in the source monoid")
        return MSubset(self.target, frozenset(self(x) for x in F.elements))

    @property
    def is_surjective(self) -> bool:
        return self.kind != "scale" or all(k in (1, -1) for k in self.data)

    def kernel_embedding(self):
        """(N, embed) with N a monoid family isomorphic to ker = preimage of 1
        and embed mapping N-elements into the source."""
        src = self.source
        if self.kind == "project":
            keep = [i for i in range(src.dim) if i not in self.data]
            sub, place = _sub_family(src, keep)
            return sub, place
        if self.kind == "mod":
            factors = self.target.factors
            if isinstance(src, FreeCommutative):
                n = FreeCommutative(src.dim)
            elif isinstance(src, FreeAbelian):
                n = FreeAbelian(src.dim)
            else:
                raise UndecidableFamilyError(f"mod kernel for {src}")
            return n, lambda t: tuple(a * m for a, m in zip(t, factors))
        if self.kind == "semidirect-c":
            return FreeAbelian(2), lambda t: (t[0], t[1], 0)
        raise UndecidableFamilyError(f"kernel of {self.kind}")

    def kernel_express(self, s):
        """Inverse of the kernel embedding on elements of the kernel."""
        src = self.source
        if self.kind == "project":
            kept = [i for i in range(src.dim) if i not in self.data]
            if any(s[i] != src.identity[i] for i in self.data):
                raise MonoidMismatchError(f"{s} is not in the kernel")
            return tuple(s[i] for i in kept)
        if self.kind == "mod":
            factors = self.target.factors
            if any(a % n for a, n in zip(s, factors)):
                raise MonoidMismatchError(f"{s} is not in the kernel")
            return tuple(a // n for a, n in zip(s, factors))
        if self.kind == "semidirect-c":
            if s[2] != 0:
                raise MonoidMismatchError(f"{s} is not in the kernel")
            return (s[0], s[1])
        raise UndecidableFamilyError(f"kernel of {self.kind}")

    def __str__(self):
        return f"{self.source} -> {self.target} [{self.kind}]"


def _sub_family(src: Monoid, coords):
    """Sub-monoid of a flat family on the given coordinates, with embedding."""
    coords = tuple(coords)

    def place(t):
        out = list(src.identity)
        for c, v in zip(coords, t):
            out[c] = v
        return tuple(out)

    if isinstance(src, FreeCommutative):
        return FreeCommutative(len(coords)), place
    if isinstance(src, FreeAbelian):
        return FreeAbelian(len(coords)), place
    if isinstance(src, FiniteAbelianMonoid):
        return FiniteAbelianMonoid(tuple(src.factors[c] for c in coords)), place
    if isinstance(src, ProductMonoid):
        parts, at = [], 0
        blocks = []
        for p in src.parts:
            blocks.append((at, at + p.dim, p))
            at += p.dim
        chosen = []
        for a, b, p in blocks:
            block = tuple(range(a, b))
            if all(c in coords for c in block):
                chosen.append(p)
            elif any(c in coords for c in block):
                raise UndecidableFamilyError("projection must respect product blocks")
        sub = ProductMonoid(tuple(chosen)) if len(chosen) != 1 else chosen[0]
        return sub, place
    raise UndecidableFamilyError(f"sub-family of {src}")


def projection_hom(source: Monoid, coords, target=None) -> MonoidHom:
    coords = tuple(coords)
    if not all(0 <= c < source.dim for c in coords):
        raise MonoidMismatchError(f"coordinates {coords} are not all below dim {source.dim}")
    inferred, _ = _sub_family(source, coords)
    if target is None:
        target = inferred
    elif target != inferred:
        raise MonoidMismatchError(f"projection lands in {inferred}, not {target}")
    return MonoidHom(source, target, "project", coords)


def mod_hom(source: Monoid, factors) -> MonoidHom:
    return MonoidHom(source, FiniteAbelianMonoid(tuple(factors)), "mod")


def scale_hom(source: Monoid, target: Monoid, scale) -> MonoidHom:
    """Injective embedding t -> (k_i t_i); used for restriction actions."""
    if any(k == 0 for k in scale):
        raise ValueError("scale factors must be nonzero")
    return MonoidHom(source, target, "scale", tuple(scale))


def semidirect_quotient_hom(source: SemidirectZZ) -> MonoidHom:
    return MonoidHom(source, FreeAbelian(1), "semidirect-c", ())


@dataclass(frozen=True)
class Section:
    """A section of a surjective homomorphism, with sigma(1) = 1."""

    hom: MonoidHom

    def __call__(self, c):
        pi = self.hom
        if pi.kind == "project":
            out = list(pi.source.identity)
            for i, v in zip(pi.data, c):
                out[i] = v
            return tuple(out)
        if pi.kind == "mod":
            return tuple(c)
        if pi.kind == "semidirect-c":
            return (0, 0, c[0])
        raise UndecidableFamilyError(pi.kind)

    def apply_set(self, Y: MSubset) -> MSubset:
        if Y.monoid != self.hom.target:
            raise MonoidMismatchError("subset not in the section's domain")
        return MSubset(self.hom.source, frozenset(self(c) for c in Y.elements))


def fiber(pi: MonoidHom, c, bound: int) -> MSubset:
    """pi^{-1}(c) intersected with the source's canonical window."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    win = pi.source.window(bound)
    return MSubset(pi.source, frozenset(s for s in win.elements if pi(s) == c))


def is_good_element(pi: MonoidHom, s) -> bool:
    """Decide N s = fiber(s) = s N symbolically, per family."""
    if not pi.is_surjective:
        raise UndecidableFamilyError("goodness is defined for surjections only")
    src = pi.source
    if isinstance(src, Monoid) and src.is_group:
        return True
    if pi.kind == "project":
        n, embed = pi.kernel_embedding()
        kept = [i for i in range(src.dim) if i not in pi.data]
        return n.is_unit(tuple(s[i] for i in kept))
    if pi.kind == "mod":
        # N + s covers the fiber iff s is the minimal representative
        return all(0 <= a < m for a, m in zip(s, pi.target.factors))
    raise UndecidableFamilyError(f"no goodness rule for {pi.kind} on {src}")


def check_good_window(pi: MonoidHom, s, bound: int) -> bool:
    """Bounded falsifier backing the symbolic goodness rule.

    The inclusions Ns, sN <= fiber(s) hold tautologically, so the
    falsifiable content is coverage: every fiber element inside the
    source window must be reachable as ts and st with t from a kernel
    window (taken with a margin so coverage is decided correctly).
    """
    n_mon, embed = pi.kernel_embedding()
    if n_mon.dim:
        win = n_mon.window(4 * bound).elements
    else:
        win = {()}
    ns = {pi.source.op(embed(t), s) for t in win}
    sn = {pi.source.op(s, embed(t)) for t in win}
    fib_w = fiber(pi, pi(s), bound).elements
    return fib_w <= ns and fib_w <= sn


def find_good_section(pi: MonoidHom):
    """A good section with sigma(1) = 1."""
    if not pi.is_surjective:
        raise UndecidableFamilyError("sections are for surjections")
    if pi.kind in ("project", "mod", "semidirect-c"):
        return Section(pi)
    raise UndecidableFamilyError(f"no section rule for {pi.kind} on {pi.source}")


def fiber_conjugation(pi: MonoidHom, sigma: Section, s, n):
    """The unique h with n s = s h, for semi-good s."""
    src = pi.source
    if isinstance(src, SemidirectZZ):
        if s[:2] != (0, 0):
            raise NotSemiGoodError("only canonical-section elements are handled")
        w = _mat_apply(src.phi(-s[2]), (n[0], n[1]))
        return (w[0], w[1], 0)
    if isinstance(src, (FreeCommutative, FreeAbelian, FiniteAbelianMonoid, ProductMonoid)):
        return n  # commutative: h_s is the identity map
    raise NotSemiGoodError(f"no conjugation rule for {src}")
