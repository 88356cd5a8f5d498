"""Quandle cohomology in degrees n >= 2 over Z, Q, and Z_p, by exact linear algebra.

Chains: C_n is free on X^n; the degenerate subcomplex (tuples with an adjacent
repeat) is quotiented away by deleting those basis tuples, which the boundary
respects. Cochains are A-valued functions on the surviving tuples and the
coboundary is the transpose of the boundary.

The boundary of (x_1, ..., x_n) is the alternating sum over i of
(x_1, ..., x_i-hat, ..., x_n) - (x_1*x_i, ..., x_{i-1}*x_i, x_i-hat, ..., x_n).

For a good involution rho, the involution relations in degree n are the sums
(x_1,...,x_n) + (x_1*x_i, ..., x_{i-1}*x_i, rho(x_i), x_{i+1}, ..., x_n).
Symmetric cohomology here is the group of n-cocycles vanishing on the degree-n
involution relations, modulo coboundaries of arbitrary (n-1)-cochains. (The
stricter quotient that also constrains the (n-1)-cochains by the involution
relations gives a larger group in degree 2; the convention used here is the
one under which the one-column computations close up.)

One formula gives both groups. Let S be delta_out stacked with the relation
rows R (none for plain cohomology). The cocycles are ker S; the coboundaries
among them are delta_in applied to ker(R*delta_in), all of im(delta_in) when
R is empty, as delta_out*delta_in = 0. Over Z, ker S is a direct summand of
Z^{c_n}, so with M = delta_in*ker(R*delta_in)^T, H^n is Z^(c_n - rk S - rk M)
plus the factors > 1 of the Smith form of M. Over a field, its dimension is
c_n - rk S - (rk delta_in - rk(R*delta_in)).

The complex splits into blocks. Call y inert if its column is the identity.
Faces that cancel: the first entry (nothing is before it) and every inert
entry. Every other face acts on the entries before x_i by a column, which
keeps x_1 and each inert entry in its Inn-orbit. So a block is spanned by the
tuples with one word of the orbits of x_1 and of the inert entries (of pairs
{O, rho(O)}, as a relation swaps x_i for rho(x_i)). H^n is the sum of the
blocks' groups, for every n >= 2; the cochain budget alone bounds the work.
In a trivial quandle every entry is inert, so every coboundary is zero.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from . import linalg
from .invariants import SymmetricQuandle
from .limits import Budget
from .quandle import Quandle


@dataclass(frozen=True)
class Coeff:
    """Coefficient structure: the integers, the rationals, or a prime field."""

    kind: str  # "Z" | "Q" | "Zp"
    p: int | None = None

    @classmethod
    def parse(cls, text: str) -> "Coeff":
        text = text.strip()
        if text in ("Z", "Q"):
            return cls(text)
        if text.startswith("Z") and text[1:].isdigit():
            p = int(text[1:])
            root = math.isqrt(p)
            Budget("primality", root - 1)  # a node per trial divisor 2..root
            if p < 2 or any(p % d == 0 for d in range(2, root + 1)):
                raise ValueError(f"modulus {p} is not prime")
            return cls("Zp", p)
        raise ValueError(f"unsupported coefficients {text!r} (use Z, Q, or Zp)")

    def __str__(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"Z{self.p}")


@dataclass(frozen=True)
class AbelianGroupSummary:
    """Free rank plus invariant factors over Z; a dimension over a field."""

    coeff: Coeff
    rank: int
    torsion: tuple = ()

    def __str__(self) -> str:
        if self.coeff.kind == "Q":
            return f"Q^{self.rank}"
        if self.coeff.kind == "Zp":
            return f"F{self.coeff.p}^{self.rank}"
        parts = [f"Z^{self.rank}"] * bool(self.rank) + [f"Z/{d}" for d in self.torsion]
        return " (+) ".join(parts) or "0"


def tuple_basis(q: Quandle, n: int):
    """Non-degenerate n-tuples (no adjacent repeat) in lexicographic order."""
    xs = q.elements
    basis = [(x,) for x in xs] if n >= 1 else []
    for _ in range(n - 1):
        basis = [t + (x,) for t in basis for x in xs if x != t[-1]]
    return basis


def _columns(q: Quandle):
    """The table's columns, and whether each element is inert."""
    cols, identity = tuple(zip(*q.table)), tuple(q.elements)
    return cols, [col == identity for col in cols]


def _charge_degree(n: int) -> None:
    """Refuse n < 2, and charge n^2 nodes before any power of m is formed: the
    listing builds tuples of up to n+1 entries one entry at a time."""
    if n < 2:
        raise ValueError(f"degree {n} is below 2")
    Budget("cochain", n * n)


def boundary_matrix(q: Quandle, n: int):
    """Matrix of the degree-n boundary on the non-degenerate bases.

    Rows are indexed by the (n-1)-tuple basis, columns by the n-tuple basis;
    image tuples that are degenerate are dropped (they vanish in the quotient).
    It is the transpose of the coboundary rows that `cochain_slice` builds, in
    the sparse rows of `linalg`. The cells of its shape are nodes of one
    Budget, charged before any row is built.
    """
    _charge_degree(n)
    Budget("cochain", q.m**2 * (q.m - 1) ** (2 * n - 3))  # c_n * c_(n-1), c_k = m(m-1)^(k-1)
    lower = tuple_basis(q, n - 1)
    return linalg.transpose(_coboundary_rows(_columns(q), tuple_basis(q, n), lower), len(lower))


def _coboundary_rows(columns, basis, lower):
    """One sparse row per tuple t of basis: the boundary of t (module docstring)
    on the lower basis, where the degenerate faces are absent and so vanish,
    and the two faces that delete the first or an inert entry cancel: skipped."""
    if not basis or not lower:
        return ((),) * len(basis)
    (cols, inert), index = columns, {t: i for i, t in enumerate(lower)}
    rows, nonzero = [], itemgetter(1)
    for t in basis:
        row = {}
        for i, y in enumerate(t[1:], 1):  # face i + 1, whose sign is (-1)^(i+1)
            if inert[y]:
                continue
            head, tail, sign = t[:i], t[i + 1:], i % 2 * 2 - 1
            if (j := index.get(head + tail)) is not None:
                row[j] = row.get(j, 0) + sign
            if (j := index.get(tuple(map(cols[y].__getitem__, head)) + tail)) is not None:
                row[j] = row.get(j, 0) - sign
        rows.append(tuple(sorted(filter(nonzero, row.items()))))
    return tuple(rows)


def _relation_rows(cols, rho, basis):
    """Involution relations as sparse rows over the basis. A row is the
    indicator of a sum T + T', made from its term T in the basis: the move
    T -> T' undoes itself ((x*y)*rho(y) = x; Kamada & Oshiro, Trans. AMS 2010).
    Coefficients are kept (a relation 2*f(T) = 0 stays 2; vacuous mod 2)."""
    index = {t: i for i, t in enumerate(basis)}
    relations = set()  # each as the sorted positions of its terms in the basis
    for t in basis:
        for i, y in enumerate(t):
            other = tuple(map(cols[y].__getitem__, t[:i])) + (rho[y],) + t[i + 1:]
            relations.add(tuple(sorted(index[s] for s in (t, other) if s in index)))
    return tuple(tuple(Counter(positions).items())  # a position twice is a 2
                 for positions in sorted(relations))


@dataclass(frozen=True)
class CochainComplexSlice:
    """Coboundary matrices around one degree, with the bases that index them.

    delta_in is the matrix of the coboundary into degree n (shape c_n x c_{n-1});
    delta_out maps out of degree n (shape c_{n+1} x c_n). Their product is zero.
    relations, when present, are the degree-n involution relation rows. Each
    is a tuple of `linalg`'s sparse rows.
    """

    quandle: Quandle
    degree: int
    basis_below: tuple
    basis: tuple
    basis_above: tuple
    delta_in: tuple
    delta_out: tuple
    relations: tuple | None = None

    def __post_init__(self):
        if any(linalg.mat_mul(self.delta_out, self.delta_in)):
            raise AssertionError("coboundary composed with itself is nonzero")


def _blocks(q: Quandle, n: int, rho, split: bool):
    """The slices of the degree-n blocks, n >= 2, that hold an n-tuple (module
    docstring), or the whole slice if not split or q is one block. Split with no
    rho, a trivial quandle is one slice of zero matrices. Any other block has a
    face or a relation, for some y not inert: if x_n is inert, appending y keeps
    the key; else deleting x_n does; with rho, each n-tuple makes its own
    relations. Budgets are charged before what they count is built: n^2 first;
    then, with nothing inert, the cells of the shapes of the blocks' matrices,
    as a block of first entries P holds |P|(m-1)^(k-1) k-tuples (and n
    relation rows per n-tuple with rho); else the tuples to list, then the cells."""
    _charge_degree(n)
    columns = _columns(q)
    # each element's orbit: the least point of its Inn-orbit O, or of O and rho(O);
    # its letter of a block key is (orbit,) if it is inert, else ()
    least = q._orbits[0] if split else [0] * q.m
    orbit = [min(least[x], least[r]) for x, r in zip(q.elements, rho or q.elements)]
    letters = [(o,) if split and i else () for o, i in zip(orbit, columns[1])]
    sizes = [q.m * (q.m - 1) ** (k - 1) for k in (n - 1, n, n + 1)]  # c_k, as tuple_basis
    rows = 0 if rho is None else n  # relation rows per n-tuple
    if any(letters):
        Budget("cochain", sum(sizes))
    else:  # a block holds |P|/m of each basis, so (|P|/m)^2 of the whole slice's cells
        whole = sizes[1] * (sizes[0] + sizes[2] + rows * sizes[1])
        Budget("cochain", whole * sum(p * p for p in Counter(orbit).values()) // (q.m**2 or 1))
    if split and rho is None and all(columns[1]):  # a trivial quandle: every face cancels
        yield cochain_slice(q, n, rho, (columns, ((), tuple_basis(q, n), ())))
        return
    groups = {}
    for slot, k in ((1, n), (0, n - 1), (2, n + 1)):
        level = [((x,), (orbit[x],)) for x in q.elements]  # (tuple, key) pairs
        for _ in range(k - 1):  # only the last step stays lazy, so a tuple
            # that no block keeps goes as it is made
            level = ((t + (x,), key + letters[x]) for t, key in list(level)
                     for x in q.elements if x != t[-1])
        for t, key in level:  # the n-tuples, listed first, name the blocks kept
            if slot == 1 or key in groups or not split:
                groups.setdefault(key, ([], [], []))[slot].append(t)
    Budget("cochain", sum(len(b) * (len(lo) + len(hi) + rows * len(b))
                          for lo, b, hi in groups.values()))
    for bases in list(groups.values()) or [((), (), ())]:  # no n-tuple: the whole slice
        yield cochain_slice(q, n, rho, (columns, bases))  # public, so a trace sees each


def cochain_slice(q: Quandle, n: int, rho=None, _block=None) -> CochainComplexSlice:
    """Build the whole degree-n slice, n >= 2. The cells of its matrices'
    shapes, with n relation rows per basis n-tuple before duplicates go, are
    nodes of one Budget, charged before any row is built; only the nonzeros
    are stored. With _block, the columns and the bases (below, basis, above)
    of a block that `_blocks` has charged, it builds that block's slice."""
    if _block is None:
        return next(_blocks(q, n, rho, split=False))
    columns, (below, basis, above) = _block
    return CochainComplexSlice(
        q, n, tuple(below), tuple(basis), tuple(above),
        _coboundary_rows(columns, basis, below), _coboundary_rows(columns, above, basis),
        None if rho is None else _relation_rows(columns[0], rho, basis))


def _cohomology(sl: CochainComplexSlice, coeff: Coeff) -> AbelianGroupSummary:
    """H^n of a slice; see the module docstring for the formula."""
    relations = sl.relations or ()
    stacked = sl.delta_out + relations
    r_in = linalg.mat_mul(relations, sl.delta_in) if relations else []
    c_n, c_below = len(sl.basis), len(sl.basis_below)
    if coeff.kind == "Z":
        coboundaries = sl.delta_in
        if relations:
            kernel = linalg.integer_kernel_basis(r_in, cols=c_below)
            coboundaries = linalg.mat_mul(sl.delta_in, linalg.transpose(kernel, c_below))
        factors = linalg.smith_normal_form(coboundaries)
        free = c_n - linalg.rank(stacked) - len(factors)
        return AbelianGroupSummary(coeff, free, tuple(d for d in factors if d > 1))
    p = coeff.p if coeff.kind == "Zp" else None
    exact = linalg.rank(sl.delta_in, p) - linalg.rank(r_in, p)
    return AbelianGroupSummary(coeff, c_n - linalg.rank(stacked, p) - exact)


def _block_cohomology(q: Quandle, n: int, rho, coeff) -> AbelianGroupSummary:
    """H^n as the direct sum over the blocks: the free ranks add, and all the
    blocks' torsion is merged into invariant factors."""
    coeff = coeff if isinstance(coeff, Coeff) else Coeff.parse(coeff)
    parts = [_cohomology(sl, coeff) for sl in _blocks(q, n, rho, split=True)]
    torsion = linalg._invariant_factors([d for part in parts for d in part.torsion])
    return AbelianGroupSummary(coeff, sum(part.rank for part in parts),
                               tuple(d for d in torsion if d > 1))


def cohomology_Q(q: Quandle, n: int, coeff) -> AbelianGroupSummary:
    """H^n of the A-valued cochain complex (the formula with no relations)."""
    return _block_cohomology(q, n, None, coeff)


def symmetric_cohomology(q: Quandle, rho, n: int, coeff) -> AbelianGroupSummary:
    """H^n for a quandle with good involution rho (see the module docstring)."""
    if isinstance(rho, SymmetricQuandle):
        if rho.quandle != q:
            raise ValueError("symmetric structure belongs to a different quandle")
        rho = rho.rho
    else:
        rho = tuple(rho)
        SymmetricQuandle(q, rho)  # raises unless rho is a good involution
    return _block_cohomology(q, n, rho, coeff)


@dataclass(frozen=True)
class Cocycle2:
    """A degree-2 cochain as an m x m table of integer coefficients."""

    m: int
    values: tuple

    def __call__(self, x: int, y: int):
        return self.values[x][y]

    @classmethod
    def from_pairs(cls, m: int, pairs: dict) -> "Cocycle2":
        values = [[0] * m for _ in range(m)]
        for (x, y), v in pairs.items():
            values[x][y] = v
        return cls(m, tuple(tuple(r) for r in values))


def theta_cocycle(n: int) -> Cocycle2:
    """Exponent cochain on the order-(n+1) one-column quandle: 1 on pairs
    (0, positive), 0 elsewhere. Multiplicatively this is the cocycle t^e."""
    if n < 1:
        raise ValueError("n must be positive")
    return Cocycle2(n + 1, ((0,) + (1,) * n,) + ((0,) * (n + 1),) * n)


def is_2cocycle(q: Quandle, phi: Cocycle2) -> bool:
    """Diagonal vanishing plus the degree-2 cocycle identity over all triples."""
    if phi.m != q.m:
        raise ValueError("cochain size does not match the quandle")
    f, t, xs = phi.values, q.table, q.elements
    return not any(f[x][x] for x in xs) and not any(  # the diagonal, then each triple
        f[x][y] + f[t[x][y]][z] - f[x][z] - f[t[x][z]][t[y][z]]
        for x, y, z in itertools.product(xs, repeat=3))


def two_cocycle_basis(q: Quandle):
    """Integer basis of the degree-2 cocycles, as Cocycle2 values."""
    sl = cochain_slice(q, 2)
    kernel = linalg.integer_kernel_basis(sl.delta_out, cols=len(sl.basis))
    return [Cocycle2.from_pairs(q.m, {sl.basis[c]: v for c, v in vec}) for vec in kernel]
