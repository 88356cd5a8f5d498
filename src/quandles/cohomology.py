"""Quandle cohomology in low degrees over Z, Q, and Z_p, by exact linear algebra.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def tuple_basis(q: Quandle, n: int):
    """Non-degenerate n-tuples (no adjacent repeat) in lexicographic order."""
    basis = [(x,) for x in q.elements] if n >= 1 else []
    for _ in range(n - 1):
        basis = [t + (x,) for t in basis for x in q.elements if x != t[-1]]
    return basis


def _check_degree(n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"degree {n} outside supported range {lo}..{hi}")


def _size(q: Quandle, n: int) -> int:
    """len(tuple_basis(q, n)) for n >= 1, without building it."""
    return q.m * (q.m - 1) ** (n - 1)


def boundary_matrix(q: Quandle, n: int):
    """Matrix of the degree-n boundary on the non-degenerate bases.

    Rows are indexed by the (n-1)-tuple basis, columns by the n-tuple basis;
    image tuples that are degenerate are dropped (they vanish in the quotient).
    It is the transpose of the coboundary rows that `cochain_slice` builds,
    whose dense cells are nodes of one Budget, charged before any is built.
    """
    _check_degree(n, 2, 4)
    Budget("cochain", _size(q, n) * _size(q, n - 1))
    lower = tuple_basis(q, n - 1)
    rows = _coboundary_rows(q, tuple_basis(q, n), lower)
    return [[row[i] for row in rows] for i in range(len(lower))]


def _coboundary_rows(q: Quandle, basis, lower):
    """One dense row per tuple t of basis: the boundary of t (module docstring)
    on the lower basis, where the degenerate faces are absent and so vanish."""
    index, cols = {t: i for i, t in enumerate(lower)}, tuple(zip(*q.table))
    rows = []
    for t in basis:
        row = [0] * len(lower)
        for i, y in enumerate(t):  # face i + 1, whose sign is (-1)^(i+1)
            head, tail, sign = t[:i], t[i + 1:], i % 2 * 2 - 1
            acted = tuple(map(cols[y].__getitem__, head)) + tail
            for face, coeff in ((head + tail, sign), (acted, -sign)):
                if face in index:
                    row[index[face]] += coeff
        rows.append(row)
    return tuple(rows)


def _relation_rows(q: Quandle, rho, n: int, basis):
    """Involution relations of degree n as integer rows over the tuple basis.

    Each row is the indicator of a sum T + T'; coefficients are kept as-is
    (a relation 2*f(T) = 0 must stay 2, it is vacuous mod 2).
    """
    index, cols = {t: i for i, t in enumerate(basis)}, tuple(zip(*q.table))
    relations = set()  # each as the sorted positions of its terms in the basis
    for t in itertools.product(q.elements, repeat=n):
        for i, y in enumerate(t):
            other = tuple(map(cols[y].__getitem__, t[:i])) + (rho[y],) + t[i + 1:]
            relations.add(tuple(sorted(index[s] for s in (t, other) if s in index)))
    rows = []
    for positions in relations - {()}:
        row = [0] * len(basis)
        for pos in positions:
            row[pos] += 1
        rows.append(tuple(row))
    return tuple(sorted(rows))


@dataclass(frozen=True)
class CochainComplexSlice:
    """Coboundary matrices around one degree, with the bases that index them.

    delta_in is the matrix of the coboundary into degree n (shape c_n x c_{n-1});
    delta_out maps out of degree n (shape c_{n+1} x c_n). Their product is zero.
    relations, when present, are the degree-n involution relation rows.
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
        if not linalg.is_zero_matrix(linalg.mat_mul(self.delta_out, self.delta_in)):
            raise AssertionError("coboundary composed with itself is nonzero")


def cochain_slice(q: Quandle, n: int, rho=None) -> CochainComplexSlice:
    """Build the degree-n slice; 2 <= n <= 3 so that the degree n+1 boundary exists.
    Its dense cells, with one relation row per n-tuple and position before
    duplicates go, are nodes of one Budget, charged before any is built."""
    _check_degree(n, 2, 3)
    relations = 0 if rho is None else n * q.m**n
    Budget("cochain", _size(q, n) * (_size(q, n - 1) + _size(q, n + 1) + relations))
    below, basis, above = (tuple(tuple_basis(q, k)) for k in (n - 1, n, n + 1))
    return CochainComplexSlice(
        quandle=q,
        degree=n,
        basis_below=below,
        basis=basis,
        basis_above=above,
        delta_in=_coboundary_rows(q, basis, below),
        delta_out=_coboundary_rows(q, above, basis),
        relations=None if rho is None else _relation_rows(q, rho, n, basis),
    )


def _cohomology(sl: CochainComplexSlice, coeff: Coeff) -> AbelianGroupSummary:
    """H^n of a slice; see the module docstring for the formula."""
    relations = sl.relations or ()
    stacked = sl.delta_out + relations
    r_in = linalg.mat_mul(relations, sl.delta_in) if relations else []
    c_n = len(sl.basis)
    if coeff.kind == "Z":
        coboundaries = sl.delta_in
        if relations:
            kernel = linalg.integer_kernel_basis(r_in, cols=len(sl.basis_below))
            coboundaries = linalg.mat_mul(sl.delta_in, linalg.transpose(kernel))
        factors = linalg.smith_normal_form(coboundaries)
        free = c_n - linalg.rank(stacked) - len(factors)
        return AbelianGroupSummary(coeff, free, tuple(d for d in factors if d > 1))
    p = coeff.p if coeff.kind == "Zp" else None
    exact = linalg.rank(sl.delta_in, p) - linalg.rank(r_in, p)
    return AbelianGroupSummary(coeff, c_n - linalg.rank(stacked, p) - exact)


def cohomology_Q(q: Quandle, n: int, coeff) -> AbelianGroupSummary:
    """H^n of the A-valued cochain complex (the formula with no relations)."""
    coeff = coeff if isinstance(coeff, Coeff) else Coeff.parse(coeff)
    return _cohomology(cochain_slice(q, n), coeff)


def symmetric_cohomology(q: Quandle, rho, n: int, coeff) -> AbelianGroupSummary:
    """H^n for a quandle with good involution rho (see the module docstring)."""
    if isinstance(rho, SymmetricQuandle):
        if rho.quandle != q:
            raise ValueError("symmetric structure belongs to a different quandle")
        rho = rho.rho
    else:
        rho = tuple(rho)
        SymmetricQuandle(q, rho)  # raises unless rho is a good involution
    coeff = coeff if isinstance(coeff, Coeff) else Coeff.parse(coeff)
    return _cohomology(cochain_slice(q, n, rho), coeff)


@dataclass(frozen=True)
class Cocycle2:
    """A degree-2 cochain as an m x m table of coefficients."""

    m: int
    values: tuple
    coeff: Coeff = Coeff("Z")

    def __call__(self, x: int, y: int):
        return self.values[x][y]

    @classmethod
    def from_pairs(cls, m: int, pairs: dict, coeff: Coeff = Coeff("Z")) -> "Cocycle2":
        values = [[0] * m for _ in range(m)]
        for (x, y), v in pairs.items():
            values[x][y] = v
        return cls(m, tuple(tuple(r) for r in values), coeff)


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
    p = phi.coeff.p if phi.coeff.kind == "Zp" else None

    def is_zero(v) -> bool:
        return v % p == 0 if p is not None else v == 0

    f = phi.values
    t = q.table
    if any(not is_zero(f[x][x]) for x in q.elements):
        return False
    for x in q.elements:
        for y in q.elements:
            for z in q.elements:
                defect = f[x][y] + f[t[x][y]][z] - f[x][z] - f[t[x][z]][t[y][z]]
                if not is_zero(defect):
                    return False
    return True


def two_cocycle_basis(q: Quandle):
    """Integer basis of the degree-2 cocycles, as Cocycle2 values."""
    sl = cochain_slice(q, 2)
    kernel = linalg.integer_kernel_basis(sl.delta_out, cols=len(sl.basis))
    return [Cocycle2.from_pairs(q.m, {t: v for t, v in zip(sl.basis, vec) if v})
            for vec in kernel]
