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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .invariants import SymmetricQuandle
from .quandle import Quandle

MAX_TUPLES = 10**6


@dataclass(frozen=True)
class Coeff:
    """Coefficient structure: the integers, the rationals, or a prime field."""

    kind: str  # "Z" | "Q" | "Zp"
    p: int | None = None

    @classmethod
    def parse(cls, text: str) -> "Coeff":
        text = text.strip()
        if text == "Z":
            return cls("Z")
        if text == "Q":
            return cls("Q")
        if text.startswith("Z") and text[1:].isdigit():
            p = int(text[1:])
            if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
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

    @property
    def dimension(self) -> int:
        return self.rank


def tuple_basis(q: Quandle, n: int):
    """Non-degenerate n-tuples (no adjacent repeat) in lexicographic order."""
    if n < 1:
        return []
    basis = []
    for t in itertools.product(q.elements, repeat=n):
        if all(t[i] != t[i + 1] for i in range(n - 1)):
            basis.append(t)
    return basis


def _check_degree(q: Quandle, n: int, lo: int, hi: int) -> None:
    if not lo <= n <= hi:
        raise ValueError(f"degree {n} outside supported range {lo}..{hi}")
    if q.m**n > MAX_TUPLES:
        raise ValueError(f"{q.m}^{n} tuples exceed the {MAX_TUPLES} bound")


def boundary_matrix(q: Quandle, n: int):
    """Matrix of the degree-n boundary on the non-degenerate bases.

    Rows are indexed by the (n-1)-tuple basis, columns by the n-tuple basis;
    image tuples that are degenerate are dropped (they vanish in the quotient).
    """
    _check_degree(q, n, 2, 4)
    lower = tuple_basis(q, n - 1)
    upper = tuple_basis(q, n)
    low_index = {t: i for i, t in enumerate(lower)}
    mat = linalg.zeros(len(lower), len(upper))
    for col, t in enumerate(upper):
        for row_tuple, coeff in _boundary_of(q, t).items():
            row = low_index.get(row_tuple)
            if row is not None:
                mat[row][col] += coeff
    return mat


def _boundary_of(q: Quandle, t: tuple):
    out: dict = {}
    n = len(t)
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        face = t[: i - 1] + t[i:]
        acted = tuple(q.op(x, t[i - 1]) for x in t[: i - 1]) + t[i:]
        out[face] = out.get(face, 0) + sign
        out[acted] = out.get(acted, 0) - sign
    return {k: v for k, v in out.items() if v}


def rho_relation_rows(q: Quandle, rho, n: int):
    """Involution relations of degree n as integer rows over the tuple basis.

    Each row is the indicator of a sum T + T'; coefficients are kept as-is
    (a relation 2*f(T) = 0 must stay 2, it is vacuous mod 2).
    """
    basis = tuple_basis(q, n)
    index = {t: i for i, t in enumerate(basis)}
    rows = set()
    for t in itertools.product(q.elements, repeat=n):
        for i in range(1, n + 1):
            other = tuple(q.op(x, t[i - 1]) for x in t[: i - 1]) + (rho[t[i - 1]],) + t[i:]
            row = [0] * len(basis)
            for tup in (t, other):
                pos = index.get(tup)
                if pos is not None:
                    row[pos] += 1
            if any(row):
                rows.add(tuple(row))
    return [list(r) for r in sorted(rows)]


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
        prod = linalg.mat_mul([list(r) for r in self.delta_out],
                              [list(r) for r in self.delta_in])
        if not linalg.is_zero_matrix(prod):
            raise AssertionError("coboundary composed with itself is nonzero")


def cochain_slice(q: Quandle, n: int, rho=None) -> CochainComplexSlice:
    """Build the degree-n slice; 2 <= n <= 3 so that the degree n+1 boundary exists."""
    _check_degree(q, n, 2, 3)
    delta_in = linalg.transpose(boundary_matrix(q, n))
    delta_out = linalg.transpose(boundary_matrix(q, n + 1))
    relations = None
    if rho is not None:
        relations = tuple(tuple(r) for r in rho_relation_rows(q, rho, n))
    return CochainComplexSlice(
        quandle=q,
        degree=n,
        basis_below=tuple(tuple_basis(q, n - 1)),
        basis=tuple(tuple_basis(q, n)),
        basis_above=tuple(tuple_basis(q, n + 1)),
        delta_in=tuple(tuple(r) for r in delta_in),
        delta_out=tuple(tuple(r) for r in delta_out),
        relations=relations,
    )


def cohomology_Q(q: Quandle, n: int, coeff) -> AbelianGroupSummary:
    """H^n of the A-valued cochain complex.

    Over a field: dim ker(delta_out) - rank(delta_in). Over Z: one Smith form
    of delta_in gives both its rank (the number of invariant factors) and the
    torsion (the factors > 1); the free rank is c_n - rank(delta_out) minus
    that rank.
    """
    coeff = coeff if isinstance(coeff, Coeff) else Coeff.parse(coeff)
    sl = cochain_slice(q, n)
    d_in = [list(r) for r in sl.delta_in]
    d_out = [list(r) for r in sl.delta_out]
    c_n = len(sl.basis)
    if coeff.kind == "Z":
        factors = linalg.smith_normal_form(d_in)
        free = c_n - linalg.rank(d_out) - len(factors)
        return AbelianGroupSummary(coeff, free, tuple(d for d in factors if d > 1))
    p = coeff.p if coeff.kind == "Zp" else None
    dim = c_n - linalg.rank(d_out, p) - linalg.rank(d_in, p)
    return AbelianGroupSummary(coeff, dim)


def symmetric_cohomology(q: Quandle, rho, n: int, coeff) -> AbelianGroupSummary:
    """H^n for a quandle with good involution rho (see the module docstring).

    Cocycles must vanish on the degree-n involution relations; the quotient is
    by every quandle coboundary lying in that space.
    """
    if isinstance(rho, SymmetricQuandle):
        if rho.quandle != q:
            raise ValueError("symmetric structure belongs to a different quandle")
        rho = rho.rho
    else:
        rho = tuple(rho)
        SymmetricQuandle(q, rho)  # raises unless rho is a good involution
    coeff = coeff if isinstance(coeff, Coeff) else Coeff.parse(coeff)
    sl = cochain_slice(q, n, rho)
    d_in = [list(r) for r in sl.delta_in]
    stacked = [list(r) for r in sl.delta_out] + [list(r) for r in sl.relations]
    c_n = len(sl.basis)

    if coeff.kind != "Z":
        # cocycles ker S, modulo the coboundaries im(delta_in) that S kills
        p = coeff.p if coeff.kind == "Zp" else None
        exact = linalg.rank(d_in, p) - linalg.rank(linalg.mat_mul(stacked, d_in), p)
        return AbelianGroupSummary(coeff, c_n - linalg.rank(stacked, p) - exact)

    cocycles = linalg.integer_kernel_basis(stacked, cols=c_n)
    z = len(cocycles)
    if z == 0:
        return AbelianGroupSummary(coeff, 0)
    n_b = len(d_in[0]) if d_in else 0
    # solve Zb*a = B*b: kernel of [Zb | -B], then read the a-parts
    mixed = [[cocycles[k][i] for k in range(z)] + [-d_in[i][j] for j in range(n_b)]
             for i in range(c_n)]
    meet = linalg.integer_kernel_basis(mixed, cols=z + n_b)
    gens = [[vec[k] for vec in meet] for k in range(z)]  # z x len(meet)
    factors = linalg.smith_normal_form(gens) if meet else []
    torsion = tuple(d for d in factors if d > 1)
    return AbelianGroupSummary(coeff, z - len(factors), torsion)


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
    values = [[0] * (n + 1) for _ in range(n + 1)]
    for y in range(1, n + 1):
        values[0][y] = 1
    return Cocycle2(n + 1, tuple(tuple(r) for r in values))


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
    kernel = linalg.integer_kernel_basis([list(r) for r in sl.delta_out],
                                         cols=len(sl.basis))
    out = []
    for vec in kernel:
        pairs = {t: v for t, v in zip(sl.basis, vec) if v}
        out.append(Cocycle2.from_pairs(q.m, pairs))
    return out
