"""The two-variable quandle polynomial and good involutions (symmetric quandles)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .limits import Budget
from .permutations import Permutation
from .quandle import Quandle


class _Terms:
    """A dict of nonzero integer coefficients, equal and hashed by its value."""

    def __init__(self, terms=()):
        self.terms = {key: c for key, c in dict(terms).items() if c}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class TwoVarPolynomial(_Terms):
    """Sum of c * s^i t^j terms with integer coefficients."""

    def __str__(self) -> str:
        # descending t-degree, then descending s-degree
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda st: (-st[1], -st[0]))
        parts = []
        for s_exp, t_exp in keys:
            c = self.terms[(s_exp, t_exp)]
            factors = "".join(_power("s", s_exp) + _power("t", t_exp))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            elif c == -1:
                parts.append("-" + factors)
            else:
                parts.append(f"{c}{factors}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TwoVarPolynomial({self})"


def _power(var: str, exp: int) -> str:
    return "" if exp == 0 else var if exp == 1 else f"{var}^{exp}"


def quandle_polynomial(q: Quandle) -> TwoVarPolynomial:
    """qp(s,t) = sum over x of s^r(x) t^c(x) with r(x) = #{y : x*y = x} and
    c(x) = #{y : y*x = y}."""
    r = [row.count(x) for x, row in enumerate(q.table)]
    c = [sum(map(int.__eq__, col, q.elements)) for col in zip(*q.table)]
    return TwoVarPolynomial(Counter(zip(r, c)))


def p_polynomial_formula(n: int, sigma: Permutation) -> TwoVarPolynomial:
    """Closed form for the polynomial of the one-column quandle on {0..n}:
    a s^{n+1}t^{n+1} + (n-a) s^n t^{n+1} + s^{n+1} t^{1+a}, a = #fixed points."""
    if sigma.n != n:
        raise ValueError(f"permutation degree {sigma.n} != n = {n}")
    alpha = len(sigma.fixed_points())
    return TwoVarPolynomial(Counter(  # the exponent pairs, each as often as its coefficient
        [(n + 1, n + 1)] * alpha + [(n, n + 1)] * (n - alpha) + [(n + 1, 1 + alpha)]))


@dataclass(frozen=True)
class SymmetricQuandle:
    """A quandle with a good involution rho: rho is involutive,
    rho(x*y) = rho(x)*y, and x*rho(y) = bar(x, y)."""

    quandle: Quandle
    rho: tuple

    def __post_init__(self):
        q, rho = self.quandle, tuple(self.rho)
        object.__setattr__(self, "rho", rho)
        if sorted(rho) != list(range(q.m)):
            raise ValueError("rho is not a permutation of the elements")
        if tuple(map(rho.__getitem__, rho)) != tuple(q.elements):
            x = next(x for x in q.elements if rho[rho[x]] != x)
            raise ValueError(f"rho is not an involution at {x}")
        witness = _good_involution_defect(q, rho)
        if witness is not None:
            law, x, y = witness
            raise ValueError(f"{law} fails at ({x},{y})")


def _good_involution_defect(q: Quandle, rho):
    """The first (law, x, y) in (x, y) order where a law fails, else None.

    x*rho(y) = bar(x, y) for all x says that column rho(y) is the inverse of
    column y; rho(x*y) = rho(x)*y for all x and y says that rho commutes with
    Inn, so with the generators' distinct columns, which generate it. Only a
    failure scans the cells, to find the witness.
    """
    columns, col_id, inv_id = q._columns
    gen_cols = map(columns.__getitem__, q._gen_ids)
    if list(map(col_id.__getitem__, rho)) == inv_id and all(
            tuple(map(rho.__getitem__, c)) == tuple(map(c.__getitem__, rho)) for c in gen_cols):
        return None
    t, bar = q.table, q.bar_table
    for x in q.elements:
        row = t[x]
        for y in q.elements:
            if rho[row[y]] != t[rho[x]][y]:
                return ("rho(x*y) = rho(x)*y", x, y)
            if row[rho[y]] != bar[x][y]:
                return ("x*rho(y) = bar(x,y)", x, y)
    return None


def _good_involutions(q: Quandle):
    """The good involutions of q as image tuples, made one at a time in lex
    order. Each involution built pairs x only with a y whose column is the
    inverse of x's column, as x*rho(y) = bar(x, y) requires, and spends one node
    of an "involution" Budget; it is kept if it commutes with each generator's column."""
    budget = Budget("involution")
    if not q.m:  # the empty map is the one involution of the empty set
        budget.spend()
        yield ()
        return
    columns, col_id, inv_id = q._columns
    cols = [columns[i] for i in q._gen_ids if columns[i] != tuple(q.elements)]  # none for T m
    partners = [[y for y in range(x, q.m) if col_id[y] == inv_id[x]] for x in range(q.m)]
    m, image, stack, x, ys = q.m, [-1] * q.m, [], 0, iter(partners[0])  # x: first unpaired
    while True:  # stack: each point paired before x, with its partners left to try
        for y in ys:  # y = x first: the images come out in lex order
            if image[y] < 0:
                image[x], image[y] = y, x
                nxt = x + 1
                while nxt < m and image[nxt] >= 0:
                    nxt += 1
                if nxt < m:
                    stack.append((x, ys))
                    x, ys = nxt, iter(partners[nxt])
                    break
                budget.spend()
                if not cols or all([image[w] for w in c] == [c[w] for w in image] for c in cols):
                    yield tuple(image)
                image[x] = image[y] = -1
        else:  # every partner of x tried: back to the point paired before it
            if not stack:
                return
            x, ys = stack.pop()
            image[image[x]] = image[x] = -1


def good_involutions(q: Quandle):
    """All good involutions of q in lex order, each checked once for both laws
    as a SymmetricQuandle; an "involution" Budget counts the involutions built."""
    return [SymmetricQuandle(q, rho) for rho in _good_involutions(q)]
