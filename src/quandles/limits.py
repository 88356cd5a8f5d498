"""Shared search-size limits for the enumeration routines."""

from __future__ import annotations

import os

DEFAULT_SEARCH_CAP = 10**7


class SearchCapError(RuntimeError):
    """Raised when a search exceeds its node budget; carries that Budget."""

    def __init__(self, budget: "Budget"):
        super().__init__(f"{budget.what} search exceeded {budget.cap} nodes")
        self.budget = budget


def search_cap(explicit: int | None = None) -> int:
    """Resolve a node budget: explicit argument, QUANDLE_SEARCH_CAP, or default."""
    if explicit is not None:
        return explicit
    env = os.environ.get("QUANDLE_SEARCH_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_SEARCH_CAP


class Budget:
    """Node counter of one search; spending past the cap raises SearchCapError.

    ``what`` names the search in the error message ("coloring", "hom", ...).
    """

    def __init__(self, what: str, cap: int | None = None):
        self.what = what
        self.cap = search_cap(cap)
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchCapError(self)
