"""Shared search-size limits for the enumeration routines."""

from __future__ import annotations

import os

DEFAULT_SEARCH_CAP = 10**7


class SearchCapError(RuntimeError):
    """Raised when a search exceeds its node budget; carries that Budget."""

    def __init__(self, budget: "Budget"):
        super().__init__(f"{budget.what} search exceeded {budget.cap} nodes")
        self.budget = budget


class Budget:
    """Node counter of one search; spending past the cap raises SearchCapError.

    ``what`` names the search in the error message ("coloring", "hom", ...).
    The cap is the explicit argument, else QUANDLE_SEARCH_CAP (a non-negative
    integer), else DEFAULT_SEARCH_CAP.
    """

    def __init__(self, what: str, cap: int | None = None):
        if cap is None:
            env = os.environ.get("QUANDLE_SEARCH_CAP")
            try:
                cap = DEFAULT_SEARCH_CAP if env is None else int(env)
            except ValueError:
                cap = -1
            if cap < 0:
                raise ValueError(
                    f"QUANDLE_SEARCH_CAP must be a non-negative integer, not {env!r}")
        self.what = what
        self.cap = cap
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchCapError(self)
