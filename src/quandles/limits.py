"""The one limit on work: QUANDLE_SEARCH_CAP nodes per search or build."""

from __future__ import annotations

import os

DEFAULT_SEARCH_CAP = 10**7


class SearchCapError(RuntimeError):
    """Raised when a search exceeds its node budget; carries that Budget."""

    def __init__(self, budget: "Budget"):
        super().__init__(f"{budget.what} search exceeded {budget.cap} nodes")
        self.budget = budget


class Budget:
    """Node counter of one search or build; past the cap it raises SearchCapError.

    ``what`` names the search in the error message ("coloring", "hom", ...).
    ``nodes`` charges a build in full before any of it is made: a charge over
    the cap raises at once. A search charges each step by spend(). The cap is
    QUANDLE_SEARCH_CAP (a non-negative integer), else DEFAULT_SEARCH_CAP.
    """

    def __init__(self, what: str, nodes: int = 0):
        env = os.environ.get("QUANDLE_SEARCH_CAP")
        try:
            cap = DEFAULT_SEARCH_CAP if env is None else int(env)
        except ValueError:
            cap = -1
        if cap < 0:
            raise ValueError(
                f"QUANDLE_SEARCH_CAP must be a non-negative integer, not {env!r}")
        self.what, self.cap, self.nodes = what, cap, nodes
        if nodes > cap:
            raise SearchCapError(self)

    def spend(self) -> None:
        """Charge one node, a search's step; node cap + 1 raises."""
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchCapError(self)
