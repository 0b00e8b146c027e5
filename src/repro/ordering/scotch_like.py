"""Scotch-like ordering pipeline.

The paper orders every test matrix with Scotch's nested dissection before
handing it to either solver (Section 5).  Scotch combines recursive graph
bisection with a local minimum-degree-style ordering below a size cut-off;
our ``scotch_like`` pipeline mirrors that structure using the from-scratch
components in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sparse.csc import SymmetricCSC
from .base import register_ordering
from .nested_dissection import NDOptions, nested_dissection_order
from .permutation import Permutation

__all__ = ["ScotchLikeOptions", "scotch_like_ordering"]


@dataclass(frozen=True)
class ScotchLikeOptions:
    """Parameters of the Scotch-like pipeline.

    Attributes
    ----------
    leaf_size:
        Dissection stops and minimum degree takes over at this size.
    balance_window:
        Separator-level search window (see :class:`NDOptions`).
    """

    leaf_size: int = 96
    balance_window: float = 0.35

    def to_nd(self) -> NDOptions:
        """Translate to the nested-dissection option set."""
        return NDOptions(leaf_size=self.leaf_size,
                         balance_window=self.balance_window)


@register_ordering("scotch_like")
def scotch_like_ordering(a: SymmetricCSC,
                         opts: ScotchLikeOptions | None = None) -> Permutation:
    """Nested dissection with minimum-degree leaves (Scotch stand-in)."""
    opts = opts or ScotchLikeOptions()
    return Permutation(nested_dissection_order(a, opts.to_nd()))
