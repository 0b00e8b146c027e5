"""Bit-identity oracles for the accelerated cold path.

Each module here keeps a verbatim copy of an original, loop-based
implementation that a faster rewrite in ``src/`` must reproduce exactly:

* :mod:`tests.oracles.ordering` — the per-vertex graph helpers, nested
  dissection, Cuthill-McKee and the set-of-sets minimum degree;
* :mod:`tests.oracles.symbolic` — the subtree-merge column structures,
  the per-column supernode build and the per-supernode block loop, and
  :func:`~tests.oracles.symbolic.analyze_reference`, the whole cold path
  phase for phase.

They are test code, not API: nothing under ``src/`` imports them.
"""
