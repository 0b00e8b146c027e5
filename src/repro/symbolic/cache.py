"""Persistent, pattern-keyed cache of complete symbolic analyses.

The cold path (ordering → column structures → supernodes → blocks) depends
only on the sparsity pattern, so its artifacts are reusable across every
matrix sharing a pattern — including a pattern whose factor the solve
service evicted and later re-admitted (this cache *is* the service's
symbolic tier).  The :class:`AnalysisCache` keeps

* an in-memory LRU of :class:`~repro.symbolic.analysis.SymbolicAnalysis`
  objects, and
* an optional on-disk tier: one ``<pattern-key>.npz`` per pattern
  (content-hash keyed exactly like the service caches), holding the
  permutation, elimination tree, flat column structures, supernode
  partition and block boundaries.

A disk hit rebuilds the full analysis from flat arrays — no ordering, no
structure pass, no supernode detection — and costs one value permutation.
Corrupt or foreign files are treated as misses, never as errors.
"""

from __future__ import annotations

import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..ordering.permutation import Permutation
from ..sparse.csc import SymmetricCSC
from .analysis import SymbolicAnalysis, rebind_analysis_values
from .blocks import Block, BlockPartition
from .structure import SymbolicL
from .supernodes import SupernodePartition

__all__ = ["AnalysisCache", "analysis_to_arrays", "analysis_from_arrays"]

_FORMAT_VERSION = 1

#: Exceptions that mean "this file is not a usable cache entry".
_LOAD_ERRORS = (OSError, KeyError, ValueError, zipfile.BadZipFile, EOFError)


def analysis_to_arrays(analysis: SymbolicAnalysis) -> dict[str, np.ndarray]:
    """Flatten every pattern-derived artifact of ``analysis`` into arrays.

    The value arrays of ``a_perm`` are deliberately excluded: the cache
    serves *patterns*; numeric values are rebound per request.
    """
    sup = analysis.supernodes
    sn_struct_ptr = np.zeros(sup.nsup + 1, dtype=np.int64)
    np.cumsum(sup.struct_sizes, out=sn_struct_ptr[1:])
    sn_struct_rows = (np.concatenate(sup.structs) if sup.structs
                      else np.empty(0, np.int64))
    flat_blocks = [b for per_src in analysis.blocks.blocks for b in per_src]
    return {
        "version": np.int64(_FORMAT_VERSION),
        "perm": analysis.perm.perm,
        "parent": analysis.symbolic.parent,
        "struct_ptr": analysis.symbolic.struct_ptr,
        "struct_rows": analysis.symbolic.struct_rows,
        "sn_start": sup.sn_start,
        "sn_of_col": sup.sn_of_col,
        "parent_sn": sup.parent_sn,
        "zeros_introduced": np.int64(sup.zeros_introduced),
        "sn_struct_ptr": sn_struct_ptr,
        "sn_struct_rows": sn_struct_rows,
        "blk_src": np.asarray([b.src for b in flat_blocks], dtype=np.int64),
        "blk_tgt": np.asarray([b.tgt for b in flat_blocks], dtype=np.int64),
        "blk_offset": np.asarray([b.offset for b in flat_blocks], dtype=np.int64),
        "blk_nrows": np.asarray([b.nrows for b in flat_blocks], dtype=np.int64),
    }


def analysis_from_arrays(a: SymmetricCSC,
                         arrays: dict[str, np.ndarray]) -> SymbolicAnalysis:
    """Rebuild a full :class:`SymbolicAnalysis` of ``a`` from flat arrays.

    Skips ordering, structure and supernode/block computation entirely;
    the only real work is permuting ``a``'s values.  Raises
    :class:`ValueError` on a version mismatch (the caller treats that as
    a cache miss).
    """
    version = int(arrays["version"])
    if version != _FORMAT_VERSION:
        raise ValueError(f"analysis cache format {version} != {_FORMAT_VERSION}")
    perm = Permutation(np.asarray(arrays["perm"], dtype=np.int64))
    a_perm = a.permuted(perm.perm)
    symbolic = SymbolicL.from_arrays(
        a_perm.lower, arrays["parent"], arrays["struct_ptr"], arrays["struct_rows"])

    sn_struct_ptr = np.asarray(arrays["sn_struct_ptr"], dtype=np.int64)
    sn_struct_rows = np.asarray(arrays["sn_struct_rows"], dtype=np.int64)
    bounds = sn_struct_ptr.tolist()
    structs = [sn_struct_rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    supernodes = SupernodePartition(
        sn_start=np.asarray(arrays["sn_start"], dtype=np.int64),
        sn_of_col=np.asarray(arrays["sn_of_col"], dtype=np.int64),
        structs=structs,
        parent_sn=np.asarray(arrays["parent_sn"], dtype=np.int64),
        zeros_introduced=int(arrays["zeros_introduced"]))

    blocks: list[list[Block]] = [[] for _ in range(supernodes.nsup)]
    for k, t, o, m in zip(arrays["blk_src"].tolist(), arrays["blk_tgt"].tolist(),
                          arrays["blk_offset"].tolist(), arrays["blk_nrows"].tolist()):
        blocks[k].append(Block(src=k, tgt=t, rows=structs[k][o:o + m], offset=o))
    block_part = BlockPartition(part=supernodes, blocks=blocks)
    phases = {"ordering": 0.0, "symbolic": 0.0, "blocks": 0.0}
    return SymbolicAnalysis(a_perm=a_perm, perm=perm, symbolic=symbolic,
                            supernodes=supernodes, blocks=block_part,
                            phase_seconds=phases)


class AnalysisCache:
    """Two-tier (memory LRU + optional disk) cache of symbolic analyses.

    Parameters
    ----------
    directory:
        Directory for the persistent tier; created on first use.  ``None``
        keeps the cache memory-only.
    max_entries:
        In-memory LRU capacity.  The disk tier is unbounded — it is the
        durable record that outlives evictions and processes.
    """

    def __init__(self, directory: str | Path | None = None,
                 max_entries: int = 128):
        from ..core.tracing import mutex  # deferred: avoids import cycle

        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max_entries
        self._mem: OrderedDict[str, SymbolicAnalysis] = OrderedDict()
        self._lock = mutex()
        self.mem_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    @staticmethod
    def key_of(a: SymmetricCSC) -> str:
        """Content hash of ``a``'s sparsity pattern (the cache key)."""
        from ..service.keys import pattern_key  # deferred: avoids a cycle

        return pattern_key(a)

    def _path(self, key: str) -> Path:
        if self.directory is None:
            raise ValueError("cache has no persistent directory")
        return self.directory / f"{key}.npz"

    def get(self, a: SymmetricCSC) -> SymbolicAnalysis | None:
        """The cached analysis for ``a``'s pattern, rebound to ``a``'s values.

        Checks the memory tier first, then the disk tier (promoting disk
        hits into memory).  Returns ``None`` on a miss; unreadable,
        corrupt or version-mismatched files count as misses.
        """
        key = self.key_of(a)
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
                self.mem_hits += 1
        if entry is not None:
            try:
                return rebind_analysis_values(entry, a)
            except ValueError:
                # Pattern-hash collision (or a poisoned entry): drop it.
                with self._lock:
                    self._mem.pop(key, None)
                    self.mem_hits -= 1

        if self.directory is not None:
            path = self._path(key)
            try:
                with np.load(path) as archive:
                    arrays = {name: archive[name] for name in archive.files}
                analysis = analysis_from_arrays(a, arrays)
            except _LOAD_ERRORS:
                analysis = None
            if analysis is not None:
                with self._lock:
                    self.disk_hits += 1
                    self._store(key, analysis)
                return analysis
        with self._lock:
            self.misses += 1
        return None

    def put(self, a: SymmetricCSC, analysis: SymbolicAnalysis) -> str:
        """Admit ``analysis`` (computed on ``a``) to both tiers; returns the key."""
        key = self.key_of(a)
        with self._lock:
            self.puts += 1
            self._store(key, analysis)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            tmp = path.with_suffix(".npz.tmp")
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, **analysis_to_arrays(analysis))
            tmp.replace(path)  # atomic publish: readers never see half a file
        return key

    def _store(self, key: str, analysis: SymbolicAnalysis) -> None:
        # Callers hold self._lock.
        self._mem[key] = analysis
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counter snapshot (taken under the lock)."""
        with self._lock:
            return {
                "mem_hits": self.mem_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "entries": len(self._mem),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._mem
