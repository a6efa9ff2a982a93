"""Columnar result store for scan runs: atomic cells, resumable manifest.

Layout of one store directory::

    store/
      manifest.json           # config digest + per-cell index (atomic)
      cells/cell-000007.npz   # one cell's series arrays (atomic)
      table.npz               # consolidated columnar table (finalize())
      table.parquet           # same table via pyarrow, when available

Durability discipline: every file is written to a ``.tmp`` sibling and
``os.replace``d into place, and a cell's ``.npz`` lands *before* the
manifest entry that points at it — a crash between the two leaves an
orphaned cell file that a resume simply overwrites.  The manifest
records each cell file's SHA-256, so :meth:`ScanStore.verify` detects
truncated or corrupted cell files and a resume re-runs exactly those
cells.  A manifest whose config digest does not match the config being
resumed is *stale* and refused with an actionable error — results from
a different grid must never be silently mixed in.

The consolidated table is pure-numpy (``table.npz`` with one array per
column); when :mod:`pyarrow` is importable (or ``backend="parquet"`` is
forced) an equivalent ``table.parquet`` is written next to it.  Nothing
in the repo requires pyarrow — the npz path is the tested contract.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from typing import Any, Dict, List, Optional

import numpy as np

from .cells import CellResult

__all__ = ["ScanStore", "StoreError", "parquet_available"]

STORE_FORMAT = "repro.scan-store.v1"

#: manifest/table columns echoed from cell params (strings then numbers)
PARAM_COLUMNS = (
    "kind",
    "algorithm",
    "scenario",
    "engine",
    "epsilon",
    "w",
    "n_users",
    "horizon",
    "n_shards",
    "attack_fraction",
    "attack_strategy",
    "robust_policy",
)


class StoreError(ValueError):
    """A scan store is missing, stale, or corrupted beyond resume."""


def parquet_available() -> bool:
    """Whether the optional pyarrow parquet backend is importable."""
    try:
        import pyarrow  # noqa: F401
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    _atomic_write_bytes(path, json.dumps(payload, sort_keys=True).encode())


class ScanStore:
    """One on-disk scan store (see the module docstring for layout).

    Args:
        path: store directory (created on first write).
        config_digest: the owning config's digest; required to create a
            store, checked against the manifest when opening an existing
            one (mismatch = stale manifest = :class:`StoreError`).
            ``None`` opens read-only for querying/reporting.
    """

    def __init__(self, path, config_digest: Optional[str] = None) -> None:
        self.path = str(path)
        self._manifest: Dict[str, Any] = {}
        manifest_path = self.manifest_path()
        if os.path.exists(manifest_path):
            self._manifest = self._load_manifest()
            if (
                config_digest is not None
                and self._manifest["config_digest"] != config_digest
            ):
                raise StoreError(
                    f"store {self.path} belongs to a different scan config "
                    f"(manifest digest {self._manifest['config_digest']}, "
                    f"expected {config_digest}); point --store at a fresh "
                    "directory or re-run with the original config"
                )
        elif config_digest is not None:
            os.makedirs(os.path.join(self.path, "cells"), exist_ok=True)
            self._manifest = {
                "format": STORE_FORMAT,
                "config_digest": config_digest,
                "n_cells": None,
                "finalized": False,
                "cells": {},
            }
            self._write_manifest()
        else:
            raise StoreError(
                f"{self.path} holds no scan store (no manifest.json)"
            )

    # -- paths -------------------------------------------------------------

    def manifest_path(self) -> str:
        return os.path.join(self.path, "manifest.json")

    def cell_path(self, index: int) -> str:
        return os.path.join(self.path, "cells", f"cell-{index:06d}.npz")

    def table_path(self) -> str:
        return os.path.join(self.path, "table.npz")

    def parquet_path(self) -> str:
        return os.path.join(self.path, "table.parquet")

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> Dict[str, Any]:
        path = self.manifest_path()
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise StoreError(
                f"corrupted {path}: manifest is not valid JSON ({error}); "
                "the store cannot be resumed — delete the directory to "
                "rescan from scratch"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{path} is not a {STORE_FORMAT} manifest "
                f"(format={manifest.get('format') if isinstance(manifest, dict) else None!r}); "
                "delete the directory to rescan from scratch"
            )
        for key in ("config_digest", "cells"):
            if key not in manifest:
                raise StoreError(
                    f"corrupted {path}: manifest is missing {key!r}; delete "
                    "the directory to rescan from scratch"
                )
        return manifest

    def _write_manifest(self) -> None:
        _atomic_write_json(self.manifest_path(), self._manifest)

    @property
    def config_digest(self) -> str:
        return self._manifest["config_digest"]

    @property
    def finalized(self) -> bool:
        return bool(self._manifest.get("finalized"))

    def completed_indices(self) -> List[int]:
        """Indices the manifest records as completed (sorted)."""
        return sorted(int(key) for key in self._manifest["cells"])

    def cell_entry(self, index: int) -> Dict[str, Any]:
        return self._manifest["cells"][str(index)]

    # -- per-cell write/read ----------------------------------------------

    def write_cell(self, result: CellResult) -> None:
        """Persist one cell atomically: series file first, manifest second."""
        buffer = io.BytesIO()
        np.savez(buffer, **{k: np.ascontiguousarray(v) for k, v in result.series.items()})
        payload = buffer.getvalue()
        path = self.cell_path(result.index)
        _atomic_write_bytes(path, payload)
        self._manifest["cells"][str(result.index)] = {
            "file": os.path.relpath(path, self.path),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "params": result.params,
            "scalars": {k: float(v) for k, v in sorted(result.scalars.items())},
            "ledger": result.ledger,
            "fingerprint": result.fingerprint(),
        }
        self._write_manifest()

    def read_cell(self, index: int) -> CellResult:
        """Load one completed cell back (digest-checked)."""
        entry = self._manifest["cells"].get(str(index))
        if entry is None:
            raise StoreError(f"store {self.path} holds no cell {index}")
        path = self.cell_path(index)
        problem = self._check_cell_file(index, entry)
        if problem is not None:
            raise StoreError(f"corrupted {path}: {problem}")
        with np.load(path) as data:
            series = {name: data[name] for name in data.files}
        return CellResult(
            index=index,
            params=entry["params"],
            scalars=dict(entry["scalars"]),
            series=series,
            ledger=entry["ledger"],
        )

    def _check_cell_file(
        self, index: int, entry: Dict[str, Any]
    ) -> Optional[str]:
        """``None`` when the cell file is intact, else what is wrong."""
        path = self.cell_path(index)
        if not os.path.exists(path):
            return "cell file is missing"
        with open(path, "rb") as fh:
            payload = fh.read()
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            return "cell file bytes do not match the manifest digest"
        try:
            with np.load(io.BytesIO(payload)) as data:
                data.files  # force the zip directory read
        except (ValueError, OSError, zipfile.BadZipFile, KeyError) as error:
            return f"cell file is unreadable ({error})"
        return None

    def verify(self) -> List[int]:
        """Indices whose recorded cell files are missing or corrupted.

        A resume re-runs exactly these cells; their manifest entries are
        dropped so a crash during the re-run cannot resurrect bad data.
        """
        bad: List[int] = []
        for index in self.completed_indices():
            if self._check_cell_file(index, self.cell_entry(index)) is not None:
                bad.append(index)
        if bad:
            for index in bad:
                del self._manifest["cells"][str(index)]
            self._manifest["finalized"] = False
            self._write_manifest()
        return bad

    # -- whole-store operations -------------------------------------------

    def results(self) -> List[CellResult]:
        """Every completed cell, ascending by index."""
        return [self.read_cell(index) for index in self.completed_indices()]

    def fingerprint(self) -> str:
        """Bit-exact digest of the store's deterministic content.

        Hashes every completed cell's fingerprint in index order —
        timing scalars never participate (see
        :data:`repro.scan.cells.TIMING_SCALARS`), so two stores compare
        equal iff they hold the same cells with bit-identical estimates,
        error metrics, and ledgers, regardless of which machine or how
        many workers produced them.
        """
        h = hashlib.sha256()
        h.update(self.config_digest.encode())
        for index in self.completed_indices():
            entry = self.cell_entry(index)
            h.update(f"{index}:".encode())
            h.update(entry["fingerprint"].encode())
        return "sha256:" + h.hexdigest()

    def table(self) -> Dict[str, np.ndarray]:
        """The consolidated columnar table, one row per completed cell.

        Columns: ``index``, the :data:`PARAM_COLUMNS` echoed from each
        cell's params, every scalar (``mse``, ``mae``,
        ``max_window_spend``, ``n_reports``, throughput, peak RSS), and
        the ``ledger`` digest strings.
        """
        indices = self.completed_indices()
        entries = [self.cell_entry(index) for index in indices]
        scalar_keys = sorted({key for e in entries for key in e["scalars"]})
        columns: Dict[str, np.ndarray] = {
            "index": np.asarray(indices, dtype=np.int64)
        }
        for column in PARAM_COLUMNS:
            # Adversarial columns default-fill (cells record them only
            # when off their benign defaults; old stores never do).
            if column == "attack_fraction":
                default: Any = 0.0
            elif column == "robust_policy":
                default = "none"
            else:
                default = ""
            values = [e["params"].get(column, default) for e in entries]
            if column in ("epsilon", "attack_fraction"):
                columns[column] = np.asarray(
                    [float(v if v != "" else "nan") for v in values], dtype=float
                )
            elif column in ("w", "n_users", "horizon", "n_shards"):
                columns[column] = np.asarray(
                    [int(v or 0) for v in values], dtype=np.int64
                )
            else:
                columns[column] = np.asarray([str(v) for v in values])
        for key in scalar_keys:
            columns[key] = np.asarray(
                [e["scalars"].get(key, np.nan) for e in entries], dtype=float
            )
        columns["ledger"] = np.asarray([e["ledger"] for e in entries])
        return columns

    def finalize(self) -> List[str]:
        """Write the consolidated table; returns the files written.

        Idempotent — called when every cell of the grid is complete.
        The parquet twin is written only when pyarrow imports.
        """
        columns = self.table()
        buffer = io.BytesIO()
        np.savez(buffer, **columns)
        _atomic_write_bytes(self.table_path(), buffer.getvalue())
        written = [self.table_path()]
        if parquet_available():
            import pyarrow as pa
            import pyarrow.parquet as pq

            table = pa.table(
                {name: pa.array(values.tolist()) for name, values in columns.items()}
            )
            tmp = self.parquet_path() + ".tmp"
            pq.write_table(table, tmp)
            os.replace(tmp, self.parquet_path())
            written.append(self.parquet_path())
        self._manifest["finalized"] = True
        self._write_manifest()
        return written

    def set_n_cells(self, n_cells: int) -> None:
        """Record the grid's total cell count (resume progress readout)."""
        if self._manifest.get("n_cells") != int(n_cells):
            self._manifest["n_cells"] = int(n_cells)
            self._write_manifest()

    @property
    def n_cells(self) -> Optional[int]:
        value = self._manifest.get("n_cells")
        return None if value is None else int(value)

