"""Scan orchestrator: fan grid cells out over a process pool, resumably.

:func:`run_scan` takes a :class:`~repro.scan.config.ScanConfig`, expands
it to cells, and executes them — serially or across a
``ProcessPoolExecutor`` — writing each completed cell atomically into a
:class:`~repro.scan.store.ScanStore`.  Because every cell owns a seed
spawned from ``SeedSequence(seed, spawn_key=(cell_index,))`` and cells
never share state, the store's deterministic content is a pure function
of the config: any worker count, any completion order, and any
interrupt/resume sequence produce a bit-identical store
(:meth:`~repro.scan.store.ScanStore.fingerprint`).

Resume discipline:

* an existing store is only touched when ``resume=True`` — accidental
  clobbering of a finished scan is an error, not a merge;
* the store's manifest must carry this config's digest (stale manifests
  are refused with an actionable error);
* completed cells are digest-verified; corrupted or truncated cell
  files are dropped from the manifest and re-run;
* the consolidated table is finalized only once every cell is present.

``stop_after=k`` stops cleanly after ``k`` newly completed cells — the
hook CI's mid-scan resume drill and the kill-matrix tests use to
interrupt a scan at every possible boundary.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .cells import CellResult, ScanCell, execute_cell
from .config import PrunedCell, ScanConfig, config_digest, expand_cells
from .store import ScanStore

__all__ = ["ScanRunResult", "run_scan", "run_cells"]


@dataclass
class ScanRunResult:
    """Everything one :func:`run_scan` invocation produced or planned."""

    config: ScanConfig
    cells: List[ScanCell] = field(repr=False)
    pruned: List[PrunedCell] = field(repr=False)
    results: Dict[int, CellResult] = field(repr=False)
    store_path: Optional[str] = None
    executed: List[int] = field(default_factory=list)
    resumed: List[int] = field(default_factory=list)
    reran: List[int] = field(default_factory=list)
    dry_run: bool = False
    stopped: bool = False
    finalized: bool = False
    elapsed_seconds: float = 0.0

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        """Whether every grid cell has a result."""
        return not self.dry_run and len(self.results) == len(self.cells)

    @property
    def cells_per_second(self) -> float:
        """Newly executed cells per wall-clock second (this invocation)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.executed) / self.elapsed_seconds


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the parent process is gone.

    A pool worker blocks on its call queue forever if the scan process
    is SIGKILLed (no cleanup runs), so each worker watches for being
    re-parented and exits on its own.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="repro-scan-parent-watch", daemon=True).start()


def run_cells(
    cells: Sequence[ScanCell],
    workers: int = 1,
    store: Optional[ScanStore] = None,
    on_cell: Optional[Callable[[CellResult], None]] = None,
    stop_after: Optional[int] = None,
) -> "tuple[Dict[int, CellResult], bool]":
    """Execute cells (serially or in a process pool), in-order submission.

    The shared execution core behind :func:`run_scan` and the
    experiment-runner compatibility wrappers (which run small in-memory
    grids with no store).  Returns ``(results by index, stopped)`` where
    ``stopped`` reports an early ``stop_after`` exit.  Completed cells
    are written to ``store`` (when given) the moment they finish, so an
    interrupt after any cell leaves a consistent, resumable store.
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if stop_after is not None and int(stop_after) < 1:
        raise ValueError(f"stop_after must be >= 1, got {stop_after}")
    results: Dict[int, CellResult] = {}
    stopped = False

    def record(result: CellResult) -> bool:
        """Store one result; True when the stop_after budget is spent."""
        results[result.index] = result
        if store is not None:
            store.write_cell(result)
        if on_cell is not None:
            on_cell(result)
        return stop_after is not None and len(results) >= int(stop_after)

    if workers == 1 or len(cells) <= 1:
        for cell in cells:
            if record(execute_cell(cell)):
                stopped = len(results) < len(cells)
                break
        return results, stopped

    try:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
    except (OSError, PermissionError, ValueError) as error:  # pragma: no cover
        warnings.warn(
            f"process pool unavailable ({error}); running cells serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return run_cells(cells, workers=1, store=store, on_cell=on_cell,
                         stop_after=stop_after)

    # Windowed submission (like the sharded runtime): at most
    # workers + 2 cells in flight, so huge grids never materialize
    # thousands of pickled subsequence matrices at once.
    window = workers + 2
    budget_spent = False
    with pool:
        pending = set()
        queue = iter(cells)
        try:
            for cell in queue:
                pending.add(pool.submit(execute_cell, cell))
                if len(pending) >= window:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        if record(future.result()):
                            budget_spent = True
                    if budget_spent:
                        break
            while pending and not budget_spent:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if record(future.result()):
                        budget_spent = True
        finally:
            for future in pending:
                future.cancel()
    stopped = budget_spent and len(results) < len(cells)
    return results, stopped


def run_scan(
    config: ScanConfig,
    store_path: Optional[str] = None,
    workers: int = 1,
    resume: bool = False,
    dry_run: bool = False,
    stop_after: Optional[int] = None,
    on_cell: Optional[Callable[[CellResult], None]] = None,
) -> ScanRunResult:
    """Run (or plan, or resume) one configured scan.

    Args:
        config: the declared grid (see :func:`repro.scan.load_config`).
        store_path: store directory; defaults to the config's ``store``
            key.  ``None`` with no config default executes fully
            in-memory (results returned, nothing persisted).
        workers: worker processes; 1 executes serially in-process.  The
            store's deterministic content is identical for every value.
        resume: continue a partial scan in ``store_path`` — completed
            cells are verified and skipped, corrupted ones re-run.
            Without it an existing store manifest is an error.
        dry_run: expand, filter, and prune the grid, then return the
            plan without executing anything (and without touching disk).
        stop_after: stop cleanly after this many newly completed cells
            (the mid-scan interrupt hook; the store stays resumable).
        on_cell: progress callback, invoked per completed cell in
            completion order.

    Returns:
        A :class:`ScanRunResult`; ``results`` maps cell index to
        :class:`~repro.scan.cells.CellResult` for every cell available
        this invocation (resumed cells included).
    """
    cells, pruned = expand_cells(config)
    digest = config_digest(config)
    if store_path is None:
        store_path = config.store

    if dry_run:
        return ScanRunResult(
            config=config,
            cells=cells,
            pruned=pruned,
            results={},
            store_path=store_path,
            dry_run=True,
        )
    if not cells:
        raise ValueError(
            "the scan's filters pruned every cell; nothing to run"
        )

    store: Optional[ScanStore] = None
    resumed: List[int] = []
    reran: List[int] = []
    if store_path is not None:
        if os.path.exists(os.path.join(str(store_path), "manifest.json")) and not resume:
            raise ValueError(
                f"store {store_path} already holds a scan; pass resume=True "
                "(--resume) to continue it or point at a fresh directory"
            )
        store = ScanStore(store_path, config_digest=digest)
        store.set_n_cells(len(cells))
        reran = store.verify()
        resumed = store.completed_indices()

    todo = [cell for cell in cells if cell.index not in set(resumed)]
    started = time.perf_counter()
    results, stopped = run_cells(
        todo, workers=workers, store=store, on_cell=on_cell, stop_after=stop_after
    )
    elapsed = time.perf_counter() - started
    executed = sorted(results)

    if store is not None:
        for index in resumed:
            results[index] = store.read_cell(index)

    finalized = False
    if store is not None and len(store.completed_indices()) == len(cells):
        store.finalize()
        finalized = True

    return ScanRunResult(
        config=config,
        cells=cells,
        pruned=pruned,
        results=results,
        store_path=None if store is None else store.path,
        executed=executed,
        resumed=resumed,
        reran=reran,
        stopped=stopped,
        finalized=finalized,
        elapsed_seconds=elapsed,
    )
