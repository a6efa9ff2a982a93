"""Scan orchestration: worker invariance, the kill/resume matrix, SIGKILL.

The contract under test is the headline of the scan subsystem: the
store's deterministic fingerprint is a pure function of the config —
independent of worker count, of where the scan was interrupted, and of
how many resume rounds it took to finish.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.scan import (
    ScanStore,
    StoreError,
    config_digest,
    expand_cells,
    run_scan,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@pytest.fixture
def reference_fingerprint(tmp_path, config):
    """The uninterrupted single-worker store's fingerprint."""
    run = run_scan(config, store_path=str(tmp_path / "reference"), workers=1)
    assert run.complete and run.finalized
    return ScanStore(str(tmp_path / "reference")).fingerprint()


class TestWorkerInvariance:
    def test_two_workers_match_serial(self, tmp_path, config, reference_fingerprint):
        run = run_scan(config, store_path=str(tmp_path / "w2"), workers=2)
        assert run.complete
        assert ScanStore(str(tmp_path / "w2")).fingerprint() == reference_fingerprint

    def test_in_memory_run_matches_store_results(self, config, tmp_path):
        stored = run_scan(config, store_path=str(tmp_path / "s"), workers=1)
        in_memory = run_scan(config, workers=1)
        assert in_memory.store_path is None
        assert sorted(in_memory.results) == sorted(stored.results)
        for index, result in in_memory.results.items():
            assert result.fingerprint() == stored.results[index].fingerprint()


class TestKillResumeMatrix:
    def test_resume_after_every_boundary(
        self, tmp_path, config, reference_fingerprint
    ):
        """Stop after each k = 1..n-1 completed cells, resume, compare.

        Every interrupt boundary, under both worker counts, must resume
        to a store bit-identical to the uninterrupted scan.
        """
        n = len(expand_cells(config)[0])
        for workers in (1, 2):
            for k in range(1, n):
                store = str(tmp_path / f"kill-{workers}-{k}")
                partial = run_scan(
                    config, store_path=store, workers=workers, stop_after=k
                )
                done = len(ScanStore(store).completed_indices())
                # A pool can drain a couple of extra already-running
                # cells past the budget; serial stops exactly at k.
                assert done >= k
                if workers == 1:
                    assert done == k
                if partial.stopped:
                    assert not partial.finalized
                    assert done < n
                    resumed = run_scan(
                        config, store_path=store, workers=workers, resume=True
                    )
                    assert resumed.complete and resumed.finalized
                    assert sorted(resumed.resumed) == sorted(partial.executed)
                assert (
                    ScanStore(store).fingerprint() == reference_fingerprint
                ), f"divergence after stop at k={k} with {workers} workers"

    def test_multi_round_resume(self, tmp_path, config, reference_fingerprint):
        """Three interrupts in a row still converge to the same store."""
        store = str(tmp_path / "rounds")
        for _ in range(3):
            run_scan(config, store_path=store, workers=2, stop_after=3,
                     resume=os.path.exists(os.path.join(store, "manifest.json")))
        final = run_scan(config, store_path=store, workers=2, resume=True)
        assert final.complete
        assert ScanStore(store).fingerprint() == reference_fingerprint


class TestResumeSafety:
    def test_existing_store_without_resume_refused(self, tmp_path, config):
        store = str(tmp_path / "s")
        run_scan(config, store_path=store, workers=1, stop_after=1)
        with pytest.raises(ValueError, match="pass resume=True"):
            run_scan(config, store_path=store, workers=1)

    def test_stale_store_refused_on_resume(self, tmp_path, config):
        from repro.scan import ScanConfig

        store = str(tmp_path / "s")
        run_scan(config, store_path=store, workers=1, stop_after=1)
        reseeded = ScanConfig(name=config.name, grid=config.grid, seed=99)
        assert config_digest(reseeded) != config_digest(config)
        with pytest.raises(StoreError, match="different scan config"):
            run_scan(reseeded, store_path=store, workers=1, resume=True)

    def test_corrupted_cell_rerun_on_resume(
        self, tmp_path, config, reference_fingerprint
    ):
        store_path = str(tmp_path / "s")
        run_scan(config, store_path=store_path, workers=1, stop_after=4)
        store = ScanStore(store_path)
        victim = store.completed_indices()[1]
        with open(store.cell_path(victim), "r+b") as fh:
            fh.write(b"\x00\x00\x00\x00")
        resumed = run_scan(config, store_path=store_path, workers=1, resume=True)
        assert victim in resumed.reran
        assert victim in resumed.executed
        assert resumed.complete
        assert ScanStore(store_path).fingerprint() == reference_fingerprint

    def test_dry_run_touches_nothing(self, tmp_path, config):
        store = str(tmp_path / "planned")
        plan = run_scan(config, store_path=store, dry_run=True)
        assert plan.dry_run
        assert len(plan.cells) == 10
        assert len(plan.pruned) == 2
        assert not os.path.exists(store)

    def test_all_cells_filtered_is_an_error(self, config):
        from repro.scan import ScanConfig

        empty = ScanConfig(
            name=config.name,
            grid=config.grid,
            seed=config.seed,
            include=({"algorithm": "sampling", "scenario": "churn"},),
        )
        with pytest.raises(ValueError, match="pruned every cell"):
            run_scan(empty, workers=1)


#: the SIGKILL drill needs cells slow enough (~0.2 s) that the kill
#: reliably lands mid-scan: 8 cells of 20k users x 48 slots.
DRILL_TOML = """
[scan]
name = "drill"
seed = 4

[grid]
algorithms = ["capp", "sw-direct"]
epsilons = [0.5, 1.0]
scenarios = ["steady", "bursty"]
n_users = [20000]
horizons = [48]
shards = [2]
w = [6]
"""


def _proc_stat(pid):
    """``(state, ppid)`` of a process from ``/proc``, or None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid):
    if not os.path.isdir("/proc"):
        return []
    pids = (int(entry) for entry in os.listdir("/proc") if entry.isdigit())
    return [child for child in pids if (_proc_stat(child) or ("", -1))[1] == pid]


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestSigkillDrill:
    def test_kill_minus_nine_mid_scan_resumes_bit_identically(self, tmp_path):
        """A real OS-level SIGKILL mid-scan, then ``--resume`` via the CLI.

        The process dies without cleanup while workers are mid-cell; the
        atomic write discipline must leave the store resumable, and the
        resumed store must land on the uninterrupted fingerprint.
        """
        from repro.scan import load_config

        drill_toml = tmp_path / "drill.toml"
        drill_toml.write_text(DRILL_TOML)
        drill_config = load_config(str(drill_toml))
        reference = run_scan(
            drill_config, store_path=str(tmp_path / "drill-ref"), workers=2
        )
        assert reference.complete
        reference_fp = ScanStore(str(tmp_path / "drill-ref")).fingerprint()
        n_cells = len(reference.cells)

        store = str(tmp_path / "killed")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "scan", str(drill_toml),
             "--store", store, "--workers", "2"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            manifest = os.path.join(store, "manifest.json")
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if os.path.exists(manifest):
                    try:
                        if ScanStore(store).completed_indices():
                            break
                    except StoreError:
                        pass  # manifest mid-replace; try again
                if proc.poll() is not None:
                    pytest.fail("scan finished before it could be killed")
                time.sleep(0.005)
            else:
                pytest.fail("scan never completed a first cell")
            pool_workers = _children(proc.pid)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        if os.path.isdir("/proc"):
            # The killed scan's pool workers must exit, not linger orphaned.
            assert pool_workers
            deadline = time.monotonic() + 15.0
            while any(map(_alive, pool_workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pool_workers if _alive(pid)]
        survivors = ScanStore(store).completed_indices()
        assert survivors  # the kill landed after >= 1 completed cell
        assert len(survivors) < n_cells  # ... and before the scan finished
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "scan", str(drill_toml),
             "--store", store, "--workers", "2", "--resume"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        final = ScanStore(store)
        assert final.finalized
        assert final.fingerprint() == reference_fp
