"""StoreJanitor: policies, garbage sweeps, and GC-vs-writer concurrency.

The janitor's safety contract: running ``sweep()`` while other processes
write and read the same store directory never corrupts a live entry and
never removes an in-flight write (a temp file whose rename is still
pending is indistinguishable from a killed writer's leftover — only the
grace window separates them).  Policy behaviour — TTL expiry, LRU
size/count budgets keyed by mtime (which disk hits bump), the
temp/corrupt sweeps — is pinned deterministically by backdating file
mtimes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

from repro.core.cut import Partition
from repro.dataflow.builder import GraphBuilder
from repro.solver.solution import Solution, SolveStatus
from repro.workbench import ProfileStore, StoreJanitor
from repro.workbench.artifacts import from_document, to_document, to_json
from repro.workbench.store import DocumentStore


def _noop(ctx, port, item):  # pragma: no cover - never invoked
    ctx.emit(item)


def _make_graph():
    builder = GraphBuilder("gc")
    with builder.node():
        src = builder.source("src", output_size=4)
        out = builder.iterate("op", src, _noop)
    builder.sink("out", out)
    return builder.build()


def _payload(writer_id: int = 0) -> Partition:
    return Partition(
        graph=_make_graph(),
        node_set=frozenset(["src"] if writer_id == 0 else ["src", "op"]),
        cpu_utilization=float(writer_id),
        network_bytes_per_sec=100.0 + writer_id,
        objective_value=100.0 + writer_id,
        feasible=True,
        solver_solution=Solution(
            status=SolveStatus.OPTIMAL,
            objective=100.0 + writer_id,
        ),
        notes={"writer": float(writer_id)},
    )


def _put(root, name: str, writer_id: int = 0) -> None:
    """Store writer ``writer_id``'s payload under ``name``: each writer's
    document is distinct, so a reader can tell whose write it got."""
    store = DocumentStore(Path(root))
    store.write(name, to_document(_payload(writer_id)))
    assert store.stats.write_errors == 0


def _get(root, name: str):
    """The payload stored under ``name``, read from disk (``None`` on a
    miss)."""
    document = DocumentStore(Path(root)).read(name)
    if document is None:
        return None
    return from_document(document, graph=_make_graph())


def _entry_paths(root):
    return sorted(p for p in root.iterdir() if p.suffix == ".json")


def _backdate(path, seconds: float) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def test_temp_file_sweep(tmp_path):
    _put(tmp_path, "keep")
    (entry,) = _entry_paths(tmp_path)
    temp = tmp_path / f"{entry.name}.tmp.1234.aa.7"
    temp.write_text("killed writer leftovers")
    _backdate(temp, 3600.0)

    gc = StoreJanitor(tmp_path, grace_seconds=60.0).sweep()
    assert gc.removed_temp_files == 1
    assert gc.removed_entries == 0
    assert not temp.exists()
    # The live entry is untouched and loads.
    assert _get(tmp_path, "keep")


def test_grace_window_protects_fresh_garbage(tmp_path):
    """An in-flight write looks like a killed writer's temp file;
    grace is the guard."""
    _put(tmp_path, "keep")
    (entry,) = _entry_paths(tmp_path)
    inflight = tmp_path / f"{entry.name}.tmp.4321.bb.0"
    inflight.write_bytes(b"body written; rename still pending")

    gc = StoreJanitor(tmp_path, grace_seconds=60.0).sweep()
    assert gc.removed_temp_files == 0
    assert inflight.exists()
    # Once stale, the same file is garbage.
    _backdate(inflight, 3600.0)
    gc = StoreJanitor(tmp_path, grace_seconds=60.0).sweep()
    assert gc.removed_temp_files == 1


def test_grace_edge_entry_is_kept(tmp_path):
    """A file whose mtime sits *exactly* at the grace cutoff is still
    inside its window and must be kept; one tick older is garbage."""
    _put(tmp_path, "edge")
    (entry,) = _entry_paths(tmp_path)
    temp = tmp_path / f"{entry.name}.tmp.4321.bb.1"
    temp.write_bytes(b"write at the edge")

    now = time.time()
    grace = 60.0
    stamp = now - grace  # exactly the cutoff
    os.utime(temp, (stamp, stamp))
    gc = StoreJanitor(tmp_path, grace_seconds=grace).sweep(now=now)
    assert gc.removed_temp_files == 0
    assert temp.exists()

    # The barest step past the edge makes it removable.
    stamp = now - grace - 0.5
    os.utime(temp, (stamp, stamp))
    gc = StoreJanitor(tmp_path, grace_seconds=grace).sweep(now=now)
    assert gc.removed_temp_files == 1
    assert not temp.exists()


def test_grace_edge_ttl_entry_is_kept(tmp_path):
    """TTL expiry honors the same strict grace edge for live entries."""
    _put(tmp_path, "edge")
    (entry,) = _entry_paths(tmp_path)
    now = time.time()
    grace = 60.0
    stamp = now - grace
    os.utime(entry, (stamp, stamp))

    # Well past its TTL, but exactly at the grace edge: kept.
    gc = StoreJanitor(tmp_path, ttl=1.0, grace_seconds=grace).sweep(now=now)
    assert gc.removed_expired == 0
    assert entry.exists()

    stamp = now - grace - 0.5
    os.utime(entry, (stamp, stamp))
    gc = StoreJanitor(tmp_path, ttl=1.0, grace_seconds=grace).sweep(now=now)
    assert gc.removed_expired == 1


def test_ttl_expiry(tmp_path):
    _put(tmp_path, "old", 0)
    _put(tmp_path, "new", 1)
    assert len(_entry_paths(tmp_path)) == 2
    target = _entry_paths(tmp_path)[0]
    _backdate(target, 7200.0)

    gc = StoreJanitor(tmp_path, ttl=3600.0, grace_seconds=1.0).sweep()
    assert gc.removed_expired == 1
    assert gc.live_entries == 1
    remaining = _entry_paths(tmp_path)
    assert target not in remaining and len(remaining) == 1


def test_lru_size_budget_evicts_least_recently_used(tmp_path):
    for index in range(4):
        _put(tmp_path, f"entry-{index}", index % 2)
    entries = _entry_paths(tmp_path)
    assert len(entries) == 4
    # Stagger ages: entry i backdated (4-i) hours; then "use" the oldest
    # via a disk hit, which must bump it to most-recently-used.
    ordered = sorted(entries, key=lambda p: p.name)
    for index, path in enumerate(ordered):
        _backdate(path, (4 - index) * 3600.0)
    oldest = min(ordered, key=lambda p: p.stat().st_mtime)
    used_name = None
    for index in range(4):
        assert _get(tmp_path, f"entry-{index}") is not None
        if oldest.stat().st_mtime > time.time() - 60.0:
            used_name = f"entry-{index}"
            break
    assert used_name is not None, "disk hit did not touch the entry"

    total = sum(p.stat().st_size for p in tmp_path.iterdir() if p.is_file())
    keep_two = int(total * 0.55)
    gc = StoreJanitor(tmp_path, max_bytes=keep_two, grace_seconds=1.0).sweep()
    assert gc.removed_lru >= 1
    assert gc.live_bytes <= keep_two
    # The just-used entry survived (it is most-recently-used).
    assert _get(tmp_path, used_name)


def test_lru_count_budget(tmp_path):
    for index in range(5):
        _put(tmp_path, f"entry-{index}")
    for age, path in enumerate(_entry_paths(tmp_path)):
        _backdate(path, (10 - age) * 3600.0)
    gc = StoreJanitor(tmp_path, max_entries=2, grace_seconds=1.0).sweep()
    assert gc.removed_lru == 3
    assert gc.live_entries == 2
    assert len(_entry_paths(tmp_path)) == 2


def test_corrupt_entry_removed_after_grace(tmp_path):
    _put(tmp_path, "victim")
    (entry,) = _entry_paths(tmp_path)
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    gc = StoreJanitor(tmp_path, grace_seconds=3600.0).sweep()
    assert gc.removed_corrupt == 0  # still inside the grace window
    _backdate(entry, 7200.0)
    gc = StoreJanitor(tmp_path, grace_seconds=3600.0).sweep()
    assert gc.removed_corrupt == 1
    assert not entry.exists()


def test_dry_run_removes_nothing(tmp_path):
    _put(tmp_path, "entry")
    for path in _entry_paths(tmp_path):
        _backdate(path, 7200.0)
    before = sorted(p.name for p in tmp_path.iterdir())
    gc = StoreJanitor(tmp_path, ttl=3600.0, grace_seconds=1.0).sweep(
        dry_run=True
    )
    assert gc.removed_expired == 1 and gc.dry_run
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_stats_snapshot(tmp_path):
    _put(tmp_path, "a")
    ProfileStore(tmp_path).measurement("eeg", {"n_channels": 2})
    (tmp_path / "lost.json.tmp.1.aa.0").write_bytes(b"x" * 64)
    (tmp_path / "torn.json").write_text('{"schema": ')
    (tmp_path / "list.json").write_text("[1, 2]")
    stats = StoreJanitor(tmp_path).stats()
    assert stats["entries"] == 2
    assert stats["entries_by_kind"] == {"measurement": 2}
    assert stats["temp_files"] == 1
    # Truncated JSON and JSON that is not an object are both misses.
    assert stats["corrupt_entries"] == 2
    assert stats["entry_bytes"] > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_store_cli_stats_and_gc(tmp_path, capsys):
    from repro.__main__ import main

    _put(tmp_path, "entry")
    temp = tmp_path / "gone.json.tmp.1.aa.0"
    temp.write_bytes(b"y" * 32)
    _backdate(temp, 3600.0)

    assert main(["store", "stats", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 temp file(s)" in out

    assert (
        main(
            [
                "store", "gc", "--store", str(tmp_path),
                "--grace", "60", "--dry-run",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "would remove" in out
    assert temp.exists()

    assert main(["store", "gc", "--store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 temp file(s)" in out
    assert not temp.exists()
    assert _get(tmp_path, "entry")


# ---------------------------------------------------------------------------
# Concurrency: GC vs live writers and readers
# ---------------------------------------------------------------------------


def _churn_writer(root: str, writer_id: int, rounds: int, barrier) -> None:
    for round_index in range(rounds):
        barrier.wait(timeout=60)
        _put(root, f"gc-race-{round_index}", writer_id)


def _churn_janitor(root: str, rounds: int, barrier, stop) -> None:
    # Aggressive policies, but honest grace: a correct janitor under
    # these settings may remove *stale* garbage yet never a live entry
    # or an in-flight write (everything here is seconds old).
    janitor = StoreJanitor(
        root, ttl=3600.0, max_bytes=1 << 30, grace_seconds=30.0
    )
    for round_index in range(rounds):
        barrier.wait(timeout=60)
        janitor.sweep()
    while not stop.is_set():
        janitor.sweep()
        time.sleep(0.005)


def _churn_reader(root: str, rounds: int, stop, failures) -> None:
    """Concurrent reader: a key either misses or loads one writer's
    payload intact — a mixed/corrupt reconstruction is the only
    failure."""
    expected = {to_json(_payload(writer_id)) for writer_id in (0, 1)}
    round_index = 0
    while not stop.is_set():
        # Not written yet, or a mid-write miss, is legitimate.
        loaded = _get(root, f"gc-race-{round_index % rounds}")
        if loaded is not None and to_json(loaded) not in expected:
            failures.put(f"corrupt read at round {round_index % rounds}")
            return
        round_index += 1


def test_gc_concurrent_with_writers_never_corrupts(tmp_path):
    """Janitor + two same-key writers, all concurrent, every round.

    After the dust settles every key must reconstruct one writer's
    payload *intact* — GC racing the writers may only ever have removed
    garbage, never a live entry or an in-flight write.
    """
    rounds = 10
    root = str(tmp_path)
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    barrier = ctx.Barrier(3)
    stop = ctx.Event()
    failures = ctx.Queue()
    writers = [
        ctx.Process(target=_churn_writer, args=(root, wid, rounds, barrier))
        for wid in (0, 1)
    ]
    janitor = ctx.Process(
        target=_churn_janitor, args=(root, rounds, barrier, stop)
    )
    reader = ctx.Process(
        target=_churn_reader, args=(root, rounds, stop, failures)
    )
    for process in writers + [janitor, reader]:
        process.start()
    for process in writers:
        process.join(timeout=120)
        assert process.exitcode == 0
    stop.set()
    for process in (janitor, reader):
        process.join(timeout=60)
        assert process.exitcode == 0
    assert failures.empty(), failures.get()

    expected = {
        writer_id: to_json(_payload(writer_id)) for writer_id in (0, 1)
    }
    for round_index in range(rounds):
        loaded = _get(root, f"gc-race-{round_index}")
        text = to_json(loaded)
        assert text in expected.values(), (
            f"round {round_index}: entry corrupted or evicted while live"
        )
    # And a final honest sweep still finds the store fully live.
    gc = StoreJanitor(root, grace_seconds=30.0).sweep()
    assert gc.live_entries == rounds
    assert gc.removed_entries == 0
