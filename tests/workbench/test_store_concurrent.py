"""Durable-store concurrency: same-key writer races never corrupt.

The atomic-write claim, pinned: when two processes write the same store
key simultaneously, a reader always reconstructs *one writer's payload
intact* — each writer renames its own complete temp file into place, so
the two can never interleave — and a truncated entry (killed writer)
degrades to a cache miss, not an error.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.cut import Partition
from repro.dataflow.builder import GraphBuilder
from repro.solver.solution import Solution, SolveStatus
from repro.workbench import ProfileStore, WorkbenchError
from repro.workbench.artifacts import to_json


def _noop(ctx, port, item):  # pragma: no cover - never invoked
    ctx.emit(item)


def _make_graph():
    builder = GraphBuilder("race")
    with builder.node():
        src = builder.source("src", output_size=4)
        out = builder.iterate("op", src, _noop)
    builder.sink("out", out)
    return builder.build()


def _payload(writer_id: int) -> Partition:
    """A writer-distinctive artifact."""
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


def _writer(root: str, writer_id: int, rounds: int, barrier) -> None:
    store = ProfileStore(root)
    for round_index in range(rounds):
        barrier.wait(timeout=60)
        store.put(f"raced-{round_index}", _payload(writer_id))


def test_concurrent_same_key_writers_never_corrupt(tmp_path):
    rounds = 12
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=_writer, args=(str(tmp_path), wid, rounds, barrier))
        for wid in (0, 1)
    ]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=120)
        assert process.exitcode == 0

    expected = {
        writer_id: to_json(_payload(writer_id)) for writer_id in (0, 1)
    }
    graph = _make_graph()
    winners = set()
    for round_index in range(rounds):
        # A fresh store (new process-equivalent view) must reconstruct
        # one writer's payload exactly.
        name = f"raced-{round_index}"
        loaded = ProfileStore(str(tmp_path)).get(name, graph=graph)
        text = to_json(loaded)
        assert text in expected.values(), (
            f"round {round_index}: reconstructed entry matches neither "
            "writer — a corrupt/mixed payload"
        )
        winners.add(int(text == expected[1]))
    # Sanity: the race actually happened both ways at least once is not
    # guaranteed, but at least one complete payload won every round.
    assert len(winners) >= 1


def test_truncated_entry_degrades_to_miss(tmp_path):
    """A killed writer's half-written JSON is a miss, not a crash."""
    store = ProfileStore(str(tmp_path))
    store.put("victim", _payload(0))
    (entry_path,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    text = entry_path.read_text()
    entry_path.write_text(text[: len(text) // 2])

    fresh = ProfileStore(str(tmp_path))
    with pytest.raises(WorkbenchError, match="no stored artifact"):
        fresh.get("victim")
