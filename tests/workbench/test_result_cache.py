"""Result cache: byte-identical hits, version invalidation, served sharing.

The contract under test: a repeated identical ``partition_many`` request
is answered *from the cache*, and the answer is byte-identical in
canonical form (:func:`repro.workbench.artifacts.canonical_json`) to the
solve that populated the entry — in process, across fresh sessions on
one durable store, through the partition server, and across the
session/server boundary in both directions.  Scenario versioning
(version bumps and structural-fingerprint changes) must *miss*; the same
version must *hit*.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import InfeasiblePartition
from repro.workbench import (
    PartitionRequest,
    PartitionServer,
    ProfileStore,
    ResultCache,
    ServerClient,
    Session,
    register_scenario,
    unregister_scenario,
)
from repro.workbench.artifacts import (
    SCHEMA_VERSION,
    canonical_json,
    graph_fingerprint,
)
from repro.workbench.cache import result_key
from repro.workbench.server import _GraphCache

PARAMS = {"n_channels": 2}


def batch() -> list[PartitionRequest]:
    return [
        PartitionRequest(
            rate_factor=rate,
            cpu_budget=cpu,
            net_budget=float("inf"),
            gap_tolerance=5e-3,
        )
        for cpu in (1.0, 0.9)
        for rate in (1.0, 2.0, 4.0)
    ]


def session_for(store_dir, **kwargs) -> Session:
    return Session(
        "eeg", store=ProfileStore(store_dir), params=PARAMS, **kwargs
    )


def assert_canonically_identical(first, second):
    assert len(first) == len(second)
    for index, (a, b) in enumerate(zip(first, second)):
        assert (a is None) == (b is None), f"request {index}"
        if a is not None:
            assert canonical_json(a) == canonical_json(b), (
                f"request {index}: cached answer differs from solve"
            )


# ---------------------------------------------------------------------------
# In-process memoization
# ---------------------------------------------------------------------------


def test_repeated_batch_hits_and_matches(tmp_path):
    session = session_for(tmp_path)
    requests = batch()
    first = session.partition_many(requests, skip_infeasible=True)
    assert session.result_cache.stats.misses == len(requests)
    second = session.partition_many(requests, skip_infeasible=True)
    assert session.result_cache.stats.hits == len(requests)
    assert_canonically_identical(first, second)
    # Served results still carry the request context deploy() needs.
    assert second[0].request.platform == session.platform
    assert second[0].request.rate_factor == requests[0].rate_factor


def test_fresh_session_hits_durable_entries(tmp_path):
    requests = batch()
    first = session_for(tmp_path).partition_many(
        requests, skip_infeasible=True
    )
    fresh = session_for(tmp_path)
    second = fresh.partition_many(requests, skip_infeasible=True)
    assert fresh.result_cache.stats.hits == len(requests)
    assert fresh.result_cache.stats.misses == 0
    assert_canonically_identical(first, second)


def test_memory_store_cache_is_private(tmp_path):
    requests = batch()[:2]
    one = Session("eeg", params=PARAMS)
    one.partition_many(requests, skip_infeasible=True)
    two = Session("eeg", params=PARAMS)
    two.partition_many(requests, skip_infeasible=True)
    assert two.result_cache.stats.hits == 0
    assert two.result_cache.stats.misses == len(requests)


def test_result_cache_false_disables(tmp_path):
    session = session_for(tmp_path, result_cache=False)
    assert session.result_cache is None
    requests = batch()[:2]
    session.partition_many(requests, skip_infeasible=True)
    assert not list(tmp_path.glob("result-*.json"))


def test_partial_hits_solve_only_misses(tmp_path):
    requests = batch()
    session = session_for(tmp_path)
    session.partition_many(requests[:3], skip_infeasible=True)
    session2 = session_for(tmp_path)
    results = session2.partition_many(requests, skip_infeasible=True)
    assert session2.result_cache.stats.hits == 3
    assert session2.result_cache.stats.misses == len(requests) - 3
    assert all(r is not None for r in results)
    # And a third run over the union is all hits.
    session3 = session_for(tmp_path)
    again = session3.partition_many(requests, skip_infeasible=True)
    assert session3.result_cache.stats.misses == 0
    assert_canonically_identical(results, again)


def test_infeasibility_is_cached(tmp_path):
    hopeless = [
        PartitionRequest(
            rate_factor=500000.0, cpu_budget=1e-9, gap_tolerance=5e-3
        )
    ]
    session = session_for(tmp_path)
    assert session.partition_many(hopeless, skip_infeasible=True) == [None]
    fresh = session_for(tmp_path)
    assert fresh.partition_many(hopeless, skip_infeasible=True) == [None]
    assert fresh.result_cache.stats.hits == 1
    # Strict mode raises from the cached knowledge without re-solving.
    with pytest.raises(InfeasiblePartition, match="cached"):
        fresh.partition_many(hopeless, skip_infeasible=False)


# ---------------------------------------------------------------------------
# Scenario versioning
# ---------------------------------------------------------------------------


def _register_test_scenario(version=1, fingerprint=None, extra_op=False):
    from repro.apps.eeg import build_eeg_pipeline, source_rates, synth_eeg

    def build(n_channels: int):
        # extra_op models an application-code change that alters the
        # graph's structure (one more channel chain than before).
        if extra_op:
            return build_eeg_pipeline(n_channels=n_channels + 1)
        return build_eeg_pipeline(n_channels=n_channels)

    def inputs(n_channels: int, duration_s: float, seed: int):
        recording = synth_eeg(
            n_channels=n_channels + (1 if extra_op else 0),
            duration_s=duration_s,
            seizure_intervals=(),
            seed=seed,
        )
        return recording.source_data(), source_rates(
            n_channels + (1 if extra_op else 0)
        )

    return register_scenario(
        name="cache-versioning-test",
        description="result-cache invalidation fixture",
        build_graph=build,
        make_inputs=inputs,
        defaults={"n_channels": 2, "duration_s": 2.0, "seed": 0},
        version=version,
        fingerprint=fingerprint,
        replace=True,
    )


@pytest.fixture
def versioned_scenario():
    yield _register_test_scenario()
    unregister_scenario("cache-versioning-test")


def test_version_bump_invalidates_same_version_hits(
    tmp_path, versioned_scenario
):
    requests = batch()[:2]

    def run():
        session = Session(
            "cache-versioning-test", store=ProfileStore(tmp_path)
        )
        results = session.partition_many(requests, skip_infeasible=True)
        return session.result_cache.stats, results

    stats, first = run()
    assert stats.misses == len(requests)
    # Same version re-registered: hits.
    _register_test_scenario(version=1)
    stats, second = run()
    assert stats.hits == len(requests) and stats.misses == 0
    assert_canonically_identical(first, second)
    # New version: every entry recorded under v1 stops matching.
    _register_test_scenario(version=2)
    stats, _ = run()
    assert stats.hits == 0 and stats.misses == len(requests)


def test_structural_builder_change_invalidates(tmp_path, versioned_scenario):
    requests = batch()[:1]
    session = Session("cache-versioning-test", store=ProfileStore(tmp_path))
    session.partition_many(requests, skip_infeasible=True)

    _register_test_scenario(extra_op=True)  # same name, same version
    changed = Session("cache-versioning-test", store=ProfileStore(tmp_path))
    changed.partition_many(requests, skip_infeasible=True)
    assert changed.result_cache.stats.hits == 0
    assert changed.result_cache.stats.misses == len(requests)


def test_client_graphs_key_on_resolved_params_and_registration(
    versioned_scenario,
):
    """A client's kept graph answers any spelling of the same resolved
    params, and a scenario re-registered under its name is rebuilt (a
    kept graph of the old builder would fail every fingerprint check)."""
    graphs = _GraphCache()
    first = graphs.get("cache-versioning-test", {})
    assert graphs.get("cache-versioning-test", {"n_channels": 2}) is first
    _register_test_scenario(extra_op=True)
    rebuilt = graphs.get("cache-versioning-test", {})
    assert graph_fingerprint(rebuilt) != graph_fingerprint(first)


def test_explicit_fingerprint_overrides_structure(tmp_path):
    scenario = _register_test_scenario(fingerprint="app-code-v1")
    try:
        key_one = result_key(scenario, None, None, "tmote", PartitionRequest())
        rereg = _register_test_scenario(fingerprint="app-code-v2")
        key_two = result_key(rereg, None, None, "tmote", PartitionRequest())
        assert key_one != key_two
        back = _register_test_scenario(fingerprint="app-code-v1")
        assert key_one == result_key(
            back, None, None, "tmote", PartitionRequest()
        )
    finally:
        unregister_scenario("cache-versioning-test")


def test_measurement_key_tracks_fingerprint(tmp_path, versioned_scenario):
    """The profile store is invalidated by app-code changes too."""
    scenario = versioned_scenario
    params = scenario.resolve_params({})
    key = ProfileStore.measurement_key(scenario, params)
    assert key == ProfileStore.measurement_key(scenario, params)
    changed = _register_test_scenario(extra_op=True)
    assert key != ProfileStore.measurement_key(
        changed, changed.resolve_params({})
    )


# ---------------------------------------------------------------------------
# Key semantics
# ---------------------------------------------------------------------------


def test_result_key_sensitivity():
    base = PartitionRequest(rate_factor=2.0, cpu_budget=0.9)
    key = result_key("eeg", PARAMS, None, "tmote", base)
    assert key == result_key("eeg", PARAMS, None, "tmote", base)
    # Every serving dimension splits the key.
    import dataclasses

    for change in (
        {"rate_factor": 4.0},
        {"cpu_budget": 0.8},
        {"net_budget": 1000.0},
        {"alpha": 1.0},
        {"gap_tolerance": 1e-3},
    ):
        other = dataclasses.replace(base, **change)
        assert key != result_key("eeg", PARAMS, None, "tmote", other), change
    assert key != result_key("eeg", {"n_channels": 3}, None, "tmote", base)
    assert key != result_key("eeg", PARAMS, None, "n80", base)
    # The serving default only applies when the request names no
    # platform: an explicit match is the same request.
    explicit = dataclasses.replace(base, platform="tmote")
    assert key == result_key("eeg", PARAMS, None, "n80", explicit)


def test_store_document_keeps_wire_shape(tmp_path):
    """Caching must not mutate the document the server is about to ship
    (write_document records its sidecar name in what it writes), and
    entries come back in the same pure wire shape from memory or disk."""
    import numpy as np

    cache = ResultCache(tmp_path)
    document = {
        "schema": "repro.workbench",
        "schema_version": SCHEMA_VERSION,
        "kind": "partition",
        "payload": {},
    }
    original = dict(document)
    cache.store_document("wire-key", document, {"a0": np.zeros(3)})
    assert document == original
    memory_doc, _ = cache.lookup("wire-key")
    assert "npz" not in memory_doc
    disk_doc, disk_arrays = ResultCache(tmp_path).lookup("wire-key")
    assert "npz" not in disk_doc
    assert list(disk_arrays) == ["a0"]


def test_entry_wire_bytes_are_encoded_once(tmp_path, monkeypatch):
    """A remembered entry encodes its answer on first use only: later
    memory hits hand back the same bytes without encoding again."""
    import numpy as np

    from repro.runtime import frames
    from repro.workbench import cache as cache_module

    encodes = []

    def counting_encode(document, arrays=None):
        encodes.append(document)
        return frames.encode_message(document, arrays)

    monkeypatch.setattr(cache_module, "encode_message", counting_encode)
    cache = ResultCache(tmp_path)
    document = {"schema": "repro.workbench", "kind": "partition"}
    arrays = {"a0": np.arange(3.0)}
    stored = cache.store_document("wire-key", document, arrays)
    assert encodes == []
    first = stored.wire()
    assert first == frames.encode_message(document, arrays)
    assert cache.lookup("wire-key").wire() is first
    assert len(encodes) == 1


def test_lookup_corruption_degrades_to_miss(tmp_path):
    session = session_for(tmp_path)
    requests = batch()[:1]
    session.partition_many(requests, skip_infeasible=True)
    (entry,) = tmp_path.glob("result-*.json")
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])

    fresh = session_for(tmp_path)
    results = fresh.partition_many(requests, skip_infeasible=True)
    assert fresh.result_cache.stats.misses == 1
    assert results[0] is not None


def _age_entries(store_dir, field: str, stale) -> list:
    """Rewrite every durable result entry as another build wrote it."""
    entries = sorted(Path(store_dir).glob("result-*.json"))
    assert entries
    for entry in entries:
        document = json.loads(entry.read_text())
        document[field] = stale
        entry.write_text(json.dumps(document))
    return entries


def assert_current(entries) -> None:
    for entry in entries:
        document = json.loads(entry.read_text())
        assert document["schema"] == "repro.workbench"
        assert document["schema_version"] == SCHEMA_VERSION


STALE = pytest.mark.parametrize(
    "field, stale", [("schema_version", 1), ("schema", "other.schema")]
)


@STALE
def test_stale_schema_entry_is_resolved_and_overwritten(
    tmp_path, field, stale
):
    """``result_key`` does not include the schema version, so an entry
    an older build wrote sits under the same key: it must be a miss,
    re-solved and overwritten, never decoded or served."""
    requests = batch()[:2]
    first = session_for(tmp_path).partition_many(
        requests, skip_infeasible=True
    )
    entries = _age_entries(tmp_path, field, stale)
    fresh = session_for(tmp_path)
    again = fresh.partition_many(requests, skip_infeasible=True)
    assert fresh.result_cache.stats.hits == 0
    assert fresh.result_cache.stats.misses == len(requests)
    assert_canonically_identical(first, again)
    assert_current(entries)
    third = session_for(tmp_path)
    third.partition_many(requests, skip_infeasible=True)
    assert third.result_cache.stats.hits == len(requests)


@STALE
def test_served_stale_schema_entry_is_resolved_and_overwritten(
    tmp_path, field, stale
):
    """The server reads a stale entry as a miss too: it re-solves and
    overwrites it instead of forwarding bytes the client cannot read."""
    requests = batch()[:2]
    local = session_for(tmp_path).partition_many(
        requests, skip_infeasible=True
    )
    entries = _age_entries(tmp_path, field, stale)
    with PartitionServer(workers=1, store=str(tmp_path)) as srv:
        with ServerClient(srv.address) as client:
            served = client.partition_many(
                "eeg", requests, params=PARAMS, skip_infeasible=True
            )
            assert client.last_batch_stats == {
                "cache_hits": 0,
                "cache_misses": len(requests),
            }
    assert_canonically_identical(local, served)
    assert_current(entries)


# ---------------------------------------------------------------------------
# Served sharing
# ---------------------------------------------------------------------------


def test_served_repeat_batch_is_cache_hit_and_identical(tmp_path):
    requests = batch()
    store_dir = str(tmp_path)
    with PartitionServer(workers=2, store=store_dir) as srv:
        with ServerClient(srv.address) as client:
            first = client.partition_many(
                "eeg", requests, params=PARAMS, skip_infeasible=True
            )
            assert client.last_batch_stats == {
                "cache_hits": 0,
                "cache_misses": len(requests),
            }
            second = client.partition_many(
                "eeg", requests, params=PARAMS, skip_infeasible=True
            )
            assert client.last_batch_stats == {
                "cache_hits": len(requests),
                "cache_misses": 0,
            }
            ping = client.ping()
            assert ping["cache_hits"] == len(requests)
    assert_canonically_identical(first, second)


def test_second_server_life_answers_from_disk(tmp_path):
    """A server restarted over the same store directory answers a batch
    the first life solved entirely from disk, byte-identically."""
    requests = batch()
    store_dir = str(tmp_path)
    lives = []
    for _ in range(2):
        with PartitionServer(workers=1, store=store_dir) as srv:
            with ServerClient(srv.address) as client:
                lives.append(
                    client.partition_many(
                        "eeg", requests, params=PARAMS, skip_infeasible=True
                    )
                )
                stats = client.last_batch_stats
    assert stats == {"cache_hits": len(requests), "cache_misses": 0}
    assert_canonically_identical(*lives)


def test_cache_shared_between_session_and_server(tmp_path):
    """One durable directory is one cache for every serving layer."""
    requests = batch()
    store_dir = str(tmp_path)
    local = session_for(store_dir).partition_many(
        requests, skip_infeasible=True
    )
    # A server over the same store answers entirely from the session's
    # entries without solving anything...
    with PartitionServer(workers=1, store=store_dir) as srv:
        with ServerClient(srv.address) as client:
            served = client.partition_many(
                "eeg", requests, params=PARAMS, skip_infeasible=True
            )
            assert client.last_batch_stats["cache_hits"] == len(requests)
    assert_canonically_identical(local, served)
    # ...and a fresh session hits entries however they were produced.
    fresh = session_for(store_dir)
    again = fresh.partition_many(requests, skip_infeasible=True)
    assert fresh.result_cache.stats.misses == 0
    assert_canonically_identical(local, again)


def test_memory_lru_bound_keeps_durable_entries_hittable(tmp_path):
    """The in-process payload cache is bounded; evicted durable entries
    simply re-read from disk on their next hit."""
    requests = batch()
    session = session_for(
        tmp_path, result_cache=ResultCache(tmp_path, max_memory_entries=2)
    )
    session.partition_many(requests, skip_infeasible=True)
    assert len(session.result_cache._memory) <= 2
    again = session.partition_many(requests, skip_infeasible=True)
    assert session.result_cache.stats.hits == len(requests)
    assert all(r is not None for r in again)


def test_explicit_shared_result_cache_object():
    shared = ResultCache()
    requests = batch()[:2]
    one = Session("eeg", params=PARAMS, result_cache=shared)
    one.partition_many(requests, skip_infeasible=True)
    two = Session("eeg", params=PARAMS, result_cache=shared)
    two.partition_many(requests, skip_infeasible=True)
    assert shared.stats.hits == len(requests)
    assert shared.stats.misses == len(requests)
