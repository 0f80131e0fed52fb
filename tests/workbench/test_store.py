"""ProfileStore: content keys, defensive copies, durability, fresh processes."""

import os
import subprocess
import sys

import pytest

from repro.platforms import get_platform
from repro.profiler import Profiler
from repro.workbench import ProfileStore, Session, to_json
from repro.workbench import store as store_module
from repro.workbench.scenarios import get_scenario


def test_content_key_stability_and_sensitivity():
    scenario = get_scenario("eeg")
    params = scenario.resolve_params({"n_channels": 2})
    key = ProfileStore.measurement_key(scenario, params)
    assert key == ProfileStore.measurement_key(scenario, params)
    other = ProfileStore.measurement_key(
        scenario, scenario.resolve_params({"n_channels": 3})
    )
    assert key != other
    scalar = ProfileStore.measurement_key(
        scenario, params, Profiler(batch=False)
    )
    assert key != scalar


def test_measurement_cached_once_but_copied(tmp_path):
    store = ProfileStore(tmp_path)
    graph1, m1 = store.measurement("eeg", {"n_channels": 2})
    graph2, m2 = store.measurement("eeg", {"n_channels": 2})
    assert store.stats.misses == 1
    assert store.stats.hits == 1
    assert graph1 is not graph2
    assert m1 is not m2 and m1.stats is not m2.stats
    # Mutating one caller's copy cannot leak into another's.
    first_op = next(iter(m1.stats.operators))
    m1.stats.operators[first_op].invocations = -123
    _, m3 = store.measurement("eeg", {"n_channels": 2})
    assert (
        m3.stats.operators[first_op].invocations
        == m2.stats.operators[first_op].invocations
    )


def test_disk_persistence_within_process(tmp_path):
    store = ProfileStore(tmp_path)
    _, original = store.measurement("speech")
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1

    fresh = ProfileStore(tmp_path)  # same directory, empty memory cache
    _, reloaded = fresh.measurement("speech")
    assert fresh.stats.misses == 0
    assert fresh.stats.disk_hits == 1
    assert to_json(original) == to_json(reloaded)


def test_fresh_process_yields_byte_identical_profiles_and_partitions(
    tmp_path,
):
    """Acceptance: profile in one process, load in another, byte-identical
    GraphProfiles and identical partitions for both EEG and speech."""
    code = """
from repro.workbench import ProfileStore
store = ProfileStore({root!r})
store.measurement("eeg", {{"n_channels": 2}})
store.measurement("speech")
print(store.stats.misses)
"""
    result = subprocess.run(
        [sys.executable, "-c", code.format(root=str(tmp_path))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "2"  # the child did the profiling

    store = ProfileStore(tmp_path)
    for scenario, params in (
        ("eeg", {"n_channels": 2}),
        ("speech", {}),
    ):
        _, loaded = store.measurement(scenario, params)
        _, local = ProfileStore().measurement(scenario, params)
        platform = get_platform("tmote")
        assert to_json(loaded.on(platform)) == to_json(local.on(platform))

        session_cached = Session(scenario, store=store, params=params)
        session_fresh = Session(scenario, params=params)
        kwargs = dict(
            rate_factor=0.5, gap_tolerance=5e-3, net_budget=float("inf")
        )
        a = session_cached.partition(**kwargs)
        b = session_fresh.partition(**kwargs)
        assert a.partition.node_set == b.partition.node_set
        assert a.partition.objective_value == b.partition.objective_value
    assert store.stats.misses == 0  # nothing was re-profiled


def test_corrupt_disk_entry_degrades_to_miss(tmp_path):
    store = ProfileStore(tmp_path)
    store.measurement("speech")
    [entry] = tmp_path.glob("*.json")
    entry.write_text('{"schema": "repro.work')  # truncated mid-write

    fresh = ProfileStore(tmp_path)
    _, measurement = fresh.measurement("speech")  # re-profiles, no crash
    assert fresh.stats.misses == 1
    assert measurement.duration > 0
    # the corrupt entry was overwritten with a good one
    again = ProfileStore(tmp_path)
    again.measurement("speech")
    assert again.stats.disk_hits == 1


@pytest.mark.parametrize(
    "field, stale", [("schema_version", 1), ("schema", "other.schema")]
)
def test_stale_schema_entry_is_a_miss(tmp_path, field, stale):
    """An entry written under another schema or schema version (keys do
    not include it) is a miss: it is re-profiled and overwritten."""
    import json

    ProfileStore(tmp_path).measurement("speech")
    [entry] = tmp_path.glob("*.json")
    document = json.loads(entry.read_text())
    document[field] = stale
    entry.write_text(json.dumps(document))

    fresh = ProfileStore(tmp_path)
    _, measurement = fresh.measurement("speech")  # re-profiles, no crash
    assert fresh.stats.misses == 1
    assert measurement.duration > 0
    again = ProfileStore(tmp_path)
    again.measurement("speech")
    assert again.stats.disk_hits == 1


def test_evicted_measurement_is_reread_from_disk(tmp_path, monkeypatch):
    """Past the memory bound, a durable measurement is re-read from
    disk, not profiled again."""
    monkeypatch.setattr(store_module, "MEMORY_ENTRIES", 1)
    store = ProfileStore(tmp_path)
    _, first = store.measurement("speech")
    store.measurement("eeg", {"n_channels": 2})  # evicts speech
    disk_hits, misses = store.stats.disk_hits, store.stats.misses
    _, again = store.measurement("speech")
    assert store.stats.disk_hits == disk_hits + 1
    assert store.stats.misses == misses
    assert to_json(first) == to_json(again)


def test_in_memory_store_still_isolates():
    store = ProfileStore()
    _, m1 = store.measurement("speech")
    _, m2 = store.measurement("speech")
    assert m1 is not m2
    assert store.stats.misses == 1 and store.stats.hits == 1


def test_scenario_version_invalidates_key():
    scenario = get_scenario("speech")
    import dataclasses

    bumped = dataclasses.replace(scenario, version=scenario.version + 1)
    params = scenario.resolve_params({})
    assert ProfileStore.measurement_key(
        scenario, params
    ) != ProfileStore.measurement_key(bumped, params)


def test_store_paths_expand_home(tmp_path, monkeypatch):
    """``~`` names the home directory, as in the module docstring's
    ``ProfileStore("~/.repro-store")``: both stores land under it, not
    under a directory literally named ``~``."""
    from repro.workbench.cache import ResultCache

    monkeypatch.setenv("HOME", str(tmp_path))
    assert ProfileStore("~/s").root == tmp_path / "s"
    assert ResultCache("~/s").root == tmp_path / "s"
