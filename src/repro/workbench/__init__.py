"""The workbench: sessions, scenarios, durable artifacts, batched serving.

This subpackage is the canonical public surface of the reproduction —
the profile-once / re-partition-many workflow of the paper packaged as
an embeddable service API:

* :mod:`~repro.workbench.scenarios` — a registry of named, parameterized
  workloads (EEG, speech, and leak detection ship pre-registered);
* :mod:`~repro.workbench.artifacts` — versioned JSON round-trips
  for measurements, profiles, partitions, and rate-search results;
* :mod:`~repro.workbench.store` — a content-hash-keyed
  :class:`ProfileStore` that makes profiling durable across processes
  in one directory (atomic writes, digest-checked reads that degrade
  to a miss) and hands every caller defensive copies;
* :mod:`~repro.workbench.session` — :class:`Session` /
  :class:`PartitionService`, including ``partition_many`` batching that
  amortizes formulation across whole request batches;
* :mod:`~repro.workbench.server` — :class:`PartitionServer` /
  :class:`ServerClient`, the same ``partition_many`` served over a
  socket and sharded across a fault-tolerant pool of worker processes
  (``python -m repro serve``);
* :mod:`~repro.workbench.cache` — :class:`ResultCache` memoization of
  solved requests (shared with the server through the store directory)
  and the :class:`StoreJanitor` eviction/GC policies
  (``python -m repro store gc|stats``);
* :mod:`~repro.workbench.membership` — :class:`ElasticPolicy` and the
  heartbeat/membership primitives behind the server's elastic,
  self-healing worker pool (``repro serve --min-workers/--max-workers``);
* :mod:`~repro.workbench.faults` — the deterministic fault-injection
  (chaos) subsystem: a seeded :class:`FaultPlan` of scheduled worker
  kills, heartbeat stalls, frame drops/corruption, and store-write
  errors, a no-op unless installed;
* :mod:`~repro.workbench.transport` — the shared connection/dispatch
  plumbing under both server and gateway: address/manifest parsing,
  the blocking :class:`ClientConnection`, the threaded
  :class:`FrameListener`, and asyncio frame codecs;
* :mod:`~repro.workbench.gateway` — :class:`Gateway` /
  :class:`PartitionDirectory`, an asyncio front door that routes
  ``partition_many`` batches across several partition servers by
  result-cache key, with failover, admission control (typed
  :class:`ServerBusy`), and shard membership events
  (``python -m repro gateway``).
"""

from .artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    canonical_json,
    from_json,
    graph_fingerprint,
    load_artifact,
    save_artifact,
    to_json,
)
from .cache import (
    GCStats,
    ResultCache,
    ResultCacheStats,
    StoreJanitor,
    result_key,
)
from .faults import FaultPlan, FaultPlanError, FaultRule
from .gateway import Gateway, PartitionDirectory, batch_keys
from .membership import (
    ElasticPolicy,
    HeartbeatMonitor,
    MembershipEvent,
    MembershipLog,
)
from .scenarios import (
    Scenario,
    WorkbenchError,
    get_scenario,
    list_scenarios,
    register_builtin_scenarios,
    register_scenario,
    unregister_scenario,
)
from .server import (
    PartitionServer,
    ServerBusy,
    ServerClient,
    ServerError,
    ServerUnavailable,
)
from .session import (
    PartitionRequest,
    PartitionService,
    RateSearchRequest,
    Session,
)
from .store import ProfileStore, StoreStats

__all__ = [
    "ArtifactError",
    "ElasticPolicy",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "GCStats",
    "Gateway",
    "HeartbeatMonitor",
    "MembershipEvent",
    "MembershipLog",
    "PartitionDirectory",
    "PartitionRequest",
    "PartitionServer",
    "PartitionService",
    "ProfileStore",
    "RateSearchRequest",
    "ResultCache",
    "ResultCacheStats",
    "SCHEMA_VERSION",
    "Scenario",
    "ServerBusy",
    "ServerClient",
    "ServerError",
    "ServerUnavailable",
    "Session",
    "StoreJanitor",
    "StoreStats",
    "WorkbenchError",
    "batch_keys",
    "canonical_json",
    "from_json",
    "get_scenario",
    "graph_fingerprint",
    "list_scenarios",
    "load_artifact",
    "register_builtin_scenarios",
    "register_scenario",
    "result_key",
    "save_artifact",
    "to_json",
    "unregister_scenario",
]
