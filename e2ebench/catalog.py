"""The fixed work every benchmark run performs.

Every run of a workload does the same multiset of work: the workload
seed only reorders calls.  No request sets ``time_limit``, so answers never depend on the wall clock, and slow
instances are never dropped: the run is sized by the EEG channel
counts instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: EEG channel counts.  Solve time grows steeply with channels (at 8 a
#: single request can take seconds), so small counts keep one pass of
#: the catalog to a few seconds on two cores.
EEG_CHANNELS = (2, 3, 4)
#: Figure 6 shape, as in ``benchmarks/bench_solver.py``.
EEG_RATES = (8.0, 12.0, 20.0, 30.0, 40.0)
EEG_BUDGETS = (1.2, 1.0, 0.9, 0.8)
EEG_GAP = 5e-3

PLATFORMS = (
    "tmote", "n80", "iphone", "gumstix", "voxnet", "meraki", "scheme",
    "server",
)
SMALL_RATES = (0.25, 1.0, 4.0)
#: ``None`` keeps the platform's own CPU budget.
SMALL_BUDGETS = (None, 0.5)
SEARCH_TARGET = 1024.0

#: Warm-up rate: outside every catalog rate, so set-up pays first-touch
#: costs (session, profile, formulation) without pre-solving the catalog.
WARMUP_RATE = 3.0

#: Scenario instances: (label, scenario name, params).
INSTANCES = tuple(
    (f"eeg{c}", "eeg", {"n_channels": c}) for c in EEG_CHANNELS
) + (("speech", "speech", {}), ("leak", "leak", {}))

#: ``served-warm``: batches of each instance per stream cycle (fixed
#: scenario shares) and requests per batch.  Speech and leak hits are the
#: slowest cluster (each call stalls ~40 ms on delayed ACKs); giving them
#: 12 of 21 batches puts p50 and p90 inside that cluster, not on its edge.
WARM_SHARES = {"eeg2": 3, "eeg3": 3, "eeg4": 3, "speech": 6, "leak": 6}
WARM_BATCH = 4
WARM_ZIPF_S = 1.1

@dataclass(frozen=True)
class Call:
    """One client call: a ``partition_many`` batch or a rate search."""

    kind: str  # "batch" | "search"
    instance: str
    requests: tuple  # request field dicts (one for a search)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "instance": self.instance,
            "requests": list(self.requests),
        }


def instance(label: str) -> tuple[str, dict]:
    for name, scenario, params in INSTANCES:
        if name == label:
            return scenario, dict(params)
    raise KeyError(label)


def _eeg_request(rate: float, budget: float) -> dict:
    return {
        "platform": "tmote",
        "rate_factor": rate,
        "cpu_budget": budget,
        "net_budget": float("inf"),
        "gap_tolerance": EEG_GAP,
    }


def partition_calls() -> list[Call]:
    """The batches of ``served-cold`` (and the ``served-warm`` fill).

    Every batch holds two budgets, so the server shards it into two runs
    and both workers get work.  The small speech and leak batches (48)
    and searches (16 of 19) outnumber the EEG calls (30 + 3), which puts
    the median latency inside the small-call cluster and p90 well inside
    the EEG cluster, never on the edge between two clusters, where it
    would jump between runs.
    """
    calls = []
    for c in EEG_CHANNELS:
        for rate in EEG_RATES:
            for pair in (EEG_BUDGETS[:2], EEG_BUDGETS[2:]):
                calls.append(
                    Call(
                        "batch",
                        f"eeg{c}",
                        tuple(_eeg_request(rate, b) for b in pair),
                    )
                )
    for label in ("speech", "leak"):
        for platform in PLATFORMS:
            for rate in SMALL_RATES:
                requests = []
                for budget in SMALL_BUDGETS:
                    request = {"platform": platform, "rate_factor": rate}
                    if budget is not None:
                        request["cpu_budget"] = budget
                    requests.append(request)
                calls.append(Call("batch", label, tuple(requests)))
    return calls


def search_calls() -> list[Call]:
    """One §4.3 rate search per scenario/platform group.  The server has
    no rate-search operation, so these always run in the client."""
    calls = [
        Call(
            "search",
            f"eeg{c}",
            ({"platform": "tmote", "gap_tolerance": EEG_GAP},),
        )
        for c in EEG_CHANNELS
    ]
    for label in ("speech", "leak"):
        for platform in PLATFORMS:
            calls.append(Call("search", label, ({"platform": platform},)))
    return calls


def warmup_calls() -> list[Call]:
    """Set-up requests outside the catalog, one batch per instance.

    They touch every (instance, platform, formulation group) the catalog
    uses, and mix two budgets so a served batch reaches both workers.
    """
    calls = []
    for c in EEG_CHANNELS:
        calls.append(
            Call(
                "batch",
                f"eeg{c}",
                tuple(
                    _eeg_request(WARMUP_RATE, b)
                    for b in (EEG_BUDGETS[0], EEG_BUDGETS[-1])
                ),
            )
        )
    for label in ("speech", "leak"):
        requests = []
        for platform in PLATFORMS:
            for budget in SMALL_BUDGETS:
                request = {"platform": platform, "rate_factor": WARMUP_RATE}
                if budget is not None:
                    request["cpu_budget"] = budget
                requests.append(request)
        calls.append(Call("batch", label, tuple(requests)))
    return calls


def request_key(label: str, request: dict) -> str:
    """Stable identity of one request (reference-table key)."""
    return json.dumps([label, request], sort_keys=True)


def search_key(label: str, request: dict) -> str:
    return json.dumps(["search", label, request], sort_keys=True)


def seeded_order(items: list, seed: int, cycle: int) -> list:
    """``items`` shuffled by (seed, cycle): the seed only reorders."""
    rng = random.Random(f"{seed}:{cycle}")
    out = list(items)
    rng.shuffle(out)
    return out


def warm_batches(pools: dict[str, list[dict]]) -> list[Call]:
    """The ``served-warm`` batches of one stream cycle.

    ``pools`` holds each instance's cached (feasible) requests in catalog
    order.  Every cycle holds :data:`WARM_SHARES` batches per instance,
    each drawn from a Zipf law over that order by a fixed generator, so
    the multiset of batches never depends on the workload seed; the seed
    only orders them (:func:`seeded_order`).
    """
    rng = random.Random("warm-stream")
    calls = []
    for label, share in WARM_SHARES.items():
        ranked = pools[label]
        weights = [1.0 / (r + 1) ** WARM_ZIPF_S for r in range(len(ranked))]
        for _ in range(share):
            picks = rng.choices(ranked, weights=weights, k=WARM_BATCH)
            calls.append(Call("batch", label, tuple(picks)))
    return calls


def catalog_document() -> dict:
    """Everything that defines the work, for the catalog digest."""
    return {
        "instances": [list(i) for i in INSTANCES],
        "partition_calls": [c.to_json() for c in partition_calls()],
        "search_calls": [c.to_json() for c in search_calls()],
        "search_target": SEARCH_TARGET,
        "warmup_calls": [c.to_json() for c in warmup_calls()],
        "warm_shares": WARM_SHARES,
        "warm_batch": WARM_BATCH,
        "warm_zipf_s": WARM_ZIPF_S,
    }


def catalog_digest() -> str:
    blob = json.dumps(catalog_document(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
