"""Wishbone: profile-based partitioning for sensornet applications.

A full reproduction of Newton et al., NSDI 2009, packaged as a service
API.  The canonical way in is the **workbench**: bind a registered
scenario to a :class:`Session` and the paper's profile-once /
re-partition-many workflow is five lines::

    from repro import Session, ProfileStore, PartitionRequest

    session = Session("eeg", store=ProfileStore("./profile-store"))
    profile = session.profile()                  # cached, durable, copied
    results = session.partition_many(
        [PartitionRequest(rate_factor=r) for r in (1.0, 4.0, 16.0)]
    )
    prediction = session.deploy(results[0], n_nodes=10)

Sessions sit on a content-hash-keyed :class:`ProfileStore` (measurements
survive process restarts and every caller gets defensive copies), a
:class:`Scenario` registry (EEG, speech, and leak detection ship
pre-registered; new workloads are one :func:`register_scenario` call),
and a batched :class:`PartitionService` whose ``partition_many`` shares
one cached formulation across every compatible request in a batch, while
each request's answer depends on that request alone.  All solver
artifacts round-trip through versioned JSON via
:func:`repro.workbench.to_json` / :func:`repro.workbench.save_artifact`.

The underlying layers remain public for direct use:

1. **Build** a dataflow graph with :class:`GraphBuilder` (mark the
   embedded part with ``with builder.node():``), or use the bundled
   applications (:func:`build_speech_pipeline`, :func:`build_eeg_pipeline`).
2. **Profile** it on sample data with :class:`Profiler`, then cost the
   measurement on any :class:`Platform` from :data:`PLATFORMS`.
3. **Partition** with :class:`Wishbone` — an ILP solved by our
   branch-and-bound engine — or search the maximum sustainable data rate
   with :class:`RateSearch` when nothing fits.
4. **Deploy** on a simulated :class:`Testbed` via :class:`Deployment` to
   predict (or measure, with :meth:`Deployment.run`) input loss, message
   loss, and goodput.

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-vs-measured results of every reproduced figure, and the README
quickstart for the workbench workflow.
"""

from .apps.eeg import build_eeg_pipeline, synth_eeg
from .apps.speech import build_speech_pipeline, synth_speech_audio
from .core import (
    Formulation,
    InfeasiblePartition,
    Partition,
    PartitionError,
    PartitionObjective,
    PartitionProblem,
    PartitionResult,
    RateSearch,
    RateSearchResult,
    RelocationMode,
    WeightedEdge,
    Wishbone,
    max_feasible_rate,
)
from .dataflow import (
    Edge,
    Executor,
    GraphBuilder,
    GraphError,
    Namespace,
    Operator,
    OperatorContext,
    Pinning,
    Stream,
    StreamGraph,
    WorkCounts,
    run_graph,
)
from .network import NetworkProfiler, RoutingTree, Testbed
from .platforms import PLATFORMS, CycleCosts, Platform, RadioSpec, get_platform
from .profiler import GraphProfile, Measurement, Profiler
from .runtime import Deployment, DeploymentPrediction
from .solver import BranchAndBound, LinearProgram
from .viz import graph_to_dot, write_dot
from .workbench import (
    PartitionRequest,
    PartitionServer,
    PartitionService,
    ProfileStore,
    RateSearchRequest,
    ResultCache,
    Scenario,
    ServerClient,
    Session,
    StoreJanitor,
    WorkbenchError,
    get_scenario,
    list_scenarios,
    register_scenario,
)

__version__ = "1.1.0"

__all__ = [
    "BranchAndBound",
    "CycleCosts",
    "Deployment",
    "DeploymentPrediction",
    "Edge",
    "Executor",
    "Formulation",
    "GraphBuilder",
    "GraphError",
    "GraphProfile",
    "InfeasiblePartition",
    "LinearProgram",
    "Measurement",
    "Namespace",
    "NetworkProfiler",
    "Operator",
    "OperatorContext",
    "PLATFORMS",
    "Partition",
    "PartitionError",
    "PartitionObjective",
    "PartitionProblem",
    "PartitionRequest",
    "PartitionResult",
    "PartitionServer",
    "PartitionService",
    "Pinning",
    "Platform",
    "ProfileStore",
    "Profiler",
    "RadioSpec",
    "RateSearch",
    "RateSearchRequest",
    "RateSearchResult",
    "RelocationMode",
    "ResultCache",
    "RoutingTree",
    "Scenario",
    "ServerClient",
    "Session",
    "StoreJanitor",
    "Stream",
    "StreamGraph",
    "Testbed",
    "WeightedEdge",
    "Wishbone",
    "WorkCounts",
    "WorkbenchError",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "build_eeg_pipeline",
    "build_speech_pipeline",
    "get_platform",
    "graph_to_dot",
    "max_feasible_rate",
    "run_graph",
    "synth_eeg",
    "synth_speech_audio",
    "write_dot",
]
