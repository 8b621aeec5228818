"""The unified execution layer.

Compiles an :class:`~repro.execution.plan.EnginePlan` into an explicit
per-layer dataflow :class:`~repro.execution.program.Program` (the
paper's GetFromDepNbr -> ScatterToEdge -> EdgeForward -> GatherByDst ->
VertexForward decomposition, Section 4) and splits execution into an
**executor** (numeric values), an **accountant** (modeled time), and a
**pass pipeline** (plan-level optimizations such as the Section-5.4
comm/compute overlap).  Training engines, the inference server, and
replay all execute through this layer.
"""

from repro.execution.accountant import (
    BACKWARD_MULTIPLIER,
    HOST_MEMORY_BYTES,
    LayerAccountant,
    account_memory,
)
from repro.execution.executor import (
    ClosureMemo,
    LayerExecutor,
    StalenessBoundedReader,
    run_closure_forward,
)
from repro.execution.explain import describe_program, render_program
from repro.execution.passes import (
    PASS_REGISTRY,
    run_passes,
)
from repro.execution.plan import (
    EnginePlan,
    EpochReport,
    build_engine_plan,
    build_historical_caches,
)
from repro.execution.program import (
    ComputeSpec,
    EdgeForwardStep,
    ExchangePhase,
    FusedScatterGatherStep,
    GatherByDstStep,
    GetFromDepNbrStep,
    InputRoute,
    LayerProgram,
    Program,
    ScatterToEdgeStep,
    VertexForwardStep,
    WorkerLayerProgram,
    compile_layers,
    compile_program,
)
from repro.execution.tp import (
    FeatureSliceAllToAllStep,
    build_tp_layer_program,
    slice_widths,
    tp_exchange_volumes,
)

__all__ = [
    "BACKWARD_MULTIPLIER",
    "HOST_MEMORY_BYTES",
    "ClosureMemo",
    "ComputeSpec",
    "EdgeForwardStep",
    "EnginePlan",
    "EpochReport",
    "ExchangePhase",
    "FeatureSliceAllToAllStep",
    "FusedScatterGatherStep",
    "GatherByDstStep",
    "GetFromDepNbrStep",
    "InputRoute",
    "LayerAccountant",
    "LayerExecutor",
    "LayerProgram",
    "PASS_REGISTRY",
    "Program",
    "ScatterToEdgeStep",
    "StalenessBoundedReader",
    "VertexForwardStep",
    "WorkerLayerProgram",
    "account_memory",
    "build_engine_plan",
    "build_historical_caches",
    "build_tp_layer_program",
    "compile_layers",
    "compile_program",
    "describe_program",
    "render_program",
    "run_closure_forward",
    "run_passes",
    "slice_widths",
    "tp_exchange_volumes",
]
