"""Value converters, the shared argument groups, and the run ``Setup``.

Every value kind is one argparse ``type=`` converter named after its
grammar: argparse turns a ``ValueError`` / ``TypeError`` raised inside
it into ``argument --flag: invalid <grammar> value: '...'`` and exit 2,
so no command body parses text.
"""

from __future__ import annotations

import functools

from repro.cache import CacheConfig
from repro.cli.base import UsageError, arg
from repro.cluster.spec import ClusterSpec
from repro.comm.scheduler import CommOptions
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.partition import get_partitioner
from repro.resilience import (
    LinkDegradationFault,
    MessageLossFault,
    StragglerFault,
    WorkerCrashFault,
)
from repro.serving import BurstPhase
from repro.training.prep import prepare_graph

SAMPLERS = ("uniform", "labor", "ladies")
SAMPLED_ENGINES = ("sampled", "distdgl")


# -- converters --------------------------------------------------------

def named(grammar: str):
    """Name a converter after the grammar argparse should quote."""
    def wrap(convert):
        convert.__name__ = grammar
        return convert
    return wrap


def csv(kind):
    """Converter for a comma-separated list of ``kind`` values."""
    @named(f"comma-separated {kind.__name__}")
    def convert(text):
        return tuple(kind(part.strip()) for part in text.split(","))
    return convert


@named("sampler")
def sampler(text):
    if text not in SAMPLERS:
        raise ValueError(text)
    return text


@named("non-negative integer")
def non_negative(text):
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


@named("FANOUT,...[;FANOUT,...]")
def fanout_groups(text):
    """``'10,25;5,10'`` -> ``((10, 25), (5, 10))``, seed layer first."""
    groups = tuple(csv(int)(group) for group in text.split(";") if group.strip())
    if not groups:
        raise ValueError(text)
    return groups


def _endpoint(token):
    return None if token in ("*", "") else int(token)


def _truthy(token):
    return token.lower() in ("1", "true", "yes", "perm", "permanent")


def spec(grammar: str, build, **fields):
    """Converter for a colon-separated spec.  ``fields`` maps ``build``'s
    keywords, in grammar order, to a type or ``(type, default)``: a
    field without a default is required, an empty or omitted optional
    one takes its default."""
    @named(grammar)
    def convert(text):
        tokens = text.split(":")
        if len(tokens) > len(fields):
            raise ValueError(text)
        tokens += [""] * (len(fields) - len(tokens))
        kwargs = {}
        for (name, kind), token in zip(fields.items(), tokens):
            kind, *default = kind if isinstance(kind, tuple) else (kind,)
            kwargs[name] = kind(token) if token or not default else default[0]
        return build(**kwargs)
    return convert


def _replica(fault_cls, **fixed):
    """Replica-level faults hit every worker of the group, whose size is
    another flag: convert to ``(replica, fault-maker)`` and let ``fleet``
    call the maker once per worker."""
    def build(replica, **kwargs):
        return replica, functools.partial(fault_cls, **kwargs, **fixed)
    return build


INF = float("inf")
straggler = spec(
    "WORKER:GPU_FACTOR[:CPU_FACTOR[:START[:END]]]", StragglerFault,
    worker=int, gpu_factor=(float, 4.0), cpu_factor=(float, None),
    start=(float, 0.0), end=(float, INF),
)
degrade = spec(
    "SRC:DST:FACTOR[:EXTRA_LATENCY_S]", LinkDegradationFault,
    src=_endpoint, dst=_endpoint, bandwidth_factor=float,
    extra_latency_s=(float, 0.0),
)
loss = spec(
    "FRACTION[:SRC[:DST]]", MessageLossFault,
    drop_fraction=float, src=(_endpoint, None), dst=(_endpoint, None),
)
crash = spec(
    "WORKER:TIME[:DETECTION_TIMEOUT_S[:PERMANENT]]", WorkerCrashFault,
    worker=int, at_time=float, detection_timeout_s=(float, 0.05),
    permanent=(_truthy, False),
)
burst = spec(
    "START:END[:MULTIPLIER]", BurstPhase,
    start_s=float, end_s=float, rate_multiplier=(float, 4.0),
)
crash_replica = spec(
    "REPLICA:TIME[:TIMEOUT]", _replica(WorkerCrashFault, permanent=True),
    replica=int, at_time=float, detection_timeout_s=(float, 0.05),
)
straggle_replica = spec(
    "REPLICA:GPU_FACTOR[:START[:END]]", _replica(StragglerFault),
    replica=int, gpu_factor=float, start=(float, 0.0), end=(float, INF),
)


# -- argument groups ---------------------------------------------------

MODEL = (
    arg("--dataset", required=True,
        help="catalog dataset name (see `datasets`)"),
    arg("--arch", choices=["gcn", "gin", "gat", "sage"], default="gcn"),
    arg("--hidden", type=int, default=None,
        help="hidden width (default: the dataset's Table-2 value)"),
    arg("--layers", type=int, default=2),
    arg("--scale", type=float, default=1.0,
        help="dataset scale factor (default %(default)s)"),
    arg("--seed", type=int, default=0),
)

CLUSTER = (
    arg("--nodes", type=int, default=8,
        help="number of simulated workers (default %(default)s)"),
    arg("--cluster", choices=["ecs", "ibv", "cpu"], default="ecs",
        help="hardware profile (default %(default)s)"),
)

SAMPLING = (
    arg("--sampler", default="uniform", choices=list(SAMPLERS),
        help="mini-batch sampler for --engine sampled (default %(default)s)"),
    arg("--fanouts", type=fanout_groups, default=None,
        help="comma-separated per-layer fanouts, seed layer first, e.g. "
             "'10,25' (default: the engine's)"),
    arg("--kappa", type=non_negative, default=1,
        help="batch dependency: consecutive rounds that share their "
             "random draws (default 1 = independent rounds; 0 means 1)"),
    arg("--batch-size", type=int, default=None,
        help="mini-batch seed count (default 128)"),
)

CACHE = (
    arg("--tau", type=float, default=None,
        help="staleness bound for the historical-embedding cache in epochs "
             "('inf' allowed); omit for no cache"),
    arg("--cache-mb", type=float, default=None,
        help="cache capacity cap in MB (default unbounded); a sampled "
             "engine pins this many MB of remote feature rows"),
)

FAULT_SEED = arg("--fault-seed", type=int, default=0,
                 help="seed for message-loss draws")

FAULTS = (
    arg("--straggler", action="append", type=straggler, metavar="SPEC",
        help=straggler.__name__),
    arg("--degrade", action="append", type=degrade, metavar="SPEC",
        help=degrade.__name__ + "; '*' matches any endpoint"),
    arg("--loss", action="append", type=loss, metavar="SPEC",
        help=loss.__name__ + " of sends dropped"),
    FAULT_SEED,
)

CRASHES = arg(
    "--crash", action="append", type=crash, metavar="SPEC",
    help=crash.__name__ + "; a truthy 4th field marks the worker as gone for good "
         "(serving degrades around a dead worker)",
)

PARTITIONER = arg("--partitioner", default="chunk",
                  choices=["chunk", "hash", "fennel", "metis"])

JSON = arg("--json", default=None,
           help="write the command's result dictionary to this JSON file")


def workload(requests, rate, zipf):
    return (
        arg("--requests", type=int, default=requests,
            help="number of requests to generate (default %(default)s)"),
        arg("--rate", type=float, default=rate,
            help="mean arrival rate in requests/s (default %(default)s)"),
        arg("--zipf", type=float, default=zipf,
            help="Zipf popularity exponent; 0 = uniform"),
        arg("--workload-seed", type=int, default=0),
    )


def serving(max_batch):
    return (
        PARTITIONER,
        arg("--batch-window", type=float, default=0.002,
            help="micro-batch window in seconds (default 2 ms)"),
        arg("--max-batch", type=int, default=max_batch),
    )


LIVE_SERVING = (
    arg("--checkpoint", default=None,
        help="load model weights from this .npz before serving"),
    arg("--train-epochs", type=int, default=0,
        help="quick-train this many epochs before serving (ignored with "
             "--checkpoint)"),
    arg("--burst", action="append", type=burst, metavar="SPEC",
        help=burst.__name__ + " arrival-rate burst window"),
    arg("--tau-s", type=float, default=0.0,
        help="staleness bound for served embeddings in seconds (0 = always "
             "recompute)"),
    arg("--serve-mode", default="auto", choices=["auto", "local", "remote"],
        help="force local recompute / remote fetch, or let the planner "
             "pick per batch (default auto)"),
    arg("--max-pending", type=int, default=None,
        help="shed requests arriving over this backlog"),
    arg("--trace", default=None,
        help="write a chrome trace of the serving timeline (replica 0's "
             "for a fleet)"),
)


# -- what the shared flags build ---------------------------------------

def cluster_of(args) -> ClusterSpec:
    profile = {"ecs": ClusterSpec.ecs, "ibv": ClusterSpec.ibv,
               "cpu": ClusterSpec.cpu}[args.cluster]
    return profile(args.nodes)


class Setup:
    """Graph, fresh-model factory, cluster, engines, partitioning and
    faults, built one way from the MODEL / CLUSTER / SAMPLING / CACHE /
    FAULTS flags a command registers."""

    def __init__(self, args):
        self.args = args
        try:
            graph = load_dataset(args.dataset, scale=args.scale)
        except ValueError as err:
            raise UsageError(f"argument --scale: {err}") from None
        self.graph = prepare_graph(graph, args.arch)
        self.hidden = args.hidden or spec_of(args.dataset).hidden_dim
        self.cluster = cluster_of(args)

    def model(self) -> GNNModel:
        """A fresh model per call, always from the same ``--seed``."""
        args, graph = self.args, self.graph
        return GNNModel.build(
            args.arch, graph.feature_dim, self.hidden, graph.num_classes,
            num_layers=args.layers, seed=args.seed,
        )

    def cache_config(self):
        """The CACHE flags as a full-batch engine's CacheConfig (None =
        no cache)."""
        args = self.args
        if getattr(args, "tau", None) is None:
            return None
        capacity = None
        if args.cache_mb is not None:
            capacity = int(args.cache_mb * 1024 * 1024)
        return CacheConfig(tau=args.tau, capacity_bytes=capacity)

    def sampling(self, engine_name: str) -> dict:
        """The SAMPLING flags (and ``--cache-mb``, the feature cache's
        size) a sampled engine takes (else nothing)."""
        if engine_name not in SAMPLED_ENGINES:
            return {}
        args = self.args
        extra = {"kappa": args.kappa}
        if args.fanouts:
            extra["fanouts"] = args.fanouts[0]
        if args.batch_size is not None:
            extra["batch_size"] = args.batch_size
        if getattr(args, "cache_mb", None) is not None:
            extra["feature_cache_bytes"] = int(args.cache_mb * 1024 * 1024)
        # DistDGL samples uniformly; only `sampled` takes --sampler.
        if engine_name == "sampled":
            extra["sampler"] = args.sampler
        return extra

    def engine(self, name: str):
        if name in SAMPLED_ENGINES and getattr(self.args, "tau", None) is not None:
            raise UsageError(
                f"argument --tau: the {name} engine has no historical "
                "embedding cache (--cache-mb sizes its feature cache)"
            )
        kwargs = (self.sampling(name) if name in SAMPLED_ENGINES
                  else {"cache_config": self.cache_config()})
        return make_engine(
            name, self.graph, self.model(), self.cluster,
            comm=CommOptions.all(), **kwargs,
        )

    def partitioning(self):
        return get_partitioner(self.args.partitioner)(self.graph, self.args.nodes)

    def faults(self, required: bool) -> list:
        """The fault objects of the FAULTS (+ CRASHES) flags."""
        args = self.args
        flags = [
            flag for flag in ("straggler", "degrade", "loss", "crash")
            if hasattr(args, flag)
        ]
        faults = [f for flag in flags for f in getattr(args, flag) or []]
        if required and not faults:
            raise SystemExit(
                "chaos needs at least one fault ("
                + " / ".join(f"--{flag}" for flag in flags) + ")"
            )
        return faults
