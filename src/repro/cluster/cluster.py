"""Cluster and virtual-cluster (VC) models.

Production DL clusters are partitioned into virtual clusters dedicated to
different product groups (§2.1).  Jobs are scheduled within their VC;
Lucid's Time-aware Scaling may temporarily *loan* nodes from idle VCs to
the profiling cluster, which is modelled by the separate profiler capacity
in :mod:`repro.core.profiler`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.cluster.gpu import GPU
from repro.cluster.node import GPUS_PER_NODE, Node, count_free_gpus
from repro.workloads.model_zoo import GPU_MEMORY_MB


class VirtualCluster:
    """A named partition of the cluster's nodes."""

    def __init__(self, name: str, nodes: Sequence[Node]) -> None:
        self.name = name
        self.nodes: List[Node] = list(nodes)

    @property
    def n_gpus(self) -> int:
        return sum(n.n_gpus for n in self.nodes)

    @property
    def n_free_gpus(self) -> int:
        return sum(n.n_free_gpus for n in self.nodes)

    @property
    def gpus(self) -> List[GPU]:
        return [g for node in self.nodes for g in node.gpus]

    def utilization(self) -> float:
        """Fraction of GPUs hosting at least one job."""
        total = self.n_gpus
        if total == 0:
            return 0.0
        return 1.0 - self.n_free_gpus / total

    def __repr__(self) -> str:
        return (f"VirtualCluster(name={self.name!r}, nodes={len(self.nodes)}, "
                f"free={self.n_free_gpus}/{self.n_gpus})")


class Cluster:
    """A multi-VC GPU cluster.

    Parameters
    ----------
    vc_nodes:
        Mapping of VC name to number of nodes in that VC.
    gpus_per_node:
        GPU devices per server.
    gpu_memory_mb:
        Device memory per GPU.
    """

    def __init__(self, vc_nodes: Dict[str, int],
                 gpus_per_node: int = GPUS_PER_NODE,
                 gpu_memory_mb: float = GPU_MEMORY_MB) -> None:
        if not vc_nodes:
            raise ValueError("cluster needs at least one VC")
        self.gpus_per_node = gpus_per_node
        self.gpu_memory_mb = gpu_memory_mb
        self.nodes: List[Node] = []
        self.vcs: Dict[str, VirtualCluster] = {}
        self._gpu_index: Dict[int, GPU] = {}
        self._node_index: Dict[int, Node] = {}
        node_id = 0
        gpu_id = 0
        # Caller-ordered mapping: VC -> node-id assignment deliberately
        # follows the insertion order the caller chose (dicts preserve it
        # deterministically); sorting here would silently relabel nodes.
        for vc_name, count in vc_nodes.items():  # repro: noqa RPR003
            if count <= 0:
                raise ValueError(f"VC {vc_name!r} must have >= 1 node")
            members: List[Node] = []
            for _ in range(count):
                node = Node(node_id, vc_name, gpus_per_node, gpu_id,
                            gpu_memory_mb)
                members.append(node)
                self.nodes.append(node)
                for gpu in node.gpus:
                    self._gpu_index[gpu.gpu_id] = gpu
                self._node_index[node.node_id] = node
                node_id += 1
                gpu_id += gpus_per_node
            self.vcs[vc_name] = VirtualCluster(vc_name, members)
        self._recount()

    #: Occupancy counters and change epochs: derived, so never pickled
    #: (see ``_recount``).
    _DERIVED = ("n_busy_gpus", "n_shared_gpus", "_memory_used",
                "vc_epochs")

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._recount()

    def _recount(self) -> None:
        """Link nodes and GPUs to this cluster and install a fresh
        :func:`rescan_occupancy` as every occupancy counter.

        From here on ``GPU.attach`` / ``GPU.detach`` and
        ``Node.set_health`` keep the counters current.  The change
        epochs restart at zero.
        """
        counts = rescan_occupancy(self.nodes)
        slot = 0
        for node, n_free in zip(self.nodes, counts.n_free):
            node._cluster = self
            node.n_free_gpus = n_free
            for gpu in node.gpus:
                gpu._node = node
                gpu._slot = slot
                gpu.n_residents = counts.n_residents[slot]
                gpu.memory_used_mb = counts.memory_used[slot]
                slot += 1
        #: GPUs hosting at least one / at least two jobs.
        self.n_busy_gpus = counts.busy
        self.n_shared_gpus = counts.shared
        #: Per-GPU reserved memory in node-then-GPU order, so one flat
        #: ``sum`` adds the same floats in the same order as a rescan.
        self._memory_used = counts.memory_used
        #: Per-VC change epoch: rises on every attach, detach, health
        #: flip and straggler-window edge of the VC's GPUs.  Equal epochs
        #: at two instants mean the VC's placement state is unchanged;
        #: the serve digest cache keys each node's GPU rows on it.
        self.vc_epochs: Dict[str, int] = dict.fromkeys(self.vcs, 0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(cls, n_nodes: int, vc_name: str = "default",
                    gpus_per_node: int = GPUS_PER_NODE) -> "Cluster":
        """Single-VC cluster of ``n_nodes`` identical servers."""
        return cls({vc_name: n_nodes}, gpus_per_node=gpus_per_node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return len(self._gpu_index)

    @property
    def n_free_gpus(self) -> int:
        return sum(n.n_free_gpus for n in self.nodes)

    @property
    def gpus(self) -> List[GPU]:
        return list(self._gpu_index.values())

    def gpu(self, gpu_id: int) -> GPU:
        """Look up a GPU by global id."""
        return self._gpu_index[gpu_id]

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        return self._node_index[node_id]

    def vc(self, name: str) -> VirtualCluster:
        try:
            return self.vcs[name]
        except KeyError:
            raise KeyError(f"unknown VC {name!r}; known: {sorted(self.vcs)}") from None

    def nodes_of(self, vc: Optional[str]) -> List[Node]:
        """Nodes of one VC, or all nodes when ``vc`` is ``None``."""
        if vc is None:
            return self.nodes
        return self.vc(vc).nodes

    def active_gpu_fraction(self) -> float:
        """Fraction of GPUs with at least one resident job."""
        if not self._gpu_index:
            return 0.0
        return self.n_busy_gpus / len(self._gpu_index)

    def shared_gpu_fraction(self) -> float:
        """Fraction of GPUs hosting two packed jobs."""
        if not self._gpu_index:
            return 0.0
        return self.n_shared_gpus / len(self._gpu_index)

    def memory_capacity_mb(self) -> float:
        """Total GPU memory, summed in node-then-GPU order.

        Read on demand: heterogeneous builds rewrite ``gpu.memory_mb``
        after construction (:mod:`repro.cluster.hetero`).
        """
        return sum(g.memory_mb for node in self.nodes for g in node.gpus)

    def memory_used_mb(self) -> float:
        """Reserved GPU memory: one flat sum in node-then-GPU order."""
        return sum(self._memory_used)

    def memory_used_fraction(self) -> float:
        """Cluster-wide GPU memory occupancy."""
        total = self.memory_capacity_mb()
        return self.memory_used_mb() / total if total else 0.0

    def __repr__(self) -> str:
        return (f"Cluster(vcs={len(self.vcs)}, nodes={len(self.nodes)}, "
                f"gpus={self.n_gpus}, free={self.n_free_gpus})")


class OccupancyCounts(NamedTuple):
    """Every occupancy counter of a set of nodes (node-then-GPU order)."""

    n_residents: List[int]   #: per GPU
    memory_used: List[float]  #: per GPU, MB
    n_free: List[int]        #: per node: healthy GPUs with no resident
    busy: int                #: GPUs hosting at least one job
    shared: int              #: GPUs hosting two or more jobs


def rescan_occupancy(nodes: Sequence[Node]) -> OccupancyCounts:
    """Recount every occupancy counter from GPU residency and health.

    The single recount: a :class:`Cluster` installs it when built and
    when unpickled, and :class:`~repro.checks.sanitizer.SimSanitizer`
    compares the incrementally kept counters against it.
    """
    gpus = [g for node in nodes for g in node.gpus]
    n_residents = [len(g._residents) for g in gpus]
    return OccupancyCounts(
        n_residents=n_residents,
        memory_used=[sum(g._residents.values()) for g in gpus],
        n_free=[count_free_gpus(node) for node in nodes],
        busy=sum(1 for n in n_residents if n),
        shared=sum(1 for n in n_residents if n > 1))


def make_vc_names(count: int, prefix: str = "vc") -> List[str]:
    """Generate readable VC names, e.g. ``vc01 .. vc15``."""
    width = max(2, len(str(count)))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(count)]
