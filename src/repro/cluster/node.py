"""Compute node model (8-GPU servers, mirroring the paper's testbed)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cluster.gpu import GPU
from repro.workloads.model_zoo import GPU_MEMORY_MB

if TYPE_CHECKING:  # pragma: no cover - cluster.py imports this module
    from repro.cluster.cluster import Cluster

#: GPUs per server on the testbed and in the simulated clusters.
GPUS_PER_NODE = 8
#: CPU threads per server (dual-socket Xeon Gold 6326).
CPUS_PER_NODE = 64

#: Slots a pickle carries (``n_free_gpus`` and the owner link are derived).
_STATE_SLOTS = ("node_id", "vc", "gpus", "cpus", "cpus_used", "gpu_type",
                "healthy")


class Node:
    """One multi-GPU server.

    Parameters
    ----------
    node_id:
        Globally unique node index.
    vc:
        Name of the virtual cluster this node belongs to.
    n_gpus:
        Number of GPU devices installed.
    first_gpu_id:
        Global id of this node's first GPU (ids are contiguous per node).
    """

    __slots__ = _STATE_SLOTS + ("n_free_gpus", "_cluster")

    def __init__(self, node_id: int, vc: str, n_gpus: int = GPUS_PER_NODE,
                 first_gpu_id: int = 0,
                 gpu_memory_mb: float = GPU_MEMORY_MB) -> None:
        self.node_id = node_id
        self.vc = vc
        self.gpus: List[GPU] = [
            GPU(first_gpu_id + i, node_id, gpu_memory_mb) for i in range(n_gpus)
        ]
        self.cpus = CPUS_PER_NODE
        self.cpus_used = 0
        #: Optional GPU generation marker (repro.cluster.hetero).
        self.gpu_type = None
        #: Fault-injection state (repro.faults): a failed node accepts no
        #: placements until its NODE_RECOVER event fires.  Flip it with
        #: :meth:`set_health`, never by assignment.
        self.healthy = True
        #: Owning cluster, whose counters this node's GPUs update.
        self._cluster: Optional["Cluster"] = None
        for gpu in self.gpus:
            gpu._node = self
        #: Healthy GPUs with no resident job, kept by ``GPU.attach`` /
        #: ``GPU.detach`` and :meth:`set_health`.
        self.n_free_gpus = count_free_gpus(self)

    def __getstate__(self):
        # The owning cluster relinks and recounts on unpickling.
        return None, {name: getattr(self, name) for name in _STATE_SLOTS}

    def set_health(self, healthy: bool) -> None:
        """Fail or recover the node and all its GPUs (fault injection)."""
        self.healthy = healthy
        for gpu in self.gpus:
            gpu.healthy = healthy
        self.n_free_gpus = count_free_gpus(self)
        self._changed()

    def set_slow(self, factor: float) -> None:
        """Start (``factor`` < 1) or end (``1.0``) a straggler window on
        all the node's GPUs (fault injection)."""
        for gpu in self.gpus:
            gpu.fault_slow = factor
        self._changed()

    def _changed(self) -> None:
        if self._cluster is not None:
            self._cluster.vc_epochs[self.vc] += 1

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def free_gpus(self) -> List[GPU]:
        """Healthy GPUs with no resident job."""
        return [g for g in self.gpus if not g.n_residents and g.healthy]

    @property
    def is_empty(self) -> bool:
        return not any(g.n_residents for g in self.gpus)

    @property
    def busy_gpus(self) -> List[GPU]:
        """GPUs hosting at least one job."""
        return [g for g in self.gpus if not g.is_free]

    def shareable_gpus(self, memory_mb: float) -> List[GPU]:
        """Occupied GPUs that could additionally host the given footprint.

        ``can_host`` already excludes unhealthy devices.
        """
        return [g for g in self.gpus if not g.is_free and g.can_host(memory_mb)]

    def __repr__(self) -> str:
        return (f"Node(id={self.node_id}, vc={self.vc!r}, "
                f"free={self.n_free_gpus}/{self.n_gpus})")


def count_free_gpus(node: Node) -> int:
    """Rescan of ``node.n_free_gpus`` from GPU residency and health."""
    return sum(1 for g in node.gpus if not g._residents and g.healthy)
