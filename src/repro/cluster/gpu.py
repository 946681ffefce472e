"""GPU device model.

A GPU can host at most :data:`MAX_RESIDENTS` jobs simultaneously (the paper
packs at most two jobs per GPU set — rule 3 of Indolent Packing) and tracks
device-memory reservations so the simulator can enforce the hard
out-of-memory limit (rule 1).

:meth:`GPU.attach` and :meth:`GPU.detach` are the only writers of a
device's residents, so they also keep every occupancy counter derived
from them — the device's own ``n_residents`` / ``memory_used_mb``, its
node's and cluster's counts and its VC's change epoch (see
:mod:`repro.cluster.cluster`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.workloads.model_zoo import GPU_MEMORY_MB

if TYPE_CHECKING:  # pragma: no cover - node.py imports this module
    from repro.cluster.node import Node

#: Maximum number of jobs that may share one GPU.
MAX_RESIDENTS = 2

#: Slots a pickle carries; the occupancy counters and owner links are
#: derived, so the owning cluster recounts them when it is unpickled.
_STATE_SLOTS = ("gpu_id", "node_id", "memory_mb", "speed_factor",
                "healthy", "fault_slow", "_residents")


class GPU:
    """One physical GPU device.

    Parameters
    ----------
    gpu_id:
        Globally unique device index.
    node_id:
        Index of the hosting node.
    memory_mb:
        Device memory capacity in MB.
    """

    __slots__ = _STATE_SLOTS + ("n_residents", "memory_used_mb", "_node",
                                "_slot")

    def __init__(self, gpu_id: int, node_id: int,
                 memory_mb: float = GPU_MEMORY_MB,
                 speed_factor: float = 1.0) -> None:
        self.gpu_id = gpu_id
        self.node_id = node_id
        self.memory_mb = memory_mb
        #: Relative throughput of this device's generation (1.0 = the
        #: paper's RTX 3090 testbed); see repro.cluster.hetero.
        self.speed_factor = speed_factor
        #: Fault-injection state (repro.faults): an unhealthy device hosts
        #: nothing; ``fault_slow`` < 1 marks a transient straggler window.
        #: Both change only through :meth:`Node.set_health` and
        #: :meth:`Node.set_slow`, which keep the node's free-GPU count
        #: and the VC's change epoch.
        self.healthy = True
        self.fault_slow = 1.0
        self._residents: Dict[int, float] = {}  # job_id -> reserved MB
        #: Number of resident jobs and the sum of their reservations,
        #: kept by :meth:`attach` / :meth:`detach`.
        self.n_residents = 0
        self.memory_used_mb: float = 0
        #: Owning node (``None`` for a standalone device) and this
        #: device's index in its cluster's node-then-GPU order.
        self._node: Optional["Node"] = None
        self._slot = 0

    def __getstate__(self):
        # The owning cluster relinks and recounts on unpickling.
        return None, {name: getattr(self, name) for name in _STATE_SLOTS}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def residents(self) -> List[int]:
        """Job ids currently resident on this device."""
        return list(self._residents)

    @property
    def is_free(self) -> bool:
        return not self.n_residents

    @property
    def is_shared(self) -> bool:
        return self.n_residents > 1

    @property
    def memory_free_mb(self) -> float:
        return self.memory_mb - self.memory_used_mb

    def hosts(self, job_id: int) -> bool:
        return job_id in self._residents

    def can_host(self, memory_mb: float) -> bool:
        """Whether another job with the given footprint may join."""
        return (self.healthy
                and self.n_residents < MAX_RESIDENTS
                and memory_mb <= self.memory_free_mb)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def attach(self, job_id: int, memory_mb: float) -> None:
        """Place a job on this device, reserving memory.

        Raises
        ------
        RuntimeError
            If the device is full, the job is already resident, or the
            reservation would exceed device memory.
        """
        if job_id in self._residents:
            raise RuntimeError(f"job {job_id} already on GPU {self.gpu_id}")
        if self.n_residents >= MAX_RESIDENTS:
            raise RuntimeError(f"GPU {self.gpu_id} is full")
        if memory_mb > self.memory_free_mb:
            raise RuntimeError(
                f"GPU {self.gpu_id}: OOM attaching job {job_id} "
                f"({memory_mb:.0f} MB > {self.memory_free_mb:.0f} MB free)")
        self._residents[job_id] = memory_mb
        self._account()

    def detach(self, job_id: int) -> None:
        """Remove a job from this device, releasing its memory."""
        try:
            del self._residents[job_id]
        except KeyError:
            raise RuntimeError(
                f"job {job_id} is not resident on GPU {self.gpu_id}") from None
        self._account()

    def _account(self) -> None:
        """Fold one attach or detach into every counter derived from the
        residents: this device's, its node's free count and its
        cluster's busy / shared / memory-used tallies and VC epoch."""
        was = self.n_residents
        now = self.n_residents = len(self._residents)
        # Exactly the rescan's formula, so the cached float is identical.
        used = self.memory_used_mb = sum(self._residents.values())
        node = self._node
        if node is None:
            return
        step = (now > 0) - (was > 0)  # +1 free -> busy, -1 busy -> free
        if step and self.healthy:
            node.n_free_gpus -= step
        cluster = node._cluster
        if cluster is not None:
            cluster.n_busy_gpus += step
            cluster.n_shared_gpus += (now > 1) - (was > 1)
            cluster._memory_used[self._slot] = used
            cluster.vc_epochs[node.vc] += 1

    def __repr__(self) -> str:
        return (f"GPU(id={self.gpu_id}, node={self.node_id}, "
                f"residents={sorted(self._residents)})")
