"""Heterogeneous GPU support — the paper's second future-work direction.

§6: "Adding heterogeneous GPU selection optimization by more fine-grained
profiling for clusters with various GPU generations."  This module adds:

* :class:`GPUType` — a GPU generation with a relative speed factor and
  device memory (Figure 1b's capability growth), plus presets spanning
  K80 → A100.
* :func:`build_heterogeneous_cluster` — clusters whose nodes carry
  different GPU generations (each node is homogeneous, as in real racks).
* :func:`find_consolidated_typed` — consolidated placement that ranks
  candidate nodes by generation speed, preferring fast GPUs for
  long/large jobs and slow ones for short jobs (Gavel-style throughput
  matching, simplified).

The engine honours per-GPU ``speed_factor``s: a job's execution speed is
scaled by the slowest device in its allocation, so placing a distributed
job across generations pays the straggler cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU
from repro.cluster.node import GPUS_PER_NODE, Node
from repro.cluster.placement import best_fit_single_node


@dataclass(frozen=True)
class GPUType:
    """One GPU generation.

    ``speed_factor`` is training throughput relative to the paper's RTX
    3090 testbed (1.0); memory in MB.
    """

    name: str
    speed_factor: float
    memory_mb: float

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")


#: Rough datacenter generations (Figure 1b).
K80 = GPUType("K80", speed_factor=0.25, memory_mb=12_288)
P100 = GPUType("P100", speed_factor=0.55, memory_mb=16_384)
V100 = GPUType("V100", speed_factor=0.85, memory_mb=32_768)
RTX3090 = GPUType("RTX3090", speed_factor=1.0, memory_mb=24_576)
A100 = GPUType("A100", speed_factor=1.7, memory_mb=40_960)

GPU_TYPES: Dict[str, GPUType] = {
    t.name: t for t in (K80, P100, V100, RTX3090, A100)
}


def build_heterogeneous_cluster(
        vc_layout: Dict[str, Sequence[Tuple[GPUType, int]]],
        gpus_per_node: int = GPUS_PER_NODE) -> Cluster:
    """Build a cluster whose VCs mix GPU generations.

    Parameters
    ----------
    vc_layout:
        Mapping of VC name to a list of ``(gpu_type, node_count)`` pairs.

    Each node is homogeneous in type; the type's speed factor and memory
    are stamped onto its GPU objects (``gpu.speed_factor``), which the
    simulation engine reads when computing job speeds.
    """
    # Caller-ordered mapping (see Cluster.__init__): the layout's insertion
    # order defines node ids, so both walks must preserve it, not sort it.
    counts = {vc: sum(n for _, n in racks)
              for vc, racks in vc_layout.items()}  # repro: noqa RPR003
    cluster = Cluster(counts, gpus_per_node=gpus_per_node)
    for vc, racks in vc_layout.items():  # repro: noqa RPR003
        nodes = iter(cluster.vc(vc).nodes)
        for gpu_type, node_count in racks:
            for _ in range(node_count):
                node = next(nodes)
                node.gpu_type = gpu_type  # type: ignore[attr-defined]
                for gpu in node.gpus:
                    gpu.speed_factor = gpu_type.speed_factor
                    gpu.memory_mb = gpu_type.memory_mb
    return cluster


def node_speed(node: Node) -> float:
    """Speed factor of a node (1.0 for untyped/homogeneous nodes)."""
    gpu_type = getattr(node, "gpu_type", None)
    return gpu_type.speed_factor if gpu_type is not None else 1.0


def allocation_speed(gpus: Sequence[GPU]) -> float:
    """Straggler-bound speed factor of an allocation."""
    return min((getattr(g, "speed_factor", 1.0) for g in gpus), default=1.0)


def find_consolidated_typed(cluster: Cluster, gpu_num: int,
                            vc: Optional[str] = None,
                            prefer_fast: bool = True,
                            min_memory_mb: float = 0.0
                            ) -> Optional[List[GPU]]:
    """Consolidated placement ranking nodes by GPU generation.

    ``prefer_fast=True`` visits fast generations first (long jobs extract
    the most value from them); ``False`` visits slow generations first,
    reserving fast silicon (short debugging jobs finish quickly anyway —
    the throughput-matching intuition of Gavel).  Within a speed tier the
    best-fit rule applies.  Multi-node requests stay within a single
    generation to avoid stragglers.
    """
    nodes = [n for n in cluster.nodes_of(vc)
             if not n.gpus or n.gpus[0].memory_mb >= min_memory_mb]
    tiers: Dict[float, List[Node]] = {}
    for node in nodes:
        tiers.setdefault(node_speed(node), []).append(node)
    ordered_speeds = sorted(tiers, reverse=prefer_fast)
    for speed in ordered_speeds:
        tier_nodes = tiers[speed]
        if gpu_num <= cluster.gpus_per_node:
            found = best_fit_single_node(tier_nodes, gpu_num)
            if found is not None:
                return found
            continue
        found = _multi_node_same_tier(tier_nodes, gpu_num,
                                      cluster.gpus_per_node)
        if found is not None:
            return found
    return None


def find_tolerant_placement(cluster: Cluster, gpu_num: int,
                            est_duration: float,
                            vc: Optional[str] = None,
                            min_memory_mb: float = 0.0,
                            max_extra_fraction: float = 0.5,
                            max_extra_seconds: float = 1800.0
                            ) -> Optional[List[GPU]]:
    """Fastest-free-tier placement with a slow-tier veto for long jobs.

    Work conservation says everyone should prefer the fastest *free*
    generation — idling an A100 to "save" it is never worth slowing a job
    down today.  The one exception is a long job facing only slow tiers:
    starting a 10-hour job on a K80 locks in ~30 extra hours, far worse
    than waiting minutes for fast silicon to free up.  So tiers are tried
    fast to slow, and a tier is *refused* (the job keeps waiting) when
    the extra runtime it implies — ``est / speed - est / best_speed`` —
    exceeds ``max(max_extra_fraction * est, max_extra_seconds)``.

    Short jobs tolerate every tier (their extra is bounded by the floor),
    so they spill onto old GPUs under contention; long jobs hold out for
    the fast racks.
    """
    if est_duration <= 0:
        raise ValueError("est_duration must be positive")
    nodes = [n for n in cluster.nodes_of(vc)
             if not n.gpus or n.gpus[0].memory_mb >= min_memory_mb]
    tiers: Dict[float, List[Node]] = {}
    for node in nodes:
        tiers.setdefault(node_speed(node), []).append(node)
    if not tiers:
        return None
    best_speed = max(tiers)
    budget = max(max_extra_fraction * est_duration, max_extra_seconds)

    def place_in(tier_nodes: List[Node]) -> Optional[List[GPU]]:
        if gpu_num <= cluster.gpus_per_node:
            return best_fit_single_node(tier_nodes, gpu_num)
        return _multi_node_same_tier(tier_nodes, gpu_num,
                                     cluster.gpus_per_node)

    for speed in sorted(tiers, reverse=True):
        extra = est_duration / speed - est_duration / best_speed
        if extra > budget:
            return None  # refuse slower tiers; keep waiting for fast ones
        found = place_in(tiers[speed])
        if found is not None:
            return found
    return None


def _multi_node_same_tier(nodes: Sequence[Node], gpu_num: int,
                          gpus_per_node: int) -> Optional[List[GPU]]:
    full, remainder = divmod(gpu_num, gpus_per_node)
    empty = [n for n in nodes if n.is_empty]
    if len(empty) < full:
        return None
    chosen: List[GPU] = []
    for node in empty[:full]:
        chosen.extend(node.gpus)
    if remainder == 0:
        return chosen
    used = {n.node_id for n in empty[:full]}
    rest = [n for n in nodes if n.node_id not in used]
    tail = best_fit_single_node(rest, remainder)
    if tail is None:
        return None
    return chosen + tail
