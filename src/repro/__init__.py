"""repro — reproduction of Lucid (ASPLOS '23).

A from-scratch Python implementation of the Lucid non-intrusive DL-cluster
scheduler, its substrates (cluster/workload/trace models, a discrete-event
simulator, an interpretable-model toolkit), the baselines it is compared
against, and a benchmark harness regenerating every table and figure of
the paper's evaluation.

Quickstart::

    from repro import quick_simulation
    result = quick_simulation("venus", scheduler="lucid", n_jobs=500)
    print(result.summary())
"""

from repro.core import LucidConfig, LucidScheduler
from repro.core.factory import make_scheduler
from repro.faults import FaultInjector, FaultSpec, FaultSpecError, RetryPolicy
from repro.sim import SimulationError, SimulationResult, Simulator
from repro.traces import PHILLY, SATURN, VENUS, TraceGenerator, TraceSpec, get_spec
from repro.workloads import InterferenceModel, Job

__version__ = "1.0.0"

__all__ = [
    "LucidConfig",
    "LucidScheduler",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "RetryPolicy",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "TraceGenerator",
    "TraceSpec",
    "VENUS",
    "SATURN",
    "PHILLY",
    "get_spec",
    "InterferenceModel",
    "Job",
    "quick_simulation",
    "make_scheduler",
]


def quick_simulation(trace="venus", scheduler="lucid", n_jobs=None,
                     seed=None, faults=None, observers=(),
                     **scheduler_kwargs):
    """Generate a trace, run one scheduler over it, return the results.

    ``observers`` forward to :class:`~repro.sim.engine.Simulator`: e.g.
    a :class:`repro.obs.RingBufferTracer` to collect structured events,
    a :class:`repro.obs.LineageCollector` to build the causal DAG behind
    ``repro why``, a :class:`repro.obs.SimProfiler` or a
    :class:`repro.obs.SeriesCollector`.  Pass a
    :class:`repro.faults.FaultSpec` (or a spec string accepted by
    ``FaultSpec.parse``) as ``faults`` to inject failures.
    """
    spec = get_spec(trace)
    if n_jobs is not None:
        spec = spec.with_jobs(n_jobs)
    if seed is not None:
        spec = spec.with_seed(seed)
    if isinstance(faults, str):
        faults = FaultSpec.parse(faults)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    sched = make_scheduler(scheduler, history, **scheduler_kwargs)
    return Simulator(cluster, jobs, sched, faults=faults,
                     observers=observers).run()
