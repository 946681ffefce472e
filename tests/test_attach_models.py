"""Pinned models that ``LucidScheduler.attach`` trains.

The job-name clusters of the Workload Estimate Model and the Packing
Analyze Model's decision tree are pinned against values recorded before
the batched edit-distance kernel and the memoized workload profiles
existed: a speed-up of either must leave every cluster id and every tree
prediction unchanged.  SATURN's history has 701 unique name stems, so
301 of them go through the nearest-exemplar path; PHILLY's 399 all fit
under the 400-name cap.

The GA²M fits are pinned too, as a hash of every edge and score:
the Workload Estimate Model's fit and its refit from the accumulated
rows (recorded when a refit still round-tripped each row through a
``JobRecord``, which resets ``amp`` to the profile's), and the
Throughput Predict Model's fit.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import WorkloadEstimateModel, _name_stem
from repro.core.packing_model import PackingAnalyzeModel
from repro.core.throughput import ThroughputPredictModel
from repro.models.text import (
    cluster_job_names,
    levenshtein,
    levenshtein_distance_matrix,
)
from repro.traces.generator import TraceGenerator
from repro.traces.spec import PHILLY, SATURN, VENUS
from repro.workloads import InterferenceModel, all_configurations, get_profile
from repro.workloads.job import JobRecord

#: Per preset: unique stems, clusters, sha256 of the sorted name->id map.
CLUSTERS = {
    "venus": (VENUS, 443, 22, "7fa0a8515b8a728d"),
    "saturn": (SATURN, 701, 18, "ebc0fafb99bed704"),
    "philly": (PHILLY, 399, 24, "a2f66a437ebe2c87"),
}

PACKING_ACCURACY = "0x1.fe0f83e0f83e1p-1"
#: Sharing-score class per configuration of ``all_configurations()``.
PACKING_PREDICTIONS = (
    "212222111121111111111111111111111"
    "111112122000000211111110000001010")


def _reference_distance(a: str, b: str) -> int:
    """Textbook edit distance over UTF-8 bytes, one cell at a time."""
    x, y = a.encode("utf-8"), b.encode("utf-8")
    row = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        prev, row[0] = row[0], i
        for j, cy in enumerate(y, start=1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                       prev + (cx != cy))
    return row[-1]


@pytest.mark.parametrize("preset", sorted(CLUSTERS))
def test_name_clusters_are_pinned(preset):
    spec, n_unique, n_clusters, digest = CLUSTERS[preset]
    stems = [_name_stem(job.name)
             for job in TraceGenerator(spec).generate_history()]
    mapping = cluster_job_names(stems)
    assert len(mapping) == n_unique
    assert len(set(mapping.values())) == n_clusters
    encoded = json.dumps(sorted(mapping.items())).encode()
    assert hashlib.sha256(encoded).hexdigest()[:16] == digest


def test_packing_tree_is_pinned():
    model = PackingAnalyzeModel().fit(InterferenceModel())
    assert model.train_accuracy_.hex() == PACKING_ACCURACY
    features = np.array([get_profile(c).as_features()
                         for c in all_configurations()])
    predicted = "".join(str(int(label))
                        for label in model.tree_.predict(features))
    assert predicted == PACKING_PREDICTIONS


#: sha256 prefixes of the GA²M fits (see :func:`_gam_digest`).
GAM_FITS = {"estimator": "4c4e2235c8ed40be",
            "estimator_refit": "2cd5d15314fc0ed1",
            "throughput": "4b1ecdf7d4afcbc1"}


def _gam_digest(gam) -> str:
    digest = hashlib.sha256(gam.intercept_.hex().encode())
    for shape in gam.shapes_:
        digest.update(shape.bin_edges.tobytes())
        digest.update(shape.values.tobytes())
    for fn in gam.interactions_:
        digest.update(repr(fn.features).encode())
        for edges in fn.bin_edges:
            digest.update(edges.tobytes())
        digest.update(fn.values.tobytes())
    return digest.hexdigest()[:16]


def test_gam_fits_are_pinned():
    generator = TraceGenerator(VENUS)
    history = generator.generate_history()
    jobs = generator.generate()
    for job in history[::7]:
        job.amp = not job.profile.amp  # a refit resets these to the profile
    estimator = WorkloadEstimateModel(random_state=7).fit(history)
    assert _gam_digest(estimator._model) == GAM_FITS["estimator"]
    for job in jobs[:600]:
        estimator.update(JobRecord(
            job_id=job.job_id, name=job.name, user=job.user, vc=job.vc,
            submit_time=job.submit_time, duration=job.duration,
            gpu_num=job.gpu_num, jct=job.duration, queue_delay=0.0,
            preemptions=0, finished_in_profiler=False, profile=job.profile))
    estimator.refit()
    assert _gam_digest(estimator._model) == GAM_FITS["estimator_refit"]
    throughput = ThroughputPredictModel(random_state=7).fit_events(
        [job.submit_time for job in history])
    assert _gam_digest(throughput._model) == GAM_FITS["throughput"]


def test_profiles_are_computed_once():
    config = all_configurations()[0]
    assert get_profile(config) is get_profile(config)


def test_empty_string_distance_counts_bytes():
    assert levenshtein("", "é-ü") == 5
    assert levenshtein("é-ü", "") == 5
    assert levenshtein_distance_matrix(["", "é-ü"])[0, 1] == 5


_text = st.text(alphabet=st.sampled_from("ab-0éü中"), max_size=9)


@given(st.lists(_text, max_size=7), st.lists(_text, max_size=5))
@settings(max_examples=60, deadline=None)
def test_matrices_equal_pairwise_distances(names, others):
    square = levenshtein_distance_matrix(names)
    assert square.shape == (len(names), len(names))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert square[i, j] == _reference_distance(a, b)
    rect = levenshtein_distance_matrix(names, others)
    assert rect.shape == (len(names), len(others))
    for i, a in enumerate(names):
        for j, b in enumerate(others):
            assert rect[i, j] == levenshtein(a, b) \
                == _reference_distance(a, b)
