"""Tests for the Workload Estimate Model (§3.5.3)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import (
    WorkloadEstimateModel,
    _HistoryRow,
    _name_stem,
)
from repro.models.metrics import r2_score
from repro.traces import TraceGenerator, VENUS

from conftest import make_job


@pytest.fixture(scope="module")
def venus_data():
    gen = TraceGenerator(VENUS.with_jobs(600))
    history = gen.generate_history(1.0)
    jobs = gen.generate()
    for job in jobs:
        job.measured_profile = job.profile
    return history, jobs


@pytest.fixture(scope="module")
def model(venus_data):
    history, _ = venus_data
    return WorkloadEstimateModel(random_state=0).fit(history)


class TestNameStem:
    def test_strips_run_suffix(self):
        assert _name_stem("u1-resnet-g4-t00017") == "u1-resnet-g4"
        assert _name_stem("job_123") == "job"
        assert _name_stem("nosuffix") == "nosuffix"


class TestPrediction:
    def test_positive_predictions(self, model, venus_data):
        _, jobs = venus_data
        preds = model.predict_batch(jobs[:100])
        assert np.all(preds > 0)

    def test_reasonable_r2(self, model, venus_data):
        """Prediction quality in the Table-7 band (R² clearly positive)."""
        _, jobs = venus_data
        preds = model.predict_batch(jobs)
        actual = np.array([j.duration for j in jobs])
        assert r2_score(np.log(actual), np.log(preds)) > 0.3

    def test_recurring_template_matched(self, model, venus_data):
        history, _ = venus_data
        recurring = history[len(history) // 2]
        pred = model.predict(recurring)
        # Prediction should be in the ballpark of the template's history.
        same = [j.duration for j in history
                if j.user == recurring.user and j.name == recurring.name]
        assert min(same) / 5 <= pred <= max(same) * 5

    def test_new_user_falls_back_to_gpu_demand(self, model, venus_data):
        history, _ = venus_data
        job = make_job(999999, gpu_num=1, user="brand-new-user",
                       name="never-seen")
        pred = model.predict(job)
        same_gpu = [j.duration for j in history if j.gpu_num == 1]
        assert pred == pytest.approx(np.mean(same_gpu))

    def test_known_user_new_template_uses_model(self, model, venus_data):
        history, _ = venus_data
        user = history[0].user
        job = make_job(999998, user=user, name="totally-fresh-job-name")
        pred = model.predict(job)
        assert 10.0 < pred < 30 * 86400.0

    def test_fit_requires_history(self):
        with pytest.raises(ValueError):
            WorkloadEstimateModel().fit([])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            WorkloadEstimateModel().predict(make_job())


class TestUpdateAndRefit:
    def test_update_shifts_template_estimate(self, venus_data):
        history, _ = venus_data
        model = WorkloadEstimateModel(random_state=0).fit(history)
        job = make_job(5000, user="fresh", name="fresh-template-t1",
                       duration=7777.0)
        before = model.predict(job)
        from repro.workloads.job import JobRecord
        job.finish_time = job.submit_time + 7777.0
        for _ in range(4):
            model.update(JobRecord.from_job(job))
        after = model.predict(job)
        assert abs(after - 7777.0) < abs(before - 7777.0)

    def test_refit_runs(self, venus_data):
        history, _ = venus_data
        model = WorkloadEstimateModel(random_state=0).fit(history[:300])
        for job in history[300:350]:
            model.update(job)
        model.refit()
        assert model.predict(history[0]) > 0


class TestProfileAblation:
    def test_profile_features_help(self, venus_data):
        """§4.8: profiled features improve duration estimation."""
        history, jobs = venus_data
        actual = np.log([j.duration for j in jobs])
        with_profile = WorkloadEstimateModel(use_profile=True,
                                             random_state=0).fit(history)
        without = WorkloadEstimateModel(use_profile=False,
                                        random_state=0).fit(history)
        r2_with = r2_score(actual, np.log(with_profile.predict_batch(jobs)))
        r2_without = r2_score(actual, np.log(without.predict_batch(jobs)))
        # Template matching does the heavy lifting either way, so demand
        # only a non-degradation plus a small edge on the model path.
        assert r2_with >= r2_without - 0.02


class TestInterpretation:
    def test_global_explanation(self, model):
        explanation = model.explain_global()
        assert len(explanation.feature_names) == 9
        assert explanation.importances.shape == (9,)

    def test_local_explanation_decomposes(self, model, venus_data):
        _, jobs = venus_data
        local = model.explain_local(jobs[0])
        assert len(local.contributions) >= 9
        assert np.isfinite(local.prediction)

    def test_monotonic_constraint_applies(self, venus_data):
        from repro.models.isotonic import is_monotonic
        history, _ = venus_data
        model = WorkloadEstimateModel(random_state=0).fit(history)
        model.constrain_gpu_monotonic()
        idx = model._feature_names().index("gpu_num")
        _, values = model._model.shape_function(idx)
        assert is_monotonic(values, increasing=True)


class TestOneRowFeatures:
    """The scheduling path featurizes one job as a Python list; it must
    be :meth:`_featurize`'s row, bit for bit."""

    @given(data=st.data(),
           gpu_num=st.integers(1, 64),
           submit_time=st.one_of(st.floats(-1e9, 1e9), st.integers(0, 10**7)),
           profiled=st.booleans(), amp=st.booleans(),
           use_profile=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_feature_row_is_featurize_row(self, model, venus_data, data,
                                          gpu_num, submit_time, profiled,
                                          amp, use_profile):
        history, _ = venus_data
        user = data.draw(st.sampled_from([history[0].user, "nobody"]))
        name = data.draw(st.sampled_from([history[0].name, "new-job_12"]))
        row = _HistoryRow(user=user, name=name, gpu_num=gpu_num,
                          submit_time=submit_time, duration=0.0,
                          profile=history[0].profile if profiled else None,
                          amp=amp)
        model.use_profile = use_profile
        try:
            fast = [float(x).hex() for x in model._feature_row(row)]
            table = [float(x).hex() for x in model._featurize([row])[0]]
        finally:
            model.use_profile = True
        assert fast == table

    def test_unknown_name_code_is_cached(self, model):
        clusters = model._name_clusters
        expected = float(len(set(clusters.values())))
        assert model._name_code("never-seen-stem-xyz") == expected
        assert "_unknown_name_code" not in model.__getstate__()
        loaded = pickle.loads(pickle.dumps(model))
        assert loaded._name_code("never-seen-stem-xyz") == expected
