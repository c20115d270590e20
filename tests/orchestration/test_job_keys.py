"""Job keys are the historical formula, however the planner encodes them.

``job_key`` builds its canonical text from pieces and splices in the
texts a planner encoded once for the params documents its jobs share.
The oracle below is the formula keys were always defined by, so every
cache keeps resolving: these tests hold the pieces to it on generated
params and on every job the planners build.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QGDPConfig
from repro.circuits import PAPER_BENCHMARKS
from repro.evaluation import EvaluationConfig, plan_engine_evaluations
from repro.legalization.engines import PAPER_ENGINE_ORDER
from repro.orchestration import (
    Job,
    SweepSpec,
    config_to_dict,
    job_key,
    plan_sweep,
)
from repro.orchestration.jobs import JOB_KINDS, KIND_VERSIONS
from repro.topologies import PAPER_TOPOLOGIES


def _encode(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def oracle_key(kind, params, deps=()):
    """The job-key formula: SHA-256 of the whole job, encoded at once."""
    document = {
        "kind": kind,
        "version": KIND_VERSIONS[kind],
        "params": params,
        "deps": list(deps),
    }
    return hashlib.sha256(_encode(document).encode("utf-8")).hexdigest()


def _assert_oracle_keys(jobs):
    for job in jobs:
        assert job.key == oracle_key(job.kind, job.params, job.deps), job.kind


# -- generated params --------------------------------------------------------

names = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t \ud800é☃𝄞', max_size=6),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) + 2),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, float("inf"), -float("inf"),
         float("nan"), 0.1 + 0.2]
    ),
    names,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(names, inner, max_size=4),
    ),
    max_leaves=16,
)
params_docs = st.dictionaries(names, values, max_size=6)
dep_lists = st.lists(names, max_size=3).map(tuple)
kinds = st.sampled_from(JOB_KINDS)


@settings(max_examples=200, deadline=None)
@given(kind=kinds, params=params_docs, deps=dep_lists)
def test_key_matches_oracle_without_texts(kind, params, deps):
    expected = oracle_key(kind, params, deps)
    assert job_key(kind, params, deps) == expected
    assert Job.create(kind, params, deps).key == expected


@settings(max_examples=200, deadline=None)
@given(kind=kinds, params=params_docs, deps=dep_lists, data=st.data())
def test_key_matches_oracle_with_planner_texts(kind, params, deps, data):
    shared = data.draw(st.sets(st.sampled_from(sorted(params)))) if params else ()
    texts = {name: _encode(params[name]) for name in shared}
    # A text under a name the params lack is ignored.
    texts[data.draw(names.filter(lambda name: name not in params))] = "[]"
    expected = oracle_key(kind, params, deps)
    assert job_key(kind, params, deps, texts) == expected
    assert Job.create(kind, params, deps, texts).key == expected


@settings(max_examples=100, deadline=None)
@given(
    params=st.dictionaries(st.integers(), values, min_size=1, max_size=6),
    data=st.data(),
)
def test_non_str_names_encode_the_whole_params(params, data):
    # json sorts int names by value (9 before 10), not by their text.
    shared = data.draw(st.sampled_from(sorted(params)))
    texts = {str(shared): "ignored", "x": "ignored"}
    assert job_key("gp", params, (), texts) == oracle_key("gp", params)


def test_mixed_names_fail_like_json():
    params = {"topology": "grid", 1: "one"}
    with pytest.raises(TypeError):
        oracle_key("gp", params)
    with pytest.raises(TypeError):
        job_key("gp", params)


# -- the planners' jobs ------------------------------------------------------


def _paper_spec(seed, detailed, num_seeds):
    config = QGDPConfig(seed=QGDPConfig().seed + seed)
    return SweepSpec(
        PAPER_TOPOLOGIES,
        PAPER_BENCHMARKS,
        PAPER_ENGINE_ORDER,
        num_seeds=num_seeds,
        detailed=detailed,
        config=config_to_dict(config),
    )


@pytest.mark.parametrize("num_seeds", [1, 50])
@pytest.mark.parametrize("detailed", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_sweep_keys_match_oracle(seed, detailed, num_seeds):
    plan = plan_sweep(_paper_spec(seed, detailed, num_seeds))
    jobs = plan.graph.ordered()
    assert len(jobs) == (156 if detailed else 150)
    _assert_oracle_keys(jobs)
    kinds = {job.kind for job in jobs}
    assert kinds == set(JOB_KINDS) - ({"dp"} if not detailed else set())


def test_sharded_plan_keys_match_oracle():
    plan = plan_sweep(_paper_spec(0, True, 50))
    fidelity_jobs = list(dict.fromkeys(plan.cells.values()))
    covered = set()
    for index in range(3):
        shard = plan.graph.restricted_to(fidelity_jobs[index::3])
        jobs = shard.ordered()
        _assert_oracle_keys(jobs)
        assert all(dep in shard for job in jobs for dep in job.deps)
        covered.update(shard.jobs)
    assert covered == set(plan.graph.jobs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_engine_evaluations_keys_match_oracle(seed):
    config = QGDPConfig(seed=QGDPConfig().seed + seed)
    eval_config = EvaluationConfig(config=config)
    graph, keys = plan_engine_evaluations(
        list(PAPER_TOPOLOGIES), list(PAPER_ENGINE_ORDER), eval_config
    )
    _assert_oracle_keys(graph.ordered())
    assert len(keys) == len(PAPER_TOPOLOGIES) * len(PAPER_ENGINE_ORDER)

