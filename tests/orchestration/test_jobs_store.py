"""Job model and artifact store unit behavior."""

import json
import os

import pytest

from repro.orchestration import ArtifactStore, Job, JobGraph, job_key


def test_job_key_is_order_insensitive():
    a = job_key("gp", {"topology": "grid", "seed": 1})
    b = job_key("gp", {"seed": 1, "topology": "grid"})
    assert a == b


def test_job_key_changes_with_params_and_deps():
    base = job_key("gp", {"topology": "grid"})
    assert job_key("gp", {"topology": "falcon"}) != base
    assert job_key("lg", {"topology": "grid"}) != base
    assert job_key("gp", {"topology": "grid"}, ("somedep",)) != base


def test_create_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Job.create("mystery", {})


def test_graph_validates_dependencies():
    graph = JobGraph()
    orphan = Job.create("lg", {"x": 1}, deps=(job_key("gp", {}),))
    with pytest.raises(ValueError):
        graph.add(orphan)


def test_graph_deduplicates_identical_jobs():
    graph = JobGraph()
    first = graph.add(Job.create("gp", {"topology": "grid"}))
    second = graph.add(Job.create("gp", {"topology": "grid"}))
    assert first is second
    assert len(graph) == 1


def test_restricted_to_keeps_transitive_closure():
    graph = JobGraph()
    gp = graph.add(Job.create("gp", {"t": "grid"}))
    lg_a = graph.add(Job.create("lg", {"e": "a"}, deps=(gp.key,)))
    lg_b = graph.add(Job.create("lg", {"e": "b"}, deps=(gp.key,)))
    fid = graph.add(Job.create("fidelity", {"c": 1}, deps=(lg_a.key,)))
    sub = graph.restricted_to([fid.key])
    assert set(sub.jobs) == {gp.key, lg_a.key, fid.key}
    assert lg_b.key not in sub
    # Order is preserved (still topological).
    assert [j.key for j in sub.ordered()] == [gp.key, lg_a.key, fid.key]


def test_memory_store_roundtrip():
    store = ArtifactStore()
    assert store.get("gp", "k") is None
    assert not store.has("gp", "k")
    put = store.put("gp", "k", {"x": 0.1 + 0.2, "n": [1, 2]})
    assert store.get("gp", "k") == put
    assert put["x"] == 0.1 + 0.2  # float survives the JSON round trip exactly


def test_disk_store_persists_across_instances(tmp_path):
    root = str(tmp_path / "cache")
    ArtifactStore(root).put("lg", "abc", {"positions": [["q", 0, 1.5, 2.5]]})
    fresh = ArtifactStore(root)
    assert fresh.has("lg", "abc")
    assert fresh.get("lg", "abc") == {"positions": [["q", 0, 1.5, 2.5]]}
    path = os.path.join(root, "lg", "abc.json")
    assert os.path.exists(path)
    assert not [p for p in os.listdir(os.path.dirname(path)) if p.endswith(".tmp")]


def test_disk_store_ignores_corrupt_artifacts(tmp_path):
    root = str(tmp_path / "cache")
    store = ArtifactStore(root)
    os.makedirs(os.path.join(root, "gp"), exist_ok=True)
    with open(os.path.join(root, "gp", "bad.json"), "w") as fh:
        fh.write("{not json")
    assert store.get("gp", "bad") is None


def test_store_canonicalizes_payloads(tmp_path):
    store = ArtifactStore(str(tmp_path / "cache"))
    returned = store.put("fidelity", "k", {"samples": (0.25, 0.5)})
    assert returned == {"samples": [0.25, 0.5]}  # tuple -> list, like disk
    on_disk = json.load(open(os.path.join(str(tmp_path / "cache"), "fidelity", "k.json")))
    assert on_disk == returned


def test_fetch_reports_keys_in_memory_or_backend(tmp_path):
    root = str(tmp_path / "cache")
    ArtifactStore(root).put("gp", "on_disk", {"x": 1})
    store = ArtifactStore(root)
    store.put("lg", "in_memory", {"y": 2})
    found = store.fetch(
        [("gp", "on_disk"), ("lg", "in_memory"), ("gp", "absent")]
    )
    assert found == {"on_disk", "in_memory"}
    assert ArtifactStore().fetch([("gp", "on_disk")]) == set()


def test_fetched_corrupt_text_is_present_but_reads_as_none(tmp_path):
    root = str(tmp_path / "cache")
    os.makedirs(os.path.join(root, "gp"))
    with open(os.path.join(root, "gp", "bad.json"), "w") as fh:
        fh.write("{not json")
    store = ArtifactStore(root)
    assert store.fetch([("gp", "bad")]) == {"bad"}
    assert store.get("gp", "bad") is None
    assert store.has("gp", "bad")


def test_fetched_text_is_served_after_its_file_is_deleted(tmp_path):
    root = str(tmp_path / "cache")
    ArtifactStore(root).put("fidelity", "k", {"samples": [0.5]})
    store = ArtifactStore(root)
    assert store.fetch([("fidelity", "k")]) == {"k"}
    os.remove(os.path.join(root, "fidelity", "k.json"))
    assert store.get("fidelity", "k") == {"samples": [0.5]}
