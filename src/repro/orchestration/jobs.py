"""Content-addressed job model for experiment sweeps.

A sweep decomposes into small *jobs* — ``gp`` (global placement), ``lg``
(legalization), ``dp`` (detailed placement), ``transpile``, ``analyze``
(the one analysis of a layout: its Fig. 9 / Table III metrics and the
Eq. 7 rows) and ``fidelity`` — wired into a dependency DAG.  Every job
is identified by a stable SHA-256 over its kind, the kind's payload
version, its code-relevant parameters and the keys of its dependencies
(a Merkle chain: a parameter change upstream changes every downstream
key).  The key doubles as the artifact-store address, so re-running a
sweep with identical parameters finds every stage output already on
disk.

A planner shares a few large params documents across many jobs (its
config, its noise model, its mapping-seed list).  It encodes each once
per plan and hands the texts to :meth:`Job.create`, which splices them
into the canonical text instead of encoding the same value again; the
key is the same either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

#: The stage kinds a sweep decomposes into, with their payload versions.
#: Bump a kind's version whenever its payload changes for the same params
#: and deps, or caches serve the old payload under a key that no longer
#: describes it (``tests/golden/test_job_payloads.py`` pins payloads).
KIND_VERSIONS = {
    "gp": 1, "lg": 1, "dp": 1, "transpile": 2, "analyze": 1, "fidelity": 2
}
JOB_KINDS = tuple(KIND_VERSIONS)


#: The one canonical encoder; ``json.dumps`` would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding used for hashing (sorted keys, no ws)."""
    return _ENCODER.encode(obj)


def _params_json(params: dict, texts: Mapping[str, str]) -> str:
    """``canonical_json(params)``, with ``texts[name]`` as a value's text."""
    if not all(isinstance(name, str) for name in params):
        # json sorts such names by value, before it turns them into text.
        return canonical_json(params)
    fields = ",".join(
        canonical_json(name)
        + ":"
        + (texts[name] if name in texts else canonical_json(params[name]))
        for name in sorted(params)
    )
    return "{" + fields + "}"


def job_key(
    kind: str,
    params: dict,
    dep_keys: tuple = (),
    texts: Optional[Mapping[str, str]] = None,
) -> str:
    """Stable content hash of a job: kind + version + params + dep keys.

    The SHA-256 of ``canonical_json({"kind": kind, "version": version,
    "params": params, "deps": list(dep_keys)})``, built from its sorted
    pieces.  ``texts`` maps a param name to the canonical text of that
    param's value, for documents a planner shares across jobs and
    encodes once; the text is spliced in, and must be
    ``canonical_json(params[name])``.  Names not in ``params`` are
    ignored, and so is all of ``texts`` when a param name is not a
    ``str``: then the whole params dict is encoded, as json sorts such
    names by value.
    """
    deps = ",".join(map(canonical_json, dep_keys))
    text = (
        f'{{"deps":[{deps}],"kind":{canonical_json(kind)},'
        f'"params":{_params_json(params, texts or {})},'
        f'"version":{canonical_json(KIND_VERSIONS[kind])}}}'
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``params`` must be JSON-safe (it is hashed canonically); ``deps`` are
    the keys of jobs whose payloads this job consumes, in the order the
    runner expects them.
    """

    kind: str
    key: str
    params: dict
    deps: tuple = ()

    @classmethod
    def create(
        cls,
        kind: str,
        params: dict,
        deps: tuple = (),
        texts: Optional[Mapping[str, str]] = None,
    ) -> "Job":
        """Build a job, deriving its content-addressed key.

        ``texts`` are the canonical texts of params values the planner
        shares across jobs, by param name (see :func:`job_key`).
        """
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; expected {JOB_KINDS}")
        deps = tuple(deps)
        key = job_key(kind, params, deps, texts)
        return cls(kind=kind, key=key, params=params, deps=deps)


@dataclass
class JobGraph:
    """An ordered DAG of jobs (insertion order is a topological order)."""

    jobs: dict = field(default_factory=dict)  # key -> Job

    def add(self, job: Job) -> Job:
        """Register a job; dependencies must already be present.

        Adding an identical job twice is a no-op (shared upstream stages
        are naturally deduplicated by their content key).
        """
        if job.key in self.jobs:
            return self.jobs[job.key]
        for dep in job.deps:
            if dep not in self.jobs:
                raise ValueError(
                    f"job {job.kind}:{job.key[:12]} depends on unknown {dep[:12]}"
                )
        self.jobs[job.key] = job
        return job

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, key: str) -> bool:
        return key in self.jobs

    def __getitem__(self, key: str) -> Job:
        return self.jobs[key]

    def ordered(self) -> list:
        """Jobs in insertion (= topological) order."""
        return list(self.jobs.values())

    def restricted_to(self, keys: Iterable[str]) -> "JobGraph":
        """The sub-graph reaching ``keys`` (transitive dependency closure).

        Used by sharding: a shard keeps only the jobs its cells need,
        while shared upstream stages stay content-addressed so different
        shards hitting the same cache never duplicate work.
        """
        needed = set()
        stack = list(keys)
        while stack:
            key = stack.pop()
            if key in needed:
                continue
            needed.add(key)
            stack.extend(self.jobs[key].deps)
        sub = JobGraph()
        for key, job in self.jobs.items():
            if key in needed:
                sub.jobs[key] = job
        return sub
