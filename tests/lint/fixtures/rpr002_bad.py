"""RPR002 fixture: content-key purity violations."""

import json
import time

from repro.orchestration.jobs import Job, job_key


def non_canonical(document):
    return json.dumps(document)  # no sort_keys: non-canonical text


def salted_hash(obj):
    return hash(obj)  # salted per process


def clock_in_key(params):
    key = job_key("place", dict(params, at=time.time()))  # clock in key
    job = Job.create("route", {"stamp": time.time_ns()})  # clock in params
    return key, job
