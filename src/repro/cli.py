"""Command-line interface: run flows and regenerate the paper's tables.

Examples::

    python -m repro topologies
    python -m repro flow falcon --engine qgdp --render
    python -m repro flow all --no-dp
    python -m repro fidelity aspen11 --benchmarks bv-4 qaoa-4 --seeds 10
    python -m repro tables --which fig9
    python -m repro tables --topologies grid aspen11 --workers 4
    python -m repro sweep --topologies grid falcon --seeds 10 --workers 4
    python -m repro sweep --topologies grid falcon --seeds 10 --resume
    python -m repro diff .repro_cache/runs/<run_a> .repro_cache/runs/<run_b>
    python -m repro serve-cache --store sqlite:shared.db --port 8765
    python -m repro sweep --cache-url http://cache-host:8765 --resume
    python -m repro cache stats sqlite:shared.db
    python -m repro cache push dir:.repro_cache sqlite:shared.db
    python -m repro serve-cache --store sqlite:shared.db --fleet
    python -m repro worker --coordinator http://cache-host:8765
    python -m repro sweep --fleet http://cache-host:8765 --seeds 10
    python -m repro fleet status --coordinator http://cache-host:8765
    python -m repro serve --store sqlite:shared.db --token s3cret --workers 4
    python -m repro submit --service http://job-host:8766 --spec spec.json --wait
    python -m repro status --service http://job-host:8766 run0001-abcd1234
    python -m repro results --service http://job-host:8766 run0001-abcd1234
    python -m repro cancel --service http://job-host:8766 run0001-abcd1234

``tables`` assembles Fig. 9 / Tables II–III from the same content-addressed
artifact cache sweeps use (see ``docs/tables.md``): the table text goes to
stdout, job-counter diagnostics to stderr, and — when the cache is enabled
— a diffable run manifest to ``<cache>/runs/<run_id>-tables/``.

Artifact caches live behind pluggable storage backends addressed by URL
(``dir:PATH``, ``sqlite:PATH``, ``http://host:port`` — see
``docs/storage.md``): ``--cache-url`` points ``sweep`` / ``tables`` at
any backend, ``serve-cache`` exposes a local store to a fleet over
HTTP, and ``cache`` inspects (``stats``), expires (``gc``) and syncs
(``push`` / ``pull``) stores by content key.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.circuits import PAPER_BENCHMARKS
from repro.core.config import QGDPConfig
from repro.core.pipeline import run_flow
from repro.evaluation import (
    EvaluationConfig,
    cells_from_sweep,
    evaluate_fidelity,
    format_fig8,
    format_fig9,
    format_table2,
    format_table3,
    run_engine_evaluations,
    sweep_spec,
)
from repro.legalization import PAPER_ENGINE_ORDER
from repro.lint import (
    DEFAULT_PATHS as LINT_DEFAULT_PATHS,
    FORMATS as LINT_FORMATS,
    lint_paths,
    render as render_findings,
    select_rules,
)
from repro.orchestration import (
    CacheServer,
    FleetClient,
    FleetCoordinator,
    FleetError,
    JobService,
    RemoteHTTPBackend,
    RunSink,
    StoreError,
    backend_from_url,
    diff_runs,
    format_diff,
    load_run,
    resolve_store,
    run_fleet_sweep,
    run_sweep,
    run_worker,
    sync_stores,
)
from repro.orchestration.service import ServiceClient, ServiceError
from repro.topologies import PAPER_TOPOLOGIES, available_topologies, get_topology
from repro.visualization import render_layout, save_layout_json


def _cmd_topologies(_args) -> int:
    for name in available_topologies():
        topo = get_topology(name)
        print(
            f"{name:10s} {topo.num_qubits:4d} qubits  {topo.num_edges:4d} "
            f"resonators  - {topo.description}"
        )
    return 0


def _cmd_benchmarks(_args) -> int:
    for name in PAPER_BENCHMARKS:
        print(name)
    return 0


def _run_one_flow(topology_name: str, args) -> int:
    config = QGDPConfig(seed=args.seed)
    flow, result = run_flow(
        topology_name,
        engine=args.engine,
        detailed=not args.no_dp,
        config=config,
    )
    for stage in result.stages:
        summary = ", ".join(
            f"{key}={stage.metrics[key]}"
            for key in ("iedge", "crossings", "ph_percent", "hq")
            if key in stage.metrics
        )
        print(f"[{stage.stage}] {stage.runtime_s:.2f}s  {summary}")
    if args.render:
        print(render_layout(flow.netlist, flow.grid))
    if args.json:
        save_layout_json(flow.netlist, args.json)
        print(f"layout written to {args.json}")
    violations = result.final.metrics.get("legality_violations", 0)
    return 0 if violations == 0 else 1


def _cmd_flow(args) -> int:
    if args.topology != "all":
        return _run_one_flow(args.topology, args)
    if args.json:
        print("--json is only supported for a single topology")
        return 2
    # Run every paper topology; the exit code aggregates the worst result.
    worst = 0
    for name in PAPER_TOPOLOGIES:
        print(f"=== {name} ===")
        worst = max(worst, _run_one_flow(name, args))
    return worst


def _cmd_fidelity(args) -> int:
    eval_config = EvaluationConfig(
        num_seeds=args.seeds, config=QGDPConfig(seed=args.seed)
    )
    results = evaluate_fidelity(
        [args.topology], args.benchmarks, args.engines, eval_config
    )
    print(
        format_fig8(results, [args.topology], args.benchmarks, args.engines)
    )
    return 0


def _cmd_tables(args) -> int:
    eval_config = EvaluationConfig(config=QGDPConfig(seed=args.seed))
    cache_dir = None if args.no_cache else args.cache_dir
    cache_url = None if args.no_cache else args.cache_url
    try:
        store = _open_cli_store(cache_url, cache_dir)
    except (StoreError, ValueError) as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_engine_evaluations(
            args.topologies,
            PAPER_ENGINE_ORDER,
            eval_config,
            store=store,
            workers=args.workers,
            resume=args.resume and (cache_dir or cache_url) is not None,
            retries=args.retries,
            timeout_s=args.timeout_s,
        )
    except StoreError as exc:  # server died mid-run: fail cleanly
        print(f"cache: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    evaluations = result.evaluations
    # The deliverable (the tables) goes to stdout; run diagnostics go to
    # stderr so regenerated output is byte-comparable across cache states.
    if args.which in ("fig9", "all"):
        print(format_fig9(evaluations, args.topologies, PAPER_ENGINE_ORDER))
    if args.which in ("table2", "all"):
        print(format_table2(evaluations, args.topologies, PAPER_ENGINE_ORDER))
    if args.which in ("table3", "all"):
        print(format_table3(evaluations, args.topologies))

    stats = result.stats
    out_dir = args.out
    if out_dir is None and cache_dir is not None:
        out_dir = os.path.join(cache_dir, "runs", result.manifest["run_id"])
    if out_dir is not None:
        sink = RunSink(out_dir)
        sink.write_results(result.rows)
        sink.write_manifest(result.manifest)
        print(f"manifest: {sink.manifest_path}", file=sys.stderr)
    print(
        f"tables {result.manifest['run_id']}: {stats.computed} jobs "
        f"computed, {stats.cached} cached, {stats.wall_s:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_diff(args) -> int:
    try:
        run_a = load_run(args.run_a)
        run_b = load_run(args.run_b)
    except ValueError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(run_a, run_b)
    print(format_diff(diff))
    # diff(1) semantics: 0 = identical, 1 = differences found.
    return 0 if diff.is_empty else 1


def _open_cli_store(cache_url, cache_dir):
    """Resolve the cache flags to a store, failing fast on a dead server.

    A mistyped ``--cache-url`` host must error out *before* the sweep
    computes anything (the first ``put`` otherwise happens only after
    the first — possibly expensive — job finishes), so a remote backend
    is pinged up front.  Raises ``StoreError`` / ``ValueError``; the
    command handlers translate those into clean stderr messages.
    """
    store = resolve_store(cache_url=cache_url, cache_dir=cache_dir)
    backend = store.backend
    remote = getattr(backend, "remote", backend)  # unwrap a tiered stack
    if isinstance(remote, RemoteHTTPBackend):
        remote.ping()
    return store


def _format_bytes(count: int) -> str:
    """Human-readable byte count (stable, short: '12.3 KiB')."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{int(count)} B"  # unreachable; keeps the typechecker honest


def _open_backend(url: str):
    """Resolve a store URL or exit with diff-style code 2 on a bad one."""
    try:
        return backend_from_url(url)
    except ValueError as exc:
        print(f"cache: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_cache_stats(args) -> int:
    backend = _open_backend(args.store)
    try:
        entries = backend.entries()
        by_kind = {}
        for entry in entries:
            slot = by_kind.setdefault(entry.kind, [0, 0])
            slot[0] += 1
            slot[1] += entry.size
        total = sum(entry.size for entry in entries)
        print(
            f"{backend.describe()}: {len(entries)} artifacts, "
            f"{_format_bytes(total)}"
        )
        for kind in sorted(by_kind):
            count, size = by_kind[kind]
            print(f"  {kind:10s} {count:6d} artifacts  {_format_bytes(size)}")
    finally:
        backend.close()
    return 0


def _cmd_cache_gc(args) -> int:
    backend = _open_backend(args.store)
    try:
        cutoff = time.time() - args.keep_days * 86400.0
        removed = removed_bytes = kept = 0
        for entry in backend.entries():
            if entry.mtime < cutoff:
                if not args.dry_run:
                    backend.delete(entry.kind, entry.key)
                removed += 1
                removed_bytes += entry.size
            else:
                kept += 1
        verb = "would remove" if args.dry_run else "removed"
        print(
            f"{backend.describe()}: {verb} {removed} artifacts "
            f"({_format_bytes(removed_bytes)}) older than "
            f"{args.keep_days:g} days, kept {kept}"
        )
    finally:
        backend.close()
    return 0


def _cmd_cache_sync(args) -> int:
    # push copies local -> remote, pull copies remote -> local; both are
    # idempotent (content keys: an artifact the destination already has
    # is identical bytes and is skipped).
    if args.cache_command == "push":
        source_url, dest_url = args.local, args.remote
    else:
        source_url, dest_url = args.remote, args.local
    source = _open_backend(source_url)
    dest = _open_backend(dest_url)
    try:
        stats = sync_stores(source, dest)
        print(
            f"{source.describe()} -> {dest.describe()}: copied "
            f"{stats.copied} artifacts ({_format_bytes(stats.bytes_copied)}), "
            f"skipped {stats.skipped} already present"
        )
    finally:
        source.close()
        dest.close()
    return 0


_CACHE_HANDLERS = {
    "stats": _cmd_cache_stats,
    "gc": _cmd_cache_gc,
    "push": _cmd_cache_sync,
    "pull": _cmd_cache_sync,
}


def _cmd_cache(args) -> int:
    try:
        return _CACHE_HANDLERS[args.cache_command](args)
    except StoreError as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 1


def _cmd_serve_cache(args) -> int:
    try:
        coordinator = (
            FleetCoordinator(
                lease_ttl_s=args.lease_ttl_s, max_attempts=args.max_attempts
            )
            if args.fleet
            else None
        )
        server = CacheServer(
            backend_from_url(args.store),
            host=args.host,
            port=args.port,
            quiet=args.quiet,
            coordinator=coordinator,
            max_body_bytes=args.max_body_mb * 1024 * 1024,
            socket_timeout_s=args.socket_timeout_s,
        )
    except ValueError as exc:
        print(f"serve-cache: {exc}", file=sys.stderr)
        return 2
    fleet_note = " with fleet coordination" if args.fleet else ""
    print(
        f"serving {args.store} at {server.url}{fleet_note} (Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_worker(args) -> int:
    try:
        store = _open_cli_store(
            args.cache_url or args.coordinator, args.cache_dir
        )
    except (StoreError, ValueError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1

    def progress(event, job):
        if args.quiet:
            return
        what = job["params"].get("benchmark") or job["params"].get("engine") or ""
        print(
            f"{event:8s} {job['kind']:9s} "
            f"{job['params'].get('topology', '')} {what} "
            f"({job['key'][:12]})",
            flush=True,
        )

    try:
        stats = run_worker(
            args.coordinator,
            store,
            worker_id=args.worker_id,
            batch_size=args.batch_size,
            poll_s=args.poll_s,
            timeout_s=args.timeout_s,
            exit_when_idle=args.exit_when_idle,
            install_signal_handler=True,
            progress=None if args.quiet else progress,
        )
    except (StoreError, FleetError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    how = "drained (SIGTERM)" if stats.drained else "fleet finished"
    print(
        f"worker {stats.worker}: {how}; {stats.computed} jobs computed, "
        f"{stats.cached} cached, {stats.failed} failed, "
        f"{stats.released} released, {stats.wall_s:.1f}s",
        flush=True,
    )
    return 0 if stats.failed == 0 else 1


def _cmd_serve(args) -> int:
    tokens = list(args.token or [])
    env_token = os.environ.get("REPRO_SERVICE_TOKEN")
    if env_token:
        tokens.append(env_token)
    if not tokens:
        print(
            "serve: at least one --token (or REPRO_SERVICE_TOKEN) is "
            "required — the job service never runs unauthenticated",
            file=sys.stderr,
        )
        return 2
    try:
        service = JobService(
            args.store,
            tokens,
            host=args.host,
            port=args.port,
            workers=args.workers,
            runs_root=args.runs_root,
            lease_ttl_s=args.lease_ttl_s,
            max_attempts=args.max_attempts,
            quiet=args.quiet,
        )
    except (StoreError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    service.start()
    print(
        f"serving jobs at {service.url} ({args.workers} workers, "
        f"{len(tokens)} tokens; Ctrl-C to stop)",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def _service_client(args) -> ServiceClient:
    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN")
    if not token:
        raise ServiceError(
            "no bearer token: pass --token or set REPRO_SERVICE_TOKEN"
        )
    return ServiceClient(args.service, token)


def _cmd_submit(args) -> int:
    try:
        client = _service_client(args)
        if args.spec == "-":
            document = json.load(sys.stdin)
        else:
            with open(args.spec, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        receipt = client.submit(document)
    except (OSError, ValueError, ServiceError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    print(
        f"run {receipt['run_id']}: {receipt['num_jobs']} jobs, "
        f"{receipt['num_cells']} cells, {receipt['shared_jobs']} shared "
        "with runs already in flight",
        flush=True,
    )
    if not args.wait:
        return 0
    try:
        status = client.wait(receipt["run_id"], poll_s=args.poll_s)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    print(
        f"run {status['run_id']}: {status['state']} — "
        f"{status['computed']} computed, {status['cached']} cached, "
        f"{len(status['failures'])} failed attempts",
        flush=True,
    )
    return 0 if status["state"] == "done" else 1


def _cmd_status(args) -> int:
    try:
        status = _service_client(args).status(args.run_id)
    except ServiceError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["state"] != "failed" else 1


def _cmd_results(args) -> int:
    try:
        reply = _service_client(args).results(args.run_id, after=args.after)
    except ServiceError as exc:
        print(f"results: {exc}", file=sys.stderr)
        return 1
    for row in reply["rows"]:
        # Rows are echoed verbatim in stream order — sorting keys here
        # would diverge from results.jsonl.
        print(json.dumps(row))
    print(
        f"results: state={reply['state']} next={reply['next']} "
        f"complete={reply['complete']}",
        file=sys.stderr,
    )
    return 0 if reply["state"] in ("done", "running", "queued") else 1


def _cmd_cancel(args) -> int:
    try:
        reply = _service_client(args).cancel(args.run_id)
    except ServiceError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 1
    if reply.get("already_cancelled"):
        print(f"run {args.run_id}: already cancelled")
    else:
        print(
            f"run {args.run_id}: cancelled {reply['cancelled']} queued "
            f"jobs ({reply['skipped']} already running or finished, "
            f"{reply.get('shared', 0)} shared with other runs kept)"
        )
    return 0


def _cmd_lint(args) -> int:
    try:
        rules = select_rules(args.rule)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    root = os.path.abspath(args.root)
    if args.paths:
        paths = args.paths
    else:
        paths = [
            path
            for path in LINT_DEFAULT_PATHS
            if os.path.exists(os.path.join(root, path))
        ]
    findings = lint_paths(paths, rules=rules, root=root)
    print(render_findings(findings, args.format))
    # diff(1)-style: 0 = clean, 1 = findings (2 = usage error above).
    return 1 if findings else 0


def _cmd_fleet(args) -> int:
    client = FleetClient(args.coordinator)
    try:
        status = client.status()
    except (StoreError, FleetError) as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 1
    counts = status["counts"]
    print(
        f"fleet at {args.coordinator}: {counts['total']} jobs "
        f"({counts['done']} done, {counts['leased']} leased, "
        f"{counts['ready']} ready, {counts['pending']} pending, "
        f"{counts['failed']} failed); lease TTL "
        f"{status['lease_ttl_s']:g}s, {status['max_attempts']} attempts/job"
    )
    for worker, seen_s in status["workers"].items():
        print(f"  worker {worker}: last seen {seen_s:.1f}s ago")
    if status["failures"]:
        print(f"  {len(status['failures'])} failure-ledger entries:")
        for entry in status["failures"][-args.failures :]:
            print(
                f"    {entry['error_type']}: {entry['kind']} "
                f"{entry['key'][:12]} attempt {entry['attempt']} "
                f"({entry['error']})"
            )
    return 0 if counts["failed"] == 0 else 1


def _parse_shard(text: str) -> tuple:
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like 'i/n' (e.g. 2/4), got {text!r}"
        )
    if count < 1 or not (1 <= index <= count):
        raise argparse.ArgumentTypeError(
            f"shard index must satisfy 1 <= i <= n, got {text!r}"
        )
    return (index, count)


def _cmd_sweep(args) -> int:
    eval_config = EvaluationConfig(
        num_seeds=args.seeds,
        base_seed=args.base_seed,
        detailed=args.detailed,
        config=QGDPConfig(seed=args.seed),
    )
    spec = sweep_spec(args.topologies, args.benchmarks, args.engines, eval_config)
    cache_dir = None if args.no_cache else args.cache_dir
    cache_url = None if args.no_cache else args.cache_url

    if args.fleet:
        return _run_fleet_sweep_cmd(args, spec, cache_dir, cache_url)

    state = {"done": 0}

    def progress(job, status):
        if status == "start":
            return
        state["done"] += 1
        if args.quiet:
            return
        what = job.params.get("benchmark") or job.params.get("engine") or ""
        print(
            f"[{state['done']}] {status:6s} {job.kind:9s} "
            f"{job.params.get('topology', '')} {what}",
            flush=True,
        )

    try:
        store = _open_cli_store(cache_url, cache_dir)
    except (StoreError, ValueError) as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_sweep(
            spec,
            store=store,
            workers=args.workers,
            resume=args.resume,
            shard=args.shard,
            progress=progress,
            retries=args.retries,
            timeout_s=args.timeout_s,
        )
    except StoreError as exc:  # server died mid-run: fail cleanly
        print(f"cache: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()

    stats = result.stats
    return _write_sweep(
        args,
        result,
        cache_dir,
        f"sweep {result.manifest['run_id']}: {len(result.cells)} cells, "
        f"{stats.computed} jobs computed, {stats.cached} cached, "
        f"{stats.wall_s:.1f}s",
    )


def _write_sweep(args, result, cache_dir, summary: str) -> int:
    """Write a sweep's results and manifest; print its table and summary."""
    run_id = result.manifest["run_id"]
    if args.out:
        out_dir = args.out
    elif cache_dir is not None:
        out_dir = os.path.join(cache_dir, "runs", run_id)
    else:
        # --no-cache must not touch the cache directory at all.
        out_dir = f"repro-sweep-{run_id}"
    sink = RunSink(out_dir)
    sink.write_results(result.rows)
    sink.write_manifest(result.manifest)

    if args.table:
        cells = cells_from_sweep(result.cells)
        print(
            format_fig8(
                cells, list(args.topologies), list(args.benchmarks), list(args.engines)
            )
        )
    print(summary)
    print(f"results: {sink.results_path}")
    print(f"manifest: {sink.manifest_path}")
    return 0


def _run_fleet_sweep_cmd(args, spec, cache_dir, cache_url) -> int:
    """``repro sweep --fleet URL``: enqueue, watch and merge a fleet run."""
    if args.shard is not None:
        print(
            "sweep: --shard and --fleet are mutually exclusive (the "
            "coordinator schedules dynamically)",
            file=sys.stderr,
        )
        return 2

    last = {"line": None}

    def progress(status):
        if args.quiet:
            return
        counts = status["counts"]
        line = (
            f"fleet: {counts['done']}/{counts['total']} done, "
            f"{counts['leased']} leased, {counts['ready']} ready, "
            f"{counts['failed']} failed, "
            f"{len(status['workers'])} workers"
        )
        if line != last["line"]:
            last["line"] = line
            print(line, flush=True)

    try:
        result = run_fleet_sweep(
            spec,
            args.fleet,
            cache_dir=cache_dir,
            cache_url=cache_url or args.fleet,
            poll_s=args.poll_s,
            progress=progress,
        )
    except FleetError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        for entry in exc.failures[-5:]:
            print(
                f"  {entry['error_type']}: {entry['kind']} "
                f"{entry['key'][:12]} ({entry['error']})",
                file=sys.stderr,
            )
        return 1
    except StoreError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 1

    stats = result.stats
    workers = result.manifest["fleet"]["workers"]
    return _write_sweep(
        args,
        result,
        cache_dir,
        f"fleet sweep {result.manifest['run_id']}: {len(result.cells)} "
        f"cells, {stats.computed} jobs computed, {stats.cached} cached "
        f"by {len(workers)} workers, {stats.wall_s:.1f}s",
    )


def build_parser() -> argparse.ArgumentParser:
    """The qGDP CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="qGDP quantum legalization & detailed placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list available device topologies")
    sub.add_parser("benchmarks", help="list NISQ benchmark circuits")

    flow = sub.add_parser("flow", help="run the GP -> LG -> DP flow")
    flow.add_argument("topology", choices=available_topologies() + ["all"])
    flow.add_argument("--engine", default="qgdp", choices=PAPER_ENGINE_ORDER)
    flow.add_argument("--no-dp", action="store_true", help="stop after LG")
    flow.add_argument("--render", action="store_true", help="print ASCII layout")
    flow.add_argument("--json", metavar="PATH", help="export layout JSON")
    flow.add_argument("--seed", type=int, default=QGDPConfig().seed)

    fid = sub.add_parser("fidelity", help="fidelity sweep on one topology")
    fid.add_argument("topology", choices=available_topologies())
    fid.add_argument("--benchmarks", nargs="+", default=["bv-4", "qaoa-4"])
    fid.add_argument("--engines", nargs="+", default=list(PAPER_ENGINE_ORDER))
    fid.add_argument("--seeds", type=int, default=10)
    fid.add_argument("--seed", type=int, default=QGDPConfig().seed)

    tables = sub.add_parser(
        "tables",
        help="regenerate Fig. 9 / Tables II-III from the artifact cache",
    )
    tables.add_argument(
        "--which", default="all", choices=["fig9", "table2", "table3", "all"]
    )
    tables.add_argument(
        "--topologies", nargs="+", default=list(PAPER_TOPOLOGIES)
    )
    tables.add_argument("--seed", type=int, default=QGDPConfig().seed)
    tables.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; tables graphs are small)",
    )
    tables.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached stage artifacts (--no-resume recomputes all)",
    )
    tables.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per flaky job before aborting",
    )
    tables.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="wall-clock budget per job attempt (default: unbounded)",
    )
    tables.add_argument("--cache-dir", default=".repro_cache")
    tables.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="artifact store backend: dir:PATH, sqlite:PATH, or "
        "http://host:port (a repro serve-cache; combined with "
        "--cache-dir it is tiered behind the local directory)",
    )
    tables.add_argument(
        "--no-cache", action="store_true", help="keep artifacts in memory only"
    )
    tables.add_argument(
        "--out",
        default=None,
        help="run output directory (default: <cache>/runs/<run_id>-tables; "
        "set to keep multiple same-spec runs for repro diff)",
    )

    diff = sub.add_parser(
        "diff",
        help="compare two run manifests: jobs added/removed/recomputed, "
        "changed cells",
    )
    diff.add_argument(
        "run_a", help="baseline run directory or manifest.json path"
    )
    diff.add_argument("run_b", help="comparison run directory or manifest.json")

    sweep = sub.add_parser(
        "sweep",
        help="parallel, resumable, disk-cached fidelity sweep (Fig. 8 protocol)",
    )
    sweep.add_argument(
        "--topologies", nargs="+", default=list(PAPER_TOPOLOGIES)
    )
    sweep.add_argument(
        "--benchmarks", nargs="+", default=list(PAPER_BENCHMARKS)
    )
    sweep.add_argument(
        "--engines", nargs="+", default=list(PAPER_ENGINE_ORDER)
    )
    sweep.add_argument("--seeds", type=int, default=50, help="mapping seeds per cell")
    sweep.add_argument("--base-seed", type=int, default=11)
    sweep.add_argument("--seed", type=int, default=QGDPConfig().seed)
    sweep.add_argument(
        "--detailed", action="store_true", help="run qGDP-DP on top of qGDP-LG"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (1 = serial, the debugging mode)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="reuse cached stage artifacts instead of recomputing",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per flaky job before the sweep aborts",
    )
    sweep.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="wall-clock budget per job attempt (default: unbounded)",
    )
    sweep.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="i/n",
        help="run the i-th of n deterministic cell slices (1-based)",
    )
    sweep.add_argument("--cache-dir", default=".repro_cache")
    sweep.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="artifact store backend: dir:PATH, sqlite:PATH, or "
        "http://host:port (a repro serve-cache; combined with "
        "--cache-dir it is tiered behind the local directory)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="keep artifacts in memory only"
    )
    sweep.add_argument("--out", default=None, help="run output directory")
    sweep.add_argument(
        "--table", action="store_true", help="print the Fig. 8 table"
    )
    sweep.add_argument("--quiet", action="store_true", help="suppress per-job progress")
    sweep.add_argument(
        "--fleet",
        default=None,
        metavar="URL",
        help="run the sweep on a worker fleet: enqueue the job DAG on "
        "this repro serve-cache --fleet coordinator, watch until the "
        "workers finish, and merge their completions into one "
        "diff-compatible manifest (see docs/fleet.md)",
    )
    sweep.add_argument(
        "--poll-s",
        type=float,
        default=1.0,
        help="fleet status poll interval (only with --fleet)",
    )

    store_help = (
        "store URL: dir:PATH (one JSON file per artifact, the "
        ".repro_cache layout), sqlite:PATH (one WAL-mode database "
        "file), http://host:port (a running repro serve-cache), or a "
        "bare directory path"
    )

    cache = sub.add_parser(
        "cache",
        help="inspect, expire and sync artifact stores",
        description="Operate on artifact stores by URL.  Stores are "
        "content-addressed: the same job key always names the same "
        "bytes, so push/pull only ever copy artifacts the destination "
        "is missing and a re-sync is a no-op.  See docs/storage.md.",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats",
        help="artifact count and size, total and per job kind",
        description="Print the store's artifact count and byte size, "
        "total and per job kind (gp, lg, transpile, ...).",
    )
    cache_stats.add_argument("store", help=store_help)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="expire artifacts older than --keep-days",
        description="Delete artifacts whose age exceeds --keep-days.  "
        "Age is the backend's write time (file mtime for dir stores, "
        "the insert timestamp for sqlite stores); artifacts a later "
        "run rewrote count as fresh.  Safe at any time: an expired "
        "artifact is simply recomputed by the next sweep that needs it.",
    )
    cache_gc.add_argument("store", help=store_help)
    cache_gc.add_argument(
        "--keep-days",
        type=float,
        required=True,
        metavar="DAYS",
        help="keep artifacts newer than this many days (fractions ok)",
    )
    cache_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )

    cache_push = cache_sub.add_parser(
        "push",
        help="copy LOCAL's artifacts into REMOTE (by content key)",
        description="Copy every artifact LOCAL has and REMOTE lacks "
        "into REMOTE.  Idempotent: artifacts REMOTE already holds are "
        "skipped, never rewritten (same key = same bytes).  Typical "
        "use: seed a shared cache server or a sqlite snapshot from a "
        "machine's warm .repro_cache.",
    )
    cache_pull = cache_sub.add_parser(
        "pull",
        help="copy REMOTE's artifacts into LOCAL (by content key)",
        description="Copy every artifact REMOTE has and LOCAL lacks "
        "into LOCAL — the mirror of push.  Typical use: pre-warm a "
        "fresh machine from the fleet cache before an offline run.",
    )
    for sync_parser in (cache_push, cache_pull):
        sync_parser.add_argument("local", metavar="LOCAL", help=store_help)
        sync_parser.add_argument("remote", metavar="REMOTE", help=store_help)

    serve = sub.add_parser(
        "serve-cache",
        help="serve an artifact store to other machines over HTTP",
        description="Serve a local artifact store (dir: or sqlite:) "
        "over the tiny JSON protocol RemoteHTTPBackend speaks, so "
        "sweep machines pointed at it with --cache-url http://HOST:PORT "
        "share one warm cache.  The server is stdlib-only and "
        "unauthenticated: bind it to a trusted network.  See "
        "docs/storage.md for the two-machine walkthrough.",
    )
    serve.add_argument(
        "--store",
        default="dir:.repro_cache",
        help=f"{store_help} (default: dir:.repro_cache)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 exposes to the "
        "network — do that only on a trusted one)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default 8765; 0 picks an ephemeral port, "
        "printed on startup)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    serve.add_argument(
        "--fleet",
        action="store_true",
        help="attach a fleet coordinator: enables the /v1/fleet "
        "work-stealing endpoints repro worker and repro sweep --fleet "
        "speak (see docs/fleet.md)",
    )
    serve.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        help="seconds a worker may go without a heartbeat before its "
        "leased jobs are re-queued (default 60)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="lease grants per job before it is failed permanently "
        "(default 3)",
    )
    serve.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        help="largest accepted request body in MiB; bigger uploads get "
        "HTTP 413 (default 64)",
    )
    serve.add_argument(
        "--socket-timeout-s",
        type=float,
        default=60.0,
        help="per-connection socket timeout; a stalled client is "
        "disconnected instead of pinning a handler thread (default 60)",
    )

    worker = sub.add_parser(
        "worker",
        help="pull and execute leased fleet jobs from a coordinator",
        description="Run the pull-execute-heartbeat loop against a "
        "repro serve-cache --fleet coordinator: lease ready jobs, "
        "execute them through the standard stage runners, write "
        "artifacts to the shared store, report completions.  SIGTERM "
        "drains gracefully (the in-flight job finishes, unstarted "
        "leases are handed back); SIGKILL just costs one lease TTL — "
        "the coordinator re-queues the worker's jobs.  See "
        "docs/fleet.md.",
    )
    worker.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="the repro serve-cache --fleet URL to pull work from",
    )
    worker.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="artifact store to read deps from / write results to "
        "(default: the coordinator's own artifact endpoints)",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="tier the store behind this local directory (faster "
        "re-reads; degraded writes land here during outages)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name (default: host-pid-random)",
    )
    worker.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="jobs leased per round (default 1)",
    )
    worker.add_argument(
        "--poll-s",
        type=float,
        default=1.0,
        help="idle poll interval when no job is ready (default 1s)",
    )
    worker.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="wall-clock budget per job attempt (default: unbounded)",
    )
    worker.add_argument(
        "--exit-when-idle",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exit once the coordinator reports no outstanding work "
        "(--no-exit-when-idle keeps serving until SIGTERM)",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress"
    )

    serve_jobs_parser = sub.add_parser(
        "serve",
        help="multi-tenant job service: accept, schedule and run sweeps",
        description="Serve placement-as-a-service: authenticated tenants "
        "submit sweep specs over HTTP (POST /v1/run), a fair scheduler "
        "multiplexes their runs over one shared worker pool and artifact "
        "store (overlapping jobs compute once fleet-wide), and results "
        "stream back incrementally.  Every endpoint requires a bearer "
        "token.  See docs/service.md.",
    )
    serve_jobs_parser.add_argument(
        "--store",
        default="dir:.repro_cache",
        help=f"{store_help} (default: dir:.repro_cache)",
    )
    serve_jobs_parser.add_argument(
        "--token",
        action="append",
        default=None,
        metavar="SECRET",
        help="accepted bearer token (repeatable: one per tenant; "
        "REPRO_SERVICE_TOKEN adds one more)",
    )
    serve_jobs_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_jobs_parser.add_argument(
        "--port",
        type=int,
        default=8766,
        help="bind port (default 8766; 0 picks an ephemeral port, "
        "printed on startup)",
    )
    serve_jobs_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="executor threads shared by all tenants (default 2)",
    )
    serve_jobs_parser.add_argument(
        "--runs-root",
        default=None,
        metavar="DIR",
        help="persist each completed run's results.jsonl + manifest.json "
        "under DIR/<run_id>/ (default: not persisted)",
    )
    serve_jobs_parser.add_argument(
        "--lease-ttl-s",
        type=float,
        default=60.0,
        help="internal lease TTL for the worker pool (default 60)",
    )
    serve_jobs_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per job before it fails permanently (default 3)",
    )
    serve_jobs_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )

    service_url_help = "the repro serve URL (e.g. http://job-host:8766)"
    token_help = (
        "bearer token (default: the REPRO_SERVICE_TOKEN environment "
        "variable)"
    )

    submit = sub.add_parser(
        "submit",
        help="submit a sweep spec to a repro serve instance",
        description="POST a SweepSpec JSON document (or the single-flow "
        "shorthand {\"topology\", \"benchmark\", \"engine\"}) to a job "
        "service and print the run receipt.  With --wait, poll until "
        "the run reaches a terminal state.",
    )
    submit.add_argument("--service", required=True, help=service_url_help)
    submit.add_argument("--token", default=None, help=token_help)
    submit.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="path of the spec JSON document ('-' reads stdin)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the run finishes; exit 0 only on state=done",
    )
    submit.add_argument(
        "--poll-s",
        type=float,
        default=2.0,
        help="status poll interval with --wait (default 2s)",
    )

    status = sub.add_parser(
        "status",
        help="print one service run's progress document",
    )
    status.add_argument("run_id", help="the run id from repro submit")
    status.add_argument("--service", required=True, help=service_url_help)
    status.add_argument("--token", default=None, help=token_help)

    results = sub.add_parser(
        "results",
        help="print a service run's result rows as JSONL",
        description="Print result rows (stdout, one JSON object per "
        "line, plan order — the same stream results.jsonl holds) and a "
        "state/cursor footer on stderr.  --after resumes an "
        "incremental read from a previous cursor.",
    )
    results.add_argument("run_id", help="the run id from repro submit")
    results.add_argument("--service", required=True, help=service_url_help)
    results.add_argument("--token", default=None, help=token_help)
    results.add_argument(
        "--after",
        type=int,
        default=0,
        help="skip rows before this cursor (default 0; the previous "
        "call's 'next' value resumes the stream)",
    )

    cancel = sub.add_parser(
        "cancel",
        help="cancel a service run's queued jobs",
        description="Withdraw the run's queued jobs.  Jobs shared with "
        "another tenant's live run keep running; jobs already leased "
        "finish and land in the shared cache.",
    )
    cancel.add_argument("run_id", help="the run id from repro submit")
    cancel.add_argument("--service", required=True, help=service_url_help)
    cancel.add_argument("--token", default=None, help=token_help)

    lint = sub.add_parser(
        "lint",
        help="static invariant checks: determinism, key purity, locks",
        description="Run the AST-based invariant checker over the "
        "repository (see docs/lint.md): RPR001 nondeterminism (unseeded "
        "RNG, wall clock, set order, id()), RPR002 content-key purity, "
        "RPR003 lock discipline, RPR004 process-boundary safety.  "
        "Suppress a finding in place with "
        "`# repro: lint-ignore[RPR001]`; unused suppressions are "
        "reported as RPR000.  Exit code 0 = clean, 1 = findings, "
        "2 = usage error.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: "
        f"{' '.join(LINT_DEFAULT_PATHS)} under --root; tests/ is "
        "excluded because tests/lint/fixtures is intentionally bad)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--format",
        default="text",
        choices=LINT_FORMATS,
        help="output format: text (default), json, or github "
        "(workflow annotations for CI)",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root for default paths and display paths "
        "(default: current directory)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="inspect a fleet coordinator's progress and workers",
        description="Query a repro serve-cache --fleet coordinator's "
        "/v1/fleet/status: per-state job counts, the workers that "
        "reported in, and the tail of the failure ledger (failed "
        "attempts and expired leases).",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="print job counts, workers and recent failures"
    )
    fleet_status.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="the repro serve-cache --fleet URL to query",
    )
    fleet_status.add_argument(
        "--failures",
        type=int,
        default=5,
        help="how many trailing failure-ledger entries to print",
    )
    return parser


_HANDLERS = {
    "topologies": _cmd_topologies,
    "benchmarks": _cmd_benchmarks,
    "flow": _cmd_flow,
    "fidelity": _cmd_fidelity,
    "tables": _cmd_tables,
    "sweep": _cmd_sweep,
    "diff": _cmd_diff,
    "cache": _cmd_cache,
    "serve-cache": _cmd_serve_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "results": _cmd_results,
    "cancel": _cmd_cancel,
    "worker": _cmd_worker,
    "fleet": _cmd_fleet,
    "lint": _cmd_lint,
}


def main(argv: list = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)
