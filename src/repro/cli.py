"""``python -m repro`` -- command line front end of the experiment pipeline.

Commands
--------

``list [--json]``
    Enumerate the experiment catalog (every paper table / figure).
``info <experiment> [--fast] [--json]``
    Show one experiment's resolved declarative spec, followed by its planned
    grid cells with their cache digests and hit/stale/cold status -- a
    run-cost preview that resolves no models and computes nothing.
    ``--json`` emits only the exact machine-readable spec the service's
    ``POST /jobs`` accepts inline (round-trippable; no cell section).
``run <experiment> [...] [--fast] [--jobs N] [--resume] [--remote URL]``
    Execute experiments through the :class:`~repro.pipeline.runner.Runner`,
    printing each paper-style table as its result lands (with its time since
    the command started) and writing ``results/<name>.txt`` and
    ``results/<name>.json``.  ``run all`` executes the whole catalog.  The
    run summary ends with ``# paper claims: N/M hold`` and one line per
    violated claim (see :func:`repro.pipeline.catalog.check_claims`); a
    violation is reported, not an error, and leaves the exit status alone.
    ``--fast`` switches to the smoke-test profile (small zoo models, few
    attack samples, scaled-down attack iterations).  ``--jobs`` shards the
    run's grid cells (and, within the attack cells, the victim examples)
    across worker processes -- the default ``auto`` uses every available
    core, and any value is bit-for-bit identical to ``--jobs 1``.  All
    requested experiments are planned as one deduplicated cell graph, so
    ``run all`` computes each shared cell once.  Every run writes an
    incremental manifest of completed cells; after a crash (or a
    ``CellExecutionError``) ``--resume`` proves in the telemetry that only
    unfinished cells are recomputed (see ``docs/faults.md``).  ``--remote``
    layers a ``serve --share-store`` peer's artifact cache under this run
    (fill-through reads, async publication; see ``docs/store-remote.md``).
``serve [--host H] [--port P] [--workers N] [--jobs N] [--share-store]``
    Start the long-lived robustness-evaluation service: an HTTP API with a
    job queue in front of the same runner (see :mod:`repro.service`).
    ``--share-store`` additionally exposes the artifact-exchange endpoints
    so ``run --remote`` clients can trade cached cells with this service.
``cache stats [--json] [--remote URL]`` / ``cache gc [--budget SIZE] [--stale]`` /
``cache explain <digest>``
    Inspect and garbage-collect the content-addressed artifact store behind
    the cell cache (see :mod:`repro.store`).  ``stats`` includes a staleness
    breakdown (fresh / stale / unknown against the live dependency
    fingerprints), ``gc --stale`` reclaims cells superseded by code changes,
    and ``explain`` shows which recorded dependency of one artifact moved
    (see :mod:`repro.pipeline.fingerprints` and ``docs/caching.md``).
``trace <trace.ndjson | result.json> [--chrome OUT]``
    Summarise a traced run (``REPRO_TRACE=1 ... run``) as a per-span table
    and per-cell timeline, or export Chrome trace-event JSON for
    https://ui.perfetto.dev.  Also accepts an untraced ``results/*.json``
    (a synthetic timeline is rebuilt from its telemetry).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.allocator import keep_freed_memory_mapped
from repro.parallel.engine import CellExecutionError
from repro.pipeline import EXPERIMENTS, Runner, get_experiment, list_experiments
from repro.pipeline.catalog import check_claims
from repro.registry import RegistryError


def _jobs_value(value: str):
    """argparse type for ``--jobs``: ``auto`` or a positive integer."""
    if value == "auto":
        return value
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {value!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Defensive Approximation (ASPLOS 2021) experiment pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="enumerate the experiment catalog")
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the catalog as a JSON array of {name, kind, title}",
    )

    info = sub.add_parser(
        "info", help="show one experiment's spec and its cells' cache status"
    )
    info.add_argument("experiment", help="catalog name (see `list`)")
    info.add_argument(
        "--fast",
        action="store_true",
        help="preview the --fast profile's cells instead of the full run's",
    )
    info.add_argument(
        "--cache-dir", default=None, help="cell-cache location (default: zoo cache)"
    )
    info.add_argument(
        "--json",
        action="store_true",
        help="emit only the round-trippable machine spec (what the service's "
        "POST /jobs accepts as an inline experiment); no cell section",
    )

    run = sub.add_parser("run", help="execute experiments and write results/")
    run.add_argument(
        "experiments",
        nargs="+",
        help="catalog names (see `list`), or `all` for the whole catalog",
    )
    run.add_argument(
        "--fast",
        action="store_true",
        help="smoke-test profile: small zoo models and attack budgets",
    )
    run.add_argument(
        "--results-dir",
        default="results",
        help="where <name>.txt / <name>.json are written (default: results/)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every grid cell, ignoring cached artifacts",
    )
    run.add_argument(
        "--jobs",
        default="auto",
        type=_jobs_value,
        metavar="N",
        help="worker processes for cell execution: a positive integer, or "
        "'auto' for the CPU count (default).  Results are identical for "
        "every value.",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run: cells the previous run's manifest "
        "proves complete (and still cached) are skipped, and counted as "
        "resumed in the telemetry",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="cell-cache location (default: zoo cache)",
    )
    run.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="artifact-exchange peer (a `serve --share-store` base URL, e.g. "
        "http://127.0.0.1:8642): local cache misses fill through from the "
        "peer and computed cells publish back; a dead or lying peer "
        "degrades to local-only compute with identical results",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress progress lines (tables still print)"
    )

    serve = sub.add_parser(
        "serve", help="start the long-lived robustness-evaluation HTTP service"
    )
    serve.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port (default: 8642; 0 = ephemeral)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent jobs executing at once (default: 2)",
    )
    serve.add_argument(
        "--jobs",
        default=1,
        type=_jobs_value,
        metavar="N",
        help="worker processes per job's cell execution (default: 1; "
        "'auto' for the CPU count)",
    )
    serve.add_argument(
        "--results-dir",
        default="results",
        help="where job results are persisted and GET /results serves from",
    )
    serve.add_argument(
        "--cache-dir", default=None, help="artifact-store location (default: zoo cache)"
    )
    serve.add_argument(
        "--share-store",
        action="store_true",
        help="expose the artifact-exchange endpoints (GET/PUT "
        "/store/artifacts/...) so `run --remote` clients can trade cached "
        "cells with this service",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    cache = sub.add_parser(
        "cache", help="inspect / garbage-collect the cell artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="artifact counts, bytes, active leases")
    stats.add_argument("--json", action="store_true", help="emit raw JSON")
    stats.add_argument(
        "--cache-dir", default=None, help="store location (default: zoo cache)"
    )
    stats.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="also show a `serve --share-store` peer's store occupancy "
        "(GET /store/stats on that URL)",
    )
    gc = cache_sub.add_parser(
        "gc", help="evict least-recently-read artifacts down to a byte budget"
    )
    gc.add_argument(
        "--budget",
        default=None,
        metavar="SIZE",
        help="byte budget like 512M or 2G (default: REPRO_STORE_BUDGET)",
    )
    gc.add_argument(
        "--stale",
        action="store_true",
        help="also drop every artifact whose recorded dependency fingerprints "
        "no longer match the live code (superseded cells)",
    )
    gc.add_argument(
        "--cache-dir", default=None, help="store location (default: zoo cache)"
    )
    explain = cache_sub.add_parser(
        "explain", help="show one cached cell's dependency fingerprints vs live code"
    )
    explain.add_argument(
        "cell", help="an artifact digest, or a unique digest prefix (>= 6 chars)"
    )
    explain.add_argument(
        "--cache-dir", default=None, help="store location (default: zoo cache)"
    )
    explain.add_argument("--json", action="store_true", help="emit raw JSON")

    trace = sub.add_parser(
        "trace", help="summarise a run trace / export Chrome trace-event JSON"
    )
    trace.add_argument(
        "path",
        help="a merged *.trace.ndjson (from REPRO_TRACE=1 run) or a "
        "results/<name>.json",
    )
    trace.add_argument(
        "--chrome",
        default=None,
        metavar="OUT",
        help="write Chrome trace-event JSON here (open at ui.perfetto.dev)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the per-span aggregate as JSON instead of the text report",
    )
    return parser


def _cmd_list(as_json: bool) -> int:
    names = list_experiments()
    if as_json:
        catalog = [
            {"name": name, **{k: EXPERIMENTS.metadata(name)[k] for k in ("kind", "title")}}
            for name in names
        ]
        print(json.dumps(catalog, indent=2))
        return 0
    width = max(len(name) for name in names)
    for name in names:
        meta = EXPERIMENTS.metadata(name)
        print(f"{name.ljust(width)}  [{meta['kind']}]  {meta['title']}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    spec = get_experiment(args.experiment)
    if args.json:
        # the wire format: ExperimentSpec.from_dict round-trips this exactly,
        # so it can be edited and submitted to the service's POST /jobs
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=False))
        return 0
    print(json.dumps(spec.to_dict(), indent=2, default=str))
    # the run-cost preview: plan the cell graph (no model resolution, no
    # compute) and classify each cell against the artifact store
    from repro.parallel.plan import build_plan, cache_outlook

    runner = Runner(fast=args.fast, cache_dir=args.cache_dir)
    plan = build_plan(runner, [spec])
    outlook = cache_outlook(runner, plan)
    display = {"warm": "hit", "stale": "stale", "cold": "cold"}
    print(
        f"\n# cells (fast={runner.fast}): {len(plan.tasks)} total -- "
        f"{outlook['warm']} hit / {outlook['stale']} stale / {outlook['cold']} cold"
    )
    for cell in outlook["cells"]:
        line = f"#   {display[cell['status']].ljust(5)} {cell['kind'].ljust(16)} {cell['digest']}"
        if cell.get("superseded"):
            line += f"  (supersedes {', '.join(d[:10] for d in cell['superseded'])})"
        print(line)
    return 0


def _cmd_run(args: argparse.Namespace, launched: float) -> int:
    names = list_experiments() if "all" in args.experiments else list(args.experiments)
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    runner = Runner(
        fast=args.fast,
        results_dir=args.results_dir,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress,
        jobs=args.jobs,
        resume=args.resume,
        remote=args.remote,
    )

    def show(result) -> None:
        print(f"\n===== {result.name} =====")
        if result.title:
            print(f"# {result.title}")
        print(result.table)
        print(
            f"# wrote {args.results_dir}/{result.name}.txt and .json "
            f"(+{time.perf_counter() - launched:.1f}s, {result.elapsed_seconds:.1f}s, "
            f"cells: {result.cache_hits} cached / {result.cache_misses} computed)",
            flush=True,
        )

    results = runner.run_many(names, on_result=show)
    telemetry = runner.telemetry
    if telemetry.trace is not None:
        print(
            f"# trace: {telemetry.trace['spans']} spans from "
            f"{len(telemetry.trace['pids'])} process(es) -> {telemetry.trace['path']} "
            f"(inspect with `python -m repro trace {telemetry.trace['path']}`)"
        )
    print(
        f"\n# run summary: {telemetry.cells_total} cells "
        f"({telemetry.cache_hits} cached, {telemetry.cache_misses} computed, "
        f"{telemetry.compute_seconds:.1f}s compute) on {runner.jobs} worker(s)"
    )
    zoo = telemetry.zoo_training()
    if zoo["pool"] or zoo["parent"]:

        def units(names: List[str]) -> str:
            guess = {name: zoo["estimate_s"][name] for name in names}
            return ", ".join(
                f"{name} {'-' if guess[name] is None else f'{guess[name]:.1f}'}/"
                f"{zoo['unit_s'][name]:.1f}s on pid {zoo['worker'][name]}"
                for name in names
            )

        print(
            f"# zoo training: pool [{units(zoo['pool'])}], "
            f"parent [{units(zoo['parent'])}] (estimated/measured seconds), "
            f"{zoo['wall_s']:.1f}s wall from the first unit's start to the last one's publication"
        )
    if any(telemetry.faults.values()):
        survived = ", ".join(f"{k}={v}" for k, v in telemetry.faults.items() if v)
        print(f"# fault tolerance: {survived}")
    if runner.remote is not None:
        remote = telemetry.remote_totals()
        print(
            f"# remote store: {remote['hits']} hit(s) / {remote['misses']} miss(es) "
            f"fetched, {remote['puts']} published, "
            f"{remote['rejected_checksum'] + remote['rejected_meta']} rejected, "
            f"{remote['timeouts'] + remote['errors']} transport error(s) "
            f"via {runner.remote}"
        )
    kernels = telemetry.snapshot().get("kernels", {})
    if kernels.get("fused_calls") or kernels.get("fallback_calls"):
        print(
            f"# gemm kernels: {kernels['fused_calls']} fused / "
            f"{kernels['fallback_calls']} fallback calls, "
            f"{kernels['fused_macs'] / 1e6:.1f}M fused MACs, "
            f"{kernels['weight_cache_hits']} weight-cache hits"
        )
    queries = telemetry.attack_queries()
    if queries.get("query_calls") or queries.get("gradient_calls"):
        print(
            f"# attack queries: {queries['query_samples']} samples over "
            f"{queries['query_calls']} calls "
            f"(mean batch {queries['mean_query_batch']}, "
            f"{queries['query_calls_batch1']} at batch 1); "
            f"gradients: {queries['gradient_samples']} over "
            f"{queries['gradient_calls']} calls "
            f"(mean batch {queries['mean_gradient_batch']})"
        )
    verdicts = [
        (result.name, verdict)
        for result in results
        for verdict in check_claims(result.name, result.fast, result.metrics)
    ]
    print(f"# paper claims: {sum(v.held for _, v in verdicts)}/{len(verdicts)} hold")
    for name, verdict in verdicts:
        if not verdict.held:
            cause = f" ({verdict.error})" if verdict.error else ""
            print(f"#   violated: {name}: {verdict.text}{cause}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, serve

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    return serve(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        workers=args.workers,
        jobs=args.jobs,
        results_dir=args.results_dir,
        cache_dir=args.cache_dir,
        progress=progress,
        share_store=args.share_store,
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.zoo import CACHE_DIR
    from repro.store import ArtifactStore, parse_size

    root = args.cache_dir if args.cache_dir is not None else CACHE_DIR / "pipeline"
    store = ArtifactStore(root)
    if args.cache_command == "stats":
        from repro.pipeline.fingerprints import store_staleness

        stats = store.stats()
        staleness = store_staleness(store)
        stats["staleness"] = staleness["totals"]
        peer_stats = peer_error = peer_url = None
        if args.remote:
            from repro.store import RemoteStoreClient, RemoteStoreError

            client = RemoteStoreClient(args.remote, retries=0)
            peer_url = client.base_url
            try:
                peer_stats = client.remote_store_stats()
            except RemoteStoreError as exc:
                peer_error = str(exc)
            stats["remote"] = {
                "url": peer_url,
                "stats": peer_stats,
                "error": peer_error,
            }
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        budget = stats["budget_bytes"]
        fresh, stale, unknown = (
            staleness["totals"]["fresh"],
            staleness["totals"]["stale"],
            staleness["totals"]["unknown"],
        )
        print(f"store:    {stats['root']}")
        print(
            f"artifacts: {stats['artifacts']} "
            f"({stats['bytes'] / 1e6:.2f} MB"
            + (f" of {budget / 1e6:.2f} MB budget" if budget else ", no budget")
            + ")"
        )
        print(
            f"staleness: {fresh} fresh / {stale} stale / {unknown} unknown"
            + (" (stale: reclaim with `cache gc --stale`)" if stale else "")
        )
        print(f"leases:   {stats['active_leases']} active (TTL {stats['lease_ttl_seconds']:.0f}s)")
        corrupt = stats.get("counters", {}).get("corrupt_unlinked", 0)
        if corrupt:
            print(
                f"corrupt:  {corrupt} unreadable artifact(s) unlinked on read "
                f"(this process)"
            )
        if peer_url is not None:
            if peer_error is not None:
                print(f"remote:   {peer_url} unreachable ({peer_error})")
            else:
                print(
                    f"remote:   {peer_url}: {peer_stats.get('artifacts', 0)} artifacts "
                    f"({peer_stats.get('bytes', 0) / 1e6:.2f} MB), "
                    f"{peer_stats.get('active_leases', 0)} active lease(s)"
                )
        for namespace, info in sorted(stats["namespaces"].items()):
            by_ns = staleness["namespaces"].get(
                namespace, {"fresh": 0, "stale": 0, "unknown": 0}
            )
            print(
                f"  {namespace.ljust(24)} {str(info['artifacts']).rjust(5)} artifacts  "
                f"{info['bytes'] / 1e6:8.2f} MB  "
                f"({by_ns['fresh']} fresh / {by_ns['stale']} stale / "
                f"{by_ns['unknown']} unknown)"
            )
        return 0
    if args.cache_command == "gc":
        report: dict = {}
        if args.stale:
            from repro.pipeline.fingerprints import collect_stale

            stale_cells = collect_stale(store)
            removed = sum(
                1 for namespace, digest in stale_cells if store.remove(namespace, digest)
            )
            report["stale_removed"] = removed
        budget = parse_size(args.budget) if args.budget is not None else None
        report.update(store.gc(budget=budget))
        print(json.dumps(report, indent=2))
        return 0
    if args.cache_command == "explain":
        return _cmd_cache_explain(store, args)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_cache_explain(store, args: argparse.Namespace) -> int:
    """``cache explain <digest>``: which recorded dependency moved, if any."""
    from repro.pipeline.fingerprints import diff_fingerprints, meta_status

    prefix = args.cell.strip().lower()
    if len(prefix) < 6:
        print("error: give at least 6 digest characters", file=sys.stderr)
        return 2
    matches = [
        (namespace, digest)
        for namespace, digest, _path, _stat in store._artifacts()
        if digest.startswith(prefix)
    ]
    if not matches:
        print(f"error: no artifact matches {prefix!r} under {store.root}", file=sys.stderr)
        return 2
    reports = []
    for namespace, digest in matches:
        meta = store.get_meta(namespace, digest)
        status = meta_status(meta)
        entry = {"namespace": namespace, "digest": digest, "status": status}
        if meta is not None:
            entry["content_key"] = meta.get("content_key")
            entry["fast"] = meta.get("fast")
            if isinstance(meta.get("deps"), dict):
                entry["deps"] = diff_fingerprints(meta["deps"])
        reports.append(entry)
    if args.json:
        print(json.dumps(reports if len(reports) > 1 else reports[0], indent=2))
        return 0
    for entry in reports:
        print(f"{entry['namespace']}/{entry['digest']}: {entry['status']}")
        if entry["status"] == "unknown":
            print(
                "  no provenance sidecar (written before per-cell fingerprints, "
                "or by a foreign tool); recompute to adopt one"
            )
            continue
        print(f"  content_key: {entry['content_key']}  fast={entry['fast']}")
        for key, diff in entry.get("deps", {}).items():
            verdict = "MOVED" if diff["moved"] else "ok"
            live = diff["live"] if diff["live"] is not None else "<gone>"
            print(
                f"  {key.ljust(22)} recorded {diff['recorded']}  "
                f"live {live}  {verdict}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.timeline import _aggregate, chrome_trace, load_spans, summarize

    path = Path(args.path)
    try:
        spans, source = load_spans(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {path} is not a trace or result file: {exc}", file=sys.stderr)
        return 2
    if args.chrome:
        out = Path(args.chrome)
        out.write_text(json.dumps(chrome_trace(spans), indent=2) + "\n")
        print(f"# wrote {out} ({len(spans)} events; open at https://ui.perfetto.dev)")
    if args.json:
        pids = sorted({int(s.get("pid", 0)) for s in spans})
        print(
            json.dumps(
                {
                    "source": source,
                    "spans": len(spans),
                    "pids": pids,
                    "by_span": [
                        {"cat": cat, "name": name, "count": count, "total_ms": round(ms, 3)}
                        for cat, name, count, ms in _aggregate(spans)
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(summarize(spans, source))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    launched = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.json)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "run":
            keep_freed_memory_mapped()
            return _cmd_run(args, launched)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "trace":
            return _cmd_trace(args)
    except RegistryError as exc:
        # unknown experiment/component: a clean one-line error, not a traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except CellExecutionError as exc:
        # a cell died for good (retry budget exhausted): one line naming the
        # failing cell -- its message carries kind, digest and owning
        # experiment -- not a traceback.  Finished cells are cached and in
        # the run manifest, so --resume picks up where this run died.
        print(f"error: {exc}", file=sys.stderr)
        print("hint: completed cells are cached; rerun with --resume", file=sys.stderr)
        return 3
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
