"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate`` — write one of the dataset simulators to a stream file.
- ``cluster`` — run a clustering method over a stream file under a sliding
  window and write the final labels (optionally logging evolution events).
- ``estimate`` — suggest eps (k-distance knee) and tau for a stream sample.
- ``compare`` — quick side-by-side of all methods on a stream.
- ``serve`` — host multi-tenant live sessions over the JSON-lines TCP
  protocol (see docs/serving.md).
- ``loadgen`` — drive a serve endpoint with N concurrent tenants and report
  ingest throughput and query-latency percentiles.
- ``tail`` — follow a tenant's evolution journal over ``SUBSCRIBE``,
  printing one CDC record per line.
- ``fuzz`` — seeded differential fuzzing: adversarial streams through every
  backend under the oracle matrix, shrinking failures to replayable case
  files (see docs/testing.md).

``cluster`` can run resiliently: ``--checkpoint-dir`` turns on durable
checkpoints every ``--checkpoint-every`` strides, ``--resume`` continues a
crashed run from its latest checkpoint with byte-identical results, and
``--on-malformed`` picks the input-fault policy (strict/skip/clamp, with an
optional ``--dead-letter`` JSONL sink). ``--chaos-kill-at`` injects a crash
at a stride boundary for drills. See docs/operations.md.

``cluster`` can also run instrumented (``--method disc`` only): ``--trace``
streams one JSON trace record per stride (phase timings, algorithm counters,
index statistics) and ``--metrics-out`` maintains a Prometheus textfile with
the run totals; either flag also prints the trace summary at the end. See
the Observability section of docs/operations.md.

Examples:
    python -m repro generate --dataset maze --n 5000 --output maze.csv
    python -m repro cluster --input maze.csv --eps 0.8 --tau 4 \\
        --window 2000 --stride 100 --output labels.csv --events
    python -m repro cluster --input maze.csv --eps 0.8 --tau 4 \\
        --window 2000 --stride 100 --checkpoint-dir ./ckpt --resume \\
        --on-malformed skip --dead-letter bad.jsonl
    python -m repro estimate --input maze.csv --k 4 --sample 1000
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.baselines import (
    DBStream,
    EDMStream,
    ExtraN,
    IncrementalDBSCAN,
    RhoDoubleApproxDBSCAN,
    SlidingDBSCAN,
)
from repro.common.config import WindowSpec
from repro.common.errors import ReproError
from repro.core.checkpoint import CheckpointError
from repro.core.disc import DISC
from repro.datasets.io import read_stream, read_stream_lenient, write_labels, write_stream
from repro.datasets.registry import DATASETS
from repro.index.registry import DEFAULT_INDEX, available_indexes
from repro.metrics.kdist import suggest_eps, suggest_tau
from repro.monitoring import runtime_report
from repro.window.sliding import SlidingWindow

#: Exit code for an injected chaos kill, distinct from ordinary failures so
#: recovery drills can assert the crash happened as planned.
EXIT_CHAOS = 3

#: Exit code when the fuzzer finds an oracle violation, distinct from usage
#: errors so CI can tell "bug found" (collect the case artifact) from
#: "harness misconfigured".
EXIT_FUZZ = 4

METHODS = ("disc", "incdbscan", "extran", "dbscan", "rho2", "dbstream", "edmstream")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DISC incremental density-based clustering (ICDE 2021 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a dataset simulator's stream to a file"
    )
    generate.add_argument(
        "--dataset", required=True, choices=sorted(DATASETS)
    )
    generate.add_argument("--n", type=int, required=True, help="points to emit")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help=".csv or .jsonl path")

    cluster = commands.add_parser(
        "cluster", help="cluster a stream file under a sliding window"
    )
    cluster.add_argument("--input", required=True)
    cluster.add_argument("--method", choices=METHODS, default="disc")
    cluster.add_argument("--eps", type=float, required=True)
    cluster.add_argument("--tau", type=int, required=True)
    cluster.add_argument("--window", type=int, required=True)
    cluster.add_argument("--stride", type=int, required=True)
    cluster.add_argument("--time-based", action="store_true")
    cluster.add_argument(
        "--index",
        choices=available_indexes(),
        default=DEFAULT_INDEX,
        help="spatial-index backend for index-based methods "
        "(disc/incdbscan/extran/dbscan)",
    )
    cluster.add_argument("--rho", type=float, default=0.001, help="rho2 only")
    cluster.add_argument("--output", help="labels CSV for the final window")
    cluster.add_argument(
        "--events", action="store_true", help="log evolution events per stride"
    )
    cluster.add_argument(
        "--checkpoint-dir",
        help="directory for durable checkpoints (disc only); enables the "
        "resilient runtime",
    )
    cluster.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        help="strides between checkpoints (default: 16)",
    )
    cluster.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    cluster.add_argument(
        "--on-malformed",
        choices=("strict", "skip", "clamp"),
        default="strict",
        help="policy for malformed input records (default: strict = fail)",
    )
    cluster.add_argument(
        "--dead-letter",
        help="JSONL file collecting records rejected by skip/clamp policies",
    )
    cluster.add_argument(
        "--chaos-kill-at",
        type=int,
        metavar="STRIDE",
        help="fault injection: crash at this stride boundary (recovery drills)",
    )
    cluster.add_argument(
        "--trace",
        metavar="PATH",
        help="write one JSON trace record per stride to this JSONL file "
        "(disc only)",
    )
    cluster.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="maintain a Prometheus textfile with cumulative run metrics "
        "(disc only)",
    )

    estimate = commands.add_parser(
        "estimate", help="suggest eps/tau from a stream sample"
    )
    estimate.add_argument("--input", required=True)
    estimate.add_argument("--k", type=int, default=4)
    estimate.add_argument(
        "--sample", type=int, default=1000, help="points to sample from the head"
    )

    compare = commands.add_parser(
        "compare", help="run every method over a stream and report speed"
    )
    compare.add_argument("--input", required=True)
    compare.add_argument("--eps", type=float, required=True)
    compare.add_argument("--tau", type=int, required=True)
    compare.add_argument("--window", type=int, required=True)
    compare.add_argument("--stride", type=int, required=True)
    compare.add_argument(
        "--index",
        choices=available_indexes(),
        default=DEFAULT_INDEX,
        help="spatial-index backend for index-based methods",
    )

    serve = commands.add_parser(
        "serve",
        help="host multi-tenant live clustering sessions over TCP "
        "(JSON-lines protocol; see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7171, help="0 picks a free port")
    serve.add_argument(
        "--data-dir",
        help="root directory for per-tenant durability (session metadata + "
        "checkpoints); omit for ephemeral sessions",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resurrect every tenant persisted under --data-dir before "
        "accepting connections",
    )
    serve.add_argument(
        "--metrics-dir",
        help="maintain a Prometheus textfile per tenant in this directory",
    )
    serve.add_argument(
        "--trace-dir",
        help="append per-stride JSONL traces per tenant in this directory",
    )
    serve.add_argument(
        "--restart-budget",
        type=int,
        default=3,
        help="supervised restarts allowed per crashed tenant before its "
        "circuit breaker opens and the session stays failed",
    )
    serve.add_argument(
        "--restart-backoff",
        type=float,
        default=0.05,
        help="base seconds of the exponential restart backoff "
        "(backoff * 2**attempt)",
    )
    serve.add_argument(
        "--restart-reset",
        type=float,
        default=5.0,
        help="seconds a restarted tenant (or shard worker) must stay "
        "healthy before its restart-budget window resets",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="worker processes to shard tenants across (consistent hashing "
        "on the tenant name); 0 = single-process serving (the default)",
    )

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a serve endpoint with N concurrent tenants and report "
        "throughput + query latency",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7171)
    loadgen.add_argument("--tenants", type=int, default=4)
    loadgen.add_argument(
        "--points", type=int, default=2000, help="points per tenant"
    )
    loadgen.add_argument(
        "--dataset",
        choices=sorted(DATASETS),
        default="maze",
        help="dataset simulator feeding each tenant (seeded per tenant)",
    )
    loadgen.add_argument(
        "--eps", type=float, help="default: the dataset's calibrated eps"
    )
    loadgen.add_argument(
        "--tau", type=int, help="default: the dataset's calibrated tau"
    )
    loadgen.add_argument(
        "--window", type=int, help="default: the dataset's calibrated window"
    )
    loadgen.add_argument("--stride", type=int, help="default: window/10")
    loadgen.add_argument(
        "--index",
        choices=available_indexes(),
        default=None,
        help="spatial-index backend name for the served sessions",
    )
    loadgen.add_argument(
        "--policy",
        choices=("block", "shed-oldest", "reject"),
        default="block",
        help="backpressure policy of the opened sessions",
    )
    loadgen.add_argument("--queue-limit", type=int, default=2048)
    loadgen.add_argument("--checkpoint-every", type=int, default=16)
    loadgen.add_argument(
        "--wal",
        action="store_true",
        help="journal every admitted point to a per-tenant write-ahead log "
        "before acknowledging it (needs a server with --data-dir and the "
        "block policy; ACK => durable)",
    )
    loadgen.add_argument(
        "--wal-fsync",
        choices=("always", "every_n", "interval"),
        default="always",
        help="WAL fsync policy: every commit / every N records / at most "
        "once per interval (see docs/serving.md for the loss matrix)",
    )
    loadgen.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=4 * 1024 * 1024,
        help="WAL segment rotation threshold in bytes",
    )
    loadgen.add_argument(
        "--journal",
        action="store_true",
        help="record every stride's evolution events + membership delta to "
        "a per-tenant CDC journal (needs a server with --data-dir; feeds "
        "SUBSCRIBE/EVENTS and AS_OF time travel)",
    )
    loadgen.add_argument(
        "--journal-fsync",
        choices=("always", "every_n", "interval"),
        default="always",
        help="journal fsync policy ('always' makes a stride's events "
        "durable before subscribers see them)",
    )
    loadgen.add_argument(
        "--journal-retention",
        type=int,
        default=0,
        help="strides of CDC history to retain (0 = unbounded)",
    )
    loadgen.add_argument(
        "--archive-every",
        type=int,
        default=0,
        help="strides between full AS_OF snapshots (0 = delta-replay only; "
        "needs --journal)",
    )
    loadgen.add_argument(
        "--subscribers",
        type=int,
        default=0,
        help="push subscribers per tenant, each on its own connection "
        "(needs --journal)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="target points/second per tenant (0 = as fast as admitted)",
    )
    loadgen.add_argument("--batch", type=int, default=50, help="points per INGEST")
    loadgen.add_argument(
        "--query-every",
        type=int,
        default=1,
        help="one pid-query + one coords-query every N batches (0 = none)",
    )
    loadgen.add_argument(
        "--no-flush-tail",
        action="store_true",
        help="drain without end-of-stream tail flush (mid-run drain semantics)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--json", help="also write the full report as JSON here")

    fuzz = commands.add_parser(
        "fuzz",
        help="seeded differential fuzzing over every index backend: "
        "adversarial streams checked against the oracle matrix, failures "
        "shrunk to replayable case files (see docs/testing.md)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        action="append",
        metavar="N",
        help="master seed to fuzz (repeatable; deterministic per seed)",
    )
    fuzz.add_argument(
        "--budget",
        type=float,
        metavar="MINUTES",
        help="draw fresh seeds until this wall-clock budget is spent "
        "(the nightly CI mode)",
    )
    fuzz.add_argument(
        "--start-seed",
        type=int,
        default=0,
        help="first seed of a --budget run (default: 0)",
    )
    fuzz.add_argument(
        "--replay",
        action="append",
        metavar="CASE",
        help="re-run a saved case file instead of generating scenarios "
        "(repeatable; clean exit means the bug stays fixed)",
    )
    fuzz.add_argument(
        "--backends",
        help="comma-separated index backends (default: all registered)",
    )
    fuzz.add_argument(
        "--oracles",
        help="comma-separated oracle names (default: all)",
    )
    fuzz.add_argument(
        "--scenarios",
        type=int,
        default=None,
        metavar="N",
        help="scenarios derived per seed (default: 3)",
    )
    fuzz.add_argument(
        "--out",
        metavar="DIR",
        help="directory for shrunk case files (omit to skip writing cases)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing the failing stream",
    )
    fuzz.add_argument(
        "--json", help="also write the full report as JSON here"
    )

    tail = commands.add_parser(
        "tail",
        help="follow a tenant's evolution journal over SUBSCRIBE, printing "
        "one CDC record per line (jq-friendly)",
    )
    tail.add_argument("session", help="tenant session name")
    tail.add_argument("--host", default="127.0.0.1")
    tail.add_argument("--port", type=int, default=7171)
    tail.add_argument(
        "--cursor",
        type=int,
        default=0,
        help="stride to start from (clamped to the journal's retention floor)",
    )
    tail.add_argument(
        "--policy",
        choices=("block", "disconnect"),
        default="block",
        help="slow-consumer policy: stall the pipeline, or get cut off "
        "with a resume cursor",
    )
    tail.add_argument(
        "--max",
        type=int,
        default=0,
        help="stop after N records (0 = follow until the stream ends)",
    )
    return parser


def make_method(name: str, args) -> object:
    """Instantiate a clusterer by CLI name."""
    spec = WindowSpec(window=args.window, stride=args.stride)
    dim = getattr(args, "dim", None)
    index = getattr(args, "index", DEFAULT_INDEX)
    if name == "disc":
        return DISC(args.eps, args.tau, index=index)
    if name == "incdbscan":
        return IncrementalDBSCAN(args.eps, args.tau, index=index)
    if name == "extran":
        return ExtraN(args.eps, args.tau, spec, index=index)
    if name == "dbscan":
        return SlidingDBSCAN(args.eps, args.tau, index=index)
    if name == "rho2":
        return RhoDoubleApproxDBSCAN(
            args.eps, args.tau, dim=dim, rho=getattr(args, "rho", 0.001)
        )
    if name == "dbstream":
        return DBStream(
            radius=1.5 * args.eps,
            dim=dim,
            fade=0.5 / args.window,
            alpha=0.1,
            weak_threshold=0.5,
        )
    if name == "edmstream":
        return EDMStream(radius=args.eps, dim=dim, fade=0.5 / args.window)
    raise ValueError(f"unknown method {name}")


def cmd_generate(args) -> int:
    points = DATASETS[args.dataset].load(args.n, seed=args.seed)
    count = write_stream(args.output, points)
    print(f"wrote {count} points of {args.dataset} to {args.output}")
    return 0


def _wants_runtime(args) -> bool:
    """Do the flags ask for the resilient runtime (supervisor) path?"""
    return bool(
        args.checkpoint_dir
        or args.resume
        or args.chaos_kill_at is not None
        or args.on_malformed != "strict"
        or args.dead_letter
    )


def _make_tracer(args):
    """Build a tracer from --trace/--metrics-out, or None when neither set.

    Returns an error string instead when the flags are misused.
    """
    if not (args.trace or args.metrics_out):
        return None
    if args.method != "disc":
        return (
            "--trace/--metrics-out instrument DISC internals and require "
            f"--method disc (got {args.method})"
        )
    from repro.observability import (
        JsonlTraceWriter,
        PrometheusTextfileExporter,
        Tracer,
    )

    sinks = []
    if args.trace:
        sinks.append(JsonlTraceWriter(args.trace))
    if args.metrics_out:
        sinks.append(PrometheusTextfileExporter(args.metrics_out))
    return Tracer(*sinks)


def cmd_cluster(args) -> int:
    tracer = _make_tracer(args)
    if isinstance(tracer, str):
        print(tracer, file=sys.stderr)
        return 1
    if _wants_runtime(args):
        return _cluster_supervised(args, tracer)
    points = list(read_stream(args.input))
    if not points:
        print("input stream is empty", file=sys.stderr)
        return 1
    args.dim = len(points[0].coords)
    method = make_method(args.method, args)
    if tracer is not None:
        method.tracer = tracer
    spec = WindowSpec(window=args.window, stride=args.stride)
    start = time.perf_counter()
    strides = 0
    try:
        for delta_in, delta_out in SlidingWindow(spec, args.time_based).slides(
            points
        ):
            summary = method.advance(delta_in, delta_out)
            strides += 1
            if args.events and summary is not None and summary.events:
                for event in summary.events:
                    print(
                        f"stride {strides - 1}: {event.kind.value} "
                        f"clusters={event.cluster_ids}"
                    )
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - start
    snapshot = method.snapshot()
    print(
        f"{method.name}: {strides} strides in {elapsed:.2f}s "
        f"({elapsed / max(1, strides) * 1000:.1f} ms/stride); "
        f"final window: {snapshot.num_points} points, "
        f"{snapshot.num_clusters} clusters"
    )
    if tracer is not None:
        print(tracer.report())
    if args.output:
        rows = write_labels(args.output, snapshot)
        print(f"wrote {rows} labels to {args.output}")
    return 0


def _cluster_supervised(args, tracer=None) -> int:
    """The resilient path: supervisor-driven DISC with checkpoint/resume."""
    from repro.runtime.chaos import ChaosKill, ChaosMonkey
    from repro.runtime.policies import DeadLetterSink
    from repro.runtime.supervisor import Supervisor

    if args.method != "disc":
        print(
            "checkpoint/resume and fault policies require --method disc "
            f"(got {args.method})",
            file=sys.stderr,
        )
        return 1
    needs_store = args.resume or args.checkpoint_dir
    if needs_store and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 1
    spec = WindowSpec(window=args.window, stride=args.stride)
    hooks = (
        ChaosMonkey(kill_before_stride=args.chaos_kill_at)
        if args.chaos_kill_at is not None
        else None
    )
    dead_letter = DeadLetterSink(args.dead_letter) if args.dead_letter else None
    supervisor = Supervisor(
        args.eps,
        args.tau,
        spec,
        store=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        index=args.index,
        time_based=args.time_based,
        policy=args.on_malformed,
        dead_letter=dead_letter,
        hooks=hooks,
        tracer=tracer,
    )
    stream = read_stream_lenient(args.input)
    start = time.perf_counter()
    strides = 0
    try:
        for _, summary in supervisor.run(stream, resume=args.resume):
            strides += 1
            if args.events and summary.events:
                for event in summary.events:
                    print(
                        f"stride {supervisor.stride - 1}: {event.kind.value} "
                        f"clusters={event.cluster_ids}"
                    )
    except ChaosKill as exc:
        print(f"killed: {exc}", file=sys.stderr)
        print(runtime_report(supervisor.stats), file=sys.stderr)
        return EXIT_CHAOS
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
    elapsed = time.perf_counter() - start
    if supervisor.clusterer is None:
        print("input stream is empty", file=sys.stderr)
        return 1
    snapshot = supervisor.snapshot()
    print(
        f"DISC (supervised): {strides} strides in {elapsed:.2f}s "
        f"({elapsed / max(1, strides) * 1000:.1f} ms/stride); "
        f"final window: {snapshot.num_points} points, "
        f"{snapshot.num_clusters} clusters"
    )
    if tracer is not None:
        # One merged end-of-run block: runtime counters + trace totals.
        print(tracer.report(supervisor.stats))
    else:
        print(runtime_report(supervisor.stats))
    if args.output:
        rows = write_labels(args.output, snapshot)
        print(f"wrote {rows} labels to {args.output}")
    return 0


def cmd_estimate(args) -> int:
    points = []
    for point in read_stream(args.input):
        points.append(point)
        if len(points) >= args.sample:
            break
    if len(points) <= args.k:
        print("not enough points to estimate", file=sys.stderr)
        return 1
    eps = suggest_eps(points, args.k)
    tau = suggest_tau(points, eps, sample_every=max(1, len(points) // 300))
    print(f"sampled {len(points)} points (k={args.k})")
    print(f"suggested eps: {eps:.6g}")
    print(f"suggested tau: {tau}")
    return 0


def cmd_compare(args) -> int:
    points = list(read_stream(args.input))
    if not points:
        print("input stream is empty", file=sys.stderr)
        return 1
    args.dim = len(points[0].coords)
    spec = WindowSpec(window=args.window, stride=args.stride)
    print(f"{'method':<12} {'total s':>8} {'ms/stride':>10} {'clusters':>9}")
    for name in METHODS:
        method = make_method(name, args)
        start = time.perf_counter()
        strides = 0
        for delta_in, delta_out in SlidingWindow(spec).slides(points):
            method.advance(delta_in, delta_out)
            strides += 1
        elapsed = time.perf_counter() - start
        snapshot = method.snapshot()
        print(
            f"{method.name:<12} {elapsed:8.2f} "
            f"{elapsed / max(1, strides) * 1000:10.1f} "
            f"{snapshot.num_clusters:9d}"
        )
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import main as serve_main

    return serve_main(args)


def cmd_loadgen(args) -> int:
    from repro.serve.loadgen import main as loadgen_main

    return loadgen_main(args)


def cmd_fuzz(args) -> int:
    """Differential fuzzing: exit 0 clean, EXIT_FUZZ on an oracle violation."""
    import json

    from repro.fuzz import replay_case, run_budget, run_fuzz
    from repro.fuzz.harness import SCENARIOS_PER_SEED

    modes = sum(
        1 for flag in (args.seed, args.budget, args.replay) if flag
    )
    if modes != 1:
        print(
            "pick exactly one of --seed, --budget, or --replay",
            file=sys.stderr,
        )
        return 1
    backends = args.backends.split(",") if args.backends else None
    oracles = args.oracles.split(",") if args.oracles else None
    scenarios = (
        args.scenarios if args.scenarios is not None else SCENARIOS_PER_SEED
    )
    try:
        if args.replay:
            from repro.fuzz.harness import FuzzReport

            report = FuzzReport()
            for path in args.replay:
                report.merge(
                    replay_case(path, backends=backends, oracles=oracles)
                )
        elif args.budget is not None:
            report = run_budget(
                args.budget,
                start_seed=args.start_seed,
                backends=backends,
                oracles=oracles,
                scenarios_per_seed=scenarios,
                out_dir=args.out,
            )
        else:
            report = run_fuzz(
                args.seed,
                backends=backends,
                oracles=oracles,
                scenarios_per_seed=scenarios,
                out_dir=args.out,
                do_shrink=not args.no_shrink,
            )
    except (ReproError, KeyError, OSError) as exc:
        print(f"fuzz error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}", file=sys.stderr)
    return 0 if report.ok else EXIT_FUZZ


def cmd_tail(args) -> int:
    """Follow a tenant's CDC journal: records to stdout, status to stderr."""
    import asyncio

    from repro.query.journal import encode_record
    from repro.serve.client import ServeClient

    async def _tail() -> int:
        client = await ServeClient.connect(args.host, args.port)
        try:
            reply = await client.subscribe(
                args.session, cursor=args.cursor, policy=args.policy
            )
            print(
                f"tail: subscribed to {args.session!r} at cursor "
                f"{reply['cursor']} (head {reply['head']})",
                file=sys.stderr,
            )
            seen = 0
            async for frame in client.pushes():
                if frame.get("push") == "event":
                    print(encode_record(frame["record"]).decode(), flush=True)
                    seen += 1
                    if args.max and seen >= args.max:
                        return 0
                else:
                    print(
                        f"tail: stream ended ({frame.get('reason')}), "
                        f"resume cursor {frame.get('cursor')}",
                        file=sys.stderr,
                    )
            return 0
        finally:
            await client.close()

    try:
        return asyncio.run(_tail())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 0
    except (ReproError, OSError) as exc:
        print(f"tail error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "cluster": cmd_cluster,
        "estimate": cmd_estimate,
        "compare": cmd_compare,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "tail": cmd_tail,
        "fuzz": cmd_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
