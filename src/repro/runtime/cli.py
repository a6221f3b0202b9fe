"""``python -m repro`` / ``repro`` — the command-line front door.

Commands
--------
``repro list``
    Registered experiments (one per table/figure of the paper).
``repro backends``
    Softmax execution backends understood by ``resolve_backend``.
``repro run <name> [--backend B] [--fast] [--workers N] [--set k=v ...] [--json PATH] [--out PATH]``
    Regenerate one artefact: prints the rendered table and optionally
    writes JSON — ``--json`` the full artifact (``Experiment.to_dict``
    wrapped with schema + config), ``--out`` the bare ``to_dict()``
    result payload.
``repro serve [--port P] [--backend B] [--rate R ...]``
    The softmax server: with ``--port``, serve newline-delimited JSON
    over TCP until interrupted; without, run a seeded in-process load
    demo and print the throughput/latency table.

Examples
--------
::

    repro list
    repro run table2 --set engine=vectorized --json table2.json
    repro run table3_4 --backend ap-cluster --fast
    repro serve --rate 2000 --requests 128
    repro backends
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Any, Dict, List, Optional

from repro.runtime.backend import (
    UnknownBackendError,
    backend_descriptions,
    canonical_backend_name,
)
from repro.runtime.registry import (
    UnknownExperimentError,
    get_experiment,
    iter_experiments,
)

__all__ = ["main", "build_parser"]

#: Schema version of the ``--json`` artifact.
ARTIFACT_SCHEMA = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the SoftmAP paper's tables and figures through the "
            "unified runtime API."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")
    sub.add_parser("backends", help="list the softmax execution backends")

    run = sub.add_parser("run", help="run one experiment and render its table")
    run.add_argument("experiment", help="registry name (see 'repro list')")
    run.add_argument(
        "--backend",
        help="softmax execution backend for experiments that take one "
        "(see 'repro backends')",
    )
    run.add_argument(
        "--fast",
        action="store_true",
        help="use the experiment's reduced-size smoke config",
    )
    run.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="fan the experiment's independent configurations across N "
        "worker processes (experiments that support it, e.g. table3_4)",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override (VALUE is parsed as a Python literal when "
        "possible, else kept as a string); repeatable",
    )
    run.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the JSON artifact (schema, experiment, config, result)",
    )
    run.add_argument(
        "--out",
        dest="out_path",
        metavar="PATH",
        help="write the bare experiment result (Experiment.to_dict JSON, "
        "no artifact envelope) to a file",
    )
    run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered table (useful with --json)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve softmax over TCP, or run an in-process load demo",
    )
    serve.add_argument(
        "--backend",
        default="ap-cluster",
        help="softmax execution backend the server coalesces onto "
        "(default: ap-cluster, the fused cluster path)",
    )
    serve.add_argument(
        "--engine",
        default=None,
        help="functional AP engine (reference/vectorized/compiled)",
    )
    serve.add_argument(
        "--num-heads", type=int, default=4, help="provisioned cluster heads"
    )
    serve.add_argument(
        "--sequence-length",
        type=int,
        default=64,
        help="provisioned capacity: the longest request the server accepts",
    )
    serve.add_argument(
        "--pass-row-budget",
        type=int,
        default=4096,
        help="ap-cluster planner tiling budget in rows per pass "
        "(0 disables tiling; ignored by other backends)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="admission latency budget: how long a tick waits for "
        "companion requests",
    )
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=256,
        help="admission cap on the fused row space (0 = unlimited)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve newline-delimited JSON on this TCP port until "
        "interrupted (0 picks a free port); omit for the load demo",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="load demo: Poisson arrival rate in requests/sec",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=96,
        help="load demo: number of requests in the stream",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="load demo: request-stream seed"
    )
    serve.add_argument(
        "--health",
        action="store_true",
        help="load demo: drive the stream through the server directly and "
        'print the health/stats snapshot (over TCP, send {"op": "health"})',
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; requests that expire queued get a "
        "structured timeout instead of waiting forever",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry budget for transient per-request failures "
        "(capped exponential backoff with seeded jitter)",
    )
    serve.add_argument(
        "--engine-chain",
        default=None,
        help="comma-separated engine fallback chain with circuit breakers, "
        "e.g. compiled,vectorized,reference (overrides --engine)",
    )

    return parser


def _parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    config: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            config[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            config[key] = raw
    return config


def _cmd_list(out) -> int:
    print(f"{'name':<16} {'artefact':<12} description", file=out)
    for experiment in iter_experiments():
        print(
            f"{experiment.name:<16} {experiment.title:<12} "
            f"{experiment.description}",
            file=out,
        )
    return 0


def _cmd_backends(out) -> int:
    print(f"{'name':<16} description", file=out)
    for name, description in backend_descriptions().items():
        print(f"{name:<16} {description}", file=out)
    return 0


def _cmd_run(args: argparse.Namespace, out) -> int:
    experiment = get_experiment(args.experiment)
    config: Dict[str, Any] = dict(experiment.fast_config) if args.fast else {}
    config.update(_parse_overrides(args.overrides))
    if args.workers is not None:
        config["workers"] = args.workers
    if args.backend is not None:
        key = experiment.backend_config_key
        if key is None:
            raise ValueError(
                f"experiment {experiment.name!r} takes no --backend "
                "(it has no softmax execution switch)"
            )
        config[key] = canonical_backend_name(args.backend)
    result = experiment.run(config)
    if not args.quiet:
        print(experiment.render(result), file=out)
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as handle:
            json.dump(experiment.to_dict(result), handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.quiet:
            print(f"wrote {args.out_path}", file=out)
    if args.json_path:
        artifact = {
            "schema": ARTIFACT_SCHEMA,
            "experiment": experiment.name,
            "title": experiment.title,
            "config": {k: _jsonable(v) for k, v in config.items()},
            "result": experiment.to_dict(result),
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.quiet:
            print(f"wrote {args.json_path}", file=out)
    return 0


def _jsonable(value: Any) -> Any:
    """Config values come from the CLI or fast_config; keep them JSON-safe."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _serve_backend_spec(args: argparse.Namespace):
    """Build the served backend's spec from the ``repro serve`` flags."""
    from repro.runtime.backend import BackendSpec

    name = canonical_backend_name(args.backend)
    engine = args.engine
    if engine is not None:
        from repro.ap.engine import canonical_engine_name

        engine = canonical_engine_name(engine)
    options: Dict[str, Any] = {}
    if name == "ap-cluster" and args.pass_row_budget:
        options["pass_row_budget"] = args.pass_row_budget
    return BackendSpec(
        name=name,
        num_heads=args.num_heads,
        sequence_length=args.sequence_length,
        engine=engine,
        options=options,
    )


def _serve_reliability_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """Reliability knobs shared by the demo and TCP serve paths."""
    kwargs: Dict[str, Any] = {}
    if args.deadline_ms is not None:
        kwargs["default_deadline_ms"] = args.deadline_ms
    if args.retries:
        from repro.reliability.retry import RetryPolicy

        kwargs["retry_policy"] = RetryPolicy(max_retries=args.retries)
    if args.engine_chain:
        kwargs["engine_chain"] = tuple(
            name.strip() for name in args.engine_chain.split(",") if name.strip()
        )
    return kwargs


def _render_health(health) -> str:
    """Render a :class:`~repro.serve.server.ServerHealth` snapshot."""
    lines = [
        f"health: availability {health.availability:.4f} "
        f"({health.requests_completed} ok / {health.requests_failed} failed, "
        f"{health.deadline_expired} deadline-expired)",
        f"  retries {health.retries} ({health.backoff_ms:.1f} ms backoff); "
        f"engine {health.engine or 'fixed'}; breaker {health.breaker_state}",
    ]
    if health.transitions:
        lines.append("  transitions: " + ", ".join(health.transitions))
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace, out) -> int:
    max_batch_rows = args.max_batch_rows or None
    reliability = _serve_reliability_kwargs(args)
    if args.port is None and args.health:
        # Reliability demo: drive the seeded stream through the server
        # directly so the health snapshot can be read before close().
        import asyncio

        from repro.serve.loadgen import LoadProfile, drive_load
        from repro.serve.server import SoftmaxServer

        spec = _serve_backend_spec(args)
        if "engine_chain" in reliability:
            from dataclasses import replace

            spec = replace(spec, engine=None)
        server = SoftmaxServer(
            spec,
            max_wait_ms=args.max_wait_ms,
            max_batch_rows=max_batch_rows,
            **reliability,
        )
        profile = LoadProfile(
            rate_rps=args.rate, num_requests=args.requests, seed=args.seed
        )

        async def _demo():
            async with server:
                report = await drive_load(server, profile.requests())
                return report, server.health()

        report, health = asyncio.run(_demo())
        print(
            f"served {report.num_requests} requests at {args.rate:g} rps: "
            f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
            f"throughput {report.throughput_rps:.1f} rps",
            file=out,
        )
        print(_render_health(health), file=out)
        return 0
    if args.port is None:
        # In-process load demo: one serve-load point at the chosen rate.
        from repro.experiments.serve_load import (
            render_serve_load,
            run_serve_load,
        )

        points = run_serve_load(
            rates=(args.rate,),
            num_requests=args.requests,
            backend=args.backend,
            engine=args.engine,
            num_heads=args.num_heads,
            max_wait_ms=args.max_wait_ms,
            max_batch_rows=max_batch_rows,
            pass_row_budget=args.pass_row_budget
            if canonical_backend_name(args.backend) == "ap-cluster"
            else None,
            seed=args.seed,
        )
        print(render_serve_load(points), file=out)
        return 0

    import asyncio

    from repro.serve.server import SoftmaxServer

    spec = _serve_backend_spec(args)

    if "engine_chain" in reliability:
        from dataclasses import replace

        spec = replace(spec, engine=None)

    async def _serve_forever() -> None:
        server = SoftmaxServer(
            spec,
            max_wait_ms=args.max_wait_ms,
            max_batch_rows=max_batch_rows,
            **reliability,
        )
        async with server:
            tcp = await server.serve_tcp(args.host, args.port)
            host, port = tcp.sockets[0].getsockname()[:2]
            print(
                f"serving softmax on {host}:{port} "
                f"(backend {spec.name}, newline-delimited JSON; "
                f"Ctrl-C to stop)",
                file=out,
                flush=True,
            )
            async with tcp:
                await tcp.serve_forever()

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "backends":
            return _cmd_backends(out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        return _cmd_run(args, out)
    except (
        UnknownExperimentError,
        UnknownBackendError,
        ValueError,
    ) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
