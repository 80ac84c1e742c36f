"""Command-line interface.

Run one simulation, evaluate the technique set, sweep the crossover, or
characterise the suite -- from a shell, without writing harness code::

    python -m repro run --benchmark gzip --policy Hyb
    python -m repro evaluate --dvs-mode stall
    python -m repro sweep --duty-cycles 20 10 5 3 2 1.5
    python -m repro batch --policies Hyb FG --retries 2 --journal sweep.jsonl
    python -m repro characterise
    python -m repro list
    python -m repro report sweep-report.jsonl
    python -m repro serve --socket sweep.sock --cache-dir cache
    python -m repro submit --socket sweep.sock --benchmarks gzip gcc

``batch`` runs a benchmark x policy grid under the sweep supervisor:
per-run timeouts, bounded retries, partial results, and a JSONL journal
that ``--resume`` can pick up after a crash without re-running finished
work.  With ``REPRO_OBS=1`` and ``--report PATH`` it also saves the
merged observability report, which ``report`` renders (or exports as
Prometheus text) and whose event files ``report --events`` validates
against the schema.

``serve`` exposes the same supervised execution as a crash-tolerant
job server with a content-addressed result cache (docs/SERVICE.md);
``submit`` is its client (grids, ``--status``, ``--drain``).
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.analysis.experiments import t4_benchmark_characterisation
from repro.analysis.tables import render_table
from repro.core.crossover import sweep_duty_cycles
from repro.core.evaluation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SETTLE_TIME_S,
    evaluate_techniques,
    run_baselines,
)
from repro.core.metrics import slowdown_factor
from repro.core.policies import POLICY_NAMES, make_policy
from repro.sim.config import EngineConfig
from repro.obs import metrics as obs_metrics
from repro.sim.engine import (
    SimulationEngine,
    reset_step_timers,
    step_timers,
)
from repro.workloads.spec import SPEC_BENCHMARK_NAMES, build_benchmark


def _add_supervisor_knobs(parser: argparse.ArgumentParser) -> None:
    """The sweep supervisor's retry/backoff/timeout parameters, shared
    verbatim by ``batch`` and ``serve`` (they feed ``run_many``)."""
    parser.add_argument(
        "--timeout-s", type=float, default=None, metavar="S",
        help="per-run wall-clock budget in seconds, enforced on the "
             "pool path; an overdue run's worker is presumed wedged, "
             "the pool is rebuilt and the run retried "
             "(default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry attempts allowed per run beyond the first "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--backoff-s", type=float, default=0.1, metavar="S",
        help="base retry backoff; attempt k waits backoff*2^(k-1) "
             "seconds plus deterministic jitter (default %(default)s)",
    )
    parser.add_argument(
        "--backoff-max-s", type=float, default=30.0, metavar="S",
        help="ceiling on one retry's backoff delay "
             "(default %(default)s)",
    )


def _add_service_address(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on (connect to) a Unix domain socket at PATH "
             "instead of TCP",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind/connect host (default %(default)s)",
    )
    parser.add_argument(
        "--port", type=int, default=7621,
        help="TCP port (default %(default)s; 0 binds an ephemeral "
             "port when serving)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions", type=int, default=DEFAULT_INSTRUCTIONS,
        help="per-run instruction budget (default %(default)s)",
    )
    parser.add_argument(
        "--dvs-mode", choices=("stall", "ideal"), default="stall",
        help="DVS switching model (default %(default)s)",
    )
    parser.add_argument(
        "--settle-ms", type=float, default=DEFAULT_SETTLE_TIME_S * 1e3,
        help="unmeasured lead-in in milliseconds (default %(default)s)",
    )


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks:")
    for name in SPEC_BENCHMARK_NAMES:
        workload = build_benchmark(name)
        print(f"  {name:8s} {workload.description}")
    print("\npolicies:")
    for name in POLICY_NAMES:
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    workload = build_benchmark(args.benchmark)
    config = EngineConfig(dvs_mode=args.dvs_mode)
    settle = args.settle_ms * 1e-3

    baseline_engine = SimulationEngine(workload, policy=make_policy("none"))
    initial = baseline_engine.compute_initial_temperatures()
    baseline = baseline_engine.run(
        args.instructions, initial=initial.copy(), settle_time_s=settle
    )
    engine = SimulationEngine(
        workload, policy=make_policy(args.policy), config=config
    )
    run = engine.run(
        args.instructions, initial=initial.copy(), settle_time_s=settle
    )

    print(f"benchmark: {workload.name} ({workload.description})")
    print(f"policy:    {args.policy} (DVS-{args.dvs_mode})")
    rows = [[key, value] for key, value in run.summary().items()]
    if args.policy != "none":
        rows.append(["slowdown_factor", slowdown_factor(run, baseline)])
    print(render_table(["metric", "value"], rows))
    return 0 if run.violation_free else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    baselines = run_baselines(
        instructions=args.instructions,
        settle_time_s=args.settle_ms * 1e-3,
    )
    results = evaluate_techniques(
        names=tuple(args.techniques), dvs_mode=args.dvs_mode,
        baselines=baselines,
    )
    rows = [
        [name, evaluation.mean_slowdown, evaluation.total_violations]
        for name, evaluation in results.items()
    ]
    print(render_table(
        ["technique", "mean slowdown", "violations"], rows,
        title=f"technique comparison (DVS-{args.dvs_mode}, "
              f"{args.instructions / 1e6:.0f}M instructions/run)",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    baselines = run_baselines(
        instructions=args.instructions,
        settle_time_s=args.settle_ms * 1e-3,
    )
    result = sweep_duty_cycles(
        duty_cycles=tuple(args.duty_cycles), dvs_mode=args.dvs_mode,
        baselines=baselines,
    )
    rows = [
        [duty, evaluation.mean_slowdown, evaluation.total_violations]
        for duty, evaluation in sorted(
            result.evaluations.items(), reverse=True
        )
    ]
    print(render_table(
        ["max duty cycle", "mean slowdown", "violations"], rows,
        title=f"PI-Hyb duty-cycle sweep (DVS-{args.dvs_mode})",
    ))
    print(f"best duty cycle: {result.best_duty_cycle:g}")
    return 0


class _GracefulTermination(BaseException):
    """SIGTERM arrived; the command should stop cleanly.

    A :class:`BaseException`, like :class:`KeyboardInterrupt`, so the
    sweep supervisor's ``except Exception`` handlers never mistake it for
    a run failure to record or retry.
    """


@contextmanager
def _sigterm_raises():
    """Convert SIGTERM into :class:`_GracefulTermination` inside the
    block, so ``finally`` clauses (journal close, pool teardown) run
    and an interrupted sweep leaves a valid, resumable journal behind.
    Restores the previous handler on exit; a no-op off the main thread.
    """
    def raise_termination(signum, frame):
        raise _GracefulTermination()

    try:
        previous = signal.signal(signal.SIGTERM, raise_termination)
    except ValueError:  # pragma: no cover - not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


SIGTERM_EXIT_CODE = 143  # 128 + SIGTERM, the conventional shell code


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import flightrec
    from repro.sim.batch import RunSpec, last_sweep_report, run_many
    from repro.sim.supervisor import RunFailure

    # Long sweeps are where post-mortems matter: SIGUSR2 (or a crash)
    # dumps the flight-recorder ring of recent events.
    flightrec.install()

    if args.report and not obs.enabled():
        print(
            "error: --report needs observability enabled (set REPRO_OBS=1)",
            file=sys.stderr,
        )
        return 2

    specs = [
        RunSpec(
            benchmark,
            policy,
            instructions=int(args.instructions),
            settle_time_s=args.settle_ms * 1e-3,
            dvs_mode=args.dvs_mode,
        )
        for benchmark in args.benchmarks
        for policy in args.policies
    ]
    try:
        with _sigterm_raises():
            outcomes = run_many(
                specs,
                processes=args.processes,
                timeout_s=args.timeout_s,
                retries=args.retries,
                backoff_s=args.backoff_s,
                backoff_max_s=args.backoff_max_s,
                partial_results=args.partial,
                journal=args.journal,
                resume=args.resume,
            )
    except _GracefulTermination:
        journal = args.journal or args.resume
        print(
            "terminated by SIGTERM; "
            + (
                f"journal {journal} holds every finished run -- resume "
                f"with --resume {journal}"
                if journal
                else "no journal was configured, finished runs are lost"
            ),
            file=sys.stderr,
        )
        return SIGTERM_EXIT_CODE

    rows = []
    failures = 0
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, RunFailure):
            failures += 1
            rows.append([
                spec.workload_name, outcome.policy, "FAILED",
                f"{outcome.error_type} (x{outcome.attempts})", "-",
            ])
        else:
            rows.append([
                spec.workload_name, outcome.policy, "ok",
                outcome.elapsed_s * 1e3, outcome.violations,
            ])
    print(render_table(
        ["benchmark", "policy", "status", "elapsed ms / error",
         "violations"],
        rows,
        title=f"supervised batch ({len(specs)} runs, DVS-{args.dvs_mode})",
    ))
    if failures:
        print(f"{failures}/{len(specs)} runs failed")
    if args.report:
        report = last_sweep_report()
        if report is None:
            print("error: no sweep report was produced", file=sys.stderr)
            return 2
        print(f"sweep report saved to {report.save(args.report)}")
    return 0 if failures == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import flightrec
    from repro.service.server import ServiceConfig, SweepService

    config = ServiceConfig(
        cache_dir=args.cache_dir,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_frame_bytes=args.max_frame_bytes,
        processes=args.processes,
        retries=args.retries,
        backoff_s=args.backoff_s,
        backoff_max_s=args.backoff_max_s,
        timeout_s=args.timeout_s,
        http=args.http,
    )
    service = SweepService(config)
    # SIGUSR2 dumps the flight-recorder ring; an unhandled crash dumps
    # it too before the traceback prints.
    flightrec.install()

    async def serve() -> int:
        loop = asyncio.get_running_loop()
        # SIGTERM and SIGINT both mean graceful drain: stop admitting,
        # finish the in-flight run, flush the journal, exit 0.
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.begin_drain)
        started = asyncio.ensure_future(service.run())
        while service.address is None and not started.done():
            await asyncio.sleep(0.01)  # listener coming up
        if service.address:
            print(f"sweep service listening on {service.address} "
                  f"(cache {args.cache_dir})", flush=True)
        while (
            args.http is not None
            and service.http_address is None
            and not started.done()
        ):
            await asyncio.sleep(0.01)  # http facade coming up
        if service.http_address:
            print(f"observability http on {service.http_address}",
                  flush=True)
        return await started

    return asyncio.run(serve())


def _parse_service_address(args: argparse.Namespace):
    if args.socket:
        return args.socket
    return (args.host, args.port)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import (
        ServiceBusyError,
        ServiceClient,
        ServiceError,
    )

    address = _parse_service_address(args)
    try:
        client = ServiceClient(address, timeout=args.connect_timeout_s)
    except OSError as exc:
        print(f"error: cannot connect to {address}: {exc}", file=sys.stderr)
        return 2
    with client:
        if args.drain:
            client.drain()
            print("drain requested")
            return 0
        if args.status:
            status = client.status()
            rows = [
                [key, status[key]]
                for key in sorted(status)
                if key != "cache"
            ]
            rows.extend(
                [f"cache.{key}", value]
                for key, value in sorted(status["cache"].items())
            )
            print(render_table(["field", "value"], rows,
                               title="service status"))
            return 0
        if args.job:
            try:
                entry = client.status(digest=args.job)
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            rows = [[key, entry[key]] for key in sorted(entry)
                    if key != "progress"]
            rows.extend(
                [f"progress.{key}", value]
                for key, value in sorted(entry.get("progress", {}).items())
            )
            print(render_table(["field", "value"], rows,
                               title=f"job {args.job[:12]}"))
            return 0

        if args.watch:
            def _print_progress(frame):
                for job in frame.get("jobs", []):
                    if job.get("state") != "running":
                        continue
                    percent = job.get("percent")
                    percent = 0.0 if percent is None else float(percent)
                    print(
                        f"  [{job.get('digest', '?')[:12]}] "
                        f"{job.get('benchmark')}/{job.get('policy')} "
                        f"{percent:5.1f}%",
                        flush=True,
                    )
            client.on_progress = _print_progress
            client.watch(True)

        specs = [
            {
                "benchmark": benchmark,
                "policy": policy,
                "instructions": int(args.instructions),
                "settle_time_s": args.settle_ms * 1e-3,
                "dvs_mode": args.dvs_mode,
                "seed": args.seed,
            }
            for benchmark in args.benchmarks
            for policy in args.policies
        ]
        try:
            outcomes = client.submit(specs, timeout_s=args.wait_s)
        except ServiceBusyError as exc:
            print(f"server busy: {exc}", file=sys.stderr)
            return 3
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    rows = []
    failures = 0
    for spec, outcome in zip(specs, outcomes):
        if outcome.ok:
            rows.append([
                spec["benchmark"], spec["policy"],
                "cached" if outcome.cached else "ran",
                outcome.result.elapsed_s * 1e3,
                outcome.result.violations,
            ])
        else:
            failures += 1
            rows.append([
                spec["benchmark"], spec["policy"], "FAILED",
                outcome.error, "-",
            ])
    print(render_table(
        ["benchmark", "policy", "status", "elapsed ms / error",
         "violations"],
        rows,
        title=f"service submission ({len(specs)} specs)",
    ))
    if failures:
        print(f"{failures}/{len(specs)} specs failed")
    return 0 if failures == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import SweepReport, validate_events_file

    code = 0
    event_files = list(args.events or [])
    if args.validate and args.path:
        # --validate: also pick up the event logs written next to the
        # report, so a malformed log fails the command loudly instead
        # of silently skewing the rendered SweepReport.
        listed = {str(Path(p).resolve()) for p in event_files}
        for sibling in sorted(Path(args.path).parent.glob("events-*.jsonl")):
            if str(sibling.resolve()) not in listed:
                event_files.append(str(sibling))
    if args.validate and not event_files:
        print(
            "error: --validate found no event logs (no --events given "
            f"and no events-*.jsonl next to {args.path or 'the report'})",
            file=sys.stderr,
        )
        return 2
    if event_files:
        total = 0
        for path in event_files:
            count, errors = validate_events_file(path)
            total += count
            if errors:
                code = 1
                print(f"{path}: {count} events, {len(errors)} invalid")
                for error in errors[:10]:
                    print(f"  {error}")
            else:
                print(f"{path}: {count} events, all valid")
        print(f"validated {total} events across {len(event_files)} file(s)")
    if code and args.validate:
        # Malformed logs poison whatever the report aggregated from
        # them: refuse to render rather than print skewed numbers.
        print("error: event validation failed; not rendering the report",
              file=sys.stderr)
        return code

    if args.path:
        report = SweepReport.load(args.path)
        if args.prometheus:
            print(report.prometheus_text(), end="")
        else:
            print(report.render())
    elif not event_files:
        print(
            "error: give a sweep-report path and/or --events files",
            file=sys.stderr,
        )
        return 2
    return code


def _cmd_characterise(args: argparse.Namespace) -> int:
    rows = [
        [
            row.benchmark,
            row.hottest_block,
            row.max_temp_c,
            row.fraction_above_trigger,
            row.mean_power_w,
            row.mean_ipc,
        ]
        for row in t4_benchmark_characterisation(
            instructions=args.instructions
        )
    ]
    print(render_table(
        ["benchmark", "hottest", "max C", "above trigger",
         "power W", "IPC"],
        rows,
        title="unmanaged benchmark characterisation",
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not (bench_dir / "run_all.py").is_file():
        print(
            f"error: benchmark harness not found at {bench_dir}",
            file=sys.stderr,
        )
        return 2
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    run_all = importlib.import_module("run_all")

    # Per-section timers are cheap enough to leave on for the whole
    # harness; they power the breakdown table printed below.  They run
    # whenever the observability layer is on, so switch it on for the
    # harness and restore the caller's setting afterwards.
    reset_step_timers()

    harness_argv: List[str] = []
    if args.only:
        harness_argv.extend(["--only", *args.only])

    profiler = cProfile.Profile() if args.profile else None
    obs_was_enabled = obs_metrics.set_enabled(True)
    if profiler is not None:
        profiler.enable()
    try:
        code = run_all.main(harness_argv)
    finally:
        if profiler is not None:
            profiler.disable()
        obs_metrics.set_enabled(obs_was_enabled)

    timers = step_timers()
    if timers:
        # ``kernel`` is a *boundary* span: it wraps whole fused dense
        # spans whose inner sense/perf/power/thermal work records under
        # the other sections too (see engine.STEP_SECTIONS), so it is
        # excluded from the additive total and reported separately.
        boundary = timers.pop("kernel", None)
        total = sum(seconds for seconds, _ in timers.values())
        rows = [
            [
                section,
                round(seconds, 3),
                calls,
                round(1e6 * seconds / calls, 1) if calls else 0.0,
                round(100.0 * seconds / total, 1) if total else 0.0,
            ]
            for section, (seconds, calls) in sorted(
                timers.items(), key=lambda item: -item[1][0]
            )
        ]
        print()
        print(render_table(
            ["section", "seconds", "calls", "us/call", "% timed"],
            rows,
            title="per-phase step timing",
        ))
        if boundary is not None:
            seconds, calls = boundary
            per_span = 1e6 * seconds / calls if calls else 0.0
            covered = 100.0 * seconds / total if total else 0.0
            print(
                f"[step.kernel boundary span: {seconds:.3f} s over "
                f"{calls} fused spans ({per_span:.1f} us/span), covering "
                f"{covered:.1f}% of the timed sections above -- overlaps "
                f"them, so it is excluded from the additive total]"
            )

    if profiler is not None:
        print("\n[cProfile: top functions by total time]")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("tottime").print_stats(
            args.profile_limit
        )
    return code


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid architectural DTM reproduction (Skadron, "
                    "DATE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and policies")

    run_parser = sub.add_parser("run", help="run one benchmark/policy pair")
    run_parser.add_argument(
        "--benchmark", required=True, choices=SPEC_BENCHMARK_NAMES
    )
    run_parser.add_argument("--policy", required=True, choices=POLICY_NAMES)
    _add_common(run_parser)

    eval_parser = sub.add_parser(
        "evaluate", help="compare techniques across the suite (Figure 4)"
    )
    eval_parser.add_argument(
        "--techniques", nargs="+", default=["FG", "DVS", "PI-Hyb", "Hyb"],
        choices=[n for n in POLICY_NAMES if n != "none"],
    )
    _add_common(eval_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="PI-Hyb duty-cycle sweep (Figure 3a)"
    )
    sweep_parser.add_argument(
        "--duty-cycles", nargs="+", type=float,
        default=[20.0, 10.0, 5.0, 4.0, 3.0, 2.5, 2.0, 1.5],
    )
    _add_common(sweep_parser)

    batch_parser = sub.add_parser(
        "batch",
        help="run a benchmark x policy grid under the sweep supervisor",
    )
    batch_parser.add_argument(
        "--benchmarks", nargs="+", default=list(SPEC_BENCHMARK_NAMES),
        choices=SPEC_BENCHMARK_NAMES,
    )
    batch_parser.add_argument(
        "--policies", nargs="+", default=["Hyb"], choices=POLICY_NAMES,
    )
    batch_parser.add_argument(
        "--processes", type=int, default=None,
        help="worker processes (default: serial in-process)",
    )
    _add_supervisor_knobs(batch_parser)
    batch_parser.add_argument(
        "--partial", action="store_true",
        help="report failed runs as rows instead of aborting the sweep",
    )
    batch_parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append finished runs to a JSONL journal",
    )
    batch_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="skip runs already recorded in this journal (implies "
             "appending new finishes to it)",
    )
    batch_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="save the merged observability report (JSONL; needs "
             "REPRO_OBS=1)",
    )
    _add_common(batch_parser)

    char_parser = sub.add_parser(
        "characterise", help="unmanaged thermal characterisation"
    )
    _add_common(char_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep service: an async job server with a "
             "content-addressed result cache (docs/SERVICE.md)",
    )
    _add_service_address(serve_parser)
    serve_parser.add_argument(
        "--cache-dir", default="service-cache", metavar="DIR",
        help="directory holding the result cache and journal "
             "(default %(default)s); restarting against the same "
             "directory recovers every journalled result",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission-queue bound across all clients; submissions "
             "beyond it are shed with a BUSY reply "
             "(default %(default)s)",
    )
    serve_parser.add_argument(
        "--max-frame-bytes", type=int, default=1 << 20, metavar="N",
        help="largest accepted protocol frame (default %(default)s)",
    )
    serve_parser.add_argument(
        "--processes", type=int, default=None,
        help="worker processes per job (default: serial in-process)",
    )
    serve_parser.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="mount the read-only observability HTTP facade "
             "(/metrics, /healthz, /readyz, /jobs, /flight); "
             "port 0 binds an ephemeral port",
    )
    _add_supervisor_knobs(serve_parser)

    submit_parser = sub.add_parser(
        "submit",
        help="submit a benchmark x policy grid to a running sweep "
             "service (or query --status / request --drain)",
    )
    _add_service_address(submit_parser)
    submit_parser.add_argument(
        "--benchmarks", nargs="+", default=list(SPEC_BENCHMARK_NAMES),
        choices=SPEC_BENCHMARK_NAMES,
    )
    submit_parser.add_argument(
        "--policies", nargs="+", default=["Hyb"], choices=POLICY_NAMES,
    )
    submit_parser.add_argument(
        "--seed", type=int, default=0,
        help="sensor-noise seed for every spec (default %(default)s)",
    )
    submit_parser.add_argument(
        "--wait-s", type=float, default=None, metavar="S",
        help="overall deadline for the submission (default: wait "
             "forever)",
    )
    submit_parser.add_argument(
        "--connect-timeout-s", type=float, default=30.0, metavar="S",
        help="socket timeout for connect and per-frame reads "
             "(default %(default)s)",
    )
    submit_parser.add_argument(
        "--status", action="store_true",
        help="print the server's STATUS snapshot and exit",
    )
    submit_parser.add_argument(
        "--job", default=None, metavar="DIGEST",
        help="print one job's status (state, percent complete) by "
             "spec digest and exit",
    )
    submit_parser.add_argument(
        "--watch", action="store_true",
        help="subscribe to streamed progress frames and print live "
             "per-job percent-complete lines while waiting",
    )
    submit_parser.add_argument(
        "--drain", action="store_true",
        help="ask the server to drain gracefully and exit",
    )
    _add_common(submit_parser)

    report_parser = sub.add_parser(
        "report",
        help="render a saved sweep report and/or validate event logs",
    )
    report_parser.add_argument(
        "path", nargs="?", default=None,
        help="sweep-report JSONL written by `batch --report`",
    )
    report_parser.add_argument(
        "--prometheus", action="store_true",
        help="emit the report's aggregates in Prometheus text format",
    )
    report_parser.add_argument(
        "--events", nargs="+", default=None, metavar="PATH",
        help="validate these events-*.jsonl files against the event "
             "schema",
    )
    report_parser.add_argument(
        "--validate", action="store_true",
        help="validate the event logs next to the report (plus any "
             "--events) and refuse to render if any are malformed",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="run the benchmark harness with a per-phase step-timing "
             "breakdown (and optionally cProfile)",
    )
    bench_parser.add_argument(
        "--only", nargs="+", default=None, metavar="BENCH",
        help="run only these benches (names from benchmarks/run_all.py)",
    )
    bench_parser.add_argument(
        "--profile", action="store_true",
        help="run the harness under cProfile and print the hottest "
             "functions afterwards",
    )
    bench_parser.add_argument(
        "--profile-limit", type=int, default=25, metavar="N",
        help="number of cProfile rows to print (default %(default)s)",
    )
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "batch": _cmd_batch,
    "characterise": _cmd_characterise,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
