"""Command-line experiment runner: ``python -m repro <command>``.

Commands regenerate the paper's evaluation artifacts without pytest:

- ``fig4 [QUERY]`` — the Figure 4 throughput comparison (all queries or
  one of I/II/III/IV/V/VI); ``--trace-out`` additionally captures a
  marker-epoch trace of one instrumented run;
- ``fig6`` — the Figure 6 Smart-Homes scaling curve (same
  ``--trace-out`` support);
- ``obs {fig6|fig4|iot}`` — run one instrumented simulation and print
  the stall-diagnostics report (alignment-stall vs. CPU ranking, skewed
  channels); ``--trace-out`` writes a Chrome-trace JSON for
  ``chrome://tracing``, ``--jsonl-out`` the raw span/sample records.
  ``--monitor`` attaches online invariant monitors (data-trace type
  conformance + watermark/backpressure progress) with ``--sampling``
  control; ``--telemetry-out`` writes monitor telemetry JSONL,
  ``--prom-out`` a Prometheus text snapshot, and
  ``--fail-on-violation`` makes the exit code reflect conformance
  (the CI monitor job);
- ``obs watch [TARGET]`` — same run with a live dashboard line per
  source epoch (frontier, worst watermark lag, queue peaks, violations);
- ``sim {iot|fig6}`` — fault-injection and recovery demo: run a
  fault-free baseline, then the same workload under a fault plan
  (``--faults PLAN.json``, default: a built-in demo plan) with
  epoch-aligned checkpointing and rollback recovery, and verify the
  recovered canonical sink traces equal the baseline across
  ``--seeds``; ``--no-recovery`` shows the raw corruption instead;
- ``lint [PATHS...]`` — the static consistency analyzer
  (:mod:`repro.analysis`): Theorem 4.2 side conditions, determinism
  hazards, snapshot aliasing.  ``--strict`` fails on warnings too,
  ``--format {text,json,github}`` picks the output, ``--dynamic`` adds
  sampled-shuffle validation (DT9xx), ``--explain DT203`` prints one
  rule's catalog entry;
- ``motivation`` — the Section 2 naive-vs-typed soundness experiment;
- ``bench [NAME]`` — run a ``benchmarks/bench_*.py`` module under pytest
  (``bench batching`` is the CI perf-smoke suite; omit NAME to list);
- ``show-dag {quickstart|yahoo|smarthomes|iot}`` — print a DAG (add
  ``--dot`` for Graphviz output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _instrumented_run(
    topology, machines: int, cost_model, trace_out=None, jsonl_out=None,
    report_json=None, monitors=None, prom_out=None, telemetry_out=None,
    fail_on_violation=False, watch=False,
) -> int:
    """One observed simulation: print the stall report, write traces."""
    from repro.bench import measure_throughput
    from repro.obs import ObsContext, stall_report
    from repro.obs.export import render_watch_line, write_prometheus

    if monitors is not None and watch:
        def _print_row(row):
            line = render_watch_line(row)
            if line:
                print(line)

        monitors.on_telemetry = _print_row
        print("live monitor telemetry (one line per source epoch):")
    obs = ObsContext.collecting(monitors=monitors)
    report = measure_throughput(topology, machines, cost_model, obs=obs)
    if watch:
        print()
    diagnostics = stall_report(obs.tracer, obs.metrics, report.makespan,
                               monitors=monitors)
    print(diagnostics.format())
    print()
    print(f"throughput: {report.throughput():,.0f} tuples/s over "
          f"{machines} machines; mean utilization "
          f"{report.mean_utilization():.2%}")
    if trace_out:
        obs.tracer.write_chrome_trace(trace_out)
        print(f"Chrome trace written to {trace_out} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    if jsonl_out:
        obs.tracer.write_jsonl(jsonl_out)
        print(f"JSONL trace written to {jsonl_out}")
    if report_json:
        parent = os.path.dirname(report_json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(diagnostics.to_dict(), fh, indent=2)
        print(f"stall report written to {report_json}")
    if prom_out:
        write_prometheus(prom_out, obs.metrics, monitors)
        print(f"Prometheus snapshot written to {prom_out}")
    if monitors is not None:
        if telemetry_out:
            monitors.write_telemetry_jsonl(telemetry_out)
            print(f"monitor telemetry written to {telemetry_out}")
        n_violations = monitors.violation_count()
        if n_violations:
            print()
            print(f"INVARIANT VIOLATIONS: {n_violations}")
            for violation in monitors.violations[:10]:
                print(f"  {violation}")
            if n_violations > 10:
                print(f"  ... and {n_violations - 10} more")
            if fail_on_violation:
                return 1
    return 0


def _fig4_workload():
    from repro.apps.yahoo.events import YahooWorkload

    return YahooWorkload(
        seconds=5, events_per_second=800, n_campaigns=20, ads_per_campaign=10,
        n_users=200, n_locations=8, seed=7,
    )


def _fig4(args) -> int:
    sys.path.insert(0, "benchmarks")
    from repro.apps.yahoo.queries import QUERY_BUILDERS
    from repro.bench import format_comparison_table

    from bench_fig4_yahoo import run_query_sweep  # type: ignore

    workload = _fig4_workload()
    events = workload.events()
    queries = [args.query] if args.query else list(QUERY_BUILDERS)
    for query in queries:
        handcrafted, generated = run_query_sweep(query, workload, events)
        print(format_comparison_table(
            f"Figure 4 / Query {query}: throughput vs machines",
            handcrafted, generated,
        ))
        print()
    if args.trace_out:
        query = queries[-1]
        print(f"Instrumented run (query {query}, 8 machines):")
        compiled, cost_model = _fig4_compiled(workload, events, query, 8)
        return _instrumented_run(
            compiled.topology, 8, cost_model, trace_out=args.trace_out,
        )
    return 0


def _fig4_compiled(workload, events, query: str, machines: int):
    """The generated Figure 4 compiled topology + cost model for a query.

    Returns the full :class:`~repro.compiler.compile.CompiledTopology`
    (not just ``.topology``) so callers can attach edge-typed monitors.
    """
    sys.path.insert(0, "benchmarks")
    from repro.apps.yahoo.queries import QUERY_BUILDERS
    from repro.bench import fused_cost_model
    from repro.compiler import compile_dag
    from repro.compiler.compile import source_from_events

    from bench_fig4_yahoo import vertex_costs_for  # type: ignore
    from conftest import SPOUTS, TASKS_PER_MACHINE  # type: ignore

    builder, _ = QUERY_BUILDERS[query]
    dag = builder(
        workload.make_database(), parallelism=machines * TASKS_PER_MACHINE
    )
    compiled = compile_dag(dag, {"events": source_from_events(events, SPOUTS)})
    return compiled, fused_cost_model(vertex_costs_for(query))


def _smarthomes_setup(small: bool = False):
    """Workload, topology builder, and cost-model factory for Figure 6.

    ``small`` shrinks the workload for quick diagnostics runs
    (``repro obs fig6``) while keeping the full pipeline shape."""
    from repro.apps.smarthomes import (
        SmartHomesWorkload,
        smart_homes_dag,
        train_predictor,
    )
    from repro.bench import MarkerTriggerCost, fused_cost_model
    from repro.compiler import compile_dag
    from repro.compiler.compile import source_from_events

    if small:
        workload = SmartHomesWorkload(
            n_buildings=6, units_per_building=4, plugs_per_unit=3, duration=60,
        )
        models = train_predictor(horizon=120, train_seconds=400, past=60)
    else:
        workload = SmartHomesWorkload(
            n_buildings=12, units_per_building=5, plugs_per_unit=4,
            duration=120,
        )
        models = train_predictor(horizon=120, train_seconds=800, past=60)
    events = workload.events()

    def vertex_costs():
        return {
            "JFM": 30e-6,
            "SORT1": MarkerTriggerCost(1.5e-6, 20e-6),
            "LI": 1e-6,
            "Map": 0.5e-6,
            "SORT2": MarkerTriggerCost(1.5e-6, 20e-6),
            "Avg": 1e-6,
            "Predict": 5e-6,
        }

    def build(n):
        """Compile the pipeline for ``n`` machines (a CompiledTopology)."""
        dag = smart_homes_dag(workload.make_database(), models, parallelism=2 * n)
        return compile_dag(dag, {"hub": source_from_events(events, 2)})

    return build, lambda: fused_cost_model(vertex_costs())


def _fig6(args) -> int:
    from repro.bench import format_scaling_table, sweep_machines
    from repro.bench.reporting import ascii_chart

    build, cost_model_for = _smarthomes_setup()
    points = sweep_machines(
        lambda n: build(n).topology, lambda n: cost_model_for(),
        machines=range(1, 9),
    )
    print(format_scaling_table("Figure 6 / Smart Homes:", points))
    print()
    print(ascii_chart(points, title="throughput vs machines"))
    if args.trace_out:
        print()
        print("Instrumented run (8 machines):")
        return _instrumented_run(
            build(8).topology, 8, cost_model_for(), trace_out=args.trace_out,
        )
    return 0


def _obs(args) -> int:
    """Run one instrumented topology and print stall diagnostics."""
    watch = args.target == "watch"
    target = (args.watch_target or "fig6") if watch else args.target
    if watch and args.watch_target is None and args.query:
        target = "fig4"
    if target == "fig6":
        machines = args.machines or 4
        build, cost_model_for = _smarthomes_setup(small=True)
        compiled, cost_model = build(machines), cost_model_for()
    elif target == "fig4":
        machines = args.machines or 4
        workload = _fig4_workload()
        compiled, cost_model = _fig4_compiled(
            workload, workload.events(), args.query or "IV", machines,
        )
    else:  # iot: tiny topology, the CI smoke target
        from repro.apps.iot import SensorWorkload, iot_typed_dag
        from repro.bench import fused_cost_model
        from repro.compiler import compile_dag
        from repro.compiler.compile import source_from_events

        machines = args.machines or 2
        events = SensorWorkload().events()
        compiled = compile_dag(
            iot_typed_dag(parallelism=2),
            {"SENSOR": source_from_events(events, 2)},
        )
        cost_model = fused_cost_model({})
    monitors = None
    if (args.monitor or watch or args.telemetry_out
            or args.fail_on_violation):
        from repro.obs import MonitorConfig, MonitorHub
        from repro.obs.monitor import default_order_token

        order_key = None
        if args.order_key == "trailing-ts":
            order_key = lambda kv: default_order_token(kv.value)  # noqa: E731
        config = MonitorConfig(
            sampling=args.sampling,
            nth=args.sample_every,
            order_key=order_key,
            queue_depth_alert=args.queue_alert,
            watermark_lag_alert=args.lag_alert,
        )
        monitors = MonitorHub.for_compiled(compiled, config)
        kinds = ", ".join(
            f"{src}->{dst}:{kind}"
            for (src, dst), kind in sorted(compiled.edge_kinds.items())
        )
        print(f"monitoring {len(monitors.edges)} edges "
              f"(sampling={config.sampling}): {kinds}")
    return _instrumented_run(
        compiled.topology, machines, cost_model, trace_out=args.trace_out,
        jsonl_out=args.jsonl_out, report_json=args.report_json,
        monitors=monitors, prom_out=args.prom_out,
        telemetry_out=args.telemetry_out,
        fail_on_violation=args.fail_on_violation, watch=watch,
    )


def _sim(args) -> int:
    """Fault-injection demo: recovered runs must match the baseline."""
    from repro.bench import fused_cost_model
    from repro.compiler import compile_dag
    from repro.compiler.compile import source_from_events
    from repro.storm import Cluster, Simulator
    from repro.errors import SimulationError
    from repro.storm.faults import check_fault_plan, demo_plan, load_fault_plan
    from repro.storm.local import events_to_trace
    from repro.storm.recovery import RecoveryOptions

    if args.target == "fig6":
        machines = args.machines or 4
        build, cost_model_for = _smarthomes_setup(small=True)
        build_compiled = build
    else:  # iot
        from repro.apps.iot import SensorWorkload, iot_typed_dag

        machines = args.machines or 2
        events = SensorWorkload().events()

        def build_compiled(n):
            return compile_dag(
                iot_typed_dag(parallelism=2),
                {"SENSOR": source_from_events(events, 2)},
            )

        def cost_model_for():
            return fused_cost_model({})

    def run_once(seed, faults=None, recovery=None):
        compiled = build_compiled(machines)
        simulator = Simulator(
            compiled.topology, Cluster(machines, cores_per_machine=2),
            seed=seed, cost_model=cost_model_for(),
            faults=faults, recovery=recovery,
        )
        report = simulator.run()
        traces = {}
        for name, bolt in compiled.sinks.items():
            ordered = any(
                kind == "O"
                for (_, dst), kind in compiled.edge_kinds.items()
                if dst == name
            )
            traces[name] = events_to_trace(bolt.aligned_events, ordered)
        return traces, report

    # Check the plan against the run before any simulation, so a plan
    # naming a task, machine or edge the run lacks fails fast.
    topology = build_compiled(machines).topology
    try:
        plan = (load_fault_plan(args.faults) if args.faults
                else demo_plan(topology, seed=args.seed))
        check_fault_plan(plan, topology, {m.machine_id for m in Cluster(machines).machines})
    except (SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fault plan loaded from {args.faults}" if args.faults
          else "using the built-in demo fault plan")
    print(json.dumps(plan.to_dict(), indent=2))
    print()

    seeds = list(range(args.seed, args.seed + args.seeds))
    failures = 0
    results = []
    for seed in seeds:
        baseline, _ = run_once(seed)
        if args.no_recovery:
            from repro.errors import TaskFailureError

            try:
                faulted, _ = run_once(seed, faults=plan)
            except TaskFailureError as exc:
                print(f"seed {seed}: no recovery; run DIED: {exc}")
                results.append({"seed": seed, "recovered": False,
                                "died": str(exc)})
                continue
            corrupted = faulted != baseline
            print(f"seed {seed}: no recovery; output corrupted: {corrupted}")
            results.append({"seed": seed, "recovered": False,
                            "corrupted": corrupted})
            continue
        recovery = RecoveryOptions(checkpoint_every=args.checkpoint_every)
        faulted, report = run_once(seed, faults=plan, recovery=recovery)
        stats = report.recovery
        ok = faulted == baseline
        failures += not ok
        print(
            f"seed {seed}: {'PARITY OK' if ok else 'PARITY FAILED'} — "
            f"recoveries={stats.recoveries} "
            f"checkpoints={stats.checkpoints_taken} "
            f"retransmissions={stats.retransmissions} "
            f"duplicates_filtered={stats.duplicates_filtered} "
            f"reordered={stats.reordered} "
            f"replayed={stats.replayed_events}"
        )
        results.append({"seed": seed, "recovered": True, "parity": ok,
                        **stats.to_dict()})
    if args.report_json:
        parent = os.path.dirname(args.report_json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump({"target": args.target, "plan": plan.to_dict(),
                       "runs": results}, fh, indent=2)
        print(f"recovery report written to {args.report_json}")
    if not args.no_recovery:
        verdict = ("every faulted run recovered to the fault-free trace"
                   if not failures else
                   f"{failures}/{len(seeds)} runs FAILED recovery parity")
        print()
        print(verdict)
    return 1 if failures else 0


def _lint(args) -> int:
    """Run the static consistency analyzer (``repro.analysis``)."""
    from repro.analysis import explain
    from repro.analysis.driver import analyze_paths

    if args.explain:
        try:
            print(explain(args.explain.upper()))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0

    paths = args.paths or ["src", "examples"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        report = analyze_paths(
            paths,
            dynamic=args.dynamic,
            select=tuple(args.select or ()),
            ignore=tuple(args.ignore or ()),
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    output = report.render(args.format)
    if output:
        print(output)
    return report.exit_code(strict=args.strict)


def _motivation(args) -> int:
    from repro.apps.iot import SensorWorkload, build_naive_topology, iot_typed_dag
    from repro.compiler import compile_dag
    from repro.compiler.compile import source_from_events
    from repro.dag import evaluate_dag
    from repro.operators.base import KV
    from repro.storm import LocalRunner
    from repro.storm.local import events_to_trace

    events = SensorWorkload().events()
    naive = set()
    for seed in range(args.seeds):
        topology, _ = build_naive_topology(events, map_parallelism=2)
        report = LocalRunner(topology, seed=seed).run()
        naive.add(tuple(sorted(
            (e.key, e.value) for e in report.sink_events["SINK"]
            if isinstance(e, KV)
        )))
    dag = iot_typed_dag(parallelism=2)
    denotation = evaluate_dag(dag, {"SENSOR": events}).sink_trace("SINK", False)
    compiled = compile_dag(dag, {"SENSOR": source_from_events(events, 1)})
    typed = set()
    for seed in range(args.seeds):
        LocalRunner(compiled.topology, seed=seed).run()
        typed.add(events_to_trace(compiled.sinks["SINK"].aligned_events, False))
    print(f"naive Map x2: {len(naive)} distinct outputs over {args.seeds} seeds")
    print(f"typed Map x2: {len(typed)} distinct outputs; equals denotation: "
          f"{typed == {denotation}}")
    return 0


def _bench(args) -> int:
    """Run a benchmark module from ``benchmarks/`` under pytest.

    ``repro bench`` lists the available modules; ``repro bench batching``
    runs ``benchmarks/bench_batching.py`` (the perf-smoke suite) and
    leaves its ``BENCH_*.json`` artifacts in ``--out-dir``.
    """
    import pytest

    bench_dir = _bench_dir()
    available = sorted(
        path.stem[len("bench_"):]
        for path in bench_dir.glob("bench_*.py")
    )
    if not args.name or args.name not in available:
        if args.name:
            print(f"unknown benchmark {args.name!r}", file=sys.stderr)
        print("available benchmarks:", file=sys.stderr)
        for name in available:
            print(f"  {name}", file=sys.stderr)
        return 0 if not args.name else 2
    os.environ["REPRO_BENCH_DIR"] = args.out_dir
    os.makedirs(args.out_dir, exist_ok=True)
    target = bench_dir / f"bench_{args.name}.py"
    return pytest.main(["-q", "-s", str(target)])


def _bench_dir():
    from pathlib import Path

    return Path(__file__).resolve().parents[2] / "benchmarks"


def _show_dag(args) -> int:
    from repro.dag.viz import dag_to_dot, render_dag

    if args.name == "quickstart":
        from repro.operators.library import filter_items, tumbling_count
        from repro.dag import TransductionDAG
        from repro.traces.trace_type import unordered_type

        U = unordered_type("Int", "Float")
        dag = TransductionDAG("quickstart")
        src = dag.add_source("source", output_type=U)
        f = dag.add_op(filter_items(lambda k, v: k % 2 == 0, name="filterOp"),
                       parallelism=2, upstream=[src], edge_types=[U])
        c = dag.add_op(tumbling_count("sumOp"), parallelism=3, upstream=[f],
                       edge_types=[U])
        dag.add_sink("printer", upstream=c, input_type=U)
    elif args.name == "yahoo":
        from repro.apps.yahoo.events import YahooWorkload
        from repro.apps.yahoo.queries import query4

        workload = YahooWorkload(seconds=1, events_per_second=1)
        dag = query4(workload.make_database(), parallelism=2)
    elif args.name == "smarthomes":
        from repro.apps.smarthomes import (
            SmartHomesWorkload,
            smart_homes_dag,
            train_predictor,
        )

        workload = SmartHomesWorkload(n_buildings=1, units_per_building=1,
                                      plugs_per_unit=1, duration=10)
        models = train_predictor(horizon=60, train_seconds=200, past=30)
        dag = smart_homes_dag(workload.make_database(), models, parallelism=2)
    elif args.name == "iot":
        from repro.apps.iot import iot_typed_dag

        dag = iot_typed_dag(parallelism=2)
    else:
        print(f"unknown DAG {args.name!r}", file=sys.stderr)
        return 2
    print(dag_to_dot(dag) if args.dot else render_dag(dag))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="PLDI'19 data-trace types: experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig4 = sub.add_parser("fig4", help="Figure 4 throughput comparison")
    p_fig4.add_argument("query", nargs="?", choices=["I", "II", "III", "IV", "V", "VI"])
    p_fig4.add_argument("--trace-out", metavar="PATH",
                        help="also capture a Chrome trace of one "
                             "instrumented 8-machine run")
    p_fig4.set_defaults(func=_fig4)

    p_fig6 = sub.add_parser("fig6", help="Figure 6 Smart-Homes scaling")
    p_fig6.add_argument("--trace-out", metavar="PATH",
                        help="also capture a Chrome trace of one "
                             "instrumented 8-machine run")
    p_fig6.set_defaults(func=_fig6)

    p_obs = sub.add_parser(
        "obs", help="instrumented run + stall diagnostics report"
    )
    p_obs.add_argument("target", choices=["fig6", "fig4", "iot", "watch"],
                       help="which topology to observe, or 'watch' for a "
                            "live monitor view")
    p_obs.add_argument("watch_target", nargs="?",
                       choices=["fig6", "fig4", "iot"],
                       help="topology for 'obs watch' (default fig6)")
    p_obs.add_argument("--machines", type=int, default=None,
                       help="cluster size (default: 4, iot: 2)")
    p_obs.add_argument("--query", choices=["I", "II", "III", "IV", "V", "VI"],
                       help="fig4 query to observe (default IV)")
    p_obs.add_argument("--trace-out", metavar="PATH",
                       help="write Chrome-trace JSON (chrome://tracing)")
    p_obs.add_argument("--jsonl-out", metavar="PATH",
                       help="write raw span/sample records as JSONL")
    p_obs.add_argument("--report-json", metavar="PATH",
                       help="write the stall report as JSON")
    p_obs.add_argument("--monitor", action="store_true",
                       help="attach online invariant monitors (data-trace "
                            "type conformance + progress)")
    p_obs.add_argument("--sampling", choices=["all", "nth", "epoch"],
                       default="all",
                       help="monitor sampling mode (default: all)")
    p_obs.add_argument("--sample-every", type=int, default=10, metavar="N",
                       help="check every Nth item with --sampling nth")
    p_obs.add_argument("--order-key", choices=["none", "trailing-ts"],
                       default="none",
                       help="enable the per-key order check on O edges "
                            "with the named order token (trailing-ts: "
                            "trailing numeric tuple element, the repo's "
                            "(value, timestamp) event-time idiom)")
    p_obs.add_argument("--queue-alert", type=float, default=None, metavar="D",
                       help="alert when a task queue reaches depth D")
    p_obs.add_argument("--lag-alert", type=int, default=None, metavar="E",
                       help="alert when a watermark lags the source "
                            "frontier by E epochs")
    p_obs.add_argument("--telemetry-out", metavar="PATH",
                       help="write monitor telemetry (violations, alerts, "
                            "watermark snapshots) as JSONL")
    p_obs.add_argument("--prom-out", metavar="PATH",
                       help="write a Prometheus text-format snapshot of "
                            "metrics + monitor state")
    p_obs.add_argument("--fail-on-violation", action="store_true",
                       help="exit non-zero if any invariant violation was "
                            "observed (implies --monitor)")
    p_obs.set_defaults(func=_obs)

    p_sim = sub.add_parser(
        "sim", help="fault-injection + exactly-once recovery demo"
    )
    p_sim.add_argument("target", nargs="?", choices=["iot", "fig6"],
                       default="iot",
                       help="workload to fault (default: iot)")
    p_sim.add_argument("--faults", metavar="PLAN.json",
                       help="fault plan file (default: built-in demo plan)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="first scheduler seed (default: 0)")
    p_sim.add_argument("--seeds", type=int, default=3, metavar="N",
                       help="number of consecutive seeds to sweep "
                            "(default: 3)")
    p_sim.add_argument("--checkpoint-every", type=int, default=1, metavar="K",
                       help="checkpoint every K epochs (default: 1)")
    p_sim.add_argument("--machines", type=int, default=None,
                       help="cluster size (default: iot 2, fig6 4)")
    p_sim.add_argument("--no-recovery", action="store_true",
                       help="inject faults raw, without the recovery "
                            "layer, to show the corruption it prevents")
    p_sim.add_argument("--report-json", metavar="PATH",
                       help="write per-seed recovery stats as JSON")
    p_sim.set_defaults(func=_sim)

    p_lint = sub.add_parser(
        "lint", help="static consistency analyzer (Theorem 4.2 side "
                     "conditions, determinism hazards, snapshot aliasing)"
    )
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to analyze "
                             "(default: src examples)")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings as well as errors")
    p_lint.add_argument("--format", choices=["text", "json", "github"],
                        default="text",
                        help="output format (github = workflow-command "
                             "annotations)")
    p_lint.add_argument("--dynamic", action="store_true",
                        help="also run sampled monoid-law and "
                             "Definition 3.5 shuffle validation on every "
                             "template operator (DT9xx findings)")
    p_lint.add_argument("--select", action="append", metavar="PREFIX",
                        help="only report codes matching PREFIX "
                             "(repeatable; e.g. --select DT2)")
    p_lint.add_argument("--ignore", action="append", metavar="PREFIX",
                        help="drop codes matching PREFIX (repeatable)")
    p_lint.add_argument("--explain", metavar="CODE",
                        help="print one rule's rationale, example, and "
                             "suppression syntax, then exit")
    p_lint.set_defaults(func=_lint)

    p_mot = sub.add_parser("motivation", help="Section 2 soundness experiment")
    p_mot.add_argument("--seeds", type=int, default=10)
    p_mot.set_defaults(func=_motivation)

    p_bench = sub.add_parser(
        "bench", help="run a benchmarks/bench_*.py module under pytest"
    )
    p_bench.add_argument("name", nargs="?",
                         help="benchmark name (e.g. 'batching' for "
                              "benchmarks/bench_batching.py); omit to list")
    p_bench.add_argument("--out-dir", default=".", metavar="DIR",
                         help="directory for BENCH_*.json artifacts "
                              "(default: current directory)")
    p_bench.set_defaults(func=_bench)

    p_show = sub.add_parser("show-dag", help="print one of the paper's DAGs")
    p_show.add_argument("name", choices=["quickstart", "yahoo", "smarthomes", "iot"])
    p_show.add_argument("--dot", action="store_true", help="Graphviz output")
    p_show.set_defaults(func=_show_dag)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
