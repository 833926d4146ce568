"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``design``
    Theorem-1 sizing for a workload: optimal master count, theta bounds,
    predicted stretch factors.
``trace``
    Generate a synthetic trace (optionally saving it to JSON Lines), or —
    with ``--record`` / ``--audit`` / ``--summarize`` — drive the
    ``repro.obs`` tracing subsystem: record an audited span stream from a
    replay, audit a saved stream (or, bare, the fig3/fig4/chaos suites),
    or summarise a saved stream.
``replay``
    Run one trace (generated or loaded) through a cluster under a policy
    and print the metrics report.
``fig3 / table1 / table2 / fig4 / fig5 / table3``
    Regenerate the paper's artifacts (quick grids; see benchmarks/ for the
    asserting versions).
``chaos``
    Run a named chaos scenario (crash storms, recruitment churn, overload
    bursts) against baseline and resilience-enabled M/S clusters and print
    the availability comparison.
``calibrate``
    Check the clean simulator against M/M/1.
``serve / loadgen / live-validate``
    Drive the :mod:`repro.live` subsystem: boot a real asyncio
    master/slave cluster on localhost, replay a workload against it over
    HTTP (optionally saving its auditable span stream), or cross-validate
    live stretch against the simulator.
``control``
    Arm the :mod:`repro.control` online control plane.  Bare, replay the
    workload-drift scenario in the simulator — a frozen Theorem-1 design
    against a controlled cluster that re-estimates the workload and
    re-solves Theorem 1 mid-run — and print the comparison plus the
    applied actions; ``--live`` attaches the reconciliation loop to a
    real loopback cluster instead.  ``--dry-run`` logs decisions without
    actuating; ``--spans`` saves the controlled run's auditable span
    stream (CONTROL spans included).
``bench``
    Run the perf suite (``--jobs N`` fans the grids over worker
    processes) and emit a machine-readable ``BENCH_<timestamp>.json``
    record; gates against ``benchmarks/baseline.json`` when present.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.reporting import format_table
from repro.core.policies import make_policy
from repro.obs import (
    Tracer,
    TraceAuditError,
    audit_cluster,
    audit_spans,
    load_jsonl,
    save_jsonl,
    summarize_spans,
)
from repro.perf.bench import add_bench_parser
from repro.sim.config import paper_sim_config
from repro.sim.failures import CHAOS_SCENARIOS
from repro.workload.io import load_trace, save_trace
from repro.workload.traces import get_trace

# Each command imports the experiment harness, ``workload.replay`` and
# the workload generator itself, so ``repro serve`` and the other live
# commands start without them.


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default="UCB",
                        help="trace spec name (UCB/KSU/ADL/DEC)")
    parser.add_argument("--rate", type=float, default=800.0,
                        help="arrival rate, requests/second")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="trace span in virtual seconds")
    parser.add_argument("--inv-r", type=float, default=40.0,
                        help="CGI cost ratio 1/r")
    parser.add_argument("--mu-h", type=float, default=1200.0,
                        help="per-node static service rate")
    parser.add_argument("--seed", type=int, default=0)


def cmd_design(args: argparse.Namespace) -> int:
    """``repro design``: Theorem-1 sizing for a described workload."""
    from repro.core.queuing import Workload, flat_stretch
    from repro.core.theorem import optimal_masters, theta_bounds

    w = Workload.from_ratios(lam=args.lam, a=args.a, mu_h=args.mu_h,
                             r=1.0 / args.inv_r, p=args.p)
    if not w.feasible:
        print(f"offered load {w.total_offered:.1f} exceeds p={w.p}: "
              f"no stable configuration", file=sys.stderr)
        return 1
    design = optimal_masters(w)
    sf = flat_stretch(w)
    t1, t2 = theta_bounds(w, design.m) if design.m < w.p else (1.0, 1.0)
    print(format_table(
        ["quantity", "value"],
        [["masters m*", design.m],
         ["theta*", f"{design.theta:.4f}"],
         ["theta bounds", f"[{t1:.4f}, {t2:.4f}]"],
         ["SM (M/S stretch)", f"{design.sm:.4f}"],
         ["SF (flat stretch)", f"{sf:.4f}"],
         ["improvement", f"{100 * (sf / design.sm - 1):.1f}%"]],
        title=(f"Theorem 1 design: lam={args.lam}, a={args.a}, "
               f"1/r={args.inv_r}, p={args.p}"),
    ))
    return 0


#: Sentinel for a bare ``--audit`` (no file): audit the standard suites.
_AUDIT_SUITES = "__suites__"


def _trace_record(args: argparse.Namespace) -> int:
    """``repro trace --record OUT``: replay, audit, and save the spans."""
    from repro.analysis.sweep import choose_masters
    from repro.workload.generator import generate_trace
    from repro.workload.replay import pretrain_sampler, replay

    spec = get_trace(args.trace)
    trace = generate_trace(spec, rate=args.rate, duration=args.duration,
                           mu_h=args.mu_h, r=1.0 / args.inv_r,
                           seed=args.seed,
                           cacheable_fraction=args.cacheable)
    masters = args.masters
    if masters is None:
        masters = choose_masters(spec, args.rate, args.mu_h,
                                 1.0 / args.inv_r, args.nodes)
    sampler = pretrain_sampler(trace, seed=args.seed)
    policy = make_policy(args.policy, args.nodes, masters,
                         sampler=sampler, seed=args.seed + 17)
    cfg = paper_sim_config(num_nodes=args.nodes, seed=args.seed)
    cfg.static_rate = args.mu_h
    tracer = Tracer()
    result = replay(cfg, policy, trace, tracer=tracer, audit=False)
    report = audit_cluster(result.cluster)
    save_jsonl(tracer.spans, args.record, meta={
        "trace": args.trace, "policy": args.policy, "nodes": args.nodes,
        "masters": masters, "rate": args.rate, "duration": args.duration,
        "seed": args.seed, "audit_ok": report.ok,
    })
    summary = summarize_spans(tracer.spans)
    print(f"wrote {summary['spans']} spans ({summary['requests']} requests, "
          f"{summary['nodes']} nodes) to {args.record}")
    print(f"digest {summary['digest']}")
    if report.ok:
        print(f"audit: clean ({report.checked})")
        return 0
    print(report.render(), file=sys.stderr)
    return 1


def _trace_summarize(path: str) -> int:
    """``repro trace --summarize FILE``: per-kind counts + digest."""
    spans, header = load_jsonl(path)
    summary = summarize_spans(spans)
    rows = [["spans", summary["spans"]],
            ["requests", summary["requests"]],
            ["nodes", summary["nodes"]],
            ["virtual horizon",
             f"[{summary['t_min']:.3f}, {summary['t_max']:.3f}]"],
            ["digest", summary["digest"][:16] + "..."]]
    rows += [[f"  {kind}", count]
             for kind, count in summary["kinds"].items()]
    meta = header.get("meta")
    title = f"{path}" + (f" ({meta})" if meta else "")
    print(format_table(["quantity", "value"], rows, title=title))
    return 0


def _trace_audit_file(path: str) -> int:
    """``repro trace --audit FILE``: audit of a saved stream.

    Checks the trace-derivable invariants (causality, lifecycle, device
    exclusivity, reservation caps), plus conservation and stretch when the
    header carries the run's ledger (``meta.conservation`` and
    ``meta.summary``, as live streams do).
    """
    spans, header = load_jsonl(path)
    meta = header.get("meta") or {}
    report = audit_spans(spans, conservation=meta.get("conservation"),
                         summary=meta.get("summary"))
    if report.ok:
        print(f"{path}: clean ({report.checked})")
        return 0
    print(report.render(), file=sys.stderr)
    return 1


def _trace_audit_suites(args: argparse.Namespace) -> int:
    """Bare ``repro trace --audit``: audit fig3/fig4-style replays and the
    chaos harness end to end; exit non-zero on any invariant violation."""
    from repro.analysis import experiments
    from repro.analysis.sweep import choose_masters
    from repro.workload.generator import generate_trace
    from repro.workload.replay import pretrain_sampler, replay

    rows: List[List[object]] = []
    failures = 0

    def audited_replay(label: str, spec_name: str, policy_name: str,
                       p: int, util: float, inv_r: int) -> None:
        nonlocal failures
        spec = get_trace(spec_name)
        r = 1.0 / inv_r
        lam = experiments.iso_load_rate(spec, 1200.0, r, p, util)
        trace = generate_trace(spec, rate=lam, duration=6.0, mu_h=1200.0,
                               r=r, seed=args.seed)
        sampler = pretrain_sampler(trace, seed=args.seed)
        m = choose_masters(spec, lam, 1200.0, r, p)
        policy = make_policy(policy_name, p, m, sampler=sampler,
                             seed=args.seed + 17)
        tracer = Tracer()
        result = replay(paper_sim_config(num_nodes=p, seed=args.seed),
                        policy, trace, tracer=tracer, audit=False)
        report = audit_cluster(result.cluster)
        failures += len(report.violations)
        rows.append([label, f"{spec_name}/{policy_name}",
                     len(tracer.spans), len(report.violations),
                     "ok" if report.ok else "FAIL"])
        if not report.ok:
            print(report.render(), file=sys.stderr)

    # Fig-3 operating point (scaled to p=8): M/S vs the M/S-1 variant.
    for policy_name in ("MS", "MS-1"):
        audited_replay("fig3", "UCB", policy_name, p=8, util=0.6, inv_r=40)
    # Fig-4 corners: both traces, both r extremes, low/high utilisation.
    audited_replay("fig4", "UCB", "MS", p=8, util=0.9, inv_r=20)
    audited_replay("fig4", "KSU", "MS", p=8, util=0.6, inv_r=80)
    audited_replay("fig4", "KSU", "MSPrime", p=8, util=0.75, inv_r=40)

    # Chaos: crash storm and the overloaded storm-burst, fully audited
    # inside run_chaos (every variant's span stream).
    for scenario, rate, duration in (("crash-storm", 200.0, 15.0),
                                     ("storm-burst", 983.6, 15.0)):
        try:
            res = experiments.run_chaos(scenario, p=8, rate=rate,
                                        duration=duration, drain=40.0,
                                        seed=args.seed, audit=True)
            rows.append(["chaos", scenario, res.audit_spans, 0, "ok"])
        except TraceAuditError as exc:
            failures += len(exc.report.violations)
            rows.append(["chaos", scenario, "-",
                         len(exc.report.violations), "FAIL"])
            print(exc.report.render(), file=sys.stderr)

    print(format_table(["suite", "config", "spans", "violations", "status"],
                       rows, title="trace-audit suites"))
    if failures:
        print(f"{failures} invariant violation(s)", file=sys.stderr)
        return 1
    print("all suites clean")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: generate a synthetic trace, or record/audit/
    summarise an observability span stream."""
    modes = [name for name in ("record", "audit", "summarize")
             if getattr(args, name) is not None]
    if len(modes) > 1:
        print(f"--{modes[0]} and --{modes[1]} are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.record is not None:
        return _trace_record(args)
    if args.audit is not None:
        if args.audit == _AUDIT_SUITES:
            return _trace_audit_suites(args)
        return _trace_audit_file(args.audit)
    if args.summarize is not None:
        return _trace_summarize(args.summarize)
    return _trace_generate(args)


def _trace_generate(args: argparse.Namespace) -> int:
    """Original ``repro trace``: generate (and maybe save) a workload."""
    from repro.workload.generator import generate_trace, trace_statistics

    spec = get_trace(args.trace)
    trace = generate_trace(spec, rate=args.rate, duration=args.duration,
                           mu_h=args.mu_h, r=1.0 / args.inv_r,
                           seed=args.seed,
                           cacheable_fraction=args.cacheable)
    stats = trace_statistics(trace)
    print(format_table(
        ["stat", "value"],
        [[k, f"{v:.4f}" if isinstance(v, float) else v]
         for k, v in stats.items()],
        title=f"generated {len(trace)} requests ({spec.name}-like)",
    ))
    if args.out:
        n = save_trace(trace, args.out)
        print(f"wrote {n} requests to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: simulate one trace under one policy."""
    from repro.analysis.sweep import choose_masters
    from repro.workload.generator import generate_trace
    from repro.workload.replay import pretrain_sampler, replay

    if args.from_file:
        trace = load_trace(args.from_file)
        spec = get_trace(args.trace)
    else:
        spec = get_trace(args.trace)
        trace = generate_trace(spec, rate=args.rate,
                               duration=args.duration, mu_h=args.mu_h,
                               r=1.0 / args.inv_r, seed=args.seed)
    masters = args.masters
    if masters is None:
        masters = choose_masters(spec, args.rate, args.mu_h,
                                 1.0 / args.inv_r, args.nodes)
    sampler = pretrain_sampler(trace, seed=args.seed)
    policy = make_policy(args.policy, args.nodes, masters,
                         sampler=sampler, seed=args.seed + 17)
    cfg = paper_sim_config(num_nodes=args.nodes, seed=args.seed)
    cfg.static_rate = args.mu_h
    report = replay(cfg, policy, trace).report
    print(format_table(
        ["metric", "overall", "static", "dynamic"],
        [["stretch", report.overall.stretch, report.static.stretch,
          report.dynamic.stretch],
         ["mean response (ms)", report.overall.mean_response * 1e3,
          report.static.mean_response * 1e3,
          report.dynamic.mean_response * 1e3],
         ["p95 response (ms)", report.overall.p95_response * 1e3,
          report.static.p95_response * 1e3,
          report.dynamic.p95_response * 1e3],
         ["count", report.overall.count, report.static.count,
          report.dynamic.count]],
        title=(f"{args.policy} on {args.nodes} nodes ({masters} masters): "
               f"{report.completed} completed, "
               f"{report.remote_dispatches} remote CGI"),
    ))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro fig3|table1|...``: regenerate a paper artifact."""
    from repro.analysis import experiments

    name = args.experiment
    if name == "fig3":
        print(experiments.run_fig3().render())
    elif name == "table1":
        print(experiments.run_table1(n=args.n).render())
    elif name == "table2":
        print(experiments.run_table2().render())
    elif name == "fig4":
        print(experiments.run_fig4(
            p_values=(32,), inv_r_values=(20, 80),
            utilizations=(0.6, 0.9),
            base_duration=args.duration).render())
    elif name == "fig5":
        print(experiments.run_fig5(p_values=(32,),
                                   duration=args.duration).render())
    elif name == "table3":
        print(experiments.run_table3(duration=4 * args.duration).render())
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: availability under a composed failure scenario."""
    from repro.analysis import experiments

    result = experiments.run_chaos(
        scenario=args.scenario,
        trace_name=args.trace,
        p=args.nodes,
        rate=args.rate,
        duration=args.duration,
        inv_r=int(args.inv_r),
        seed=args.seed,
        mu_h=args.mu_h,
        detection_mode=args.detection_mode,
    )
    print(result.render())
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """``repro calibrate``: clean-simulator vs M/M/1 check."""
    from repro.analysis.validation import mm1_calibration

    rows = mm1_calibration(duration=args.duration * 5, seed=args.seed)
    print(format_table(
        ["rho", "1/(1-rho)", "simulated", "error %"],
        [[f"{r.rho:.2f}", r.predicted, r.simulated,
          100 * r.relative_error] for r in rows],
        title="clean simulator vs M/M/1",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: boot a live loopback cluster and run until ^C."""
    import asyncio

    from repro.live.cluster import LiveCluster, LiveClusterConfig

    async def _run() -> None:
        cluster = LiveCluster(LiveClusterConfig(
            num_slaves=args.slaves, master_workers=args.workers,
            slave_workers=args.workers, seed=args.seed))
        async with cluster:
            m = cluster.master
            print(f"master node 0: http://{m.host}:{m.http_port} "
                  f"(heartbeat udp {m.udp_port}, cgi tcp {m.cgi_port})")
            for slave_id, port in enumerate(cluster.slave_ports, start=1):
                print(f"slave node {slave_id}: cgi tcp {port}")
            print("endpoints: /req /healthz /control/stats /control/spans")
            print("serving; Ctrl-C to stop", flush=True)
            while True:
                await asyncio.sleep(3600)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: open-loop trace replay against a live master."""
    import asyncio

    from repro.live.loadgen import http_get, run_loadgen
    from repro.live.validate import make_validation_trace

    if not args.spawn and args.port is None:
        print("loadgen needs --port (or --spawn to boot a cluster)",
              file=sys.stderr)
        return 2
    trace = make_validation_trace(args.trace, rate=args.rate,
                                  duration=args.duration, mu_h=args.mu_h,
                                  inv_r=args.inv_r, seed=args.seed)

    async def _replay(host: str, port: int):
        result = await run_loadgen(host, port, trace,
                                   time_scale=args.time_scale)
        if args.spans:
            status, body = await http_get(host, port, "/control/spans")
            if status != 200:
                raise RuntimeError(f"/control/spans returned HTTP {status}")
            with open(args.spans, "w", encoding="utf-8") as fh:
                fh.write(body.decode("utf-8"))
        return result

    async def _run():
        if args.spawn:
            from repro.live.cluster import LiveCluster, LiveClusterConfig
            cluster = LiveCluster(LiveClusterConfig(num_slaves=args.slaves,
                                                    seed=args.seed))
            async with cluster:
                assert cluster.master.http_port is not None
                return await _replay(cluster.master.host,
                                     cluster.master.http_port)
        return await _replay(args.host, args.port)

    result = asyncio.run(_run())
    rows = [[k, f"{v:.4f}" if isinstance(v, float) else v]
            for k, v in result.summary().items()]
    print(format_table(["quantity", "value"], rows,
                       title=f"loadgen: {len(trace)} requests "
                             f"({args.trace}-like)"))
    for message in result.error_messages[:5]:
        print(f"  error: {message}", file=sys.stderr)
    if args.spans:
        print(f"wrote live span stream to {args.spans}")
    if result.errors or (result.ok == 0 and result.submitted > 0):
        return 1
    return 0


def _control_config(args: argparse.Namespace):
    from repro.control import ControlConfig

    cfg = ControlConfig(
        period=args.period, cooldown=args.cooldown,
        min_masters=args.min_masters, max_masters=args.max_masters,
        dry_run=args.dry_run,
    )
    cfg.validate()
    return cfg


def cmd_control(args: argparse.Namespace) -> int:
    """``repro control``: online re-solving of Theorem 1 against a
    running cluster (simulated drift scenario, or ``--live``)."""
    cfg = _control_config(args)
    if args.live:
        return _control_live(args, cfg)
    from repro.analysis import experiments

    tracer = Tracer()
    result = experiments.run_control_drift(
        trace_name=args.trace, p=args.nodes, mu_h=args.mu_h,
        inv_r=int(args.inv_r), seed=args.seed, control=cfg,
        tracer=tracer)
    print(result.render())
    if args.dry_run:
        print("dry-run: decisions were logged as CONTROL spans but "
              "nothing was actuated")
    if args.spans:
        save_jsonl(tracer.spans, args.spans, meta={
            "mode": "control-drift", "trace": args.trace,
            "nodes": args.nodes, "dry_run": args.dry_run,
            "seed": args.seed,
        })
        print(f"wrote controlled-run span stream to {args.spans}")
    return 0


def _control_live(args: argparse.Namespace, cfg) -> int:
    """``repro control --live``: reconciliation loop on a real cluster."""
    import asyncio

    from repro.control import LiveControlLoop
    from repro.live.cluster import LiveCluster, LiveClusterConfig
    from repro.live.loadgen import run_loadgen
    from repro.live.validate import make_validation_trace

    trace = make_validation_trace(args.trace, rate=args.rate,
                                  duration=args.duration, mu_h=args.mu_h,
                                  inv_r=args.inv_r, seed=args.seed)

    async def _run():
        cluster = LiveCluster(LiveClusterConfig(num_slaves=args.slaves,
                                                seed=args.seed))
        async with cluster:
            loop = LiveControlLoop(cluster.master, cfg).start()
            try:
                assert cluster.master.http_port is not None
                result = await run_loadgen(cluster.master.host,
                                           cluster.master.http_port, trace,
                                           time_scale=args.time_scale)
            finally:
                await loop.stop()
            spans = (list(cluster.master.tracer.spans)
                     if cluster.master.tracer is not None else [])
            metrics = cluster.master.metrics
            return (result, spans, loop.controller,
                    cluster.master.conservation(), metrics.report(),
                    metrics.summary())

    result, spans, controller, ledger, metrics, summary = asyncio.run(_run())
    rows = [[k, f"{v:.4f}" if isinstance(v, float) else v]
            for k, v in result.summary().items()]
    rows += [["control ticks", controller.ticks],
             ["actions applied", len(controller.applied)],
             ["actions proposed", len(controller.proposed)]]
    print(format_table(["quantity", "value"], rows,
                       title=f"live controlled run: {len(trace)} requests "
                             f"({args.trace}-like)"))
    for action in controller.applied:
        print(f"  applied: {action.kind} node={action.node_id} "
              f"value={action.value} ({action.reason})")
    report = audit_spans(spans, conservation=ledger, metrics_report=metrics)
    if args.spans:
        save_jsonl(spans, args.spans, meta={
            "mode": "control-live", "trace": args.trace,
            "slaves": args.slaves, "dry_run": args.dry_run,
            "audit_ok": report.ok, "conservation": ledger,
            "summary": summary,
        })
        print(f"wrote live span stream to {args.spans}")
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 1
    print(f"audit: clean ({report.checked})")
    return 1 if result.errors else 0


def cmd_live_validate(args: argparse.Namespace) -> int:
    """``repro live-validate``: live vs simulated stretch comparison."""
    import asyncio

    from repro.live.validate import TOLERANCE, validate

    tolerance = args.tolerance if args.tolerance is not None else TOLERANCE
    result = asyncio.run(validate(
        args.trace, rate=args.rate, duration=args.duration, mu_h=args.mu_h,
        inv_r=args.inv_r, num_slaves=args.slaves, seed=args.seed,
        tolerance=tolerance))
    print(result.render())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Master/slave Web-cluster scheduling (SPAA'99 "
                     "reproduction)"),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("design", help="Theorem-1 master sizing")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--inv-r", type=float, default=40.0)
    p.add_argument("--mu-h", type=float, default=1200.0)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("trace",
                       help="generate a synthetic trace, or record/audit/"
                            "summarize an observability span stream")
    _add_workload_args(p)
    p.add_argument("--cacheable", type=float, default=0.0,
                   help="fraction of CGI output that is cacheable")
    p.add_argument("--out", help="write JSON Lines trace here")
    p.add_argument("--record", metavar="SPANS.jsonl",
                   help="replay the workload with tracing on, audit it, "
                        "and save the span stream here")
    p.add_argument("--audit", nargs="?", const=_AUDIT_SUITES,
                   metavar="SPANS.jsonl",
                   help="audit a saved span stream; bare, audit the "
                        "fig3/fig4/chaos suites end to end")
    p.add_argument("--summarize", metavar="SPANS.jsonl",
                   help="print per-kind counts and digest of a saved "
                        "span stream")
    p.add_argument("--nodes", type=int, default=8,
                   help="cluster size for --record")
    p.add_argument("--masters", type=int, default=None,
                   help="master count for --record (default: Theorem 1)")
    p.add_argument("--policy", default="MS",
                   help="dispatch policy for --record")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("replay", help="simulate one trace under a policy")
    _add_workload_args(p)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--masters", type=int, default=None,
                   help="master count (default: Theorem 1)")
    p.add_argument("--policy", default="MS",
                   help="MS, MS-ns, MS-nr, MS-1, Flat, MSPrime, "
                        "RoundRobin, LeastActive")
    p.add_argument("--from-file", help="replay a saved JSON Lines trace")
    p.set_defaults(func=cmd_replay)

    for exp in ("fig3", "table1", "table2", "fig4", "fig5", "table3"):
        p = sub.add_parser(exp, help=f"regenerate {exp} (quick grid)")
        p.add_argument("--duration", type=float, default=6.0)
        p.add_argument("--n", type=int, default=20000)
        p.set_defaults(func=cmd_experiment, experiment=exp)

    p = sub.add_parser("chaos", help="availability under failure scenarios")
    _add_workload_args(p)
    p.set_defaults(rate=400.0, duration=45.0)
    p.add_argument("--scenario", default="storm-burst",
                   choices=sorted(CHAOS_SCENARIOS),
                   help="named failure composition")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--detection-mode", default="monitor",
                   choices=("switch", "monitor"),
                   help="how membership learns about crashes")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("calibrate", help="simulator vs M/M/1")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("serve",
                       help="boot a live loopback master/slave cluster")
    p.add_argument("--slaves", type=int, default=2)
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads per node")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadgen",
                       help="replay a trace against a live master over HTTP")
    _add_workload_args(p)
    p.set_defaults(rate=60.0, duration=3.0, inv_r=12.0, mu_h=240.0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="HTTP port of a running master")
    p.add_argument("--spawn", action="store_true",
                   help="boot a loopback cluster for the duration of the run")
    p.add_argument("--slaves", type=int, default=2,
                   help="slave count for --spawn")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="stretch (>1) or compress (<1) inter-arrival gaps")
    p.add_argument("--spans", metavar="OUT.jsonl",
                   help="save the master's span stream (via /control/spans)")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("live-validate",
                       help="cross-validate live stretch against the "
                            "simulator")
    _add_workload_args(p)
    p.set_defaults(trace="ADL", rate=60.0, duration=3.0, inv_r=12.0,
                   mu_h=240.0)
    p.add_argument("--slaves", type=int, default=2)
    p.add_argument("--tolerance", type=float, default=None,
                   help="live/sim stretch ratio band (default: "
                        "repro.live.validate.TOLERANCE)")
    p.set_defaults(func=cmd_live_validate)

    p = sub.add_parser("control",
                       help="online control plane: re-solve Theorem 1 "
                            "against a running cluster")
    _add_workload_args(p)
    p.add_argument("--nodes", type=int, default=8,
                   help="cluster size for the sim drift scenario")
    p.add_argument("--period", type=float, default=0.5,
                   help="reconciliation period, seconds")
    p.add_argument("--cooldown", type=float, default=2.0,
                   help="minimum spacing between role transitions")
    p.add_argument("--min-masters", type=int, default=1)
    p.add_argument("--max-masters", type=int, default=None,
                   help="role-step ceiling (default p-1)")
    p.add_argument("--dry-run", action="store_true",
                   help="log decisions as CONTROL spans, actuate nothing")
    p.add_argument("--spans", metavar="OUT.jsonl",
                   help="save the controlled run's span stream")
    p.add_argument("--live", action="store_true",
                   help="attach the loop to a real loopback cluster "
                        "instead of the sim drift scenario")
    p.add_argument("--slaves", type=int, default=2,
                   help="slave count for --live")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="inter-arrival scaling for --live")
    p.set_defaults(rate=60.0, func=cmd_control)

    add_bench_parser(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        print("\nrepro: error: a command is required "
              "(pick one from the list above)", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
