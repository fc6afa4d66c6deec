"""Command-line entry point: scenario runner over the registry.

Usage::

    python -m repro list                      # catalogue of scenarios
    python -m repro list --tags paper         # filter by tag
    python -m repro list --verbose            # + full typed parameter specs
    python -m repro inspect gals-mesh --tree  # scenario's instance tree
    python -m repro inspect compiled-fault-campaign --compiled  # levelized stats
    python -m repro lint --all                # static checks, all designs
    python -m repro lint gals-mesh --format sarif --fail-on warning
    python -m repro run                       # every paper table/figure
    python -m repro run fig12 table1          # just these (nothing else runs)
    python -m repro run --tags ablation       # the extension studies
    python -m repro run --fast --jobs 4       # fast mode, 4 worker processes
    python -m repro run fig12 --out out/      # also write CSV+JSON artifacts
    python -m repro sweep mesh-design-space --jobs 4 --out out/
    python -m repro sweep mesh-design-space --param mesh_size=4,8 --set kind=I2
    python -m repro sweep mesh-design-space --resume out/   # finish a killed sweep
    python -m repro sweep traffic-hotspot --store runs/     # skip cached points
    python -m repro sweep traffic-hotspot --progress --out out/  # live status
    python -m repro sweep mesh-design-space --workers 2 --out out/  # fabric
    python -m repro sweep mesh-design-space --fabric shared/ --out out/
    python -m repro worker shared/                 # fabric worker daemon
    python -m repro telemetry out/                          # sweep analytics
    python -m repro telemetry out/ --json - --csv points.csv
    python -m repro diff baseline/ out/                     # regression gate
    python -m repro history runs/                           # store catalogue
    python -m repro bench --json bench.json                 # kernel cycles/sec
    python -m repro bench --suite all --fast \
        --check benchmarks/baseline_bench.json              # CI gate
    python -m repro bench --suite gate --scale 0.25         # smaller workloads
    python -m repro bench --profile                         # cProfile hot spots

``run`` exits non-zero if any paper-vs-measured check fails, so it
doubles as a reproduction smoke test in CI.  ``sweep`` expands a
cartesian parameter grid (the scenario's declared axes, or explicit
``--param name=v1,v2,...``) and executes every point, optionally in
parallel; results are deterministic and independent of ``--jobs``.
Note that *paper* scenarios check against the paper's published
numbers, so sweeping one away from its calibrated defaults reports
failed checks (exit 1) by design.

Durability and comparison live in :mod:`repro.store`: every sweep with
an output directory journals outcomes as they complete, ``--resume``
finishes a killed sweep from that journal (byte-identical artifacts),
``--store`` caches outcomes content-addressed by code fingerprint, and
``diff`` compares two artifact trees, exiting non-zero on regression.

``bench`` times each kernel against its reference (the frozen seed
kernels, the event kernel, the bare engine) and emits a JSON record;
``--check`` gates the speedup ratios against a committed baseline and
each workload's floor (see :mod:`repro.bench` and the README
"Performance" section).

This module only parses arguments, calls the library and prints; each
subcommand binds its ``handler`` with ``set_defaults``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .analysis.report import format_table
from .obs import analyze as obs_analyze
from .obs import metrics as obs_metrics
from .obs import progress as obs_progress
from .obs import telemetry as obs_telemetry
from .runner import artifacts, engine, registry, sweep
from . import store as run_store_pkg
from .store import diff as store_diff
from .store import journal as store_journal


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------
def _checked(kind, ok, rule: str):
    """argparse ``type=``: ``kind(raw)``, a usage error unless ``ok``."""
    def parse(raw: str):
        value = kind(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {raw}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: ..." stays
    return parse


_COUNT = _checked(int, lambda n: n >= 1, ">= 1")
_POSITIVE = _checked(float, lambda x: x > 0, "positive")


def _listed(item):
    """argparse ``type=``: a comma-separated list of ``item`` values."""
    def parse(raw: str):
        values = [item(part) for part in raw.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError("must name at least one value")
        return values

    parse.__name__ = item.__name__
    return parse


def _pairs(parser, flag: str, raws, value: str = "value") -> Dict[str, str]:
    """``NAME=VALUE`` option values as raw strings keyed by name; a
    missing ``=`` or a name given twice is a usage error."""
    pairs: Dict[str, str] = {}
    for raw in raws or ():
        name, eq, text = raw.partition("=")
        name = name.strip()
        if not eq:
            parser.error(f"{flag} expects name={value}, got {raw!r}")
        if name in pairs:
            parser.error(f"{flag} {name} given twice; pass "
                         f"{flag} {name}={value} once")
        pairs[name] = text
    return pairs


def _check_ids(parser, ids: List[str]) -> None:
    """Usage error unless every id names a registered scenario."""
    registry.load_builtin()
    known = set(registry.ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        parser.error(
            f"unknown scenario(s) {unknown}; choose from "
            f"{', '.join(sorted(known))}"
        )


def _parse_tags(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [t.strip() for t in raw.split(",") if t.strip()]


def _waivers(parser, explicit: Optional[str]):
    """Waivers from ``--waivers FILE`` or ``./lint-waivers.toml``.

    An explicitly named file must exist and parse; the conventional
    default is optional (no file → no waivers).
    """
    from . import lint as lint_pkg

    if explicit is None and not Path("lint-waivers.toml").exists():
        return []
    try:
        return lint_pkg.load_waivers(explicit or "lint-waivers.toml")
    except lint_pkg.WaiverError as exc:
        parser.error(str(exc))


def _emit(dest: str, text: str, what: str) -> None:
    """Write ``text`` to stdout when ``dest`` is ``-``, else to the
    file ``dest`` with a one-line note on stdout."""
    if dest == "-":
        print(text, end="")  # machine output only: keep stdout parseable
    else:
        Path(dest).write_text(text, encoding="utf-8")
        print(f"{what} written to {dest}")


def _summary(outcomes, **fields) -> Dict[str, object]:
    """``fields`` plus the outcomes' failure tally (a point that raised
    counts as one, any other as its failed checks) and counter rollup."""
    summary: Dict[str, object] = dict(fields)
    summary["failures"] = sum(
        1 if o.error else len(o.result.failures()) for o in outcomes
    )
    counters = obs_telemetry.counter_rollup(outcomes)
    if counters:
        summary["counters"] = counters
    return summary


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_list(args, parser) -> int:
    registry.load_builtin()
    scenarios = registry.find(tags=_parse_tags(args.tags))
    if args.verbose:
        return _list_verbose(scenarios)
    rows = []
    for sc in scenarios:
        swept = [p.name for p in sc.params if p.sweep]
        rows.append([
            sc.id,
            ",".join(sorted(sc.tags)),
            ",".join(p.name for p in sc.params) or "-",
            ",".join(swept) or "-",
            sc.description,
        ])
    print(format_table(
        ("id", "tags", "params", "sweep axes", "description"),
        rows,
        title=f"{len(rows)} registered scenario(s)",
    ))
    return 0


def _list_verbose(scenarios) -> int:
    """Full typed ParamSpec per scenario, so sweep grids can be
    written without reading the experiment source."""
    for sc in scenarios:
        extras = []
        if sc.has_design:
            extras.append("design tree (see: inspect)")
        if sc.fast_skip:
            extras.append("incompatible with --fast")
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"{sc.id} — {sc.description}{suffix}")
        if sc.tags:
            print(f"  tags: {', '.join(sorted(sc.tags))}")
        caps = sc.capabilities()
        if caps:
            print(f"  capabilities: {', '.join(caps)}")
        if not sc.params:
            print("  (no parameters)\n")
            continue
        rows = []
        for spec in sc.params:
            rows.append([
                spec.name,
                spec.type.__name__,
                spec.default,
                ",".join(str(c) for c in spec.choices or ()) or "-",
                ",".join(str(v) for v in spec.sweep) or "-",
                spec.help or "-",
            ])
        table = format_table(
            ("param", "type", "default", "choices", "sweep axis", "help"),
            rows,
        )
        print("\n".join("  " + line for line in table.splitlines()))
        if sc.fast_params:
            pairs = ", ".join(
                f"{k}={v}" for k, v in sc.fast_params.items()
            )
            print(f"  fast-mode overrides: {pairs}")
        print()
    print(f"{len(scenarios)} registered scenario(s)")
    return 0


def _cmd_inspect(args, parser) -> int:
    from . import lint as lint_pkg

    registry.load_builtin()
    try:
        sc = registry.get(args.scenario)
    except registry.ScenarioError as exc:
        parser.error(str(exc))
    if not sc.has_design:
        with_design = [s.id for s in registry.all_scenarios()
                       if s.has_design]
        parser.error(
            f"scenario {sc.id!r} exposes no design tree; scenarios "
            f"that do: {', '.join(with_design) or 'none'}"
        )
    pins = _pairs(parser, "--set", args.set)
    try:
        design = sc.design_for(overrides=pins, fast=args.fast)
    except (registry.ScenarioError, ValueError) as exc:
        # covers unknown or ill-typed pins, DesignError (bad
        # fault_paths) and config validation (e.g. n_buffers=0) from
        # the scenario's design hook
        parser.error(str(exc))
    from .analysis.report import render_design_summary

    n_instances = len(design.instances())
    if args.tree:
        print(design.tree(ports=not args.no_ports))
    else:
        print(render_design_summary(
            design,
            title=f"{sc.id}: {n_instances} instance(s)",
        ))
    if design.is_elaborated:
        print(f"{n_instances} instance(s), "
              f"{len(design.sim.created_signals)} net(s)")
    else:
        print(f"{n_instances} instance(s) (structural view, "
              f"not elaborated onto a simulator)")
    report = lint_pkg.LintReport(sc.id, lint_pkg.lint_design(
        design, scenario=sc.id, waivers=_waivers(parser, None),
    ))
    if report.findings:
        print("lint: " + ", ".join(
            f"{n} {key}" for key, n in sorted(report.counts().items())
        ))
        for f in report.findings:
            print(f"  {f.render()}")
    else:
        print("lint: clean")
    if args.compiled:
        from .compiled import CompileError, compile_component

        print()
        try:
            circuit = compile_component(design)
        except (CompileError, ValueError) as exc:
            # a design full of coroutine processes or behavioral models
            # is a fine design — it just has no compiled form
            print(f"not compilable: {exc}")
            return 0
        print(circuit.stats().render())
        if sc.has_batch:
            print(
                f"batch packing: up to {sc.batch_lanes} "
                f"{sc.batch_axis!r}-sweep request(s) per 64-bit word"
            )
    return 0


def _cmd_lint(args, parser) -> int:
    from . import lint as lint_pkg

    registry.load_builtin()
    if not args.scenarios and not args.all:
        parser.error(
            "name at least one scenario or pass --all; scenarios with "
            "design trees: "
            + ", ".join(
                s.id for s in registry.all_scenarios() if s.has_design
            )
        )
    ids = None if args.all else list(args.scenarios)
    if ids:
        _check_ids(parser, ids)
    overrides = _pairs(parser, "--set", args.set)
    waivers = _waivers(parser, args.waivers)
    try:
        reports = lint_pkg.lint_registry(
            ids=ids, overrides=overrides or None,
            fast=not args.full, waivers=waivers,
        )
    except (registry.ScenarioError, ValueError) as exc:
        parser.error(str(exc))
    formatter = {
        "text": lint_pkg.format_text,
        "json": lint_pkg.format_json,
        "sarif": lint_pkg.format_sarif,
    }[args.format]
    print(formatter(reports))
    if lint_pkg.gate(reports, fail_on=args.fail_on):
        print(
            f"lint gate: unwaived finding(s) at or above "
            f"{args.fail_on!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _lint_preflight(parser, sc, fixed, fast: bool) -> bool:
    """The ``sweep --lint`` gate: True when the grid is refused."""
    from . import lint as lint_pkg

    if not sc.has_design:
        print(f"lint pre-flight: {sc.id} exposes no design tree; "
              f"nothing to check")
        return False
    try:
        report = lint_pkg.lint_scenario(
            sc, overrides=fixed or None, fast=fast,
            waivers=_waivers(parser, None),
        )
    except (registry.ScenarioError, ValueError) as exc:
        parser.error(str(exc))
    if not lint_pkg.gate([report], "error"):
        print(f"lint pre-flight: {sc.id} clean at error level")
        return False
    print(
        f"lint pre-flight: {report.counts()['error']} error-level "
        f"finding(s) in {sc.id}; refusing to dispatch the sweep",
        file=sys.stderr,
    )
    for finding in report.findings:
        print(f"  {finding.render()}", file=sys.stderr)
    return True


def _cmd_run(args, parser) -> int:
    _check_ids(parser, args.scenarios)
    wanted = frozenset(_parse_tags(args.tags))
    if args.scenarios:
        scenarios = [registry.get(i) for i in args.scenarios]
        scenarios = [sc for sc in scenarios if wanted <= sc.tags]
    else:
        scenarios = registry.find(tags=wanted or ("paper",))
    if not scenarios:
        parser.error("selection matches no scenarios")
    skipped = [sc.id for sc in scenarios if args.fast and sc.fast_skip]
    requests = [
        engine.RunRequest.create(sc.id, fast=args.fast)
        for sc in scenarios
        if not (args.fast and sc.fast_skip)
    ]
    if not requests:
        # everything the user asked for was fast-skipped: exiting 0
        # here would let a CI job go green having executed no checks
        print(
            f"no scenarios executed: {', '.join(skipped)} need(s) "
            f"gate-level simulation, incompatible with --fast",
            file=sys.stderr,
        )
        return 1
    outcomes = engine.execute(requests, jobs=args.jobs)
    for outcome in outcomes:
        if outcome.error:
            print(
                f"scenario {outcome.request.scenario_id} raised:\n"
                f"{outcome.error}",
                file=sys.stderr,
            )
        else:
            print(outcome.result.render())
            print()
    summary = _summary(
        outcomes, command="run",
        points=[obs_telemetry.point_record(o) for o in outcomes],
    )
    if args.out:
        written = artifacts.write_artifacts(outcomes, args.out)
        print(f"artifacts written to {written.parent}")
        obs_telemetry.write_snapshot(args.out, summary)
    for sid in skipped:
        print(f"(skipped {sid}: needs gate-level simulation, "
              f"incompatible with --fast)")
    if summary["failures"]:
        print(f"{summary['failures']} paper-vs-measured check(s) FAILED",
              file=sys.stderr)
        return 1
    print("all paper-vs-measured checks passed")
    return 0


def _cmd_sweep(args, parser) -> int:
    if not args.progress:
        return _sweep(args, parser)
    # --progress implies telemetry: the display and the stream feed
    # from the same counters, and the export makes spawned worker
    # processes collect too; both are undone when the sweep returns
    with obs_metrics.collecting(export=True):
        return _sweep(args, parser)


def _sweep(args, parser) -> int:
    registry.load_builtin()
    try:
        sc = registry.get(args.scenario)
    except registry.ScenarioError as exc:
        parser.error(str(exc))
    axes = _pairs(parser, "--param", args.param, "v1,v2,...")
    fixed = _pairs(parser, "--set", args.set)
    try:
        axes = {n: sweep.parse_axis(sc, n, v) for n, v in axes.items()}
        requests = sweep.build_requests(
            sc, axes=axes or None, fixed=fixed or None, fast=args.fast
        )
    except registry.ScenarioError as exc:
        parser.error(str(exc))

    if args.lint and _lint_preflight(parser, sc, fixed, args.fast):
        return 1

    fabric_mode = bool(args.fabric) or args.workers > 0
    if fabric_mode and args.jobs != 1:
        parser.error(
            "--jobs does not apply to fabric mode; use --workers N"
        )
    out_dir = args.out
    if args.resume:
        if out_dir and Path(out_dir) != Path(args.resume):
            parser.error(
                "--resume DIR already names the output directory; "
                "drop --out or make them match"
            )
        out_dir = args.resume

    fingerprint = run_store_pkg.code_fingerprint()
    journal_writer = None
    journaled = {}  # requests the journal already holds
    if out_dir:
        journal_writer = store_journal.Journal(
            store_journal.journal_path(out_dir)
        )
        if args.resume:
            past, note = journal_writer.resume(sc.id, fingerprint)
            if note:
                print(note, file=sys.stderr)
            wanted = set(requests)
            journaled = {o.request: o for o in past if o.request in wanted}
        else:
            journal_writer.start(sc.id, fingerprint)

    completed = dict(journaled)
    cache = (
        run_store_pkg.RunStore(args.store, fingerprint=fingerprint)
        if args.store else None
    )
    if cache is not None:
        for request in requests:
            hit = None if request in completed else cache.get(request)
            if hit is not None:
                completed[request] = hit
    store_hits = len(completed) - len(journaled)

    remaining = [r for r in requests if r not in completed]
    mode = (f"fabric workers={args.workers}" if fabric_mode
            else f"jobs={args.jobs}")
    print(f"sweeping {sc.id}: {len(requests)} point(s), {mode}")
    if completed:
        print(f"resuming: {len(journaled)} journaled + "
              f"{store_hits} stored point(s) reused, "
              f"{len(remaining)} to run")

    progress = (
        obs_progress.SweepProgress(len(requests))
        if args.progress else None
    )
    telemetry_writer = None
    resumed_stream = False
    if out_dir:
        telemetry_writer = obs_telemetry.TelemetryWriter(
            obs_telemetry.stream_path(out_dir)
        )
        if journaled and telemetry_writer.path.exists():
            try:
                obs_telemetry.recover_stream(telemetry_writer.path)
                resumed_stream = True
            except (obs_telemetry.TelemetryError, OSError):
                pass  # rewrite from scratch below
        if not resumed_stream:
            telemetry_writer.start(
                sc.id, fingerprint,
                jobs=args.jobs, total_points=len(requests),
            )
    # points reused from the store still belong in this sweep's journal
    # — without them a later --resume would re-run them; the telemetry
    # stream mirrors them (a resumed stream already holds the journaled
    # points, so only store hits are new)
    for request in requests:
        outcome = completed.get(request)
        if outcome is None:
            continue
        if progress is not None:
            progress.point_done(ok=outcome.ok, cached=True)
        from_store = request not in journaled
        if from_store and journal_writer is not None:
            journal_writer.append(outcome)
        if telemetry_writer is not None and (
                from_store or not resumed_stream):
            telemetry_writer.append_point(outcome, store_hit=from_store)

    def on_outcome(outcome):
        # journal/store immediately so a killed sweep loses nothing done
        if journal_writer is not None:
            journal_writer.append(outcome)
        if telemetry_writer is not None:
            telemetry_writer.append_point(outcome)
        if cache is not None and not outcome.error:
            cache.put(outcome)
        if progress is not None:
            progress.point_done(ok=outcome.ok)

    fabric_note = None
    try:
        if fabric_mode:
            executed, fabric_note = _run_fabric(args, parser, sc,
                                                remaining, on_outcome)
        else:
            executed = engine.execute(
                remaining, jobs=args.jobs, on_outcome=on_outcome
            )
    finally:
        if progress is not None:
            progress.close()
    if fabric_note:
        print(fabric_note)
    by_request = dict(completed)
    by_request.update({o.request: o for o in executed})
    outcomes = [by_request[request] for request in requests]

    if journal_writer is not None:
        # outcomes were journaled in completion order (--jobs N and
        # fabric workers publish as they finish); normalize the
        # finished journal to canonical grid order so the file is
        # byte-identical to a serial run's
        journal_writer.rewrite(sc.id, outcomes, fingerprint)

    rows = []
    for outcome in outcomes:
        params = ", ".join(
            f"{k}={v}" for k, v in outcome.request.params
        ) or "-"
        if outcome.error:
            print(
                f"scenario point ({params}) raised:\n{outcome.error}",
                file=sys.stderr,
            )
            status = "ERROR"
        else:
            bad = len(outcome.result.failures())
            status = "ok" if bad == 0 else f"{bad} FAILED"
        rows.append([outcome.request.scenario_id, params, status])
    print(format_table(
        ("scenario", "point", "checks"),
        rows,
        title=f"sweep of {sc.id}",
    ))
    if out_dir:
        written = artifacts.write_artifacts(outcomes, out_dir)
        print(f"artifacts written to {written.parent}")
    summary = _summary(
        outcomes, points=len(requests), executed=len(remaining),
        reused=len(requests) - len(remaining), store_hits=store_hits,
        jobs=args.jobs,
    )
    if telemetry_writer is not None:
        telemetry_writer.finish(summary)
        obs_telemetry.write_snapshot(
            out_dir, {"command": "sweep", "scenario": sc.id, **summary}
        )
    if summary["failures"]:
        print(f"{summary['failures']} check(s)/point(s) FAILED",
              file=sys.stderr)
        return 1
    print("all sweep points passed their checks")
    return 0


def _run_fabric(args, parser, sc, remaining, on_outcome):
    """Execute the sweep's remaining points through the fabric.

    ``--fabric DIR`` names the shared directory (external workers may
    attach); with only ``--workers N`` a private temporary directory
    is used and cleaned up afterwards.  Returns ``(outcomes, note)``.
    """
    import contextlib
    import tempfile

    from .fabric import FabricError, run_fabric_sweep

    where = (contextlib.nullcontext(args.fabric) if args.fabric
             else tempfile.TemporaryDirectory(prefix="repro-fabric-"))
    with where as fabric_dir:
        try:
            result = run_fabric_sweep(
                fabric_dir, sc.id, remaining,
                workers=args.workers,
                store=args.store,
                lease_ttl=args.lease_ttl,
                on_outcome=on_outcome,
                timeout=args.fabric_timeout,
                point_timeout=args.point_timeout,
                quarantine_after=args.quarantine_after,
            )
        except FabricError as exc:
            parser.error(str(exc))
    return result.outcomes, result.summary()


def _cmd_worker(args, parser) -> int:
    from .chaos import ChaosSpecError, parse_spec
    from .fabric import FabricError, run_worker

    chaos = None
    if args.chaos:
        try:
            chaos = parse_spec(args.chaos)
        except ChaosSpecError as exc:
            parser.error(f"--chaos: {exc}")
    try:
        stats = run_worker(
            args.fabric,
            worker_id=args.id,
            lease_ttl=args.lease_ttl,
            poll_s=args.poll,
            plan_timeout=args.plan_timeout,
            once=args.once,
            max_items=args.max_items,
            point_timeout=args.point_timeout,
            quarantine_after=args.quarantine_after,
            chaos=chaos,
        )
    except FabricError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 1
    print(stats.summary())
    return 0


def _cmd_fsck(args, parser) -> int:
    from .store.fsck import fsck_tree

    try:
        report = fsck_tree(
            args.dir,
            repair=not args.dry_run,
            quarantine_dir=args.quarantine,
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.json is not None:
        _emit(args.json, json.dumps(report.to_json(), indent=2,
                                    sort_keys=True) + "\n", "fsck JSON")
    if args.json != "-":
        print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args, parser) -> int:
    from . import bench as bench_mod

    if args.suite not in ("noc", "all") and (args.mesh or args.rates):
        parser.error("--mesh/--rates only apply to the noc suite")
    if args.suite == "noc" and args.scale != 1.0:
        # checked before --fast rescales it: reject only an explicit
        # user-supplied value that the selected suite would ignore
        parser.error("--scale does not apply to the noc suite "
                     "(size it with --cycles)")
    if args.fast:
        # short cycles only; repeats stay (best-of-N absorbs scheduler
        # noise, which dominates sub-second timings)
        args.cycles = min(args.cycles, 300)
        args.scale = min(args.scale, 0.5)
    pairs = bench_mod.NOC_POINTS
    if args.mesh or args.rates:
        pairs = [(mesh, rate) for mesh in args.mesh or (4, 8)
                 for rate in args.rates or (0.1,)]
    # noc rows take the workload options and are sized by --cycles; the
    # other suites' table rows are sized by --scale
    rows = [
        bench_mod.noc_workload(mesh, rate, pattern=args.pattern,
                               routing=args.routing, n_vcs=args.vcs,
                               kind=args.kind)
        for mesh, rate in pairs
    ] if args.suite in ("noc", "all") else []
    rows += [row for row in bench_mod.WORKLOADS
             if row.suite != "noc" and args.suite in (row.suite, "all")]
    points = [
        (row, args.cycles if row.suite == "noc" else row.scaled(args.scale))
        for row in rows
    ]
    document = bench_mod.run_bench(
        points, reference=not args.no_reference, repeats=args.repeats,
        progress=print, profile_slowest=args.profile,
    )
    if args.json:
        bench_mod.write_json(document, args.json)
        print(f"bench JSON written to {args.json}")

    diverged = [
        p["key"] for p in document["points"] if p.get("stats_match") is False
    ]
    if diverged:
        print(
            f"optimized kernel diverged from the reference on: "
            f"{', '.join(diverged)}",
            file=sys.stderr,
        )
        return 1
    if args.check:
        try:
            baseline = bench_mod.load_baseline(args.check)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.check}: {exc}")
        problems = bench_mod.check_against_baseline(
            document, baseline, tolerance=args.tolerance
        ) + bench_mod.check_floors(points, document)
        if problems:
            for problem in problems:
                print(f"bench regression: {problem}", file=sys.stderr)
            return 1
        print(
            f"bench speedups within {args.tolerance:.0%} of "
            f"{args.check} and above every row's floor"
        )
    return 0


def _cmd_telemetry(args, parser) -> int:
    try:
        report = obs_analyze.summarize(args.target)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    except (obs_telemetry.TelemetryError,
            store_journal.JournalError, ValueError) as exc:
        parser.error(f"cannot read telemetry from {args.target}: {exc}")
    if args.json:
        _emit(args.json, json.dumps(report.to_json(), indent=2,
                                    sort_keys=True) + "\n",
              "telemetry JSON")
    if args.csv:
        _emit(args.csv, report.to_csv(), "telemetry CSV")
    if not args.json and not args.csv:
        print(report.render())
    return 0


def _cmd_diff(args, parser) -> int:
    try:
        report = store_diff.diff_trees(
            args.old, args.new, drift_tolerance=args.drift_tolerance
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    print(report.render())
    return 1 if report.regressed else 0


def _cmd_history(args, parser) -> int:
    root = Path(args.store)
    if not root.is_dir():
        parser.error(f"no such store directory: {args.store}")
    cache = run_store_pkg.RunStore(root)
    rows = []
    for record in cache.records():
        if args.scenario and record.get("scenario") != args.scenario:
            continue
        outcome = run_store_pkg.outcome_from_record(record)
        bad = len(outcome.result.failures()) if outcome.result else 0
        rows.append([
            record.get("scenario", "?"),
            record.get("point", "?"),
            "yes" if record.get("fast") else "no",
            "ok" if bad == 0 else f"{bad} FAILED",
            record.get("fingerprint", ""),
            record.get("key", "")[:12],
        ])
    rows.sort(key=lambda row: (row[0], row[1]))
    print(format_table(
        ("scenario", "point", "fast", "checks", "fingerprint", "key"),
        rows,
        title=f"{len(rows)} stored run(s) in {root}",
    ))
    return 0


# ----------------------------------------------------------------------
def _option_groups():
    """The options several subcommands share, declared once each as
    argparse ``parents=``: scenario pins, execution, fabric leases."""
    # imported when a parser is built, not when this module is, so
    # importing the CLI stays free of the fabric package
    from .fabric.worker import DEFAULT_QUARANTINE_AFTER

    pins = argparse.ArgumentParser(add_help=False)
    pins.add_argument(
        "--set", action="append", metavar="NAME=VALUE",
        help="pin a scenario parameter (repeatable; lint applies it to "
             "every selected scenario that declares it, sweep to every "
             "point)",
    )
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--fast", action="store_true",
        help="apply fast-mode parameter overrides; paper scenarios skip "
             "gate-level simulations (analytical results only)",
    )
    execution.add_argument("--jobs", type=_COUNT, default=1, metavar="N",
                           help="worker processes (default 1)")
    execution.add_argument("--out", metavar="DIR",
                           help="write CSV+JSON artifacts into DIR")
    leases = argparse.ArgumentParser(add_help=False)
    leases.add_argument(
        "--lease-ttl", type=_POSITIVE, default=20.0, metavar="SEC",
        help="fabric lease heartbeat deadline; a worker silent this "
             "long forfeits its lease and the point is re-leased "
             "(default 20)",
    )
    leases.add_argument(
        "--point-timeout", type=float, default=None, metavar="SEC",
        help="fabric wall-clock budget per work item; a point that "
             "blows it journals as a structured 'point timeout' "
             "failure instead of wedging its worker (default: none)",
    )
    leases.add_argument(
        "--quarantine-after", type=int, default=DEFAULT_QUARANTINE_AFTER,
        metavar="N",
        help="fabric: a work item whose executor died N times is "
             "quarantined — recorded as a structured failure without "
             f"another execution attempt (default "
             f"{DEFAULT_QUARANTINE_AFTER})",
    )
    return pins, execution, leases


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce and extend the evaluation of 'Serialized "
            "Asynchronous Links for NoC' (Ogg et al., DATE 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    pins, execution, leases = _option_groups()

    p_list = sub.add_parser("list", help="show registered scenarios")
    p_list.set_defaults(handler=_cmd_list)
    p_list.add_argument("--tags", help="comma-separated tag filter")
    p_list.add_argument(
        "--verbose", action="store_true",
        help="print each scenario's full typed parameter spec "
             "(name, type, default, choices, sweep axis)",
    )

    p_inspect = sub.add_parser(
        "inspect", parents=[pins],
        help="print a scenario's hierarchical design tree",
    )
    p_inspect.set_defaults(handler=_cmd_inspect)
    p_inspect.add_argument("scenario", metavar="SCENARIO")
    p_inspect.add_argument(
        "--tree", action="store_true",
        help="ASCII instance tree instead of the summary table",
    )
    p_inspect.add_argument(
        "--no-ports", action="store_true",
        help="omit port declarations from the tree",
    )
    p_inspect.add_argument(
        "--fast", action="store_true",
        help="apply fast-mode parameter overrides",
    )
    p_inspect.add_argument(
        "--compiled", action="store_true",
        help="also levelize the design for the bit-parallel compiled "
             "backend and print its stats (depth, gates per level, "
             "lanes), or why it cannot be compiled",
    )

    p_lint = sub.add_parser(
        "lint", parents=[pins],
        help="static design checks over scenario design trees",
    )
    p_lint.set_defaults(handler=_cmd_lint)
    p_lint.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenario ids to lint (or pass --all)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint every registered scenario (those without a design "
             "tree are listed as skipped)",
    )
    p_lint.add_argument(
        "--full", action="store_true",
        help="build designs at their full default parameters instead "
             "of the fast-mode overrides",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text; sarif is SARIF 2.1.0 with "
             "logical design-path locations)",
    )
    p_lint.add_argument(
        "--fail-on", dest="fail_on",
        choices=("info", "warning", "error"), default="error",
        help="exit 1 when an unwaived finding at or above this "
             "severity exists (default error)",
    )
    p_lint.add_argument(
        "--waivers", metavar="FILE",
        help="waiver file (default: ./lint-waivers.toml when present)",
    )

    p_run = sub.add_parser("run", parents=[execution],
                           help="execute scenarios")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenario ids (default: every paper-tagged scenario)",
    )
    p_run.add_argument("--tags", help="comma-separated tag filter")

    p_sweep = sub.add_parser(
        "sweep", parents=[pins, execution, leases],
        help="expand a parameter grid and run every point",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("scenario", metavar="SCENARIO")
    p_sweep.add_argument(
        "--param", action="append", metavar="NAME=V1,V2,...",
        help="sweep axis (repeatable; default: the scenario's declared axes)",
    )
    p_sweep.add_argument(
        "--resume", metavar="DIR",
        help="output directory of a killed sweep: skip the points its "
             "journal already records, then write artifacts as usual",
    )
    p_sweep.add_argument(
        "--store", metavar="DIR",
        help="content-addressed run store: reuse identical points "
             "computed by earlier sweeps on this code, record new ones",
    )
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="live one-line status on stderr (done/total, rate, eta, "
             "failures; periodic log lines when piped) and kernel "
             "telemetry collection, as if REPRO_TELEMETRY=1; artifacts "
             "are byte-identical either way",
    )
    p_sweep.add_argument(
        "--fabric", metavar="DIR",
        help="distributed mode: coordinate the sweep through a shared "
             "fabric directory that 'repro worker DIR' daemons (local "
             "or on other hosts via a shared mount) attach to; "
             "artifacts stay byte-identical to --jobs 1",
    )
    p_sweep.add_argument(
        "--workers", type=_checked(int, lambda n: n >= 0, ">= 0"),
        default=0, metavar="N",
        help="spawn N local fabric worker processes (uses a private "
             "temporary fabric directory unless --fabric names one)",
    )
    p_sweep.add_argument(
        "--fabric-timeout", type=float, default=None, metavar="SEC",
        help="give up if the fabric sweep has not completed after SEC "
             "seconds (default: wait forever)",
    )
    p_sweep.add_argument(
        "--lint", action="store_true",
        help="static pre-flight: lint the scenario's design at the "
             "sweep's pinned parameters and refuse to dispatch the "
             "grid if any unwaived error-level finding exists",
    )

    p_worker = sub.add_parser(
        "worker", parents=[leases],
        help="attach to a fabric directory and execute leased points",
        description=(
            "Fabric worker daemon: waits for the coordinator's plan in "
            "DIR, then claims work-item leases, executes them through "
            "the ordinary engine (batch packing included), streams a "
            "per-worker journal + telemetry segment, publishes results "
            "and exits 0 once every planned point is published."
        ),
    )
    p_worker.set_defaults(handler=_cmd_worker)
    p_worker.add_argument("fabric", metavar="DIR")
    p_worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity (default: generated host-pid-random id); "
             "reusing an id resumes that worker's journal segment",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SEC",
        help="idle poll interval while other workers hold all "
             "remaining leases (default 0.5)",
    )
    p_worker.add_argument(
        "--plan-timeout", type=float, default=60.0, metavar="SEC",
        help="give up if no plan appears in DIR (default 60)",
    )
    p_worker.add_argument(
        "--once", action="store_true",
        help="make a single claim pass and exit instead of waiting "
             "for the plan to complete",
    )
    p_worker.add_argument(
        "--max-items", type=int, default=None, metavar="N",
        help="exit after executing N leased work items",
    )
    p_worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. "
             "'7:worker.item=die#3,transport.claim=race@0.2' "
             "(overrides the REPRO_CHAOS environment variable; "
             "see repro.chaos for the grammar)",
    )

    p_fsck = sub.add_parser(
        "fsck",
        help="verify and repair sweep artifacts, stores, fabric state",
        description=(
            "Walk DIR checking every durable record it holds — sweep "
            "journals, telemetry streams, run-store objects, fabric "
            "plan/lease/result files — against structure and sha256 "
            "integrity checksums.  Torn tails are truncated, corrupt "
            "lines/objects quarantined into fsck-quarantine/ (nothing "
            "valid is deleted, every removed byte is preserved), stale "
            "lease debris removed.  Exits 0 when the tree is clean or "
            "fully repaired."
        ),
    )
    p_fsck.set_defaults(handler=_cmd_fsck)
    p_fsck.add_argument("dir", metavar="DIR")
    p_fsck.add_argument(
        "--dry-run", action="store_true",
        help="report problems without touching anything (exits 1 if "
             "any are found)",
    )
    p_fsck.add_argument(
        "--quarantine", default=None, metavar="DIR",
        help="where to put quarantined bytes "
             "(default: DIR/fsck-quarantine/)",
    )
    p_fsck.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="also emit the report as JSON to FILE (or stdout with no "
             "argument)",
    )

    p_tele = sub.add_parser(
        "telemetry",
        help="analyze a sweep's telemetry stream (or its journal)",
        description=(
            "Summarize telemetry.jsonl from a sweep output directory: "
            "slowest points, failure clusters, store-hit ratio, "
            "per-job utilization and kernel counter rollups.  Falls "
            "back to journal.jsonl (wall-clock durations, no store "
            "info) when no stream was written."
        ),
    )
    p_tele.set_defaults(handler=_cmd_telemetry)
    p_tele.add_argument(
        "target", metavar="DIR_OR_FILE",
        help="sweep output directory, telemetry.jsonl, or journal.jsonl",
    )
    p_tele.add_argument(
        "--json", metavar="PATH",
        help="write the full report as JSON to PATH ('-' for stdout)",
    )
    p_tele.add_argument(
        "--csv", metavar="PATH",
        help="write per-point rows as CSV to PATH ('-' for stdout)",
    )

    p_diff = sub.add_parser(
        "diff",
        help="compare two artifact trees; exit 1 on regression",
    )
    p_diff.set_defaults(handler=_cmd_diff)
    p_diff.add_argument("old", metavar="BASELINE",
                        help="artifact directory or summary.json")
    p_diff.add_argument("new", metavar="CURRENT",
                        help="artifact directory or summary.json")
    p_diff.add_argument(
        "--drift-tolerance", type=float, default=None, metavar="REL",
        help="relative measured-value drift to tolerate per check "
             "(default: each check's own recorded tolerance)",
    )

    p_hist = sub.add_parser(
        "history", help="list the runs recorded in a result store"
    )
    p_hist.set_defaults(handler=_cmd_history)
    p_hist.add_argument("store", metavar="DIR")
    p_hist.add_argument("--scenario", help="filter by scenario id")

    p_bench = sub.add_parser(
        "bench",
        help="measure kernel throughput vs the frozen seed kernels",
    )
    p_bench.set_defaults(handler=_cmd_bench)
    p_bench.add_argument(
        "--suite", default="noc",
        choices=("noc", "gate", "compiled", "sweep", "all"),
        help="noc = cycle-kernel cycles/sec, gate = event-kernel "
             "events/sec on serializer/four-phase/ring-oscillator "
             "testbenches, compiled = bit-parallel backend aggregate "
             "lanes/sec vs one event-kernel lane, sweep = fabric "
             "scheduling overhead (no-op points/sec, coordinator vs "
             "bare engine) (default noc)",
    )
    p_bench.add_argument(
        "--scale", type=_POSITIVE, default=1.0, metavar="FRAC",
        help="scale factor for the gate, compiled and sweep workload "
             "sizes (default 1.0; --fast uses 0.5)",
    )
    p_bench.add_argument(
        "--mesh", metavar="N1,N2,...", type=_listed(_COUNT),
        help="mesh sizes to bench (default: the standard 4/8 points)",
    )
    p_bench.add_argument(
        "--rates", metavar="R1,R2,...",
        type=_listed(_checked(float, lambda r: 0.0 <= r <= 1.0,
                              "in [0, 1] flits/node/cycle")),
        help="injection rates, flits/node/cycle (with --mesh; default 0.1)",
    )
    p_bench.add_argument(
        "--pattern", default="uniform",
        choices=("uniform", "transpose", "bit_complement", "hotspot",
                 "neighbor"),
        help="traffic pattern (default uniform)",
    )
    p_bench.add_argument("--routing", default="xy",
                         choices=("xy", "west_first"))
    p_bench.add_argument("--vcs", type=_COUNT, default=1, metavar="N",
                         help="virtual channels (default 1)")
    p_bench.add_argument("--kind", default="I3", choices=("I1", "I2", "I3"),
                         help="link implementation (default I3)")
    p_bench.add_argument("--cycles", type=_COUNT, default=1500, metavar="N",
                         help="timed cycles per noc point (default 1500)")
    p_bench.add_argument("--repeats", type=_COUNT, default=3, metavar="N",
                         help="best-of-N timing repeats (default 3)")
    p_bench.add_argument(
        "--fast", action="store_true",
        help="short run: at most 300 cycles and --scale 0.5 (CI smoke)",
    )
    p_bench.add_argument(
        "--no-reference", action="store_true",
        help="skip the seed-kernel comparison run (no speedup reported)",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="cProfile the slowest optimized run of each suite",
    )
    p_bench.add_argument("--json", metavar="PATH",
                         help="write the bench document to PATH")
    p_bench.add_argument(
        "--check", metavar="BASELINE",
        help="compare speedups against a committed bench JSON and each "
             "workload's floor; exit 1 when any point regresses beyond "
             "--tolerance or falls below its floor",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=0.30, metavar="REL",
        help="relative speedup regression tolerated by --check "
             "(default 0.30)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
