"""Command-line interface.

One subcommand per workflow::

    repro tables [N]                  render Tables 1-4
    repro claims                      check every model-derived claim
    repro characterize CHIP BENCH     run an undervolting campaign
                                      (or --machine spec.json)
    repro grid CHIP                   benchmark x core grid in parallel
    repro resume STORE                continue a journaled campaign grid
    repro status STORE [--models]     campaign progress, tallies, ETA,
                                      and saved model artifacts
    repro tradeoffs                   the Figure-9 ladder + headlines
    repro predict                     the Section-4.3 studies
    repro predict --model STORE       serve the latest trained artifact
    repro train STORE [--follow]      stream-train models from a journal
    repro fleet                       generated-fleet Vmin statistics
    repro fleet init FLEET_DIR        create a sharded fleet store
    repro fleet run FLEET_DIR         run/resume every shard of a fleet
    repro fleet status FLEET_DIR      cross-shard progress (warm indexes)
    repro fleet query FLEET_DIR       Vmin/severity/feature queries
                                      (--json [--reparse] for the
                                      index-equals-reparse byte check)
    repro fleet compact FLEET_DIR     fold complete shards into
                                      grid-order segments
    repro analyze TRACE_DIR [--json]  trace analytics: critical path,
                                      per-phase attribution, stragglers
    repro dash STORE [--once]         live dashboard: progress, tsdb
                                      metrics, ETA, health verdicts
    repro lint [PATH...]              reprolint invariant checker

All numbers are deterministic in ``--seed``.  Long runs should pass
``--store DIR`` (``characterize``/``grid``): every completed campaign
is journaled there, and a killed run continues with ``repro resume
DIR`` -- ending bit-identical to an uninterrupted one.

``characterize``/``grid``/``resume`` take ``--trace DIR`` (JSONL span
traces), ``--metrics FILE`` (metrics export; Prometheus text for
``.prom``/``.txt``, JSON snapshot otherwise) and ``--tsdb`` (append
periodic registry snapshots to the store's ``tsdb.jsonl`` time-series
journal, which ``repro dash`` and the health rules read).  Telemetry
is determinism-neutral: enabling it changes no journaled byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from . import __version__, telemetry
from .analysis.lint.cli import build_lint_parser, run_lint
from .analysis.report import check_claims, render_claims
from .analysis.tables import (
    render_table,
    table1_prior_work,
    table2_parameters,
    table3_effects,
    table4_weights,
)
from .core import CharacterizationFramework, FrameworkConfig
from .core.results import ResultStore
from .data.calibration import CHIP_NAMES
from .energy import figure9_ladder, headline_savings
from .errors import CampaignError, ConfigurationError
from .hardware import ChipGenerator, fleet_vmin_distribution
from .machines import MachineSpec, build_machine, load_machine_spec
from .parallel import ConsoleProgress
from .prediction import (
    TRAINABLE_TARGETS,
    FeatureAssembler,
    PredictionPipeline,
    StreamingTrainer,
)
from .store import CampaignStore
from .units import PMD_NOMINAL_MV
from .workloads import all_programs, get_benchmark


def _cmd_tables(args: argparse.Namespace) -> int:
    tables = {
        1: ("Table 1: summary of studies on commercial chips", table1_prior_work),
        2: ("Table 2: basic parameters of APM X-Gene 2", table2_parameters),
        3: ("Table 3: effects classification", table3_effects),
        4: ("Table 4: severity weights", table4_weights),
    }
    wanted = [args.number] if args.number else sorted(tables)
    for number in wanted:
        title, builder = tables[number]
        print(title)
        print(render_table(*builder()))
        print()
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    checks = check_claims()
    print(render_claims(checks))
    failed = [c for c in checks if not c.passed]
    print(f"\n{len(checks) - len(failed)}/{len(checks)} claims reproduced")
    return 1 if failed else 0


def _characterization_spec(args: argparse.Namespace) -> Optional[MachineSpec]:
    """Resolve a characterization subcommand's machine blueprint.

    A ``--machine spec.json`` file, a chip name, or both (the chip
    overrides the spec's); ``--seed`` always overrides.  Returns None
    (after printing to stderr) when the machine is under-specified or
    the spec file is invalid.
    """
    if args.machine is not None:
        try:
            spec = load_machine_spec(args.machine)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        if args.chip is not None:
            spec = dataclasses.replace(spec, chip=args.chip)
    elif args.chip is not None:
        spec = MachineSpec(chip=args.chip)
    else:
        print("error: pass a CHIP name or --machine spec.json",
              file=sys.stderr)
        return None
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


@contextmanager
def _telemetry_scope(args: argparse.Namespace) -> Iterator[None]:
    """Install the ambient telemetry session a subcommand asked for.

    ``--trace DIR`` attaches a tracer writing per-trace JSONL files
    (span ids start at ``PARENT_SPAN_ID_BASE`` so parent-side events
    never collide with worker-recorded spans sharing a trace file);
    ``--metrics FILE`` attaches a registry exported when the command
    finishes; ``--tsdb`` attaches a registry (if ``--metrics`` did not
    already) plus a sampler the engine snapshots it through into the
    store's ``tsdb.jsonl`` after every durable checkpoint.  Without
    any of the flags, no session is installed and every telemetry call
    in the library stays a no-op.
    """
    trace_dir = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    tsdb = bool(getattr(args, "tsdb", False))
    if trace_dir is None and metrics_path is None and not tsdb:
        yield
        return
    tracer = None
    if trace_dir is not None:
        tracer = telemetry.Tracer(
            telemetry.TraceWriter(trace_dir),
            first_id=telemetry.PARENT_SPAN_ID_BASE,
        )
    metrics = (
        telemetry.MetricsRegistry()
        if metrics_path is not None or tsdb else None
    )
    sampler = telemetry.TsdbSampler() if tsdb else None
    with telemetry.telemetry_session(
        tracer=tracer, metrics=metrics, tsdb=sampler
    ):
        try:
            yield
        finally:
            if metrics is not None and metrics_path is not None:
                metrics.write(metrics_path)
                print(f"metrics exported to {metrics_path}", file=sys.stderr)


def _cmd_characterize(args: argparse.Namespace) -> int:
    with _telemetry_scope(args):
        return _run_characterize(args)


def _run_characterize(args: argparse.Namespace) -> int:
    spec = _characterization_spec(args)
    if spec is None:
        return 2
    machine = build_machine(spec)
    framework = CharacterizationFramework(
        machine,
        FrameworkConfig(start_mv=args.start_mv, campaigns=args.campaigns),
    )
    bench = get_benchmark(args.benchmark)
    print(f"characterizing {bench.name} on {machine.chip.name} "
          f"core {args.core} ({args.campaigns} campaigns) ...")
    if args.jobs is None and args.store is None:
        # Legacy in-place sweep: one shared machine, serial campaigns.
        result = framework.characterize(bench, core=args.core)
        recoveries = framework.watchdog.intervention_count
    else:
        # Engine path: campaigns fan out over `--jobs` workers with
        # per-campaign derived seeds (bit-identical for any job count).
        # `--store` journals each completed campaign for `repro resume`.
        try:
            grid = framework.characterize_many(
                [bench], [args.core], jobs=args.jobs or 1,
                progress=ConsoleProgress(), store=args.store,
            )
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = grid[(bench.name, args.core)]
        recoveries = framework.last_engine_report.interventions
    regions = result.pooled_regions()
    print(f"safe Vmin      : {result.highest_vmin_mv} mV")
    print(f"crash level    : {result.highest_crash_mv} mV")
    print(f"guardband      : {regions.guardband_mv(PMD_NOMINAL_MV)} mV")
    print(f"recoveries     : {recoveries}")
    print("severity:")
    severity = result.severity_by_voltage()
    for voltage in sorted(severity, reverse=True):
        if severity[voltage] > 0:
            print(f"  {voltage} mV  {severity[voltage]:6.2f}")
    if args.store:
        paths = CampaignStore.open(args.store).export_csv()
        print(f"campaign store journaled at {args.store} "
              f"(CSV: {', '.join(sorted(p.name for p in paths.values()))})")
    if args.out:
        store = ResultStore(args.out)
        store.write_runs_csv([result])
        store.write_severity_csv([result])
        print(f"CSV results written to {args.out}")
    return 0


def _print_grid_summary(results) -> None:
    print(f"{'benchmark':<14} {'core':>4} {'Vmin':>6} {'crash':>6}")
    for (name, core), result in results.items():
        crash = result.highest_crash_mv
        print(f"{name:<14} {core:>4} {result.highest_vmin_mv:>4} mV "
              f"{crash if crash is not None else '--':>4} mV")


def _cmd_grid(args: argparse.Namespace) -> int:
    """Characterize a benchmark x core grid on the parallel engine."""
    with _telemetry_scope(args):
        return _run_grid(args)


def _run_grid(args: argparse.Namespace) -> int:
    benchmarks = [get_benchmark(name) for name in args.benchmarks.split(",")]
    cores = [int(c) for c in args.cores.split(",")]
    spec = _characterization_spec(args)
    if spec is None:
        return 2
    machine = build_machine(spec)
    framework = CharacterizationFramework(
        machine,
        FrameworkConfig(
            start_mv=args.start_mv,
            campaigns=args.campaigns,
            runs_per_level=args.runs_per_level,
        ),
    )
    total = len(benchmarks) * len(cores) * args.campaigns
    print(f"characterizing {len(benchmarks)} benchmark(s) x {len(cores)} "
          f"core(s) x {args.campaigns} campaign(s) = {total} campaigns "
          f"on {machine.chip.name} (jobs={args.jobs}) ...")
    try:
        results = framework.characterize_many(
            benchmarks, cores, jobs=args.jobs, progress=ConsoleProgress(),
            store=args.store,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = framework.last_engine_report
    print(f"backend        : {report.backend} (jobs={report.jobs})")
    print(f"recoveries     : {report.interventions}")
    if report.chunks_retried:
        print(f"chunks retried : {report.chunks_retried}")
    _print_grid_summary(results)
    if args.store:
        CampaignStore.open(args.store).export_csv()
        print(f"campaign store journaled at {args.store}")
    if args.out:
        store = ResultStore(args.out)
        store.write_runs_csv(results.values())
        store.write_severity_csv(results.values())
        print(f"CSV results written to {args.out}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Continue a journaled grid: replay the prefix, run the remainder."""
    with _telemetry_scope(args):
        return _run_resume(args)


def _run_resume(args: argparse.Namespace) -> int:
    try:
        store = CampaignStore.open(args.store)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = store.manifest
    done = len(store.completed_keys())
    total = len(store.expected_keys())
    print(f"resuming campaign store {args.store}: {done}/{total} tasks "
          f"journaled, {total - done} to run (jobs={args.jobs}) ...")
    machine = build_machine(manifest.spec)
    framework = CharacterizationFramework(machine, manifest.config)
    try:
        results = framework.characterize_many(
            manifest.programs(), list(manifest.cores), jobs=args.jobs,
            progress=ConsoleProgress(), store=store, resume=True,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = framework.last_engine_report
    print(f"backend        : {report.backend} (jobs={report.jobs})")
    print(f"replayed       : {report.tasks_skipped} journaled task(s)")
    print(f"executed       : {report.tasks_run} task(s)")
    print(f"recoveries     : {report.interventions}")
    _print_grid_summary(results)
    store.export_csv()
    print(f"CSV artifacts exported to {store.directory}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Report a campaign store's progress without touching it.

    Pointed at a fleet store (a directory holding ``fleet.json``), it
    serves cross-shard status from the warm indexes instead.
    """
    from pathlib import Path

    from .store import FLEET_MANIFEST_NAME

    if (Path(args.store) / FLEET_MANIFEST_NAME).exists():
        try:
            status = telemetry.fleet_status(
                args.store, metrics_path=args.metrics
            )
        except (CampaignError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(telemetry.render_fleet_status(status), end="")
        return 0
    try:
        status = telemetry.campaign_status(args.store, metrics_path=args.metrics)
    except (CampaignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(telemetry.render_status(status), end="")
    if args.models:
        try:
            models = telemetry.model_statuses(args.store)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(telemetry.render_model_status(models), end="")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Trace analytics over a ``--trace`` directory.

    Deterministic by construction: the same trace directory always
    yields the same report bytes, so two ``--json`` runs can be
    compared with ``cmp``.
    """
    try:
        analysis = telemetry.analyze_trace_dir(args.trace_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(analysis.serialize(), end="")
    else:
        print(telemetry.render_analysis(analysis), end="")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    """Live dashboard over a campaign or fleet store.

    Read-only: safe to point at a store another process is writing.
    Follows until the grid completes unless ``--once``; the tsdb
    cursors stay warm across refreshes, so each frame parses only the
    bytes appended since the previous one.
    """
    baseline: Optional[str] = args.baseline
    if baseline is not None and not Path(baseline).exists():
        print(f"error: baseline file {baseline} not found", file=sys.stderr)
        return 2
    if baseline is None:
        default = Path("benchmarks") / "framework_baseline.json"
        baseline = str(default) if default.exists() else None
    dashboard = telemetry.Dashboard(args.store, baseline=baseline)
    while True:
        try:
            snapshot = dashboard.refresh()
        except (CampaignError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(telemetry.render_dash(snapshot), end="")
        if args.health_out:
            with open(args.health_out, "w") as handle:
                handle.write(
                    telemetry.serialize_health(
                        snapshot.verdicts, source=str(args.store)
                    )
                )
        if args.once or snapshot.complete:
            return 0
        time.sleep(args.poll)


def _cmd_tradeoffs(args: argparse.Namespace) -> int:
    fraction = 0.25 if args.clock_tree else 0.0
    print("Figure-9 ladder:")
    for point in figure9_ladder(args.chip, clock_tree_fraction=fraction):
        print(f"  {point.label:<16} {point.chip_voltage_mv:>4} mV  "
              f"perf {100 * point.performance_rel:5.1f} %  "
              f"power {100 * point.power_rel:5.1f} %")
    print("\nheadline savings:")
    for key, value in headline_savings(args.chip).as_percent().items():
        print(f"  {key:<36} {value:>5.1f} %")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.model is not None:
        return _run_predict_model(args)
    machine = build_machine(MachineSpec(chip=args.chip, seed=args.seed))
    pipeline = PredictionPipeline(machine)
    programs = all_programs()[: args.programs]
    print(f"running the Section-4.3 studies over {len(programs)} programs ...")
    print(pipeline.vmin_study(programs, core=0).summary())
    print(pipeline.severity_study(programs, core=0, max_samples=100).summary())
    print(pipeline.severity_study(programs, core=4, max_samples=90).summary())
    return 0


def _store_core(store: CampaignStore, requested: Optional[int]) -> int:
    """Resolve a --core flag against the store's grid (default: first)."""
    if requested is None:
        return store.manifest.cores[0]
    if requested not in store.manifest.cores:
        raise CampaignError(
            f"core {requested} is not in the store grid "
            f"{store.manifest.cores!r}"
        )
    return requested


def _run_predict_model(args: argparse.Namespace) -> int:
    """Serve the latest trained model artifacts of a campaign store."""
    try:
        store = CampaignStore.open(args.model)
        core = _store_core(store, args.core)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    models = store.model_store()
    series = [(t, c) for t, c in models.series() if c == core]
    if not series:
        print(f"error: no model artifacts for core {core} under "
              f"{models.models_path}; run `repro train {args.model}` first",
              file=sys.stderr)
        return 2
    assembler = FeatureAssembler()
    for target, _ in series:
        artifact = models.load(target, core)
        print(f"{target} model v{artifact.version}: trained on "
              f"{artifact.n_samples} samples through journal offset "
              f"{artifact.journal_offset}")
        for key in sorted(artifact.metrics):
            print(f"  {key:<24} {artifact.metrics[key]:8.3f}")
        if not artifact.is_servable:
            print("  (not servable yet: journal too shallow to select "
                  "features)")
            continue
        print("  features: " + ", ".join(artifact.selected_features))
        if target != "vmin":
            continue
        print(f"  {'benchmark':<14} {'predicted':>9} {'journaled':>9}")
        for program in store.manifest.programs():
            # Canonical serving profile: a machine built fresh from the
            # store's spec per program (matches the training features).
            machine = store.manifest.spec.build()
            snapshot = machine.profile_program(program, core=0)
            predicted = artifact.predict_row(assembler.vector_by_name(snapshot))
            try:
                actual = f"{store.result_for(program.name, core).highest_vmin_mv:>6} mV"
            except CampaignError:
                actual = "     --"
            print(f"  {program.name:<14} {predicted:>6.1f} mV {actual:>9}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """Stream-train prediction models from a store journal."""
    with _telemetry_scope(args):
        return _run_train(args)


def _run_train(args: argparse.Namespace) -> int:
    try:
        store = CampaignStore.open(args.store)
        core = _store_core(store, args.core)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = TRAINABLE_TARGETS if args.target == "all" else (args.target,)
    trainers: Dict[str, StreamingTrainer] = {}
    models = store.model_store()
    for target in targets:
        # Resume from the latest saved artifact when one exists, so a
        # killed `repro train` never replays consumed journal records.
        if models.versions(target, core):
            artifact = models.load(target, core)
            trainers[target] = StreamingTrainer.resume(store, artifact)
            print(f"{target} c{core}: resuming from v{artifact.version} "
                  f"(journal offset {artifact.journal_offset})")
        else:
            trainers[target] = StreamingTrainer(store, core, target=target)
    while True:
        for target, trainer in trainers.items():
            consumed = trainer.consume()
            if consumed == 0 and not args.follow:
                print(f"{target} c{core}: no new journal records; "
                      f"checkpointing at offset {trainer.journal_offset}")
            if consumed or not args.follow:
                saved = models.save(trainer.fit())
                drift = trainer.drift_ratio
                drift_text = f"{drift:.3f}" if drift is not None else "--"
                print(f"{target} c{core}: v{saved.version} saved "
                      f"(+{consumed} cells, {saved.n_samples} samples, "
                      f"offset {saved.journal_offset}, drift {drift_text})")
        if not args.follow:
            return 0
        if store.is_complete():
            print("store complete; follow mode done")
            return 0
        time.sleep(args.poll)
        # Every trainer holds ``store``: one refresh catches all up.
        store.refresh()


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Dispatch ``repro fleet <subcommand>``; bare ``repro fleet`` keeps
    the legacy generated-fleet Vmin statistics."""
    handler = getattr(args, "fleet_func", None)
    if handler is not None:
        return int(handler(args))
    generator = ChipGenerator(args.corner, lot_seed=args.seed)
    fleet = generator.fleet(args.count)
    stats = fleet_vmin_distribution(fleet)
    print(f"{args.count} generated {args.corner}-population parts "
          f"(worst-case chip Vmin @2.4 GHz):")
    for key in ("mean_mv", "std_mv", "min_mv", "max_mv"):
        print(f"  {key:<10} {stats[key]:8.1f}")
    print(f"  one fleet-wide setting wastes "
          f"{100 * stats['fleet_setting_penalty']:.1f} % power vs per-chip "
          f"settings")
    return 0


def _cmd_fleet_init(args: argparse.Namespace) -> int:
    """Create a fleet store: one campaign shard per machine seed."""
    from .store import FleetStore
    from .workloads import get_program

    if args.seeds is not None:
        seeds = [int(s) for s in args.seeds.split(",")]
    else:
        seeds = [args.seed_base + i for i in range(args.machines)]
    try:
        names = [
            get_benchmark(name).programs()[0].name
            for name in args.benchmarks.split(",")
        ]
        for name in names:  # fail fast on unresolvable program names
            get_program(name)
        specs = [MachineSpec(chip=args.chip, seed=seed) for seed in seeds]
        fleet = FleetStore.create(
            args.fleet_dir,
            specs,
            FrameworkConfig(
                start_mv=args.start_mv,
                campaigns=args.campaigns,
                runs_per_level=args.runs_per_level,
            ),
            names,
            [int(c) for c in args.cores.split(",")],
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = fleet.manifest
    print(f"fleet store initialized at {args.fleet_dir}: "
          f"{len(manifest.shards)} shard(s), "
          f"{manifest.tasks_total()} task(s) total")
    for entry, spec in zip(manifest.shards, specs):
        print(f"  {entry.name}  seed {spec.seed}  "
              f"spec {entry.spec_digest[:12]}  ({entry.path})")
    print(f"run it with `repro fleet run {args.fleet_dir}`")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run (or resume) every shard of a fleet to completion."""
    with _telemetry_scope(args):
        return _run_fleet_cmd(args)


def _run_fleet_cmd(args: argparse.Namespace) -> int:
    from .parallel import run_fleet

    shards = args.shards.split(",") if args.shards else None
    try:
        report = run_fleet(
            args.fleet_dir, jobs=args.jobs, progress=ConsoleProgress(),
            shards=shards,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, shard_report in report.reports.items():
        print(f"{name}: +{shard_report.tasks_run} task(s) executed, "
              f"{shard_report.tasks_skipped} replayed "
              f"(backend {shard_report.backend})")
    done = report.manifest.tasks_done()
    total = report.manifest.tasks_total()
    print(f"fleet progress: {done}/{total} task(s) journaled"
          + ("" if done == total else
             f"; continue with `repro fleet run {args.fleet_dir}`"))
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    """Cross-shard progress served from the warm indexes."""
    try:
        status = telemetry.fleet_status(
            args.fleet_dir, metrics_path=args.metrics
        )
    except (CampaignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(telemetry.render_fleet_status(status), end="")
    return 0


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    """Answer Vmin/severity queries from the warm fleet indexes.

    ``--json`` emits the canonical index serialization (built inside
    ``repro.store`` -- the single sanctioned writer of index bytes);
    adding ``--reparse`` recomputes the same bytes through a full
    journal re-parse, so piping both through ``diff`` checks the
    index-equals-reparse contract end to end.
    """
    from .store import FleetStore

    try:
        fleet = FleetStore.open(args.fleet_dir)
        indexes = fleet.indexes(feature_target=args.target)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        text = (
            indexes.serialize_reparse() if args.reparse
            else indexes.serialize()
        )
        print(text, end="")
        return 0
    for entry, bundle in indexes.bundles():
        print(f"{entry.name} (spec {entry.spec_digest[:12]}):")
        cells = [
            (name, core)
            for name, core in bundle.vmin.cells()
            if (args.benchmark is None or name == args.benchmark)
            and (args.core is None or core == args.core)
        ]
        if not cells:
            print("  (no completed cells match)")
            continue
        for name, core in cells:
            crash = bundle.vmin.crash_mv(name, core)
            severity = bundle.severity.severity_by_voltage(name, core)
            peak = max(severity.values()) if severity else 0.0
            print(f"  {name} c{core}: Vmin {bundle.vmin.vmin_mv(name, core)} "
                  f"mV, crash {crash if crash is not None else '--'} mV, "
                  f"peak severity {peak:.2f}")
    return 0


def _cmd_fleet_compact(args: argparse.Namespace) -> int:
    """Fold complete shards into canonical grid-order segments."""
    from .store import FleetStore

    try:
        fleet = FleetStore.open(args.fleet_dir)
        compacted = fleet.compact(force=args.force)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if compacted:
        print(f"compacted {len(compacted)} shard(s): "
              + ", ".join(compacted))
    else:
        print("nothing to compact (no complete, uncompacted shards)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Write a self-contained markdown reproduction report."""
    lines: List[str] = [
        "# repro reproduction report",
        "",
        "Model-derived results regenerated by `repro report`; see",
        "EXPERIMENTS.md for the measurement-derived figures.",
        "",
        "## Claim checks",
        "",
        "| claim | paper | measured | status |",
        "|---|---|---|---|",
    ]
    checks = check_claims()
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        lines.append(
            f"| {check.description} | {check.paper_value:g} | "
            f"{check.measured_value:g} | {status} |"
        )
    lines += ["", "## Figure 9 ladder", "",
              "| step | Vdd (mV) | perf (%) | power (%) |", "|---|---|---|---|"]
    for point in figure9_ladder():
        lines.append(
            f"| {point.label} | {point.chip_voltage_mv} | "
            f"{100 * point.performance_rel:.1f} | "
            f"{100 * point.power_rel:.1f} |"
        )
    for number, (title, builder) in {
        2: ("Table 2", table2_parameters),
        4: ("Table 4", table4_weights),
    }.items():
        lines += ["", f"## {title}", "", "```",
                  render_table(*builder()), "```"]
    if args.store:
        from .analysis.report import store_report

        try:
            lines += ["", store_report(args.store)]
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 1 if any(not c.passed for c in checks) else 0


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _chip_name(text: str) -> str:
    if text not in CHIP_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown chip {text!r} (choose from {', '.join(CHIP_NAMES)})"
        )
    return text


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write span-per-task JSONL traces into DIR "
                             "(one trace-<id>.jsonl per campaign task)")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="export run metrics on exit; .prom/.txt "
                             "selects Prometheus text exposition, any "
                             "other extension the JSON snapshot")
    parser.add_argument("--tsdb", action="store_true",
                        help="append registry snapshots to the store's "
                             "tsdb.jsonl time-series journal after every "
                             "durable checkpoint (read by `repro dash` "
                             "and the health rules; requires --store)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Harnessing Voltage Margins for "
                    "Energy Efficiency in Multicore CPUs' (MICRO-50 2017).",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="render Tables 1-4")
    p_tables.add_argument("number", nargs="?", type=int, choices=(1, 2, 3, 4))
    p_tables.set_defaults(func=_cmd_tables)

    p_claims = sub.add_parser("claims", help="check the model-derived claims")
    p_claims.set_defaults(func=_cmd_claims)

    p_char = sub.add_parser("characterize", help="run a characterization")
    p_char.add_argument("chip", nargs="?", type=_chip_name, default=None,
                        help="part name; optional with --machine")
    p_char.add_argument("benchmark")
    p_char.add_argument("--machine", default=None, metavar="SPEC_JSON",
                        help="machine spec file to build the board from "
                             "(see repro.machines; extension models ride "
                             "along)")
    p_char.add_argument("--core", type=int, default=0)
    p_char.add_argument("--campaigns", type=int, default=10)
    p_char.add_argument("--start-mv", type=int, default=930)
    p_char.add_argument("--seed", type=int, default=None,
                        help="master seed (default 2017, or the spec's)")
    p_char.add_argument("--out", default=None, help="CSV output directory")
    p_char.add_argument("--store", default=None, metavar="DIR",
                        help="journal every completed campaign into a "
                             "resumable campaign store directory; like "
                             "--jobs, this switches from the legacy "
                             "in-place sweep to the engine path with "
                             "per-campaign derived seeds")
    p_char.add_argument("--jobs", type=_job_count, default=None,
                        help="fan campaigns out over N workers (derived "
                             "per-campaign seeds; identical for any N)")
    _add_telemetry_flags(p_char)
    p_char.set_defaults(func=_cmd_characterize)

    p_grid = sub.add_parser(
        "grid", help="characterize a benchmark x core grid in parallel")
    p_grid.add_argument("chip", nargs="?", type=_chip_name, default=None,
                        help="part name; optional with --machine")
    p_grid.add_argument("--machine", default=None, metavar="SPEC_JSON",
                        help="machine spec file to build the board from")
    p_grid.add_argument("--benchmarks", default="bwaves,mcf",
                        help="comma-separated benchmark names")
    p_grid.add_argument("--cores", default="0,4",
                        help="comma-separated core indices")
    p_grid.add_argument("--campaigns", type=int, default=3)
    p_grid.add_argument("--runs-per-level", type=int, default=10)
    p_grid.add_argument("--start-mv", type=int, default=930)
    p_grid.add_argument("--seed", type=int, default=None,
                        help="master seed (default 2017, or the spec's)")
    p_grid.add_argument("--jobs", type=_job_count, default=1,
                        help="worker count for the campaign fan-out")
    p_grid.add_argument("--out", default=None, help="CSV output directory")
    p_grid.add_argument("--store", default=None, metavar="DIR",
                        help="journal every completed campaign into a "
                             "resumable campaign store directory")
    _add_telemetry_flags(p_grid)
    p_grid.set_defaults(func=_cmd_grid)

    p_resume = sub.add_parser(
        "resume", help="continue an interrupted --store campaign grid")
    p_resume.add_argument("store", metavar="STORE",
                          help="campaign store directory to resume")
    p_resume.add_argument("--jobs", type=_job_count, default=1,
                          help="worker count for the remaining tasks")
    _add_telemetry_flags(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_status = sub.add_parser(
        "status", help="report a campaign store's progress and tallies")
    p_status.add_argument("store", metavar="STORE",
                          help="campaign store directory to inspect")
    p_status.add_argument("--metrics", default=None, metavar="FILE",
                          help="JSON metrics snapshot (from --metrics) to "
                               "derive the task-rate ETA from")
    p_status.add_argument("--models", action="store_true",
                          help="also list the store's saved model "
                               "artifacts (version, journal offset, "
                               "drift metrics)")
    p_status.set_defaults(func=_cmd_status)

    p_trade = sub.add_parser("tradeoffs", help="Figure 9 and headlines")
    p_trade.add_argument("--chip", choices=CHIP_NAMES, default="TTT")
    p_trade.add_argument("--clock-tree", action="store_true",
                         help="include the clock-tree residual (figure's "
                              "760 mV point)")
    p_trade.set_defaults(func=_cmd_tradeoffs)

    p_pred = sub.add_parser("predict", help="the Section-4.3 studies, or "
                                            "--model to serve a trained "
                                            "artifact")
    p_pred.add_argument("--chip", choices=CHIP_NAMES, default="TTT")
    p_pred.add_argument("--programs", type=int, default=40)
    p_pred.add_argument("--seed", type=int, default=2017)
    p_pred.add_argument("--model", default=None, metavar="STORE",
                        help="serve the latest repro-model/v1 artifacts "
                             "saved under this campaign store instead of "
                             "running the from-scratch studies")
    p_pred.add_argument("--core", type=int, default=None,
                        help="grid core to serve predictions for "
                             "(default: the store's first core; only "
                             "with --model)")
    p_pred.set_defaults(func=_cmd_predict)

    p_train = sub.add_parser(
        "train", help="stream-train prediction models from a store journal")
    p_train.add_argument("store", metavar="STORE",
                         help="campaign store directory to train from")
    p_train.add_argument("--target", choices=TRAINABLE_TARGETS + ("all",),
                         default="all",
                         help="which model(s) to train (default: all)")
    p_train.add_argument("--core", type=int, default=None,
                         help="grid core to train for (default: the "
                              "store's first core)")
    p_train.add_argument("--follow", action="store_true",
                         help="keep polling the journal and saving new "
                              "artifact versions until the grid completes")
    p_train.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                         help="follow-mode poll interval (default 2 s)")
    _add_telemetry_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_report = sub.add_parser("report", help="write a markdown report")
    p_report.add_argument("--out", default=None, help="output file path")
    p_report.add_argument("--store", default=None, metavar="DIR",
                          help="append the measured grid of a campaign "
                               "store to the report")
    p_report.set_defaults(func=_cmd_report)

    p_fleet = sub.add_parser(
        "fleet",
        help="fleet-sharded campaign stores (bare: generated-fleet "
             "statistics)")
    p_fleet.add_argument("--corner", choices=CHIP_NAMES, default="TTT")
    p_fleet.add_argument("--count", type=int, default=50)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.set_defaults(func=_cmd_fleet)
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command")

    pf_init = fleet_sub.add_parser(
        "init", help="create a fleet store: one journal shard per machine")
    pf_init.add_argument("fleet_dir", metavar="FLEET_DIR",
                         help="directory to create the fleet store in")
    pf_init.add_argument("--chip", type=_chip_name, default="TTT",
                         help="part name shared by every machine")
    pf_init.add_argument("--machines", type=int, default=3,
                         help="number of machines (= shards) in the fleet")
    pf_init.add_argument("--seed-base", type=int, default=2017,
                         help="machine seeds are SEED_BASE..SEED_BASE+N-1")
    pf_init.add_argument("--seeds", default=None, metavar="S1,S2,...",
                         help="explicit comma-separated machine seeds "
                              "(overrides --machines/--seed-base)")
    pf_init.add_argument("--benchmarks", default="bwaves,mcf",
                         help="comma-separated benchmark names")
    pf_init.add_argument("--cores", default="0,4",
                         help="comma-separated core indices")
    pf_init.add_argument("--campaigns", type=int, default=2,
                         help="campaigns per grid cell")
    pf_init.add_argument("--runs-per-level", type=int, default=3,
                         help="runs per undervolt level")
    pf_init.add_argument("--start-mv", type=int, default=PMD_NOMINAL_MV,
                         help="first undervolt level in mV")
    pf_init.set_defaults(fleet_func=_cmd_fleet_init)

    pf_run = fleet_sub.add_parser(
        "run", help="run (or resume) every shard of a fleet store")
    pf_run.add_argument("fleet_dir", metavar="FLEET_DIR",
                        help="fleet store directory")
    pf_run.add_argument("--jobs", type=_job_count, default=1,
                        help="worker count per shard run")
    pf_run.add_argument("--shards", default=None, metavar="NAME1,NAME2,...",
                        help="only run these shard names (default: all)")
    _add_telemetry_flags(pf_run)
    pf_run.set_defaults(fleet_func=_cmd_fleet_run)

    pf_status = fleet_sub.add_parser(
        "status", help="cross-shard progress from the warm indexes")
    pf_status.add_argument("fleet_dir", metavar="FLEET_DIR",
                           help="fleet store directory")
    pf_status.add_argument("--metrics", default=None, metavar="FILE",
                           help="JSON metrics snapshot to derive the "
                                "task-rate ETA from")
    pf_status.set_defaults(fleet_func=_cmd_fleet_status)

    pf_query = fleet_sub.add_parser(
        "query", help="answer Vmin/severity queries from the warm indexes")
    pf_query.add_argument("fleet_dir", metavar="FLEET_DIR",
                          help="fleet store directory")
    pf_query.add_argument("--benchmark", default=None,
                          help="restrict to one benchmark")
    pf_query.add_argument("--core", type=int, default=None,
                          help="restrict to one core")
    pf_query.add_argument("--target", default="vmin",
                          help="prediction feature target (default vmin)")
    pf_query.add_argument("--json", action="store_true",
                          help="emit the canonical index serialization")
    pf_query.add_argument("--reparse", action="store_true",
                          help="with --json: recompute the same bytes "
                               "through a full journal re-parse (must be "
                               "identical -- the index-equals-reparse "
                               "contract)")
    pf_query.set_defaults(fleet_func=_cmd_fleet_query)

    pf_compact = fleet_sub.add_parser(
        "compact", help="fold complete shards into grid-order segments")
    pf_compact.add_argument("fleet_dir", metavar="FLEET_DIR",
                            help="fleet store directory")
    pf_compact.add_argument("--force", action="store_true",
                            help="compact even when a saved model's "
                                 "streaming cursor points mid-journal")
    pf_compact.set_defaults(fleet_func=_cmd_fleet_compact)

    p_analyze = sub.add_parser(
        "analyze", help="trace analytics over a --trace directory")
    p_analyze.add_argument("trace_dir", metavar="TRACE_DIR",
                           help="directory of trace-*.jsonl span files "
                                "written by --trace")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the canonical repro-analysis/v1 "
                                "JSON instead of the terminal report")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_dash = sub.add_parser(
        "dash", help="live dashboard over a campaign or fleet store")
    p_dash.add_argument("store", metavar="STORE",
                        help="campaign store or fleet directory to watch")
    p_dash.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    p_dash.add_argument("--follow", action="store_true",
                        help="keep refreshing until the grid completes "
                             "(the default; --once overrides)")
    p_dash.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                        help="follow-mode refresh interval (default 2 s)")
    p_dash.add_argument("--baseline", default=None, metavar="FILE",
                        help="framework baseline JSON for the throughput "
                             "health floor (default: benchmarks/"
                             "framework_baseline.json when present)")
    p_dash.add_argument("--health-out", default=None, metavar="FILE",
                        help="write the repro-health/v1 verdict report "
                             "here on every refresh")
    p_dash.set_defaults(func=_cmd_dash)

    p_lint = sub.add_parser(
        "lint", help="check the repo's reprolint invariants (RPR001-013)")
    build_lint_parser(p_lint)
    p_lint.set_defaults(func=run_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
