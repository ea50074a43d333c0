"""Top-level experiment runner (the ``repro-paper`` console command).

``repro-paper`` regenerates every artefact; ``repro-paper table4 fig3``
selects specific ones.  Output is plain text in the paper's layouts.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import figures, tables
from repro.harness.textfmt import render_table
from repro.joblog import attribute_gemm_node_hours, generate_k_year

__all__ = ["section_iii_a", "run_all", "main", "ARTIFACTS"]


def section_iii_a() -> dict:
    """Sec. III-A: the K-computer symbol-table analysis.

    The generated job population itself is not part of the result (it
    is 20k records; regenerate it with
    :func:`repro.joblog.generate_k_year` — seeded, hence identical).
    """
    year = generate_k_year()
    attribution = attribute_gemm_node_hours(year)
    text = render_table(
        ["Metric", "Value", "Paper"],
        [
            ["jobs (nominal)", f"{year.nominal_jobs:,}", "487,563"],
            ["node-hours", f"{attribution.total_node_hours:,.0f}", "543,000,000"],
            ["symbol coverage", f"{attribution.coverage * 100:.1f}%", "96%"],
            ["GEMM-linked node-hours",
             f"{attribution.gemm_node_hours:,.0f}", "277,258,182"],
            ["GEMM-linked share", f"{attribution.gemm_fraction * 100:.1f}%",
             "53.4%"],
        ],
        title="Sec. III-A: one year of K-computer batch records",
    )
    return {
        "attribution": attribution,
        "nominal_jobs": year.nominal_jobs,
        "nominal_node_hours": year.nominal_node_hours,
        "sample_size": len(year.node_hours),
        "text": text,
    }


def scaling_study() -> dict:
    """Extension: HPL strong scaling — the ME's value erosion at scale."""
    from repro.analysis import hpl_strong_scaling
    from repro.harness.textfmt import bar_chart

    points = hpl_strong_scaling(n=16384, node_counts=(1, 4, 16, 64, 256))
    rows = [
        {
            "nodes": pt.nodes,
            "gemm_fraction": pt.gemm_fraction,
            "parallel_efficiency": pt.parallel_efficiency,
            "me_saving_4x": pt.me_reduction(4.0),
        }
        for pt in points
    ]
    text = render_table(
        ["Nodes", "GEMM share", "Parallel eff.", "ME@4x saves"],
        [
            [r["nodes"], f"{r['gemm_fraction'] * 100:.1f}%",
             f"{r['parallel_efficiency']:.2f}",
             f"{r['me_saving_4x'] * 100:.1f}%"]
            for r in rows
        ],
        title="Extension: HPL strong scaling (n=16384) — the accelerable "
        "fraction erodes with machine size",
    ) + "\n\n" + bar_chart(
        [(f"{r['nodes']:4d} nodes", r["me_saving_4x"] * 100) for r in rows],
        max_value=80.0,
        title="Runtime saving from a 4x ME, by machine size:",
    )
    return {"rows": rows, "text": text}


ARTIFACTS: dict[str, callable] = {
    "table1": tables.table_i,
    "table2": tables.table_ii,
    "table3": tables.table_iii,
    "table4": tables.table_iv,
    "table5": tables.table_v,
    "table6": tables.table_vi_vii,
    "table8": tables.table_viii,
    "fig1": figures.fig1,
    "fig2": figures.fig2,
    "fig3": figures.fig3,
    "fig4": figures.fig4,
    "sec3a": section_iii_a,
    "scaling": scaling_study,
}


def run_all(
    names: list[str] | None = None,
    *,
    jobs: int = 1,
    scenario=None,
    fault_plan=None,
) -> dict[str, dict]:
    """Regenerate the selected artefacts (all by default).

    ``jobs`` fans independent artefacts out across worker threads after
    the shared substrates have been warmed once (see
    :mod:`repro.harness.pipeline`); the results are identical whatever
    its value.  ``scenario`` (a :class:`repro.scenario.ScenarioSpec`)
    overlays the run; ``fault_plan`` (a
    :class:`repro.resilience.FaultPlan`) injects chaos.  Raises
    :class:`ValueError` for an unknown artefact name — the CLI
    (:func:`main`) translates that into a ``SystemExit`` — and
    :class:`repro.errors.PipelineError` when any artefact is missing
    from the returned dict because it failed its retries (callers
    wanting the partial results instead use
    :func:`~repro.harness.pipeline.run_pipeline` directly; the CLI does,
    and flushes whatever completed).
    """
    from repro.errors import PipelineError
    from repro.harness.pipeline import run_pipeline

    run = run_pipeline(names, jobs=jobs, scenario=scenario, fault_plan=fault_plan)
    if run.failures:
        detail = "; ".join(
            f"{name}: {error}" for name, error in sorted(run.failures.items())
        )
        raise PipelineError(
            f"{len(run.failures)} artefact(s) did not complete — {detail}"
        )
    return run.results


def _print_results(results: dict[str, dict]) -> None:
    for name, result in results.items():
        print(f"\n=== {name} " + "=" * max(0, 66 - len(name)))
        print(result["text"])


def _load_manifest(outdir) -> dict | None:
    """Parse ``manifest.json`` if one exists, is readable, and is the
    schema this build writes.

    An unreadable/invalid manifest is quarantined (``manifest.json.corrupt``)
    and treated as absent — with schema v4 the durable store makes a torn
    manifest impossible for our own runs, so invalid JSON means external
    damage, and the journal is the remaining source of truth.  A manifest
    of another ``schema_version`` is reported and treated as absent too,
    but left in place: its bytes are not damaged.
    """
    import json
    from pathlib import Path

    from repro.harness.pipeline import MANIFEST_SCHEMA_VERSION
    from repro.harness.store import quarantine

    path = Path(outdir) / "manifest.json"
    if not path.is_file():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        corpse = quarantine(path)
        print(
            f"[store] manifest.json is not valid JSON ({exc}); "
            f"quarantined to {corpse.name}",
            file=sys.stderr,
        )
        return None
    if not isinstance(manifest, dict):
        return None
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        print(
            f"[store] manifest.json is schema "
            f"{manifest.get('schema_version')!r}, this build reads "
            f"{MANIFEST_SCHEMA_VERSION}; treating it as absent",
            file=sys.stderr,
        )
        return None
    return manifest


#: What each ``--verify`` per-file status means, both for the human
#: report and for the ``--json`` document's consumers.
_VERIFY_STATUS_DETAIL = {
    "ok": "checksum matches its manifest/journal record",
    "missing": "expected but absent",
    "torn": "write started but never committed; quarantined",
    "corrupt": "checksum mismatch; quarantined",
    "extra": "not named by manifest or journal",
}


def _verify(outdir: str, *, as_json: bool = False) -> int:
    """``repro-paper --verify DIR [--json]``: journal + checksum audit.

    Every file the manifest (v4 checksums) or journal names is verified
    against its recorded SHA-256 — the same
    :func:`repro.integrity.bytes_digest` discipline the serve layer's
    result envelopes use — torn and corrupt files are quarantined to
    ``*.corrupt`` (never deleted), missing and unexpected files are
    reported.

    Exit code semantics (identical for both output forms): **0** — every
    artefact is trustworthy (all files ``ok``, nothing unexpected);
    **1** — the directory cannot be vouched for (a
    ``missing``/``torn``/``corrupt``/``extra`` file, or an export that
    never reached ``artifact_done``); **2** — usage error (not a
    directory, or nothing to audit against).

    With ``--json`` the report is one machine-readable document on
    stdout::

        {"directory": ..., "ok": bool, "exit_code": 0|1,
         "counts": {"ok": N, ...},
         "files": [{"file", "artifact", "status", "detail",
                    "expected_sha256", "actual_sha256"}, ...],
         "broken": {"artifact": "reason", ...},
         "status_semantics": {...}}
    """
    import json as jsonlib
    from pathlib import Path

    from repro.harness.store import audit_run, read_journal

    if not Path(outdir).is_dir():
        print(f"--verify: {outdir!r} is not a directory", file=sys.stderr)
        return 2
    manifest = _load_manifest(outdir)
    records = read_journal(outdir)
    if manifest is None and not records:
        print(
            f"--verify: {outdir!r} has neither manifest.json nor "
            "journal.jsonl — nothing to audit against",
            file=sys.stderr,
        )
        return 2
    audit = audit_run(outdir, manifest, records, quarantine_corrupt=True)
    counts = {}
    for report in audit.files:
        counts[report.status] = counts.get(report.status, 0) + 1
    if as_json:
        document = {
            "directory": str(outdir),
            "ok": audit.ok,
            "exit_code": 0 if audit.ok else 1,
            "manifest_present": audit.manifest_present,
            "counts": {
                status: counts[status]
                for status in ("ok", "missing", "torn", "corrupt", "extra")
                if counts.get(status)
            },
            "files": [
                {
                    "file": report.file,
                    "artifact": report.artifact,
                    "status": report.status,
                    "detail": _VERIFY_STATUS_DETAIL[report.status],
                    "expected_sha256": report.expected_sha256,
                    "actual_sha256": report.actual_sha256,
                }
                for report in audit.files
            ],
            "broken": dict(sorted(audit.broken.items())),
            "status_semantics": dict(_VERIFY_STATUS_DETAIL),
        }
        print(jsonlib.dumps(document, indent=2, sort_keys=True))
        return 0 if audit.ok else 1
    summary = ", ".join(
        f"{counts[s]} {s}"
        for s in ("ok", "missing", "torn", "corrupt", "extra")
        if counts.get(s)
    )
    print(f"[verify] {outdir}/: {len(audit.files)} file(s) — {summary or '0 ok'}")
    for report in audit.files:
        if report.status == "ok":
            continue
        detail = _VERIFY_STATUS_DETAIL[report.status]
        owner = f" [{report.artifact}]" if report.artifact else ""
        print(f"[verify]   {report.status:7s} {report.file}{owner} — {detail}")
    if audit.broken:
        print(
            "[verify] broken artefact(s): "
            + ", ".join(sorted(audit.broken))
        )
    if audit.ok:
        print("[verify] OK: every artefact matches its recorded checksums")
        return 0
    print(
        f"[verify] FAIL: recover with: repro-paper --resume {outdir}",
        file=sys.stderr,
    )
    return 1


def _resume(outdir: str, jobs: int) -> int:
    """Re-run exactly the artefacts a previous --output cannot vouch for.

    Recovery unions two sources: the manifest's own verdicts (any entry
    whose status is not ``"ok"``) and the journal + checksum audit
    (torn/corrupt/missing files, exports that never reached
    ``artifact_done``).  Torn and corrupt files are quarantined first,
    so nothing downstream trusts them.  When the crash struck *before*
    ``manifest.json`` existed, the journal's ``run_start`` record
    supplies the artefact selection and scenario, so even a
    manifest-less directory recovers.  Because every generator is
    seeded, the recovered artefacts are byte-identical to a clean run's.
    """
    from pathlib import Path

    from repro.errors import ScenarioError, StoreError
    from repro.harness.export import export_all
    from repro.harness.pipeline import ARTIFACT_SUBSTRATES, run_pipeline
    from repro.harness.store import audit_run, read_journal
    from repro.integrity.digest import bytes_digest
    from repro.scenario import scenario_from_dict

    out = Path(outdir)
    if not out.is_dir():
        raise SystemExit(f"--resume: {outdir!r} is not a directory")
    manifest = _load_manifest(outdir)
    records = read_journal(outdir)
    if manifest is None and not records:
        raise SystemExit(
            f"--resume: {outdir!r} has neither manifest.json nor "
            "journal.jsonl — nothing to recover; re-run repro-paper "
            f"--output {outdir}"
        )
    audit = audit_run(outdir, manifest, records, quarantine_corrupt=True)
    artifacts = (manifest or {}).get("artifacts") or {}
    if manifest is not None:
        selection = sorted(artifacts) or audit.selection or []
    else:
        selection = audit.selection or []
    if not selection:
        raise SystemExit(
            "--resume: the journal records no run_start selection; "
            f"re-run repro-paper --output {outdir}"
        )
    pending = {
        name
        for name, entry in artifacts.items()
        if entry.get("status", "ok") != "ok"
    }
    pending |= set(audit.broken)
    if manifest is None:
        # No manifest at all: only journal-trusted artefacts survive.
        pending |= set(selection) - audit.trusted
    pending = sorted(pending & set(selection) | set(audit.broken))
    if not pending:
        print(
            f"[resume] nothing to do: all {len(selection)} artefact(s) "
            f"in {outdir}/ verified healthy"
        )
        return 0
    scenario_spec = ((manifest or {}).get("scenario") or {}).get("spec")
    if scenario_spec is None:
        scenario_spec = audit.scenario
    scenario = None
    if scenario_spec is not None:
        try:
            scenario = scenario_from_dict(scenario_spec)
        except ScenarioError as exc:
            raise SystemExit(f"--resume: recorded scenario is invalid: {exc}")
    for reason in sorted(set(audit.broken.values())):
        print(f"[resume] damage: {reason}")
    print(
        f"[resume] re-running {len(pending)} artefact(s): "
        + ", ".join(pending)
    )
    run = run_pipeline(pending, jobs=jobs, scenario=scenario)
    _print_results(run.results)
    merged = dict(manifest) if manifest is not None else {}
    for key in ("schema_version", "generator", "fault_plan",
                "total_wall_time_s", "cache", "scenario"):
        merged[key] = run.manifest[key]
    merged["jobs"] = jobs
    merged["substrates"] = {
        **((manifest or {}).get("substrates") or {}),
        **run.manifest["substrates"],
    }
    merged["artifacts"] = {**artifacts, **run.manifest["artifacts"]}
    # Journal-trusted artefacts a missing manifest does not record (the
    # crash struck before manifest.json was written) get synthesised
    # entries: their bytes on disk are verified, only the timing
    # provenance is gone.
    file_hashes: dict[str, dict[str, str]] = {}
    for report in audit.files:
        if report.artifact and report.status == "ok":
            file_hashes.setdefault(report.artifact, {})[report.file] = (
                report.actual_sha256
            )
    for name in audit.trusted - set(merged["artifacts"]):
        txt = out / f"{name}.txt"
        text_hash = None
        if txt.is_file():
            # The .txt file is the rendered text plus one trailing "\n";
            # text_sha256 hashes the text alone.
            text_hash = bytes_digest(txt.read_bytes()[:-1])
        merged["artifacts"][name] = {
            "wall_time_s": None,
            "seed": None,
            "substrates": list(ARTIFACT_SUBSTRATES.get(name, ())),
            "text_sha256": text_hash,
            "status": "ok",
            "retries": 0,
            "files": dict(sorted(file_hashes.get(name, {}).items())),
        }
    still_failing = sorted(
        name
        for name, entry in merged["artifacts"].items()
        if entry.get("status", "ok") != "ok"
    )
    merged["status"] = "ok" if not still_failing else "partial"
    try:
        export_all(run.results, outdir, run_manifest=merged)
    except StoreError as exc:
        print(f"[resume] export failed: {exc}", file=sys.stderr)
        return 1
    if still_failing:
        print(
            f"[resume] {len(still_failing)} artefact(s) still failing: "
            + ", ".join(still_failing),
            file=sys.stderr,
        )
        return 1
    print(
        f"[resume] run complete: all {len(merged['artifacts'])} "
        f"artefact(s) healthy in {outdir}/"
    )
    return 0


def _jobs(text: str) -> int:
    """``--jobs`` values: an integer >= 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-paper`` command line."""
    parser = argparse.ArgumentParser(prog="repro-paper", add_help=False)
    add = parser.add_argument
    add("artifacts", nargs="*", metavar="artefact",
        help="artefacts to regenerate (default: all): "
        + " ".join(sorted(ARTIFACTS)))
    add("-h", "--help", action="store_true", help="show this help and exit")
    add("--version", action="store_true", help="print the version and exit")
    add("--output", metavar="DIR",
        help="write text/JSON/CSV files plus manifest.json")
    add("--jobs", type=_jobs, metavar="N",
        help="parallel workers for the artefact pipeline (default 1)")
    add("--scenario", metavar="FILE", help="run under a what-if overlay")
    add("--fault-plan", metavar="FILE", help="inject a chaos experiment")
    add("--resume", metavar="DIR", help="re-run the failed/torn/corrupt "
        "artefacts of a previous --output (takes only --jobs)")
    add("--verify", metavar="DIR", help="audit artefacts against their "
        "checksums, quarantining corrupt files (takes only --json)")
    add("--json", action="store_true", help="with --verify: one JSON "
        "report on stdout (exit 0 all ok, 1 damage, 2 usage error)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    parser = build_parser()
    # Intermixed: artefact names may come before, after or between flags.
    args = parser.parse_intermixed_args(argv)
    if args.help:
        parser.print_help()
        return 0
    if args.version:
        from repro import package_version

        print(f"repro-paper {package_version()}")
        return 0
    run_flags = (args.artifacts or args.output or args.scenario
                 or args.fault_plan)
    if args.verify is not None:
        if run_flags or args.resume is not None or args.jobs is not None:
            parser.error("--verify audits an existing directory and takes "
                         "no option other than --json")
        return _verify(args.verify, as_json=args.json)
    if args.json:
        parser.error("--json is only meaningful with --verify DIR")
    jobs = args.jobs or 1
    if args.resume is not None:
        if run_flags:
            parser.error("--resume takes only --jobs; the artefact "
                         "selection, scenario and output directory come "
                         "from the manifest")
        return _resume(args.resume, jobs)
    unknown = [name for name in args.artifacts if name not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artefact {unknown[0]!r}; known: "
                     f"{sorted(ARTIFACTS)}")
    outdir = args.output
    scenario = None
    if args.scenario is not None:
        from repro.errors import ScenarioError
        from repro.scenario import load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            raise SystemExit(f"--scenario: {exc}")
    fault_plan = None
    if args.fault_plan is not None:
        from repro.errors import FaultPlanError
        from repro.resilience import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.fault_plan)
        except FaultPlanError as exc:
            raise SystemExit(f"--fault-plan: {exc}")
    from repro.harness.pipeline import run_pipeline

    run = run_pipeline(
        args.artifacts or None, jobs=jobs, scenario=scenario,
        fault_plan=fault_plan,
    )
    _print_results(run.results)
    cache = run.manifest["cache"]
    scenario_note = ""
    if scenario is not None:
        scenario_note = f", scenario: {run.manifest['scenario']['label']}"
    print(
        f"\n[pipeline] {len(run.results)} artefact(s) in "
        f"{run.manifest['total_wall_time_s']:.2f} s (jobs={jobs}, "
        f"cache: {cache['hits']} hits / {cache['misses']} misses"
        f"{scenario_note})"
    )
    # A partial run still flushes every completed artefact and the
    # partial manifest — failed work is lost only if it never ran.
    if outdir is not None:
        from repro.errors import StoreError
        from repro.harness.export import export_all
        from repro.resilience import fault_context

        # The export runs under the same fault plan as the pipeline so
        # store:* chaos rules (torn-write, bit-flip, fsync-error) reach
        # the durable-write path; with no plan this installs nothing.
        try:
            with fault_context(fault_plan):
                written = export_all(
                    run.results, outdir, run_manifest=run.manifest
                )
        except StoreError as exc:
            # The manifest is on disk and records the casualties as
            # export_failed; --resume regenerates exactly those.
            print(f"[store] {exc}", file=sys.stderr)
            print(
                f"[store] recover with: repro-paper --resume {outdir}",
                file=sys.stderr,
            )
            return 1
        print(f"\nwrote {len(written)} files to {outdir}/")
    if run.failures:
        for name, error in sorted(run.failures.items()):
            print(f"[pipeline] FAILED {name}: {error}", file=sys.stderr)
        hint = (
            f"; recover with: repro-paper --resume {outdir}"
            if outdir is not None
            else ""
        )
        print(
            f"[pipeline] partial run: {len(run.failures)} artefact(s) "
            f"did not complete{hint}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
