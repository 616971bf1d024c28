"""Corpus-wide static-analysis report: ``python -m repro.analysis.lint``.

Sweeps the whole suite corpus — every Table-1 kernel plus both bundled
mini-applications — through the scan-only front half of the pipeline
(parse → candidate filter → lowering → dependence analysis, no
synthesis, no measurement) and emits one JSON report:

* per-kernel **dependence summaries**: distance/direction vectors and
  the provably-parallel counters;
* per-application **site verdicts**: liftable vs fallback, and the
  demotion reasons classified (``scalar-observability`` / ``filter`` /
  ``lowering``);
* corpus **totals**, which double as the CI gate: with ``--baseline``
  the process exits non-zero when a lifted-site or parallel-counter
  count *regresses* against the checked-in baseline (improvements
  pass, and ``--out`` writes the new report to update the baseline
  from).

Everything here is static — the sweep stays fast enough to run as a
blocking CI job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.dependence import analyze_kernel
from repro.application.scan import scan_application
from repro.frontend.candidates import identify_candidates
from repro.frontend.lowering import LoweringError, lower_candidate
from repro.frontend.parser import ParseError, parse_source
from repro.suites.apps import mini_apps
from repro.suites.registry import all_cases, representative_cases


def classify_demotion(reasons: Sequence[str]) -> str:
    """Bucket a fallback site's reasons for the per-app counts."""
    for reason in reasons:
        if reason.startswith("scalar temporaries live"):
            return "scalar-observability"
        if reason.startswith("lowering:"):
            return "lowering"
    return "filter"


def lint_kernel_case(case) -> Dict:
    """Dependence-analyze every candidate of one Table-1 kernel case."""
    entry: Dict = {
        "suite": case.suite,
        "name": case.name,
        "candidates": 0,
        "rejections": [],
        "kernels": [],
    }
    try:
        program = parse_source(case.source)
    except ParseError as exc:
        entry["error"] = f"parse: {exc}"
        return entry
    report = identify_candidates(program)
    entry["candidates"] = len(report.candidates)
    entry["rejections"] = [
        {"loop": rejection.loop.var, "reasons": list(rejection.reasons)}
        for rejection in report.rejections
    ]
    for candidate in report.candidates:
        try:
            kernel = lower_candidate(candidate)
        except LoweringError as exc:
            entry["kernels"].append({"name": candidate.name, "error": f"lowering: {exc}"})
            continue
        entry["kernels"].append(analyze_kernel(kernel).to_json())
    return entry


def lint_application(app) -> Dict:
    """Scan one mini-app and classify why each fallback site fell back."""
    scan = scan_application(parse_source(app.source))
    demotions: Dict[str, int] = {}
    fallbacks = []
    for site in scan.fallback_sites:
        kind = classify_demotion(site.reasons)
        demotions[kind] = demotions.get(kind, 0) + 1
        fallbacks.append(
            {"site": site.name, "kind": kind, "reasons": list(site.reasons)}
        )
    return {
        "application": app.name,
        "suite": app.suite,
        "sites": len(scan.sites),
        "liftable": len(scan.liftable_sites),
        "fallback": len(scan.fallback_sites),
        "demotion_reasons": demotions,
        "fallbacks": fallbacks,
    }


def build_report(representative: bool = False) -> Dict:
    cases = representative_cases() if representative else all_cases()
    kernels = [lint_kernel_case(case) for case in cases]
    applications = [lint_application(app) for app in mini_apps()]
    kernel_candidates = sum(entry["candidates"] for entry in kernels)
    kernel_analyzed = sum(
        1
        for entry in kernels
        for k in entry["kernels"]
        if "error" not in k
    )
    parallel_counters = sum(
        len(k.get("parallel_counters", ()))
        for entry in kernels
        for k in entry["kernels"]
        if "error" not in k
    )
    app_liftable = sum(entry["liftable"] for entry in applications)
    return {
        "corpus": "representative" if representative else "all",
        "kernels": kernels,
        "applications": applications,
        "totals": {
            "kernel_cases": len(kernels),
            "kernel_candidates": kernel_candidates,
            "kernel_analyzed": kernel_analyzed,
            "parallel_counters": parallel_counters,
            "app_sites": sum(entry["sites"] for entry in applications),
            "app_liftable": app_liftable,
        },
    }


#: Totals gated against the baseline: a *drop* in any of these fails CI.
GATED_TOTALS = ("kernel_candidates", "kernel_analyzed", "parallel_counters", "app_liftable")


def compare_to_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the report holds the line)."""
    problems: List[str] = []
    current = report.get("totals", {})
    expected = baseline.get("totals", {})
    for key in GATED_TOTALS:
        if key not in expected:
            continue
        if current.get(key, 0) < expected[key]:
            problems.append(
                f"{key} regressed: {current.get(key, 0)} < baseline {expected[key]}"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="static dependence/legality/liveness sweep over the suite corpus",
    )
    parser.add_argument(
        "--representative",
        action="store_true",
        help="sweep only the representative cross-section instead of every case",
    )
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    parser.add_argument(
        "--baseline",
        type=Path,
        help="fail (exit 1) when totals regress against this baseline report",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the report on stdout"
    )
    args = parser.parse_args(argv)

    report = build_report(representative=args.representative)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    if not args.quiet:
        print(text)

    if args.baseline:
        baseline = json.loads(args.baseline.read_text())
        problems = compare_to_baseline(report, baseline)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(
            "baseline ok: "
            + ", ".join(f"{k}={report['totals'][k]}" for k in GATED_TOTALS),
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
