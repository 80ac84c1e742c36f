"""The merged sweep report.

:func:`repro.sim.batch.run_many` collects every per-run spill record
(parent and pool workers alike) plus the supervisor's sweep-level
telemetry and folds them into one :class:`SweepReport`:

* ``counters`` -- the sum of every run's numeric metrics (trigger
  crossings, DTM engagement steps, fast-forward spans, fallback
  activations, ...) plus sweep-level counters (retries, pool rebuilds);
* ``runs`` -- the individual run records, for per-run drill-down
  (per-run trigger crossings, DTM duty cycle, wall time);
* ``failures`` -- failed-run descriptions from the supervisor;
* ``meta`` -- sweep identity and shape (run counts, degradation reason
  when the supervisor abandoned its pool, wall time).

Counters come **only** from run records and explicit sweep-level
telemetry -- never by merging worker registries with the parent's --
so serial and pooled sweeps of the same specs produce the same counts.

The report serialises to JSONL (one ``meta`` line, then one line per
run and failure) and to Prometheus text via the shared exporter, and
renders as an ASCII summary for ``python -m repro report``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs import export


def _render_table(headers, rows, title=""):
    # Imported lazily: repro.analysis pulls in the full package graph
    # (engine, sensors, ...), which itself imports repro.obs -- a
    # module-level import here would be circular.
    from repro.analysis.tables import render_table

    return render_table(headers, rows, title=title)


@dataclass
class SweepReport:
    """Merged observability record of one sweep."""

    meta: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    runs: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        records: Sequence[Dict[str, object]],
        failures: Sequence[Dict[str, object]] = (),
        meta: Optional[Dict[str, object]] = None,
        sweep_counters: Optional[Dict[str, float]] = None,
    ) -> "SweepReport":
        """Fold per-run spill ``records`` and sweep-level telemetry into
        one report.  ``sweep_counters`` are counts that belong to the
        sweep rather than any run (retries, pool rebuilds, degradation).
        """
        counters: Dict[str, float] = {}
        runs: List[Dict[str, object]] = []
        for record in records:
            runs.append(record)
            for name, value in (record.get("metrics") or {}).items():
                counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (sweep_counters or {}).items():
            if value:
                counters[name] = counters.get(name, 0.0) + float(value)
        report_meta: Dict[str, object] = {
            "n_runs": len(runs),
            "n_failures": len(failures),
        }
        if meta:
            report_meta.update(meta)
        return cls(
            meta=report_meta,
            counters=counters,
            runs=runs,
            failures=list(failures),
        )

    # --- serialisation ------------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "meta": self.meta,
            "counters": self.counters,
            "runs": self.runs,
            "failures": self.failures,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SweepReport":
        return cls(
            meta=dict(data.get("meta") or {}),
            counters={
                str(k): float(v)
                for k, v in (data.get("counters") or {}).items()
            },
            runs=list(data.get("runs") or []),
            failures=list(data.get("failures") or []),
        )

    def save(self, path) -> Path:
        """Write the report as JSONL: a ``meta`` line carrying the
        aggregates, then one line per run record and per failure."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            head = {
                "kind": "sweep_report",
                "meta": self.meta,
                "counters": self.counters,
            }
            handle.write(json.dumps(head, sort_keys=True, default=str) + "\n")
            for run in self.runs:
                handle.write(json.dumps(run, sort_keys=True, default=str) + "\n")
            for failure in self.failures:
                record = {"kind": "failure"}
                record.update(failure)
                handle.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                )
        return path

    @classmethod
    def load(cls, path) -> "SweepReport":
        """Read a report written by :meth:`save`."""
        meta: Dict[str, object] = {}
        counters: Dict[str, float] = {}
        runs: List[Dict[str, object]] = []
        failures: List[Dict[str, object]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("kind")
                if kind == "sweep_report":
                    meta = dict(record.get("meta") or {})
                    counters = {
                        str(k): float(v)
                        for k, v in (record.get("counters") or {}).items()
                    }
                elif kind == "failure":
                    failures.append(
                        {k: v for k, v in record.items() if k != "kind"}
                    )
                else:
                    runs.append(record)
        return cls(
            meta=meta,
            counters=counters,
            runs=runs,
            failures=failures,
        )

    def prometheus_text(self) -> str:
        """The report's aggregates in Prometheus text format."""
        return export.prometheus_text(counters=self.counters)

    # --- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human-readable summary (``python -m repro report``)."""
        sections: List[str] = []
        meta_rows = [[key, self.meta[key]] for key in sorted(self.meta)]
        sections.append(
            _render_table(["field", "value"], meta_rows, title="sweep")
        )
        if self.counters:
            counter_rows = [
                [name, self.counters[name]] for name in sorted(self.counters)
            ]
            sections.append(
                _render_table(["counter", "total"], counter_rows,
                             title="counters")
            )
        if self.runs:
            run_rows = []
            for run in self.runs:
                run_metrics = run.get("metrics") or {}
                run_rows.append([
                    run.get("run_id", "?"),
                    run.get("benchmark", "?"),
                    run.get("policy", "?"),
                    run.get("wall_seconds", 0.0),
                    run_metrics.get("engine.trigger_crossings", 0.0),
                    run_metrics.get("dtm.duty_cycle", 0.0),
                ])
            sections.append(
                _render_table(
                    ["run", "benchmark", "policy", "wall_s",
                     "crossings", "dtm_duty"],
                    run_rows,
                    title="runs",
                )
            )
        if self.failures:
            failure_rows = [
                [
                    failure.get("index", "?"),
                    failure.get("benchmark", "?"),
                    failure.get("policy", "?"),
                    failure.get("error_type", "?"),
                    str(failure.get("message", ""))[:60],
                ]
                for failure in self.failures
            ]
            sections.append(
                _render_table(
                    ["index", "benchmark", "policy", "error", "message"],
                    failure_rows,
                    title="failures",
                )
            )
        return "\n\n".join(sections)
