"""Result tables: measured numbers next to the paper's reported ranges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..obs.export import format_table

__all__ = [
    "PaperRow",
    "ComparisonTable",
    "format_table",
    "format_phase_breakdown",
]


@dataclass
class PaperRow:
    """One system's result in one experiment."""

    system: str
    value: float
    unit: str = ""
    #: the paper's expected band (min, max) for this quantity, if the
    #: paper reports one (slowdowns, ratios); None for absolute values.
    paper_range: Optional[tuple] = None
    note: str = ""

    def within_paper_range(self) -> Optional[bool]:
        if self.paper_range is None:
            return None
        low, high = self.paper_range
        return low <= self.value <= high


def format_phase_breakdown(obs_info: dict) -> str:
    """Render a harness ``extra_info["obs"]`` phase/enclave breakdown.

    ``obs_info`` is the dict produced by the bench harness: per-phase
    ``{count, mean_ms, max_ms}`` aggregates plus enclave counters.  The
    text opens with a blank line, like :meth:`ComparisonTable.render`.
    """
    rows = [
        (name, str(stats["count"]), "%.3f" % stats["mean_ms"],
         "%.3f" % stats["max_ms"])
        for name, stats in sorted(obs_info.get("phases", {}).items())
    ]
    text = "\n" + format_table(
        "2PC phase breakdown", ["phase", "count", "mean ms", "max ms"], rows
    )
    enclave = obs_info.get("enclave", {})
    if enclave:
        text += "\n" + "  ".join(
            "%s=%s" % (name, enclave[name]) for name in sorted(enclave)
        )
    return text


class ComparisonTable:
    """Collects rows for one figure/table and renders the comparison."""

    def __init__(self, title: str, metric_name: str = "slowdown"):
        self.title = title
        self.metric_name = metric_name
        self.rows: List[PaperRow] = []

    def add(
        self,
        system: str,
        value: float,
        unit: str = "x",
        paper_range: Optional[tuple] = None,
        note: str = "",
    ) -> None:
        self.rows.append(PaperRow(system, value, unit, paper_range, note))

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            if row.paper_range is not None:
                expected = "%.2f-%.2f" % row.paper_range
                verdict = "OK" if row.within_paper_range() else "off"
            else:
                expected, verdict = "-", "-"
            table_rows.append(
                (
                    row.system,
                    "%.2f%s" % (row.value, row.unit),
                    expected,
                    verdict,
                    row.note,
                )
            )
        return "\n" + format_table(
            self.title,
            ["system", self.metric_name, "paper", "match", "note"],
            table_rows,
        )

    def results(self) -> dict:
        """Machine-readable form (stored into benchmark extra_info)."""
        return {
            row.system: {
                "value": row.value,
                "unit": row.unit,
                "paper_range": row.paper_range,
                "within": row.within_paper_range(),
            }
            for row in self.rows
        }
