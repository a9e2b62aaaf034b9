"""Experiments with more than two applications.

§III-A: "these strategies naturally extend to more than two applications.
The adaptive strategy would then consist in either choosing a place in a
queue of applications that have requested access to the system, or
interrupting the one currently accessing it."  Such an experiment is an
:class:`~repro.experiments.spec.ExperimentSpec` with N workloads;
:class:`MultiResult` is its N-application result shape
(``ExperimentResult.as_multi()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import DecisionRecord
from .runner import AppRecord

__all__ = ["MultiResult"]


@dataclass
class MultiResult:
    """Outcome of an N-application experiment."""

    records: Dict[str, AppRecord]
    strategy: Optional[str]
    decisions: List[DecisionRecord] = field(default_factory=list)
    makespan: float = 0.0

    def record(self, name: str) -> AppRecord:
        return self.records[name]

    def interference_factors(self) -> Dict[str, float]:
        return {name: rec.interference_factor
                for name, rec in self.records.items()}

    def cpu_seconds_wasted(self) -> float:
        """Σ N_X · T_X over first phases."""
        return sum(rec.nprocs * rec.write_time
                   for rec in self.records.values())

    def sum_interference_factors(self) -> float:
        return sum(self.interference_factors().values())
