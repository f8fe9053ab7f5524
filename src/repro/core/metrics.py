"""Metrics dataclasses shared by the algorithms and experiment harnesses.

The paper's evaluation (Table 3) reports per algorithm: execution time
``t``, wedges traversed ``Λ``, and synchronization rounds ``ρ``. Every
algorithm in :mod:`repro.core` returns one of these records so the
harnesses never re-derive numbers from logs.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PhaseMetrics:
    """Time / wedges / rounds of one phase (pvBcnt, CD, FD, ...)."""

    seconds: float = 0.0
    wedges: int = 0
    rounds: int = 0


@dataclass
class ReceiptMetrics:
    """Roll-up of a full RECEIPT run.

    ``rho`` (the paper's synchronization-round count) equals the number
    of CD peel iterations: FD tasks synchronize only once at the end
    (paper §5.2.1), and counting is a constant number of dataflow stages.
    """

    count: PhaseMetrics = field(default_factory=PhaseMetrics)
    cd: PhaseMetrics = field(default_factory=PhaseMetrics)
    fd: PhaseMetrics = field(default_factory=PhaseMetrics)
    p_effective: int = 0
    huc_recounts: int = 0
    dgm_compactions: int = 0
    subset_sizes: list[int] = field(default_factory=list)
    subset_wedges_induced: list[int] = field(default_factory=list)
    #: each FD task's own peel time, by subset (FD's load skew)
    subset_seconds: list[float] = field(default_factory=list)

    @property
    def rho(self) -> int:
        return self.cd.rounds

    @property
    def total_seconds(self) -> float:
        return self.count.seconds + self.cd.seconds + self.fd.seconds

    @property
    def total_wedges(self) -> int:
        return self.count.wedges + self.cd.wedges + self.fd.wedges


@dataclass
class BaselineMetrics:
    """Record for BUP / ParB runs (reference kernels or Spark loop)."""

    seconds: float = 0.0
    wedges: int = 0
    rounds: int = 0
    count_seconds: float = 0.0
    count_wedges: int = 0
    completed: bool = True

    @property
    def total_seconds(self) -> float:
        return self.seconds + self.count_seconds

    @property
    def total_wedges(self) -> int:
        return self.wedges + self.count_wedges
