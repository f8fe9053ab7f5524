"""The benchmark's workloads and the correctness gate they share.

Each workload is one synthetic dataset-side from
``repro.graph.generators.CONFIGS`` at a fixed scale, generated with the
config's own seed and decomposed through a public entry point
(``receipt()`` or ``parb_spark()``).

The seed given on the command line relabels that graph: it draws a
random permutation of the U ids and of the V ids and shuffles the edge
rows. Every seed therefore hands the program a different edge frame
(different ids, so different hash partitioning and row order in Spark)
of the same graph: ρ and the tip multiset are equal for every seed, and
Λ moves only by FD's tie-breaking between equal supports (under 0.3%).
So the spread between seeds is the system's own. Re-generating the graph
per seed was tried first: at the scales a run can afford, ρ moved by a
quarter of its median between seeds. Without a seed the generator's own
ids are used.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key of repro.graph.generators.CONFIGS
    scale: float
    algorithm: str  # "receipt" or "parb"
    n_partitions: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="recount_fd",
            dataset="or",
            scale=0.01,
            algorithm="receipt",
            n_partitions=3,
        ),
        Workload(
            name="parb_rounds",
            dataset="it",
            scale=0.015,
            algorithm="parb",
            n_partitions=0,
        ),
    )
}


def edge_list(w: Workload, seed: int | None) -> pd.DataFrame:
    """Edge list ``(u, v)`` of ``w``, relabeled by ``seed`` (see above)."""
    from repro.graph import generators as gen

    eu, ev = gen.bipartite_edges_np(gen.scaled(gen.CONFIGS[w.dataset], w.scale))
    if seed is not None:
        g = np.random.default_rng(seed)
        order = g.permutation(len(eu))
        eu = g.permutation(int(eu.max()) + 1)[eu[order]]
        ev = g.permutation(int(ev.max()) + 1)[ev[order]]
    return pd.DataFrame({"u": eu, "v": ev})


def tips_match(tips: pd.DataFrame, oracle: pd.DataFrame) -> bool:
    """Same vertex set and the same tip number for every vertex."""
    if len(tips) != len(oracle) or tips["u"].duplicated().any():
        return False
    joined = oracle.merge(tips, on="u", how="left", suffixes=("", "_got"))
    got = joined["tip_got"]
    return bool(got.notna().all() and (got.astype("int64") == joined["tip"]).all())


@dataclass
class Expected:
    """What every decomposition of one graph must return.

    ``tips`` come from ``bup()``. ``rho``/``wedges`` are ``None`` until
    known: from ``parb_simulate()`` for ParB, and from the warm-up run
    for RECEIPT, whose work counters are deterministic per graph.
    """

    tips: pd.DataFrame
    rho: int | None = None
    wedges: int | None = None


def mismatch(tips: pd.DataFrame, rho: int, wedges: int, exp: Expected) -> str | None:
    """Why a decomposition's result is wrong, or ``None`` if it is right."""
    if not tips_match(tips, exp.tips):
        return "tips differ from bup()"
    if exp.rho is not None and rho != exp.rho:
        return f"rho {rho} != expected {exp.rho}"
    if exp.wedges is not None and wedges != exp.wedges:
        return f"wedges {wedges} != expected {exp.wedges}"
    return None


@dataclass
class Tally:
    """Decompositions attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
