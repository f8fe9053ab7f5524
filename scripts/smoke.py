"""Dev smoke script: exercise the full pipeline on tiny graphs."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS pre-import)
from pyspark.sql import SparkSession

spark = (
    SparkSession.builder.appName("smoke")
    .config("spark.sql.shuffle.partitions", "8")
    .config("spark.sql.execution.arrow.pyspark.enabled", "true")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.showConsoleProgress", "false")
    .getOrCreate()
)
spark.sparkContext.setLogLevel("ERROR")

import numpy as np
import pandas as pd

from repro.graph import bipartite as bg
from repro.graph.generators import dataset_edges, random_bipartite
from repro.core import counting
from repro.core.bup import bup, bup_bruteforce, parb_simulate, edges_to_numpy
from repro.core.kernel import count_butterflies_np
from repro.core.peel_round import peel_structure
from repro.core.receipt import receipt
from repro.core.parb import parb_spark

edges = random_bipartite(spark, n_u=40, n_v=30, m=160, alpha_u=0.4, alpha_v=0.6, seed=7)
edges = edges.localCheckpoint()
bg.validate(edges)
print("counts:", bg.counts(edges))

# numpy vs spark counting
n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(edges)
bu, _, total, w = count_butterflies_np(n_u, n_v, eu, ev)
bc = counting.per_vertex_butterflies(edges, edges.toPandas())
su = bc.u_counts.sort_values("u").reset_index(drop=True)
np_u = pd.DataFrame({"u": u_ids, "bcnt": bu}).sort_values("u").reset_index(drop=True)
assert (su["bcnt"].to_numpy() == np_u["bcnt"].to_numpy()).all(), "u counts mismatch"
assert int(su["bcnt"].sum()) == 2 * total
print("counting OK, total butterflies:", total, "wedges:", bc.wedges, w)

# both roll-ups on the structure the pipeline counts on
with peel_structure(edges) as structure:
    for side in ("u", "v"):
        on_cache = counting.per_vertex_butterflies(structure, edges.toPandas(), side)
        got = on_cache.u_counts.sort_values("u")["bcnt"].to_numpy()
        assert (got == np_u["bcnt"].to_numpy()).all(), f"{side}-side counts on the cache"
print("counting on the u-partitioned cache OK, both sides")

# BUP vs brute force
t_bup, m_bup = bup(edges)
t_bf = bup_bruteforce(edges)
mrg = t_bup.merge(t_bf, on="u", suffixes=("_bup", "_bf"))
assert (mrg["tip_bup"] == mrg["tip_bf"]).all(), mrg[mrg.tip_bup != mrg.tip_bf]
print("BUP == bruteforce OK; rounds:", m_bup.rounds, "wedges:", m_bup.wedges)

# ParB sim vs BUP
t_pb, m_pb = parb_simulate(edges)
mrg = t_bup.merge(t_pb, on="u", suffixes=("_bup", "_pb"))
assert (mrg["tip_bup"] == mrg["tip_pb"]).all()
print("ParB sim OK; rho:", m_pb.rounds, "wedges:", m_pb.wedges)
assert m_pb.wedges == m_bup.wedges

# ParB spark vs BUP
t_ps, m_ps = parb_spark(edges)
assert m_ps.completed
mrg = t_bup.merge(t_ps, on="u", suffixes=("_bup", "_ps"))
assert (mrg["tip_bup"] == mrg["tip_ps"]).all(), mrg[mrg.tip_bup != mrg.tip_ps]
assert m_ps.rounds == m_pb.rounds, (m_ps.rounds, m_pb.rounds)
assert m_ps.wedges == m_pb.wedges, (m_ps.wedges, m_pb.wedges)
print("ParB spark OK")


def fd_skew(r) -> str:
    """FD's per-subset task seconds, their max/mean, and FD's fixed cost
    per decomposition: its time beyond the slowest task's own peel."""
    s = r.metrics.subset_seconds
    skew = max(s) * len(s) / sum(s) if sum(s) else 0.0
    fixed = r.metrics.fd.seconds - max(s, default=0.0)
    return f"fd_s={[round(x, 4) for x in s]} max/mean={skew:.2f} fd_fixed_s={fixed:.3f}"


# RECEIPT all flag combos
for huc in (False, True):
    for dgm in (False, True):
        r = receipt(edges, n_partitions=3, huc=huc, dgm=dgm)
        mrg = t_bup.merge(r.tips, on="u", suffixes=("_bup", "_r"))
        bad = mrg[mrg.tip_bup != mrg.tip_r]
        assert bad.empty, (huc, dgm, bad.head(20), r.ranges)
        print(
            f"RECEIPT huc={huc} dgm={dgm} OK; rho={r.metrics.rho} "
            f"wedges={r.metrics.total_wedges} p_eff={r.metrics.p_effective} "
            f"recounts={r.metrics.huc_recounts} {fd_skew(r)}"
        )

# V side too
t_bupv, _ = bup(edges, side="v")
rv = receipt(edges, n_partitions=3, side="v")
mrg = t_bupv.merge(rv.tips, on="u", suffixes=("_bup", "_r"))
assert (mrg["tip_bup"] == mrg["tip_r"]).all()
print("RECEIPT V-side OK;", fd_skew(rv))

# a dataset at tiny scale
e2 = dataset_edges(spark, "it", "tiny").localCheckpoint()
t2, m2 = bup(e2)
r2 = receipt(e2, n_partitions=4)
mrg = t2.merge(r2.tips, on="u", suffixes=("_bup", "_r"))
assert (mrg["tip_bup"] == mrg["tip_r"]).all(), mrg[mrg.tip_bup != mrg.tip_r].head()
print(
    "dataset tiny OK; rho:", r2.metrics.rho,
    "vs parb rounds:", parb_simulate(e2)[1].rounds, "RECEIPT", fd_skew(r2),
)
print("ALL SMOKE OK")
spark.stop()
