"""Dev script: dataset stats at bench scale (numpy only, no Spark)."""
import sys, time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import numpy as np

from repro.graph.generators import CONFIGS, bipartite_edges_np, scaled
from repro.core.kernel import count_butterflies_np, peel, build_csr


def side_stats(name, eu, ev, n_u, n_v, label):
    t0 = time.perf_counter()
    bu, bv, total, wcnt = count_butterflies_np(n_u, n_v, eu, ev)
    t_cnt = time.perf_counter() - t0
    # peel wedges = sum_u sum_{v in N_u} d_v
    dv = np.bincount(ev, minlength=n_v)
    peel_w = int(dv[ev].sum())  # sum over edges of d_v == sum_u sum_{v in N_u} d_v
    t0 = time.perf_counter()
    tips, st = peel(n_u, n_v, eu, ev, bu, batch=False)
    t_bup = time.perf_counter() - t0
    _, stb = peel(n_u, n_v, eu, ev, bu, batch=True)
    r = peel_w / max(wcnt, 1)
    print(
        f"{label}: butterflies={total} peelW={peel_w} cntW={wcnt} r={r:.1f} "
        f"thetamax={tips.max()} rho_parb={stb.rounds} t_cnt={t_cnt:.1f}s t_bup={t_bup:.1f}s"
    )
    return peel_w


for name, cfg in CONFIGS.items():
    c = scaled(cfg, "bench")
    eu, ev = bipartite_edges_np(c)
    n_u, n_v, m = c.n_u, c.n_v, len(eu)
    du = np.bincount(eu, minlength=n_u); dv = np.bincount(ev, minlength=n_v)
    print(
        f"== {name}: |U|={(du>0).sum()} |V|={(dv>0).sum()} |E|={m} "
        f"dU={m/max((du>0).sum(),1):.1f} dV={m/max((dv>0).sum(),1):.1f}"
    )
    wU = side_stats(name, eu, ev, n_u, n_v, f"  {name}U")
    wV = side_stats(name, ev, eu, n_v, n_u, f"  {name}V")
    print(f"  wedge ratio U/V = {wU/max(wV,1):.1f}")
