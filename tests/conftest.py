"""Shared fixtures/helpers for the RECEIPT reproduction test suite.

The session-scoped ``spark`` fixture comes from the repo-root
``conftest.py``; everything here is pure-python helpers plus a library
of small graphs with hand-checkable structure.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_tips_equal  # noqa: F401  (re-exported for tests)


def complete_bipartite_pdf(a: int, b: int) -> pd.DataFrame:
    """K_{a,b}: every U vertex adjacent to every V vertex.

    Closed forms used by tests: each u participates in
    ``(a-1) * C(b, 2)`` butterflies, the graph has ``C(a,2) * C(b,2)``
    butterflies, and every tip number equals ``(a-1) * C(b, 2)``.
    """
    uu, vv = np.meshgrid(np.arange(a), np.arange(b), indexing="ij")
    return pd.DataFrame({"u": uu.ravel().astype("int64"), "v": vv.ravel().astype("int64")})


def star_pdf(leaves: int) -> pd.DataFrame:
    """One V hub with ``leaves`` U leaves: wedges but zero butterflies."""
    return pd.DataFrame(
        {"u": np.arange(leaves, dtype="int64"), "v": np.zeros(leaves, dtype="int64")}
    )


def path_pdf(n: int) -> pd.DataFrame:
    """Alternating path u0-v0-u1-v1-...: no vertex pair shares 2 wedges."""
    us = np.repeat(np.arange(n, dtype="int64"), 2)[1:-1]
    vs = np.repeat(np.arange(n - 1, dtype="int64"), 2)
    return pd.DataFrame({"u": us, "v": vs})


def paper_like_pdf() -> pd.DataFrame:
    """A small irregular graph in the spirit of the paper's fig. 1:
    two overlapping dense blocks plus a pendant vertex."""
    edges = [
        # block 1: u0..u2 x v0..v2 (complete)
        *[(u, v) for u in range(3) for v in range(3)],
        # block 2: u2..u4 x v2..v4 (complete, overlaps at u2/v2)
        *[(u, v) for u in range(2, 5) for v in range(2, 5)],
        # pendant
        (5, 4),
    ]
    pdf = pd.DataFrame(edges, columns=["u", "v"]).drop_duplicates()
    return pdf.astype("int64")


def random_pdf(
    n_u: int, n_v: int, m: int, seed: int, alpha_u: float = 0.4, alpha_v: float = 0.6
) -> pd.DataFrame:
    """Deduplicated random bipartite pandas edge list."""
    from repro.graph.generators import GraphConfig, bipartite_edges_np

    eu, ev = bipartite_edges_np(
        GraphConfig(n_u=n_u, n_v=n_v, m=m, alpha_u=alpha_u, alpha_v=alpha_v, seed=seed)
    )
    return pd.DataFrame({"u": eu, "v": ev})


#: (name, pdf-factory) library used by parametrized correctness tests
SMALL_GRAPHS: dict[str, callable] = {
    "k33": lambda: complete_bipartite_pdf(3, 3),
    "k45": lambda: complete_bipartite_pdf(4, 5),
    "star": lambda: star_pdf(6),
    "path": lambda: path_pdf(6),
    "paper": paper_like_pdf,
    "rnd1": lambda: random_pdf(20, 15, 70, seed=1),
    "rnd2": lambda: random_pdf(30, 10, 90, seed=2),
    "rnd3": lambda: random_pdf(12, 40, 110, seed=3, alpha_u=0.8, alpha_v=0.2),
}


@pytest.fixture(params=sorted(SMALL_GRAPHS))
def small_graph_pdf(request) -> pd.DataFrame:
    """Parametrized fixture over the small-graph library (pandas)."""
    return SMALL_GRAPHS[request.param]()


def brute_force_vertex_butterflies(pdf: pd.DataFrame) -> tuple[dict, dict, int]:
    """O(n^4)-ish butterfly counter by direct 2x2 biclique enumeration.

    Independent of every production code path (pure python over the
    neighbor sets). Returns ``(per_u, per_v, total)``.
    """
    from itertools import combinations

    nbrs: dict[int, set] = {}
    for u, v in pdf.itertuples(index=False):
        nbrs.setdefault(int(u), set()).add(int(v))
    per_u = {u: 0 for u in nbrs}
    per_v = {int(v): 0 for v in pdf["v"].unique()}
    total = 0
    for u1, u2 in combinations(sorted(nbrs), 2):
        common = sorted(nbrs[u1] & nbrs[u2])
        c = len(common)
        bf = c * (c - 1) // 2
        if not bf:
            continue
        total += bf
        per_u[u1] += bf
        per_u[u2] += bf
        for v in common:
            per_v[v] += c - 1
    return per_u, per_v, total
