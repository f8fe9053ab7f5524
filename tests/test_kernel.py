"""Tests for the NumPy CSR peel kernel and NumPy butterfly counting —
the sequential substrate everything else is validated against."""
import importlib
import sys
import zipfile
import zipimport
from importlib.machinery import FileFinder

import numpy as np
import pandas as pd
import pytest

from repro.core.bup import edges_to_numpy
from repro.core.kernel import (
    build_csr,
    count_butterflies_np,
    drop_zip_importers,
    gather,
    peel,
)

from .conftest import (
    SMALL_GRAPHS,
    brute_force_vertex_butterflies,
    complete_bipartite_pdf,
    random_pdf,
)


def test_build_csr_groups_and_sorts():
    src = np.array([2, 0, 2, 1, 0])
    dst = np.array([10, 11, 12, 13, 14])
    indptr, indices = build_csr(src, dst, 3)
    assert indptr.tolist() == [0, 2, 3, 5]
    assert sorted(indices[0:2].tolist()) == [11, 14]
    assert indices[2] == 13
    assert sorted(indices[3:5].tolist()) == [10, 12]


def test_build_csr_empty():
    indptr, indices = build_csr(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4)
    assert indptr.tolist() == [0, 0, 0, 0, 0]
    assert len(indices) == 0


def test_gather_concatenates():
    indptr, indices = build_csr(np.array([0, 0, 1, 2]), np.array([5, 6, 7, 8]), 3)
    out = gather(indptr, indices, np.array([0, 2]))
    assert sorted(out.tolist()) == [5, 6, 8]


def test_gather_empty_keys():
    indptr, indices = build_csr(np.array([0]), np.array([5]), 2)
    assert len(gather(indptr, indices, np.array([], dtype=np.int64))) == 0
    assert len(gather(indptr, indices, np.array([1]))) == 0


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_counting_vs_bruteforce(name):
    pdf = SMALL_GRAPHS[name]()
    n_u, n_v, eu, ev, u_ids, v_ids = edges_to_numpy(pdf)
    bu, bv, total, _ = count_butterflies_np(n_u, n_v, eu, ev)
    ref_u, ref_v, ref_total = brute_force_vertex_butterflies(pdf)
    assert total == ref_total
    for i, uid in enumerate(u_ids):
        assert bu[i] == ref_u[uid], uid
    for i, vid in enumerate(v_ids):
        assert bv[i] == ref_v[vid], vid


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_counting_side_invariance(name):
    """Enumerating U-pairs or V-pairs must give identical results."""
    pdf = SMALL_GRAPHS[name]()
    n_u, n_v, eu, ev, _, _ = edges_to_numpy(pdf)
    u1, v1, t1, _ = count_butterflies_np(n_u, n_v, eu, ev, enumerate_side="u")
    u2, v2, t2, _ = count_butterflies_np(n_u, n_v, eu, ev, enumerate_side="v")
    assert t1 == t2
    assert (u1 == u2).all() and (v1 == v2).all()


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_counting_sum_identity(name):
    """sum_u b_u == sum_v b_v == 2 * total (each butterfly has 2 U and 2 V)."""
    pdf = SMALL_GRAPHS[name]()
    n_u, n_v, eu, ev, _, _ = edges_to_numpy(pdf)
    bu, bv, total, _ = count_butterflies_np(n_u, n_v, eu, ev)
    assert bu.sum() == 2 * total
    assert bv.sum() == 2 * total


@pytest.mark.parametrize("a,b", [(2, 2), (3, 4), (4, 4), (5, 3)])
def test_counting_complete_bipartite_closed_form(a, b):
    pdf = complete_bipartite_pdf(a, b)
    n_u, n_v, eu, ev, _, _ = edges_to_numpy(pdf)
    bu, bv, total, _ = count_butterflies_np(n_u, n_v, eu, ev)
    cb2 = b * (b - 1) // 2
    ca2 = a * (a - 1) // 2
    assert total == ca2 * cb2
    assert (bu == (a - 1) * cb2).all()
    assert (bv == (b - 1) * ca2).all()


@pytest.mark.parametrize("name", ["star", "path"])
def test_counting_zero_butterflies(name):
    pdf = SMALL_GRAPHS[name]()
    n_u, n_v, eu, ev, _, _ = edges_to_numpy(pdf)
    bu, bv, total, _ = count_butterflies_np(n_u, n_v, eu, ev)
    assert total == 0 and not bu.any() and not bv.any()


def _peel_pdf(pdf, **kw):
    n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(pdf)
    bu, _, _, _ = count_butterflies_np(n_u, n_v, eu, ev)
    tips, st = peel(n_u, n_v, eu, ev, bu, **kw)
    return pd.DataFrame({"u": u_ids, "tip": tips}), st


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("dgm", [False, True])
def test_batch_equals_sequential(name, dgm):
    """ParB batch rounds and sequential BUP produce identical tips."""
    pdf = SMALL_GRAPHS[name]()
    seq, _ = _peel_pdf(pdf, batch=False)
    bat, _ = _peel_pdf(pdf, batch=True, dgm=dgm)
    pd.testing.assert_frame_equal(
        seq.sort_values("u").reset_index(drop=True),
        bat.sort_values("u").reset_index(drop=True),
    )


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_dgm_preserves_tips_and_saves_wedges(name):
    pdf = SMALL_GRAPHS[name]()
    plain, st0 = _peel_pdf(pdf, batch=False, dgm=False)
    with_dgm, st1 = _peel_pdf(pdf, batch=False, dgm=True)
    pd.testing.assert_frame_equal(
        plain.sort_values("u").reset_index(drop=True),
        with_dgm.sort_values("u").reset_index(drop=True),
    )
    assert st1.wedges <= st0.wedges


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_sequential_wedge_identity(name):
    """Without DGM, total traversal == sum_u sum_{v in N_u} d_v (Λ^peel)."""
    pdf = SMALL_GRAPHS[name]()
    _, st = _peel_pdf(pdf, batch=False, dgm=False)
    dv = pdf.groupby("v").size()
    assert st.wedges == int(pdf["v"].map(dv).sum())


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_sequential_round_count(name):
    """Sequential mode peels exactly one vertex per round."""
    pdf = SMALL_GRAPHS[name]()
    _, st = _peel_pdf(pdf, batch=False)
    assert st.rounds == pdf["u"].nunique()


def test_tips_nondecreasing_in_peel_order():
    pdf = random_pdf(25, 20, 120, seed=9)
    n_u, n_v, eu, ev, _, _ = edges_to_numpy(pdf)
    bu, _, _, _ = count_butterflies_np(n_u, n_v, eu, ev)
    tips, st = peel(n_u, n_v, eu, ev, bu, batch=False, record_order=True)
    order_tips = [tips[u] for u in st.peel_order]
    assert order_tips == sorted(order_tips)


def test_complete_bipartite_tips_closed_form():
    a, b = 4, 5
    tips, _ = _peel_pdf(complete_bipartite_pdf(a, b), batch=False)
    assert (tips["tip"] == (a - 1) * (b * (b - 1) // 2)).all()


def test_peel_rejects_bad_support_shape():
    with pytest.raises(ValueError):
        peel(3, 2, np.array([0, 1]), np.array([0, 1]), np.array([1, 2]), batch=False)


def test_peel_empty_graph_vertex_only():
    """Vertices with no butterflies and no edges peel immediately at 0."""
    tips, st = peel(
        3, 1, np.array([0]), np.array([0]), np.zeros(3, dtype=np.int64), batch=True
    )
    assert (tips == 0).all()
    assert st.rounds == 1


def test_drop_zip_importers_keeps_zip_imports_working(tmp_path):
    """FD's task drops every cached zip importer, so the next task's
    ``importlib.invalidate_caches()`` re-reads no archive; directory
    finders stay cached, and a module not yet imported from a zip on the
    path still imports from it."""
    archive = tmp_path / "fd_probe.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("fd_probe_first.py", "X = 1\n")
        z.writestr("fd_probe_second.py", "Y = 2\n")
    names = ("fd_probe_first", "fd_probe_second")
    saved_path = list(sys.path)
    saved_cache = dict(sys.path_importer_cache)
    sys.path.insert(0, str(archive))
    try:
        assert importlib.import_module("fd_probe_first").X == 1
        cache = sys.path_importer_cache
        assert isinstance(cache[str(archive)], zipimport.zipimporter)
        finders = {p: f for p, f in cache.items() if isinstance(f, FileFinder)}
        assert finders
        drop_zip_importers()
        assert not [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]
        assert all(cache.get(p) is f for p, f in finders.items())
        second = importlib.import_module("fd_probe_second")
        assert second.Y == 2
        assert isinstance(second.__loader__, zipimport.zipimporter)
    finally:
        sys.path[:] = saved_path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(saved_cache)
        for name in names:
            sys.modules.pop(name, None)
