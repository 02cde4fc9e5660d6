"""The dense key-reuse contraction that acceptance criterion 2 replaced
with one 2-D product per unit, kept as its differential oracle.

For each coupled unit, AB is the sum of a dense rt tensor, indexed
(v, x, y) and counting the w with v -> w total, x -> w the right
composite and y -> w of the third kind, times a boolean lt tensor on
the same indices, true where v -> x, x -> y and the left composite
v -> y are arrows.  One rt is built per distinct (total, right
composite, k3) key; sorting the units groups the reuses.  A and B are
the same matrix products as in the library."""

import numpy as np

from gradedcenter.acceptance import _composable_triples, _resolve
from gradedcenter.model import KIND_TABLE, ModelParams


def dense_assoc_counts(params: ModelParams, mats: dict) -> dict:
    """{label: (A, AB, B)} for every kind-triple unit, in loop order, on
    the arrow matrices of _arrow_matrices."""
    matsf = {k: M.astype(np.float32) for k, M in mats.items()}
    counts = {}
    pending = []
    for k1, k2, k3 in _composable_triples(params):
        f1, f2, d1, s1 = KIND_TABLE[k1]
        _, f3, d2, s2 = KIND_TABLE[k2]
        _, f4, d3, s3 = KIND_TABLE[k3]
        for i1 in range(params.r):
            i2 = (i1 + s1) % params.r
            i3 = (i2 + s2) % params.r
            i4 = (i3 + s3) % params.r
            label = f"{k1}*{k2}*{k3} at i={i1}"
            counts[label] = (0, 0, 0)
            total = _resolve(params, f1, f4, d1 + d2 + d3, i1, i4)
            if total is None:
                continue  # both nestings vanish identically
            q12 = _resolve(params, f1, f3, d1 + d2, i1, i3)
            q23 = _resolve(params, f2, f4, d2 + d3, i2, i4)
            M1, M2, M3 = matsf[(k1, i1)], matsf[(k2, i2)], matsf[(k3, i3)]
            G = matsf[total]
            A = B = 0
            if q23 is not None:
                A = int(((M1.T @ G) * matsf[q23] * (M2 @ M3)).sum(dtype=np.float64))
            if q12 is not None:
                B = int(((M1 @ M2) * matsf[q12] * (G @ M3.T)).sum(dtype=np.float64))
            if A == 0 and B == 0:
                continue
            if q12 is None or q23 is None:
                # one nesting is identically zero, the other is not
                counts[label] = (A, 0, B)
                continue
            key = (total, q23, (k3, i3))
            pending.append((key, label, (k1, i1), (k2, i2), q12, A, B))
    # one w-contraction per distinct key; sorting groups the reuses
    pending.sort(key=lambda item: item[0])
    rt_key = None
    rt = None
    for key, label, m1key, m2key, q12, A, B in pending:
        if key != rt_key:
            G, Q, M = (matsf[k] for k in key)
            rt = (G[:, None, :] * Q[None, :, :]).reshape(-1, G.shape[0]) @ M.T
            rt = rt.reshape(G.shape[0], G.shape[0], G.shape[0])
            rt_key = key
        lt = mats[m1key][:, :, None] & mats[m2key][None, :, :] & mats[q12][:, None, :]
        AB = int((rt * lt).sum(dtype=np.float64))
        counts[label] = (A, AB, B)
    return counts
