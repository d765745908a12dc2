"""Adaptive composite Gauss-Legendre quadrature.

All integrands in this package are piecewise smooth, so fixed high-order
panels (16 nodes) refined globally (always bisect the interval with the
largest error estimate) dominate any fancier rule.  Integrands must be
vectorized over the node array and may return either scalars per node
(shape ``(m,)``) or vectors (shape ``(m, ...)``); the integral keeps the
trailing shape.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureNonConvergent

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel(fn, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * GAUSS_NODES), dtype=float)
    return half * np.tensordot(GAUSS_WEIGHTS, vals, axes=(0, 0))


def adaptive_gauss_legendre(fn, a: float, b: float, tol: float = 1e-10,
                            max_depth: int = 30):
    """Signed integral of ``fn`` over ``[a, b]`` to absolute tolerance ``tol``.

    Each interval carries the disagreement between its one-panel value and
    the sum of its two half-panels as an error estimate; the interval with
    the worst estimate is bisected until the estimates sum below ``tol``.
    Raises QuadratureNonConvergent if the worst interval has already been
    bisected ``max_depth`` times and the budget is still not met.
    """
    if a == b:
        probe = np.asarray(fn(np.array([0.5 * (a + b)])), dtype=float)
        return np.zeros(probe.shape[1:]) if probe.ndim > 1 else 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def make(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _panel(fn, lo, mid)
        right = _panel(fn, mid, hi)
        value = left + right
        err = float(np.max(np.abs(value - whole)))
        return {"lo": lo, "hi": hi, "mid": mid, "left": left, "right": right,
                "value": value, "err": err, "depth": depth}

    root = make(a, b, _panel(fn, a, b), 0)
    heap = [(-root["err"], 0, root)]
    counter = 1
    total_err = root["err"]
    while total_err > tol:
        _, _, node = heapq.heappop(heap)
        if node["depth"] >= max_depth:
            raise QuadratureNonConvergent(
                f"no convergence on [{node['lo']}, {node['hi']}] at depth "
                f"{node['depth']} (remaining error {total_err:.3e} > {tol:.3e})")
        total_err -= node["err"]
        for lo, hi, whole in ((node["lo"], node["mid"], node["left"]),
                              (node["mid"], node["hi"], node["right"])):
            child = make(lo, hi, whole, node["depth"] + 1)
            total_err += child["err"]
            heapq.heappush(heap, (-child["err"], counter, child))
            counter += 1
    total = None
    for _, _, node in heap:
        total = node["value"] if total is None else total + node["value"]
    return sign * total

