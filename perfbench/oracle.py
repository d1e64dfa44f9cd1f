"""Independent answer oracle for the benchmark (imports nothing from ``repro``).

Written from the VW-SDK paper (Rhe, Moon & Ko, DATE 2022) and
``docs/paper-map.md``; every formula is plain integer arithmetic so it
can be read against the paper line by line.

* eq. 1 (im2col): ``N_w * ceil(Kh*Kw*IC / rows) * ceil(OC / cols)`` with
  fine-grained row tiling (a kernel column may be cut mid-channel).
* eq. 3: ``N_PW = ceil(OFM_h / nw_h) * ceil(OFM_w / nw_w)`` where ``nw`` is
  the number of kernel windows a parallel window holds per axis.  Counting
  in window-index space (``PW = K + (nw - 1) * stride``) is the stride
  generalisation ``core/cycles.py`` documents; at stride 1 it is the
  paper's ``ceil((I - PW) / (PW - K + 1)) + 1``.  All sizes are over the
  padded IFM.
* eqs. 4-7: ``IC_t = min(floor(rows / PW_area), IC)``,
  ``AR = ceil(IC / IC_t)``, ``OC_t = min(floor(cols / N_w^P), OC)``,
  ``AC = ceil(OC / OC_t)``.
* eqs. 2/8: ``cycles = N_PW * AR * AC``.

Algorithm 1's optimum is checked by brute force over im2col and every
window; the chip checks use the min-max pipeline optimum, the least
bottleneck ``L`` with ``sum(repeats * AR * AC * ceil(n_pw / L)) <= arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Layer", "Breakdown", "im2col", "window_breakdown",
           "breakdown_for_window", "brute_force_min", "sdk",
           "minmax_bottleneck", "non_dominated", "TABLE_I", "TABLE_I_LAYERS",
           "table_i_totals"]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Layer:
    """Convolution geometry; sizes exclude padding, which is added on every side."""

    ifm_h: int
    ifm_w: int
    k_h: int
    k_w: int
    ic: int
    oc: int
    stride: int = 1
    padding: int = 0
    repeats: int = 1

    @property
    def padded_h(self) -> int:
        return self.ifm_h + 2 * self.padding

    @property
    def padded_w(self) -> int:
        return self.ifm_w + 2 * self.padding

    @property
    def ofm_h(self) -> int:
        return (self.padded_h - self.k_h) // self.stride + 1

    @property
    def ofm_w(self) -> int:
        return (self.padded_w - self.k_w) // self.stride + 1

    @classmethod
    def square(cls, ifm: int, k: int, ic: int, oc: int) -> "Layer":
        return cls(ifm, ifm, k, k, ic, oc)


@dataclass(frozen=True)
class Breakdown:
    """``(n_pw, ar, ac, ic_t, oc_t)`` of one mapping."""

    n_pw: int
    ar: int
    ac: int
    ic_t: int
    oc_t: int

    @property
    def cycles(self) -> int:
        return self.n_pw * self.ar * self.ac


def im2col(layer: Layer, rows: int, cols: int) -> Breakdown:
    """Eq. 1: one kernel per column, fine-grained row tiling.

    ``ic_t``/``oc_t`` follow Table I's reporting convention: the whole IC
    when one row tile suffices, else the whole channels one tile holds.
    """
    ar = ceil_div(layer.k_h * layer.k_w * layer.ic, rows)
    oc_t = min(cols, layer.oc)
    ic_t = layer.ic if ar == 1 else min(layer.ic, max(1, rows // (layer.k_h * layer.k_w)))
    return Breakdown(n_pw=layer.ofm_h * layer.ofm_w, ar=ar,
                     ac=ceil_div(layer.oc, oc_t), ic_t=ic_t, oc_t=oc_t)


def window_breakdown(layer: Layer, rows: int, cols: int,
                     pw_h: int, pw_w: int) -> Optional[Breakdown]:
    """Eqs. 3-8 for a ``pw_h x pw_w`` parallel window; ``None`` if infeasible."""
    if pw_h < layer.k_h or pw_w < layer.k_w:
        return None
    if pw_h > layer.padded_h or pw_w > layer.padded_w:
        return None
    if (pw_h - layer.k_h) % layer.stride or (pw_w - layer.k_w) % layer.stride:
        return None
    nw_h = (pw_h - layer.k_h) // layer.stride + 1
    nw_w = (pw_w - layer.k_w) // layer.stride + 1
    if layer.stride != 1 and (nw_h, nw_w) != (1, 1):
        return None  # the paper's window count is defined for stride 1
    ic_fit = rows // (pw_h * pw_w)                      # eq. 4
    oc_fit = cols // (nw_h * nw_w)                      # eq. 6
    if ic_fit == 0 or oc_fit == 0:
        return None
    ic_t = min(ic_fit, layer.ic)
    oc_t = min(oc_fit, layer.oc)
    n_pw = ceil_div(layer.ofm_h, nw_h) * ceil_div(layer.ofm_w, nw_w)  # eq. 3
    return Breakdown(n_pw=n_pw, ar=ceil_div(layer.ic, ic_t),          # eq. 5
                     ac=ceil_div(layer.oc, oc_t), ic_t=ic_t, oc_t=oc_t)  # eq. 7


def breakdown_for_window(layer: Layer, rows: int, cols: int,
                         pw_h: int, pw_w: int) -> Optional[Breakdown]:
    """The breakdown a reported window implies.

    A kernel-sized window is the im2col mapping (eq. 1, Algorithm 1's
    incumbent); any larger window is costed by eqs. 3-8.
    """
    if (pw_h, pw_w) == (layer.k_h, layer.k_w):
        return im2col(layer, rows, cols)
    return window_breakdown(layer, rows, cols, pw_h, pw_w)


def brute_force_min(layer: Layer, rows: int, cols: int) -> int:
    """Least cycles over im2col and every parallel window (stride 1).

    Windows are visited in growing width per height; once a window's area
    exceeds the rows (eq. 4 gives ``IC_t = 0``) or its kernel copies exceed
    the columns, every wider window is infeasible too, so the scan moves on.
    """
    best = im2col(layer, rows, cols).cycles
    for pw_h in range(layer.k_h, layer.padded_h + 1):
        if pw_h * layer.k_w > rows:
            break
        for pw_w in range(layer.k_w, layer.padded_w + 1):
            if pw_h * pw_w > rows or (pw_h - layer.k_h + 1) * (pw_w - layer.k_w + 1) > cols:
                break
            if (pw_h, pw_w) == (layer.k_h, layer.k_w):
                continue
            bd = window_breakdown(layer, rows, cols, pw_h, pw_w)
            if bd is not None and bd.cycles < best:
                best = bd.cycles
    return best


def sdk(layer: Layer, rows: int, cols: int) -> int:
    """Cycles of the square-window SDK baseline the paper compares against.

    Duplicate the kernel ``d x d`` times into a square ``K + d - 1`` window
    (rows tiled fine-grained, ``d^2 * OC`` columns) and grow ``d`` while
    neither the row nor the column tile count exceeds im2col's.
    """
    base = im2col(layer, rows, cols)
    best = base.cycles
    d = 2
    while True:
        pw = layer.k_h + d - 1
        if pw > layer.padded_h or layer.k_w + d - 1 > layer.padded_w:
            return best
        ar = ceil_div((layer.k_h + d - 1) * (layer.k_w + d - 1) * layer.ic, rows)
        ac = ceil_div(layer.oc * d * d, cols)
        if ar > base.ar or ac > base.ac:
            return best
        best = ceil_div(layer.ofm_h, d) * ceil_div(layer.ofm_w, d) * ar * ac
        d += 1


def minmax_bottleneck(stages: Sequence[Tuple[int, int, int]],
                      num_arrays: int) -> Optional[int]:
    """Least steady-state bottleneck ``L`` a chip of *num_arrays* reaches.

    *stages* holds ``(n_pw, tiles, repeats)`` per pipeline stage, with
    ``tiles = AR * AC`` arrays per replica.  A stage meets ``L`` with
    ``ceil(n_pw / L)`` replicas, so ``L`` is feasible iff
    ``sum(repeats * tiles * ceil(n_pw / L)) <= num_arrays``; the sum only
    falls as ``L`` grows, so bisection finds the least one.  ``None`` when
    even one replica per stage does not fit.
    """
    def need(bottleneck: int) -> int:
        return sum(r * t * ceil_div(n, bottleneck) for n, t, r in stages)

    hi = max(n for n, _, _ in stages)
    if need(hi) > num_arrays:
        return None
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if need(mid) <= num_arrays:
            hi = mid
        else:
            lo = mid + 1
    return lo


def non_dominated(points: Sequence[Tuple[float, float, float]]) -> bool:
    """Whether no point is dominated by another (all objectives minimised).

    A repeated objective vector counts as dominated.  A dominator sorts
    lexicographically before the point it dominates, so each point is only
    compared with the points before it.
    """
    pts = sorted(points)
    for i, (_, b, c) in enumerate(pts):
        if i and pts[i - 1] == pts[i]:
            return False
        for _, qb, qc in pts[:i]:
            if qb <= b and qc <= c:
                return False
    return True


#: Table I of the paper at a 512x512 array: total computing cycles.
TABLE_I: Dict[str, Dict[str, int]] = {
    "resnet18": {"vw-sdk": 4294, "sdk": 7240, "im2col": 20041},
    "vgg13": {"vw-sdk": 77102, "sdk": 114697, "im2col": 243736},
}

#: Table I's layer rows (stride 1, IFM as printed), one entry per distinct shape.
TABLE_I_LAYERS: Dict[str, List[Layer]] = {
    "resnet18": [Layer.square(112, 7, 3, 64), Layer.square(56, 3, 64, 64),
                 Layer.square(28, 3, 128, 128), Layer.square(14, 3, 256, 256),
                 Layer.square(7, 3, 512, 512)],
    "vgg13": [Layer.square(224, 3, 3, 64), Layer.square(224, 3, 64, 64),
              Layer.square(112, 3, 64, 128), Layer.square(112, 3, 128, 128),
              Layer.square(56, 3, 128, 256), Layer.square(56, 3, 256, 256),
              Layer.square(28, 3, 256, 512), Layer.square(28, 3, 512, 512),
              Layer.square(14, 3, 512, 512), Layer.square(14, 3, 512, 512)],
}


def table_i_totals(network: str, rows: int = 512, cols: int = 512) -> Dict[str, int]:
    """Network totals recomputed by this oracle (compare with :data:`TABLE_I`)."""
    layers = TABLE_I_LAYERS[network]
    return {"vw-sdk": sum(brute_force_min(l, rows, cols) for l in layers),
            "sdk": sum(sdk(l, rows, cols) for l in layers),
            "im2col": sum(im2col(l, rows, cols).cycles for l in layers)}
