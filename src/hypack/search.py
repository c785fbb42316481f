"""Pigeonhole search for far-apart geodesic balls with near-coincident images.

The pipeline per ambient radius R: generate the 2-plane packing family of
radius-C balls inside B(o, R), evaluate the map at the centers, extract a
maximal 1/C-separated subfamily of images, assign every leftover center to
its nearest selected image, and look for a fiber with at least k members.
Since the family grows like sinh(R-C) while the separated subfamily is
polynomially bounded in R, some fiber outgrows any k once R is large
enough; the k members then have pairwise manifold distance >= 2C and image
distance < 2/C.

A Hausdorff search runs this pipeline on the plain map first and accepts a
window only on its measured bound of conclusion (iii), the net images of
its k balls; the net is transported to those k centers alone.  Only if
that ladder is exhausted does it run the paper's construction, the
pipeline on the map augmented over the net, whose fibers bound (iii) as R
grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# numpy loads numpy.random on first use (about 11 ms); load it here, at import
# time, so that it stays out of the first certification (its seeded sampler)
import numpy.random  # noqa: F401

from hypack.geometry import EXP_RADIUS_MAX, HPoint, PolarBatch, exp_rows, sample_ball, transport_frame
from hypack.maps import LipschitzMapHandle
from hypack.nets import NetTemplate, build_reference_net, check_net_size, transport_net
from hypack.packing import CAP_MAX, generate_centers, min_lag_distance, packing_angle

__all__ = [
    "BunchedConfiguration",
    "Certificate",
    "PrefilterKeys",
    "SAMPLES_MAX",
    "ScheduleExhausted",
    "SearchParams",
    "SeparatedFamily",
    "ThetaFibers",
    "augment_map",
    "choose_C_hausdorff",
    "choose_C_setdist",
    "corollary_sequences",
    "counting_upper_bound",
    "certificate_net",
    "certify_configuration",
    "check_samples",
    "default_schedule",
    "find_bunched_configuration",
    "greedy_separated_subfamily",
    "hausdorff_distance_estimate",
    "prefilter_keys",
    "theta_assignment",
]


class ScheduleExhausted(RuntimeError):
    """The R schedule ended before any fiber reached k members.

    The underlying theorem guarantees success as R -> infinity; a finite
    schedule may simply stop too early.  Diagnostics carry the per-R fiber
    statistics observed.
    """

    def __init__(self, message: str, diagnostics: list[dict]):
        super().__init__(message)
        self.diagnostics = diagnostics


def choose_C_setdist(r: float, epsilon: float) -> float:
    """Separation scale for the set-distance conclusion: C = 2(2 r eps + 1)/eps."""
    _check_r_eps(r, epsilon)
    return 2.0 * (2.0 * r * epsilon + 1.0) / epsilon


def choose_C_hausdorff(r: float, epsilon: float) -> float:
    """Separation scale for the Hausdorff conclusion:
    C = max{(2 r eps + 1)/(2 eps), 4/eps}."""
    _check_r_eps(r, epsilon)
    return max((2.0 * r * epsilon + 1.0) / (2.0 * epsilon), 4.0 / epsilon)


def _check_r_eps(r: float, epsilon: float):
    if not 0.0 < r < math.inf:
        raise ValueError(f"ball radius r must be finite and > 0 (got {r})")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


#: Most rungs default_schedule makes.
_MAX_RUNGS = 24


def default_schedule(C: float, cap: int) -> tuple[float, ...]:
    """Geometric ladder R_i = 2C + 2 * 2^i, at most _MAX_RUNGS rungs.

    The excess over 2C doubles per rung; the ladder stops once the uncapped
    family size would exceed 10x the cap (one final rung past that bound is
    kept, since subsampling preserves the separation invariant).
    """
    rungs = []
    excess = 2.0
    for _ in range(_MAX_RUNGS):
        R = 2.0 * C + excess
        rungs.append(R)
        try:
            alpha = packing_angle(C, R)
        except ArithmeticError:
            break
        if math.pi / alpha > 10.0 * cap:
            break
        excess *= 2.0
    return tuple(rungs)


@dataclass(frozen=True)
class SearchParams:
    """Search parameters; C is derived from (r, epsilon, hausdorff) by the chooser.

    The dimension is the map's.  R_schedule is derived too: the default
    ladder for C and cap, less the rungs above R_max (keeping
    min(first rung, R_max) if none is left).
    """

    r: float
    epsilon: float
    k: int
    hausdorff: bool = False
    cap: int = 100_000
    R_max: float | None = None
    R_schedule: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        _check_r_eps(self.r, self.epsilon)
        if self.k < 2:
            raise ValueError("SearchParams: k must be >= 2")
        if not 2 <= self.cap <= CAP_MAX:
            raise ValueError(f"SearchParams: cap must lie in [2, {CAP_MAX:,}] (got {self.cap})")
        if self.R_max is not None and math.isnan(self.R_max):
            raise ValueError("SearchParams: R_max must not be NaN")
        if 2.0 * self.C + 2.0 <= 2.0 * self.C:
            raise ValueError(
                f"SearchParams: r is too large (r={self.r}, epsilon={self.epsilon}): "
                f"the first rung R = 2C + 2 rounds to 2C"
            )
        sched = default_schedule(self.C, self.cap)
        if self.R_max is not None:
            sched = tuple(R for R in sched if R <= self.R_max) or (min(sched[0], self.R_max),)
        if any(R <= 2.0 * self.C for R in sched):
            raise ValueError("SearchParams: every R must exceed 2C")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("SearchParams: R schedule must be increasing")
        object.__setattr__(self, "R_schedule", sched)

    @property
    def C(self) -> float:
        """The chooser's separation scale for the set-distance or the Hausdorff conclusion."""
        return (choose_C_hausdorff if self.hausdorff else choose_C_setdist)(self.r, self.epsilon)

    def check_first_rung(self) -> None:
        """Refuse (ValueError) a schedule whose first rung puts its centers,
        at radius R - C, beyond EXP_RADIUS_MAX, where exp_rows cannot make them."""
        radius = self.R_schedule[0] - self.C
        if radius > EXP_RADIUS_MAX:
            raise ValueError(
                f"SearchParams: r is too large (r={self.r}, epsilon={self.epsilon}): the first"
                f" rung puts its centers at radius {radius:.4g}, which exceeds the representable"
                f" range (radius {EXP_RADIUS_MAX:g})"
            )


def _certificate_net_args(F: LipschitzMapHandle, r: float, epsilon: float) -> tuple:
    """(rho, delta, m) of the certificate net: delta = epsilon/(2L), so the net
    slack L*delta of conclusion (iii) is epsilon/2."""
    return r, epsilon / (2.0 * F.L), F.m


def certificate_net(F: LipschitzMapHandle, r: float, epsilon: float) -> NetTemplate:
    """The reference net of the certificate: radius r, spacing delta = epsilon/(2L),
    so the net slack L*delta of conclusion (iii) is epsilon/2."""
    return build_reference_net(*_certificate_net_args(F, r, epsilon))


#: Relative slack of every prefilter bound below: it covers cdist's rounding
#: of a distance against the exact one (gamma_(n+2), under 1e-9 for widths n
#: up to 10^6) and the rounding of the bound's own evaluation.
_TREE_SLACK = 1e-9

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k accumulated roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


#: Leading columns of the block sum that the pigeonhole scans bucket in
#: :class:`_CellGrid` (see :func:`prefilter_keys`).
_PREFILTER_COLUMNS = 3


@dataclass(frozen=True)
class PrefilterKeys:
    """Neighbour-index keys of image rows, and the reach that keeps them an
    exact prefilter.

    For images made of l blocks of n columns, the key of a row x is the
    leading min(_PREFILTER_COLUMNS, n) columns of the scaled block sum
    S(x) = l^(-1/2) (x_1 + ... + x_l).  S has orthonormal rows, so
    |S(x) - S(y)| <= |x - y|: a pair that cdist puts below a limit is closer
    than that limit in exact arithmetic, up to cdist's own rounding, and so
    are its exact keys.  ``rounding`` bounds how far the computed keys of
    two rows can move their distance (see :func:`prefilter_keys`); a plain
    map (l = 1) has its leading columns as keys, exact, and a zero term.
    """

    keys: np.ndarray
    rounding: float

    def reach(self, limit: float) -> float:
        """A key distance that every pair cdist puts below `limit` keeps in
        exact arithmetic: _TREE_SLACK covers cdist's rounding, `rounding`
        the rounding of the keys themselves."""
        return limit * (1.0 + _TREE_SLACK) + self.rounding


def prefilter_keys(images: np.ndarray, blocks: int = 1) -> PrefilterKeys:
    """The prefilter keys of image rows made of `blocks` blocks of equal width.

    With l = `blocks` and M = max |x| over the images, each computed key
    coordinate is l^(-1/2)(1 + theta_3) times the computed block sum, which
    is off the exact sum by at most gamma_(l-1) (|x_1| + ... + |x_l|) <=
    gamma_(l-1) l M in any summation order (gamma_k = k u / (1 - k u), u the
    unit roundoff); so it is off the exact S by at most sqrt(l) M
    gamma_(l+2).  Two rows' computed keys of w coordinates are then off by at
    most 2 sqrt(w l) M gamma_(l+2) in distance.  That bound, widened by
    _TREE_SLACK for its own evaluation, is ``rounding``.  The keys of one
    block are its leading columns, a view, with no rounding.
    """
    rows, width = images.shape
    if blocks < 1 or width % blocks:
        raise ValueError(f"prefilter_keys: width {width} is not a multiple of {blocks} blocks")
    n = width // blocks
    w = min(_PREFILTER_COLUMNS, n)
    if blocks == 1:
        return PrefilterKeys(keys=images[:, :w], rounding=0.0)
    keys = images.reshape(rows, blocks, n)[:, :, :w].sum(axis=1)
    keys *= 1.0 / math.sqrt(blocks)
    bound = max(images.max(), -images.min())  # no |images| temporary
    rounding = (1.0 + _TREE_SLACK) * 2.0 * math.sqrt(w * blocks) * float(bound) * _gamma(blocks + 2)
    return PrefilterKeys(keys=keys, rounding=rounding)


#: Largest cell code of a :class:`_CellGrid`; codes and their neighbour
#: offsets then stay inside int64.
_CODE_MAX = 2**62


class _CellGrid:
    """A fixed-radius neighbour index over prefilter keys (a cell list:
    Bentley, Stanat and Williams, IPL 1977).

    Every key row is bucketed in an axis cube of side s; a query row's
    neighbours are the indexed rows of the 3^w cubes around its own.  With
    s = (reach + 2^-50 D)(1 + 2^-50), D the largest column span of the keys
    and reach = keys.reach(limit), that lists every pair that cdist puts
    below `limit`:

    - Such a pair is within reach in every key column, in exact arithmetic
      (:class:`PrefilterKeys`).
    - A row's cube coordinate is floor(fl(fl(x - lo) / s)), lo the column
      minimum.  Two roundings of relative size u put the computed quotient
      within gamma_2 D / s of (x - lo) / s, so the quotients of a pair within
      reach differ by at most (reach + 2 gamma_2 D) / s <= 1, since
      2^-50 = 8u exceeds 2 gamma_2 and the factor 1 + 2^-50 covers the
      rounding of s and D themselves.  Floors of numbers at most 1 apart
      differ by at most 1.
    - The quotients are at most D / s <= 2^50, so the coordinates are exact
      int64 values.  No cube is ever allocated: a cube is named by a code,
      the coordinates (shifted by one) in mixed radix, and the rows are
      sorted by code.  Over the last key column the 3 neighbour cubes are
      consecutive codes, so one pair of binary searches per offset in the
      other columns (3^(w-1) of them) finds their rows.
    - If the mixed-radix codes could pass _CODE_MAX (spans of millions of
      cubes), each column's coordinates are first renumbered in order with
      gaps capped at 3, which keeps every difference of at most 1 as it is
      and every larger one at least 2; if they still could, they are divided
      by a power of two, which keeps neighbours neighbours.

    The grid spans every row of `keys`, queries included, so a query row
    outside the indexed rows' box simply finds no cube.
    """

    def __init__(self, keys: PrefilterKeys, limit: float):
        K = keys.keys
        lo = K.min(axis=0)
        span = float(np.max(K.max(axis=0) - lo))
        side = (max(keys.reach(limit), 0.0) + span * 2.0**-50) * (1.0 + 2.0**-50)
        if 0.0 < side < math.inf:
            cells = np.floor((K - lo) / side).astype(np.int64)
        else:  # unbounded keys or an empty reach: one cube holds every row
            cells = np.zeros(K.shape, dtype=np.int64)
        if math.prod(int(top) + 3 for top in cells.max(axis=0)) > _CODE_MAX:
            cells = _renumber(cells)
        shape = [int(top) + 3 for top in cells.max(axis=0)]
        strides = [math.prod(shape[c + 1 :]) for c in range(len(shape))]
        self.codes = (cells + 1) @ np.array(strides, dtype=np.int64)
        steps = np.zeros(1, dtype=np.int64)
        for stride in strides[:-1]:
            steps = (steps[:, None] + np.array([-stride, 0, stride])).ravel()
        self.steps = steps

    def neighbours(self, a: np.ndarray, b: np.ndarray):
        """(cell, indptr, rows): rows[indptr[cell[t]]:indptr[cell[t] + 1]]
        are the positions in `b` of the rows in the cubes around row a[t]."""
        indexed = self.codes[b]
        order = np.argsort(indexed)
        indexed = indexed[order]
        queried, cell = np.unique(self.codes[a], return_inverse=True)
        needles = self.steps[:, None] + queried  # sorted along each offset
        first = np.searchsorted(indexed, (needles - 1).ravel(), "left")
        count = np.searchsorted(indexed, (needles + 1).ravel(), "right") - first
        first = first.reshape(needles.shape).T.ravel()  # cube-major
        count = count.reshape(needles.shape).T
        indptr = np.concatenate(([0], np.cumsum(count.sum(axis=1))))
        return cell, indptr, order[_ranges(first, count.ravel())]


def _renumber(cells: np.ndarray) -> np.ndarray:
    """Cube coordinates renumbered per column with gaps capped at 3, then
    halved until their mixed-radix codes stay below _CODE_MAX."""
    columns = []
    for column in cells.T:
        values, inverse = np.unique(column, return_inverse=True)
        columns.append(np.concatenate(([0], np.cumsum(np.minimum(np.diff(values), 3))))[inverse])
    cells = np.column_stack(columns)
    while math.prod(int(top) + 3 for top in cells.max(axis=0)) > _CODE_MAX:
        cells //= 2
    return cells


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of arange(f, f + c) over the pairs of `first` and `count`."""
    ends = np.cumsum(count)
    return np.repeat(first - ends + count, count) + np.arange(ends[-1] if len(ends) else 0)


#: Elements (rows times width) of one temporary array in the exact rechecks
#: and the distance prefilters; bounds their memory at any candidate count.
_RECHECK_ELEMENTS = 1 << 16


def _recheck_chunks(rows: np.ndarray, width: int):
    """`rows` in consecutive pieces of at most _RECHECK_ELEMENTS // width rows."""
    step = max(1, _RECHECK_ELEMENTS // width)
    for lo in range(0, len(rows), step):
        yield slice(lo, lo + step)


def _pair_cdist(A: np.ndarray, a: np.ndarray, B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cdist(A[a[t]], B[b[t]]) for each t, with the bits of scipy's euclidean
    cdist: the squared column differences summed in column order, then sqrt
    (np.add.accumulate is sequential by definition, unlike add.reduce)."""
    out = np.empty(len(a))
    for part in _recheck_chunks(a, A.shape[1]):
        d = A[a[part]] - B[b[part]]
        d *= d
        out[part] = np.add.accumulate(d, axis=1)[:, -1]
    return np.sqrt(out)


def _close_pairs(images: np.ndarray, grid: _CellGrid, a: np.ndarray, b: np.ndarray, limit: float):
    """(t, u, d) for every pair of images[a[t]] and images[b[u]] that cdist
    puts below `limit`, with d the cdist value.

    Exact: `grid`, built for a limit of at least `limit`, lists every such
    pair among the rows of the cubes around each images[a[t]], and the
    candidates are measured with cdist's bits.
    """
    cell, indptr, rows = grid.neighbours(a, b)
    count = indptr[cell + 1] - indptr[cell]
    t = np.repeat(np.arange(len(a)), count)
    u = rows[_ranges(indptr[cell], count)]
    d = _pair_cdist(images, a[t], images, b[u])
    below = d < limit
    return t[below], u[below], d[below]


def _nearest_below(
    images: np.ndarray, grid: _CellGrid, a: np.ndarray, b: np.ndarray, limit: float
) -> np.ndarray:
    """Position in `b` of the image nearest to each images[a[t]] under cdist,
    the lowest position on ties; -1 where no image of `b` is closer than
    `limit`.

    Equals np.argmin(cdist(images[a], images[b]), axis=1) wherever that
    minimum is below `limit`, since :func:`_close_pairs` lists every such
    pair.
    """
    t, u, d = _close_pairs(images, grid, a, b, limit)
    best = np.full(len(a), np.inf)
    np.minimum.at(best, t, d)
    tied = d == best[t]
    nearest = np.full(len(a), len(b))
    np.minimum.at(nearest, t[tied], u[tied])
    nearest[nearest == len(b)] = -1
    return nearest


@dataclass(frozen=True)
class SeparatedFamily:
    """Maximal subfamily whose images are pairwise >= separation apart.

    ``selected`` holds positions into the scanned image rows.  Property a)
    (pairwise separation) and b) (maximality: every other image lies within
    the separation of a selected one) hold by construction of the greedy
    scan.  :func:`theta_assignment`, which needs b) anyway, checks both for
    any family it is given, with the decisions of the full cdist scans.
    """

    selected: np.ndarray
    separation: float


def greedy_separated_subfamily(
    images, sep: float, keys: PrefilterKeys | None = None
) -> SeparatedFamily:
    """Scan in index order; keep a center iff its image clears all kept images.

    The output satisfies separation by the acceptance test and maximality
    because every rejected image was within `sep` of some kept one.

    Image i is kept iff no kept image j < i has
    np.linalg.norm(images[j] - images[i]) < sep.  Rather than measure each
    image against every kept one, each kept image rejects the later images
    close to it, so only close pairs are ever measured:

    - A pair that close in full is within keys.reach(sep) in the prefilter
      keys (:func:`prefilter_keys`; `keys` defaults to those of one block,
      the leading columns), so it lies in neighbouring cubes of one
      :class:`_CellGrid`, whose per-cube lists of neighbour rows are built
      once.
    - Each candidate is rechecked with the scan's own predicate.
      np.linalg.norm(..., axis=1) reduces every row by itself, so a row has
      the same bits in any number of rows.
    - Images alone in their 3^w cubes are kept without a look: nothing is
      close to them.

    Python runs one boolean step per image with a neighbour in its cubes
    and one slice of the neighbour lists per kept image.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 2 or len(images) == 0 or not np.all(np.isfinite(images)):
        raise ValueError("greedy_separated_subfamily: images must be a non-empty finite 2-d array")
    if sep <= 0.0:
        raise ValueError("greedy_separated_subfamily: sep must be > 0")
    keys = prefilter_keys(images) if keys is None else keys
    every = np.arange(len(images))
    cell, indptr, rows = _CellGrid(keys, sep).neighbours(every, every)
    first, stop = indptr[cell], indptr[cell + 1]
    rejected = np.zeros(len(images), dtype=bool)
    for i in np.flatnonzero(stop - first > 1).tolist():
        if rejected[i]:
            continue
        later = rows[first[i] : stop[i]]
        later = later[later > i]
        for part in _recheck_chunks(later, images.shape[1]):
            close = later[part]
            rejected[close[np.linalg.norm(images[i] - images[close], axis=1) < sep]] = True
    selected = np.flatnonzero(~rejected)
    return SeparatedFamily(selected=selected, separation=sep)


def counting_upper_bound(R: float, C: float, L: float, n: int) -> float:
    """Volume bound on a 1/C-separated image family: (3 C L R + 1)^n.

    Disjoint 1/(3C)-balls around the selected images fit inside the ball of
    radius L*R + 1/(3C) around the image of the packing center; the unit
    ball constant cancels.  Evaluated in log-domain; inf on overflow.
    """
    if R <= 0.0 or C <= 0.0 or L < 0.0 or n < 1:
        raise ValueError("counting_upper_bound: need positive R, C, n and L >= 0")
    log_bound = n * math.log1p(3.0 * C * L * R)
    if log_bound > 709.0:
        return math.inf
    return math.exp(log_bound)


@dataclass(frozen=True)
class ThetaFibers:
    """Assignment of each leftover center to its nearest selected image:
    selected position -> its leftover positions, in order."""

    fibers: dict[int, list[int]]

    @property
    def largest(self) -> tuple[int, list[int]]:
        if not self.fibers:
            return -1, []
        anchor = max(self.fibers, key=lambda a: (len(self.fibers[a]), -a))
        return anchor, self.fibers[anchor]


def theta_assignment(
    fam: SeparatedFamily, images, keys: PrefilterKeys | None = None
) -> ThetaFibers:
    """Map every non-selected image row to the nearest selected image.

    Ties break toward the lowest selected index.  This is also the one check
    of the family, decided as by the full cdist scans; AssertionError names
    the property that fails.  Both checks list their candidates in one
    :class:`_CellGrid` over the prefilter keys (:func:`prefilter_keys`;
    `keys` defaults to those of one block, the leading columns), built for
    the larger of their two limits:

    - separation: no two selected images closer than separation - 1e-12
      under cdist.  Every such pair lies in neighbouring cubes of the grid,
      so :func:`_close_pairs` lists it and cdist's bits decide it.  The
      check therefore fails exactly when an off-diagonal entry of
      cdist(selected, selected) is below the limit.
    - maximality: every leftover has a selected image closer than
      separation + 1e-12.  Its nearest one is the argmin of its cdist row,
      found among the candidates of the same grid (:func:`_nearest_below`),
      so only close pairs are measured.
    """
    images = np.asarray(images, dtype=float)
    keys = prefilter_keys(images) if keys is None else keys
    sel = fam.selected
    grid = _CellGrid(keys, fam.separation + 1e-12)
    t, u, _ = _close_pairs(images, grid, sel, sel, fam.separation - 1e-12)
    if np.any(t != u):
        raise AssertionError("theta_assignment: separation violated")
    mask = np.ones(len(images), dtype=bool)
    mask[sel] = False
    leftovers = np.nonzero(mask)[0]
    fibers: dict[int, list[int]] = {}
    if leftovers.size == 0:
        return ThetaFibers(fibers)
    nearest = _nearest_below(images, grid, leftovers, sel, fam.separation + 1e-12)
    if np.any(nearest < 0):
        raise AssertionError("theta_assignment: maximality violated")
    for pos, anchor in zip(leftovers.tolist(), sel[nearest].tolist()):
        fibers.setdefault(anchor, []).append(pos)
    return ThetaFibers(fibers)


#: Rows one transport_net call of the augmented map may make: its blocks hold
#: max(1, _AUGMENT_BLOCK_ROWS // l) basepoints, which bounds the memory of the
#: transported rows and their images.
_AUGMENT_BLOCK_ROWS = 32_768


def augment_map(F: LipschitzMapHandle, net: NetTemplate) -> LipschitzMapHandle:
    """Concatenate F over the transported net: p -> (F(sigma_1 p), ..., F(sigma_l p)).

    Each sigma_j moves points at most e^rho times as fast as p moves (the
    equidistant-curve stretch plus frame rotation), so sqrt(l) L e^rho is a
    sound declared constant; the counting bound uses the tighter affine
    form sqrt(l) L (R + 2 rho) directly.

    The map transports the net to a block of basepoints with one
    transport_net call, maps the block's rows with one F.fn call and
    reshapes them to (block, l*n); each row has the bits of the one-point
    evaluation.
    """
    block = max(1, _AUGMENT_BLOCK_ROWS // net.l)
    width = F.n * net.l

    def fn(pts: PolarBatch) -> np.ndarray:
        out = np.empty((len(pts), width))
        for lo in range(0, len(pts), block):
            out[lo : lo + block] = F.fn(transport_net(net, pts[lo : lo + block])).reshape(-1, width)
        return out

    return LipschitzMapHandle(
        fn=fn,
        L=math.sqrt(net.l) * F.L * math.exp(net.rho),
        n=width,
        m=F.m,
        label=f"augmented({F.label}, l={net.l})",
    )


@dataclass(frozen=True)
class BunchedConfiguration:
    """k ball centers plus the certificate data for the bunching conclusions.

    The centers sit at `indices` (times the packing angle `alpha`) on the
    circle of radius `center_radius`.
    """

    params: SearchParams
    centers: PolarBatch
    R_used: float
    pairwise_manifold_min: float
    pairwise_image_max: float
    fiber_anchor: HPoint
    alpha: float
    indices: tuple[float, ...]
    center_radius: float
    selected_count: int
    family_count: int
    ladder: str  # "plain" (the pigeonhole on F) or "augmented" (on F over the net)
    history: tuple  # per-R records: family/selected/largest_fiber/bound

    @property
    def k(self) -> int:
        return len(self.centers)


def _best_window(members: list[int], imgs: np.ndarray, k: int) -> tuple[list[int], float]:
    """k consecutive fiber members minimizing their image diameter, the
    largest cdist value over the window's pairs (the first window on ties).

    The pairs of a block of windows are measured in one :func:`_pair_cdist`
    call, so its index arrays stay within _RECHECK_ELEMENTS entries."""
    i, j = np.triu_indices(k, 1)
    diam = np.empty(len(members) - k + 1)
    for part in _recheck_chunks(diam, len(i)):
        s = np.arange(len(diam))[part, None]
        pair = _pair_cdist(imgs, (s + i).ravel(), imgs, (s + j).ravel())
        diam[part] = pair.reshape(len(s), len(i)).max(axis=1)
    s = int(np.argmin(diam))
    return members[s : s + k], float(diam[s])


def find_bunched_configuration(
    F: LipschitzMapHandle,
    params: SearchParams,
    max_image_diameter: float | None = None,
) -> BunchedConfiguration:
    """Walk the R schedule until some Theta fiber holds k members.

    The set-distance search walks one ladder with the plain map F and builds
    no net.  The Hausdorff search builds the certificate net
    (:func:`certificate_net`) once and runs plain-first:

    - the plain ladder: the pigeonhole on F at the Hausdorff C.  On each rung
      the best k-window of the largest fiber is accepted only when the
      bound of conclusion (iii) measured on it (:func:`_hausdorff_bound`,
      one net transport to its k centers) is at most epsilon; a rejected
      rung records ``rejected_hausdorff`` and the ladder moves on.
    - only when that ladder is exhausted, the augmented ladder: the map
      augmented over the net (:func:`augment_map`), whose pigeonhole
      guarantees (iii) as R grows (the paper's construction).

    Before any rung, a Hausdorff search refuses a net whose size bound is
    too large (:func:`hypack.nets.check_net_size`), and then every search
    refuses a first rung beyond the representable radius
    (:meth:`SearchParams.check_first_rung`).  Each rung computes the
    prefilter keys of its images once (:func:`prefilter_keys`, one block
    per net point on the augmented ladder) for both pigeonhole scans.

    Returns the k members (the consecutive-in-index window of the largest
    fiber with the smallest image spread) together with the fiber's
    anchor and the ladder that found them.  The returned configuration
    re-verifies the two proof inequalities: pairwise manifold distance
    >= 2C and pairwise image distance < 2/C.

    Raises
    ------
    ScheduleExhausted
        If no rung produces a window that passes (a fiber of size k, the
        image diameter constraint when one is given, and on the plain
        Hausdorff ladder the bound of (iii)); for a Hausdorff search, with
        the diagnostics of both ladders.
    """
    if params.hausdorff:  # the bound check and the augmented map need the net
        check_net_size(*_certificate_net_args(F, params.r, params.epsilon))
    params.check_first_rung()
    net = certificate_net(F, params.r, params.epsilon) if params.hausdorff else None
    diagnostics: list[dict] = []
    cfg = _walk_ladder(F, params, F, 0.0, F.L, 1, net, max_image_diameter, diagnostics)
    if cfg is None and net is not None:
        # the volume bound of the augmented pipeline uses the affine growth
        # sqrt(l) L (R + 2 rho) of the concatenated image
        cfg = _walk_ladder(
            F, params, augment_map(F, net), net.rho, math.sqrt(net.l) * F.L, net.l, None,
            max_image_diameter, diagnostics,
        )
    if cfg is not None:
        return cfg
    if net is None:
        message = f"no fiber reached k={params.k}"
    else:
        message = f"neither the plain nor the augmented ladder found k={params.k} balls passing (iii)"
    raise ScheduleExhausted(f"{message} on schedule {params.R_schedule}", diagnostics)


def _walk_ladder(
    F: LipschitzMapHandle,
    params: SearchParams,
    eff_F: LipschitzMapHandle,
    rho: float,
    bound_L: float,
    blocks: int,
    net: NetTemplate | None,
    max_image_diameter: float | None,
    diagnostics: list[dict],
) -> BunchedConfiguration | None:
    """One R ladder of the pigeonhole on the evaluated map `eff_F` (F itself,
    the "plain" ladder, or F augmented over a net); None if it is exhausted.

    The volume bound of a rung is counting_upper_bound(R + 2 rho, C,
    bound_L, eff_F.n), and the images are keyed in `blocks` blocks.  With a
    `net`, a window is accepted only when :func:`_hausdorff_bound` of its
    centers is at most epsilon.  Appends one entry per rung to
    `diagnostics`.
    """
    ladder = "plain" if eff_F is F else "augmented"
    sep = 1.0 / params.C
    for R in params.R_schedule:
        fam = generate_centers(params.C, R, F.m, params.cap)
        images = eff_F.batch(fam.centers)
        keys = prefilter_keys(images, blocks)
        sf = greedy_separated_subfamily(images, sep, keys)
        bound = counting_upper_bound(R + 2.0 * rho, params.C, bound_L, eff_F.n)
        if len(sf.selected) > bound:
            raise AssertionError(
                f"volume bound violated: {len(sf.selected)} selected > {bound}"
            )
        fibers = theta_assignment(sf, images, keys)
        anchor, members = fibers.largest
        entry = {
            "R": R,
            "R_effective": R + 2.0 * rho,
            "C": params.C,
            "L_effective": bound_L,
            "n_effective": eff_F.n,
            "family": len(fam),
            "selected": int(len(sf.selected)),
            "largest_fiber": len(members),
            "bound": bound,
            "ladder": ladder,
        }
        diagnostics.append(entry)
        if len(members) < params.k:
            continue
        chosen, diam = _best_window(members, images[members], params.k)
        if max_image_diameter is not None and diam >= max_image_diameter and diam > 0.0:
            entry["rejected_diameter"] = diam
            continue
        if net is not None:
            hausdorff = _hausdorff_bound(F, net, fam.centers[chosen])
            if not hausdorff <= params.epsilon:
                entry["rejected_hausdorff"] = hausdorff
                continue
            entry["hausdorff_bound"] = hausdorff

        idx = tuple(float(fam.indices[i]) for i in chosen)
        pair_min = min_lag_distance(fam.center_radius, fam.alpha, idx)
        if pair_min < 2.0 * params.C - 1e-9:
            raise AssertionError("bunched configuration violates the 2C separation")
        if diam >= 2.0 / params.C + 1e-9:
            raise AssertionError("bunched configuration violates the 2/C image bound")
        return BunchedConfiguration(
            params=params,
            centers=fam.centers[chosen],
            R_used=R,
            pairwise_manifold_min=pair_min,
            pairwise_image_max=diam,
            fiber_anchor=fam.centers[anchor],
            alpha=fam.alpha,
            indices=idx,
            center_radius=fam.center_radius,
            selected_count=int(len(sf.selected)),
            family_count=len(fam),
            ladder=ladder,
            history=tuple(diagnostics),
        )
    return None


def _hausdorff_bound(F: LipschitzMapHandle, net: NetTemplate, centers: PolarBatch) -> float:
    """The bound of conclusion (iii) for the radius-net.rho balls at `centers`:
    the largest pairwise Hausdorff estimate between the images of the net
    transported to each center, plus the net slack F.L * net.delta.  The
    net goes to all centers in one transport_net call."""
    net_images = np.split(F.batch(transport_net(net, centers)), len(centers))  # l rows per ball
    slack = F.L * net.delta
    worst = 0.0
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            worst = max(worst, hausdorff_distance_estimate(net_images[i], net_images[j]) + slack)
    return worst


def hausdorff_distance_estimate(A, B) -> float:
    """Hausdorff distance between the finite point sets given as the rows of
    two 2-D arrays: max of the two directed sup-inf distances, equal to the
    full-cdist value bit for bit.

    Pairs are ranked by the Gram identity |a - b|^2 = |a|^2 + |b|^2 - 2 a.b,
    one BLAS product per block of rows of A.  In any summation order the
    computed value is off the exact square by at most
    2 gamma_(n+3) (|a|^2 + |b|^2), and the square of cdist's value is off it
    by at most 2 gamma_(n+4) (|a|^2 + |b|^2); their sum over the largest
    squared norms, widened by _TREE_SLACK, is `err`.  So the row that
    attains a directed maximum has a Gram minimum within 2 err of the
    largest one, and its nearest point a Gram value within 2 err of that
    minimum (3 err also covers the rounding of these comparisons).  Only
    those pairs are measured with cdist's bits (:func:`_farthest_nearest`).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("hausdorff_distance_estimate: empty point set")
    na, nb = np.vecdot(A, A), np.vecdot(B, B)
    err = (1.0 + _TREE_SLACK) * 4.0 * _gamma(A.shape[1] + 4) * float(na.max() + nb.max())
    B2 = -2.0 * B
    near_a, near_b = np.empty(len(A)), np.full(len(B), np.inf)
    for part in _recheck_chunks(A, len(B)):
        G = A[part] @ B2.T
        G += na[part, None]
        G += nb
        near_a[part] = G.min(axis=1)
        np.minimum(near_b, G.min(axis=0), out=near_b)
    return max(
        _farthest_nearest(A, na, B, nb, near_a, 3.0 * err),
        _farthest_nearest(B, nb, A, na, near_b, 3.0 * err),
    )


def _farthest_nearest(A, na, B, nb, near, err) -> float:
    """max over the rows a of A of min_b cdist(a, b), with cdist's bits, for
    `near` the Gram row minima and `err` the margin of
    :func:`hausdorff_distance_estimate`: only the rows whose Gram minimum is
    within `err` of the largest, and their points within `err` of that
    minimum, are measured."""
    rows = np.flatnonzero(near >= near.max() - err)
    best = np.full(len(rows), np.inf)
    B2 = -2.0 * B
    for part in _recheck_chunks(rows, len(B)):
        G = A[rows[part]] @ B2.T
        G += na[rows[part], None]
        G += nb
        t, u = np.nonzero(G <= near[rows[part], None] + err)
        t += part.start
        np.minimum.at(best, t, _pair_cdist(A, rows[t], B, u))
    return float(best.max())


def _closest_pair(A: np.ndarray, B: np.ndarray, bound: float) -> float:
    """min over a in A and b in B of cdist(a, b), with cdist's bits, given
    `bound`, the cdist value of one pair of A x B.

    Rows are ranked by their projections onto v = mean(B) - mean(A), a
    one-dimensional prefilter: |a - b| >= |b.v - a.v| / |v|.  The computed
    projections are off the exact ones by at most e = gamma_(n+2) M |v|_1
    in any summation order (M the largest |coordinate|), so the closest pair,
    which cdist puts at most `bound` apart, has projections within
    W = bound |v| + 2e of each other, widened by _TREE_SLACK for cdist's
    rounding and by u times the largest projection for the rounding of the
    window ends.  Two binary searches per row of A over the sorted
    projections of B list those pairs, which are measured with cdist's bits
    in pieces of at most _RECHECK_ELEMENTS pairs.  The pair of the largest
    a.v and the smallest b.v may lower the bound first; for two clusters
    apart along v it is close to the closest pair.
    """
    v = B.mean(axis=0) - A.mean(axis=0)
    pa, pb = A @ v, B @ v
    front = _pair_cdist(A, np.array([np.argmax(pa)]), B, np.array([np.argmin(pb)]))
    best = min(bound, float(front[0]))
    if best == 0.0:
        return 0.0
    M = max(A.max(), -A.min(), B.max(), -B.min())  # no |A| temporary
    e = _gamma(A.shape[1] + 2) * float(M) * float(np.abs(v).sum())
    reach = best * math.sqrt(float(v @ v)) + 2.0 * e
    top = max(np.abs(pa).max(), np.abs(pb).max())
    W = (1.0 + _TREE_SLACK) * (reach * (1.0 + _TREE_SLACK) + _UNIT_ROUNDOFF * top)
    order = np.argsort(pb)
    pb = pb[order]
    first = np.searchsorted(pb, pa - W, "left")
    count = np.searchsorted(pb, pa + W, "right") - first
    ends = np.cumsum(count)
    start = 0
    while start < len(A):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - count[start] + _RECHECK_ELEMENTS, "right")))
        piece = slice(start, stop)
        t = np.repeat(np.arange(start, stop), count[piece])
        if len(t):
            best = min(best, float(_pair_cdist(A, t, B, order[_ranges(first[piece], count[piece])]).min()))
        start = stop
    return best


def _set_distance_max(clouds: list[np.ndarray]) -> float:
    """max over pairs i < j of min_{a in clouds[i], b in clouds[j]} |a - b|,
    equal to the full-cdist minima bit for bit (:func:`_closest_pair`).

    A pair's minimum is at most the cdist value of its two last rows (the
    certifier puts each ball's center image last).  The pairs are visited
    in decreasing order of that bound, and once it is no larger than the
    running maximum, no pair left can raise it.
    """
    last = np.array([c[-1] for c in clouds])
    i, j = np.triu_indices(len(clouds), 1)
    bound = _pair_cdist(last, i, last, j)
    worst = 0.0
    for p in np.argsort(-bound, kind="stable").tolist():
        if bound[p] <= worst:
            break
        worst = max(worst, _closest_pair(clouds[i[p]], clouds[j[p]], float(bound[p])))
    return worst


#: Most random points certify_configuration draws per ball; each one is made
#: by exp, mapped, and sorted by its projection in :func:`_closest_pair`.
SAMPLES_MAX = 100_000


def check_samples(samples: int) -> None:
    """Refuse a per-ball sample count outside [0, SAMPLES_MAX]."""
    if not 0 <= samples <= SAMPLES_MAX:
        raise ValueError(f"samples must be >= 0 and <= {SAMPLES_MAX:,} (got {samples})")


@dataclass(frozen=True)
class Certificate:
    """Measured margins for the three bunching conclusions."""

    separation_min: float  # min over pairs of d(B_i, B_j) lower bound
    pass_i: bool
    set_distance_max: float  # max over pairs of the image set-distance upper bound
    pass_ii: bool
    hausdorff_max: float | None
    pass_iii: bool | None
    separation_2C_ok: bool  # the proof invariant d(p_i, p_j) >= 2C
    net: NetTemplate | None  # the net (iii) was measured on

    @property
    def ok(self) -> bool:
        return (
            self.pass_i
            and self.pass_ii
            and (self.pass_iii is not False)
            and self.separation_2C_ok
        )

    def passes(self) -> dict:
        return {"i": self.pass_i, "ii": self.pass_ii, "iii": self.pass_iii}


def certify_configuration(
    F: LipschitzMapHandle,
    cfg: BunchedConfiguration,
    samples: int = 512,
    seed: int = 0,
) -> Certificate:
    """Independent verification of conclusions (i)-(iii) for a configuration.

    (i) is exact: pairwise center distances are recomputed from the center
    indices with the stable kernel and must exceed 2r + 1/epsilon.  (ii)
    samples the image sets without a net (the center image and seeded,
    volume-uniform random ball points); any cross pair bounds the set
    distance from above, the center images alone by 2/C < epsilon.  The
    closest pair of each pair of sets is found among the pairs whose
    projections onto the line between the sets are close
    (:func:`_set_distance_max`), and a pair of sets whose center images are
    no farther apart than the largest closest pair so far is skipped.  (iii) is only evaluated for configurations of a
    Hausdorff search (the set-distance C need not satisfy the Hausdorff
    budget): the certificate net is built here (:func:`certificate_net`),
    not taken from the search, and the Hausdorff distances are bounded by
    the net-image estimate plus the L*delta net slack
    (:func:`_hausdorff_bound`, the measure the plain Hausdorff ladder
    accepts its window on).
    """
    check_samples(samples)
    eps = cfg.params.epsilon
    r = cfg.params.r

    # (i): d(B_i, B_j) = d(p_i, p_j) - 2r >= 1/eps
    pair_min = min_lag_distance(cfg.center_radius, cfg.alpha, cfg.indices)
    sep = pair_min - 2.0 * r
    pass_i = sep >= 1.0 / eps - 1e-9
    sep_2C_ok = pair_min >= 2.0 * cfg.params.C - 1e-9

    # point clouds per ball: volume-corrected random samples plus the center
    rng = np.random.default_rng(seed)
    center_images = F.batch(cfg.centers)
    clouds = []
    for p, img in zip(cfg.centers, center_images):
        extra = F.batch(_sample_ball_points(p, r, samples, rng))
        clouds.append(np.vstack([extra, img[None, :]]))

    set_dist = _set_distance_max(clouds)
    pass_ii = set_dist <= eps + 1e-9

    hausdorff_max: float | None = None
    pass_iii: bool | None = None
    net: NetTemplate | None = None
    if cfg.params.hausdorff:
        net = certificate_net(F, r, eps)
        hausdorff_max = _hausdorff_bound(F, net, cfg.centers)
        pass_iii = hausdorff_max <= eps + 1e-9

    return Certificate(
        separation_min=sep,
        pass_i=bool(pass_i),
        set_distance_max=set_dist,
        pass_ii=bool(pass_ii),
        hausdorff_max=hausdorff_max,
        pass_iii=pass_iii,
        separation_2C_ok=bool(sep_2C_ok),
        net=net,
    )


def _sample_ball_points(p: HPoint, r: float, samples: int, rng) -> PolarBatch:
    """`samples` volume-uniform points of B(p, r), as rows."""
    X = sample_ball(p.dim, r, samples, rng)
    # a stacked row-times-frame product rounds like x @ frame for one row x
    vecs = (X[:, None, :] @ transport_frame(p))[:, 0, :]
    return exp_rows(p, vecs, np.sqrt(np.vecdot(X, X)))


def corollary_sequences(
    F: LipschitzMapHandle,
    k: int,
    levels: int,
    base_params: SearchParams,
) -> list[BunchedConfiguration]:
    """Configurations at epsilon_l = eps0 / 2^l with monotone witnesses.

    Manifold separations must strictly increase and image diameters
    strictly decrease across levels (identically-zero diameters, as for a
    constant map, are allowed to stay at zero).  Each level extends its own
    R schedule until the diameter constraint is met, which must happen
    since image spacings shrink with growing R.
    """
    if levels < 1:
        raise ValueError("corollary_sequences: levels must be >= 1")
    out: list[BunchedConfiguration] = []
    prev_diam = math.inf
    prev_sep = -math.inf
    for level in range(levels):
        eps_l = base_params.epsilon / (2.0**level)
        params = replace(base_params, epsilon=eps_l, k=k)
        constraint = None if math.isinf(prev_diam) else prev_diam * (1.0 - 1e-9)
        cfg = find_bunched_configuration(F, params, max_image_diameter=constraint)
        sep = cfg.pairwise_manifold_min
        diam = cfg.pairwise_image_max
        if sep <= prev_sep:
            raise AssertionError("corollary_sequences: separations failed to increase")
        if diam >= prev_diam and not (diam == 0.0 and prev_diam == 0.0):
            raise AssertionError("corollary_sequences: image diameters failed to decrease")
        prev_sep, prev_diam = sep, diam
        out.append(cfg)
    return out
