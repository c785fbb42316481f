"""Pigeonhole search for far-apart geodesic balls with near-coincident images.

The pipeline per ambient radius R: generate the 2-plane packing family of
radius-C balls inside B(o, R), evaluate the map at the centers, extract a
maximal 1/C-separated subfamily of images, assign every leftover center to
its nearest selected image, and look for a fiber with at least k members.
Since the family grows like sinh(R-C) while the separated subfamily is
polynomially bounded in R, some fiber outgrows any k once R is large
enough; the k members then have pairwise manifold distance >= 2C and image
distance < 2/C.  That image bound is also the certificate's bound of
conclusion (ii): each center p_i lies in its ball B_i, so
d(F(B_i), F(B_j)) <= |F(p_i) - F(p_j)|.

A Hausdorff search runs this pipeline on the plain map first and accepts a
window only on its measured bound of conclusion (iii), the largest distance
between the images of matched net points of its k balls plus L*delta; the
net is transported to those k centers alone.  Only if that ladder is
exhausted does it run the paper's construction, the pipeline on the map
augmented over the net, whose fibers bound (iii) as R grows.  Both bounds
read the net's images from one routine, :func:`net_images`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from hypack.geometry import EXP_RADIUS_MAX, PolarBatch, _row_blocks
from hypack.maps import LipschitzMapHandle
from hypack.nets import NetTemplate, build_reference_net, transport_net
from hypack.packing import CAP_MAX, generate_centers, min_lag_distance, packing_angle

__all__ = [
    "BunchedConfiguration",
    "Certificate",
    "ScheduleExhausted",
    "SearchParams",
    "SeparatedFamily",
    "ThetaFibers",
    "choose_C_hausdorff",
    "choose_C_setdist",
    "corollary_sequences",
    "counting_upper_bound",
    "certificate_net",
    "certify_configuration",
    "default_schedule",
    "find_bunched_configuration",
    "greedy_separated_subfamily",
    "net_images",
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

#: Excess added per rung: ln 4, so the family grows 4x per rung.
_RUNG_STEP = math.log(4.0)


def default_schedule(C: float, cap: int) -> tuple[float, ...]:
    """Ladder R_i = 2C + 2 + i ln 4, at most _MAX_RUNGS rungs.

    The uncapped family has about pi / alpha centers, with
    sin alpha = sinh C / sinh(R - C), and pi / alpha grows by a factor of
    4.00 to 4.07 from one rung to the next for every C: the families are
    23, 92, 371, 1,485, ... for every C from 4.5 up.  Each R_i is computed
    from i, so no rounding accumulates.  The ladder stops once the uncapped
    family size would exceed 10x the cap (one final rung past that bound is
    kept, since subsampling preserves the separation invariant); for any
    cap up to CAP_MAX that is at most 11 rungs.

    The bound this gives, while the cap does not bind: all rungs before the
    last make at most about a third of the centers of the last
    (1/4 + 1/16 + ...), and if a k-fiber exists at every R past some R*,
    the search stops no later than the first rung at or past R*, which
    holds at most about 4x the family at R*.
    """
    rungs = []
    for i in range(_MAX_RUNGS):
        R = 2.0 * C + (2.0 + i * _RUNG_STEP)
        rungs.append(R)
        try:
            alpha = packing_angle(C, R)
        except ArithmeticError:
            break
        if math.pi / alpha > 10.0 * cap:
            break
    return tuple(rungs)


@dataclass(frozen=True)
class SearchParams:
    """Search parameters; C is derived from (r, epsilon, hausdorff) by the chooser.

    The dimension is the map's.  R_schedule is derived too: the default
    ladder 2C + 2 + i ln 4 for C and cap (:func:`default_schedule`), less
    the rungs above R_max (keeping min(first rung, R_max) if none is left).
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
            raise ValueError(f"{self._names_C()}: the first rung R = 2C + 2 rounds to 2C")
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
                f"{self._names_C()}: the first rung puts its centers at radius {radius:.4g},"
                f" which exceeds the representable range (radius {EXP_RADIUS_MAX:g})"
            )

    def _names_C(self) -> str:
        """The head of a refusal caused by C: both inputs and the C they give."""
        return f"SearchParams: r={self.r} and epsilon={self.epsilon} give C={self.C:.4g}"


def certificate_net(F: LipschitzMapHandle, r: float, epsilon: float) -> NetTemplate:
    """The reference net of the certificate: radius r, spacing delta = epsilon/(2L),
    so the net slack L*delta of conclusion (iii) is epsilon/2.  A net whose
    size bound is too large is refused (ValueError) before anything is
    allocated (:func:`hypack.nets.build_reference_net`)."""
    return build_reference_net(r, epsilon / (2.0 * F.L), F.m)


#: Relative slack of every prefilter bound below: it covers cdist's rounding
#: of a distance against the exact one (gamma_(n+2), under 1e-9 for widths n
#: up to 10^6) and the rounding of the bound's own evaluation.
_CDIST_SLACK = 1e-9

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on k accumulated roundings."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


#: Leading columns of the block sum that :class:`_CellGrid` buckets.
_PREFILTER_COLUMNS = 3

#: Largest cell code of a :class:`_CellGrid`; codes and their neighbour
#: offsets then stay inside int64.
_CODE_MAX = 2**62


class _CellGrid:
    """A fixed-radius neighbour index over image rows (a cell list:
    Bentley, Stanat and Williams, IPL 1977) that lists every pair cdist
    puts below `limit`.

    The key of a row x made of l = `blocks` blocks of n columns is the
    leading w = min(_PREFILTER_COLUMNS, n) columns of the scaled block sum
    S(x) = l^(-1/2) (x_1 + ... + x_l).  S has orthonormal rows, so
    |S(x) - S(y)| <= |x - y|: a pair that cdist puts below `limit` is within
    ``reach`` = limit (1 + _CDIST_SLACK) + ``rounding`` in the computed keys.
    _CDIST_SLACK covers cdist's rounding; ``rounding`` that of the keys:

    - With M = max |x| over the images, each computed key coordinate is
      l^(-1/2)(1 + theta_3) times the computed block sum, which is off the
      exact sum by at most gamma_(l-1) (|x_1| + ... + |x_l|) <=
      gamma_(l-1) l M in any summation order (gamma_k = k u / (1 - k u), u
      the unit roundoff); so it is off the exact S by at most
      sqrt(l) M gamma_(l+2).  Two rows' computed keys are then off by at
      most 2 sqrt(w l) M gamma_(l+2) in distance.  That bound, widened by
      _CDIST_SLACK for its own evaluation, is ``rounding``.
    - The keys of one block are its leading columns, a view of the images,
      with no rounding.

    Every key row is bucketed in an axis cube of side s; a row's
    neighbours are the rows of the 3^w cubes around its own.  With
    s = (reach + 2^-50 D)(1 + 2^-50), D the largest column span of the keys,
    that lists every pair within reach:

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
      consecutive codes, so one pair of binary searches per occupied cube
      and offset in the other columns (3^(w-1) of them) finds their rows.
    - If the mixed-radix codes could pass _CODE_MAX (spans of millions of
      cubes), each column's coordinates are first renumbered in order with
      gaps capped at 3, which keeps every difference of at most 1 as it is
      and every larger one at least 2; if they still could, they are divided
      by a power of two, which keeps neighbours neighbours.

    The neighbour rows of every row are listed once per grid, on first use
    (:attr:`listing`), and kept with it; a scan against a subset b of the
    rows filters that listing to b (:meth:`among`) instead of searching
    again.  A grid built for `limit` serves every smaller limit as well.

    The grid also keeps ``columns``, a C-contiguous column-major copy of the
    images (shape (width, rows)), which the scans of its rows measure on
    (:func:`_image_distance`).
    """

    def __init__(self, images: np.ndarray, limit: float, blocks: int = 1):
        rows, width = images.shape
        if blocks < 1 or width % blocks:
            raise ValueError(f"_CellGrid: width {width} is not a multiple of {blocks} blocks")
        n = width // blocks
        w = min(_PREFILTER_COLUMNS, n)
        if blocks == 1:
            K, self.rounding = images[:, :w], 0.0
        else:
            K = images.reshape(rows, blocks, n)[:, :, :w].sum(axis=1)
            K *= 1.0 / math.sqrt(blocks)
            bound = max(images.max(), -images.min())  # no |images| temporary
            self.rounding = (1.0 + _CDIST_SLACK) * 2.0 * math.sqrt(w * blocks) * float(bound) * _gamma(blocks + 2)
        self.images, self.keys, self.limit = images, K, limit
        self.columns = np.ascontiguousarray(images.T)
        self.reach = limit * (1.0 + _CDIST_SLACK) + self.rounding
        lo = K.min(axis=0)
        span = float(np.max(K.max(axis=0) - lo))
        side = (max(self.reach, 0.0) + span * 2.0**-50) * (1.0 + 2.0**-50)
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

    @cached_property
    def listing(self):
        """(cell, indptr, rows): rows[indptr[cell[i]]:indptr[cell[i] + 1]] are
        the image rows in the cubes around row i, i itself included.  Built
        once per grid, on first use."""
        order = np.argsort(self.codes)
        indexed = self.codes[order]
        new = np.concatenate(([True], indexed[1:] != indexed[:-1]))
        queried = indexed[new]
        cell = np.empty_like(order)
        cell[order] = np.cumsum(new) - 1
        needles = self.steps[:, None] + queried  # sorted along each offset
        first = np.searchsorted(indexed, (needles - 1).ravel(), "left")
        count = np.searchsorted(indexed, (needles + 1).ravel(), "right") - first
        first = first.reshape(needles.shape).T.ravel()  # cube-major
        count = count.reshape(needles.shape).T
        indptr = np.concatenate(([0], np.cumsum(count.sum(axis=1))))
        return cell, indptr, order[_ranges(first, count.ravel())]

    def among(self, b: np.ndarray):
        """(cell, indptr, rows) as in :attr:`listing`, with every listed row
        replaced by its positions in `b` (none if it is not in `b`)."""
        cell, indptr, rows = self.listing
        order = np.argsort(b, kind="stable")
        count = np.bincount(b, minlength=len(self.images))
        start = np.cumsum(count) - count
        per_row = count[rows]
        indptr = np.concatenate(([0], np.cumsum(per_row)))[indptr]
        return cell, indptr, order[_ranges(start[rows], per_row)]


def _grid_for(images: np.ndarray, limit: float, grid: _CellGrid | None, name: str) -> _CellGrid:
    """`grid`, or a one-block grid over `images` for `limit` if it is None;
    ValueError for a grid over other images or for a smaller limit."""
    if grid is None:
        return _CellGrid(images, limit)
    if grid.images is not images or not grid.limit >= limit:
        raise ValueError(f"{name}: the grid must be built over these images for a limit of at least {limit}")
    return grid


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


def _image_distance(X: np.ndarray, a: np.ndarray, Y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|X[:, a[t]] - Y[:, b[t]]| for each t, for column-major images X and Y
    (one image a column, shape (W, N)); `b` may hold one index, which every
    a[t] is measured against.  The bits are those of scipy's euclidean
    cdist, squares summed from the first column to the last, then sqrt:

    - the columns are gathered with np.take, differenced and squared in
      place, and np.add.reduce down axis 0 of the (W, P) squares adds their
      W rows in order into the P outputs whenever P >= 2;
    - a lone pair (P = 1) makes the reduction one contiguous run, which
      numpy sums in pairs from 8 terms on, so its one column is summed by
      np.add.accumulate instead.

    As fl(x - y) = -fl(y - x), swapping X[:, a] and Y[:, b] keeps the bits.
    The one image metric of the pigeonhole scans, the best-window diameters
    and the bounds of conclusions (ii) and (iii)."""
    d = X.take(a, axis=1)
    d -= Y.take(b, axis=1)
    d *= d
    if d.shape[1] == 1:
        return np.sqrt(np.add.accumulate(d, axis=0, out=d)[-1])
    return np.sqrt(np.add.reduce(d, axis=0))


def _pair_cdist(A: np.ndarray, a: np.ndarray, B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cdist(A[:, a[t]], B[:, b[t]]) for each t, for column-major images A
    and B (:func:`_image_distance`), in blocks of
    :func:`hypack.geometry._row_blocks` pairs (W elements each)."""
    out = np.empty(len(a))
    for part in _row_blocks(len(a), A.shape[0]):
        out[part] = _image_distance(A, a[part], B, b[part])
    return out


def _close_pairs(grid: _CellGrid, a: np.ndarray, b: np.ndarray, limit: float):
    """(t, u, d) for every pair of the grid's images[a[t]] and images[b[u]]
    that cdist puts below `limit`, with d the cdist value; t ascending.

    Exact: `grid`, built for a limit of at least `limit`, lists every such
    pair around each images[a[t]] (:meth:`_CellGrid.among`), and the
    candidates are measured by :func:`_pair_cdist`.
    """
    cell, indptr, rows = grid.among(b)
    cell = cell[a]
    count = indptr[cell + 1] - indptr[cell]
    t = np.repeat(np.arange(len(a)), count)
    u = rows[_ranges(indptr[cell], count)]
    d = _pair_cdist(grid.columns, a[t], grid.columns, b[u])
    below = d < limit
    return t[below], u[below], d[below]


def _nearest_below(t: np.ndarray, u: np.ndarray, d: np.ndarray, queries: int) -> np.ndarray:
    """For each query q < `queries`, the u of its pair (t = q) with the
    smallest d, the lowest u on ties; -1 for a query with no pair.

    Given the pairs :func:`_close_pairs` lists below a limit, this equals
    np.argmin(cdist(images[a], images[b]), axis=1) wherever that minimum is
    below the limit.  The pairs of one query are consecutive (t ascending),
    so each minimum is one np.minimum.reduceat segment.
    """
    nearest = np.full(queries, -1)
    if len(t) == 0:
        return nearest
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    best = np.minimum.reduceat(d, start)
    tied = d == np.repeat(best, np.diff(start, append=len(t)))
    # each query keeps at least its minimum among the tied pairs, and its
    # tied pairs follow those of the queries before it
    tied_start = np.cumsum(tied) - tied
    nearest[t[start]] = np.minimum.reduceat(u[tied], tied_start[start])
    return nearest


@dataclass(frozen=True)
class SeparatedFamily:
    """Maximal subfamily whose images are pairwise >= separation apart.

    ``selected`` holds positions into the scanned image rows.  Separation and
    maximality (every other image closer than the separation to a selected
    one) hold by construction of the greedy scan; :func:`theta_assignment`
    checks both for any family it is given, at the separation itself.
    """

    selected: np.ndarray
    separation: float


def _check_scan(images, sep: float, name: str) -> np.ndarray:
    """`images` as floats; ValueError unless they are a non-empty finite 2-d array and sep > 0."""
    images = np.asarray(images, dtype=float)
    if images.ndim != 2 or images.size == 0 or not np.all(np.isfinite(images)):
        raise ValueError(f"{name}: images must be a non-empty finite 2-d array")
    if not sep > 0.0:
        raise ValueError(f"{name}: the separation must be > 0 (got {sep})")
    return images


def greedy_separated_subfamily(images, sep: float, grid: _CellGrid | None = None) -> SeparatedFamily:
    """Scan in index order; keep a center iff its image clears all kept images.

    Image i is kept iff no kept image j < i has cdist(images[j], images[i])
    < sep (:func:`_image_distance`, the metric of :func:`theta_assignment`);
    so the output is separated, and maximal since every rejected image lies
    within `sep` of a kept one.  Rather than measure each image against
    every kept one, each kept image rejects the later images close to it, so
    only close pairs are ever measured:

    - A pair that close lies in neighbouring cubes of `grid`, a
      :class:`_CellGrid` over `images` for a limit of at least `sep` (by
      default a one-block grid for `sep`, keyed by the leading columns),
      whose listing of every row's neighbour rows (:attr:`_CellGrid.listing`)
      is built once and kept with the grid.  A grid over other images or for
      a smaller limit is refused (ValueError); one for a larger limit only
      lists more candidates.
    - Images alone in their 3^w cubes are kept without a look: nothing is
      close to them.

    The scan jumps to the next undecided image with np.argmax over a mask
    of the images still to decide, so Python runs one step, a slice of the
    listing filtered to the undecided images and one measurement (on the
    grid's columns), per kept image with a neighbour in its cubes.
    Images other than a non-empty finite 2-d array and a `sep` not > 0
    (NaN included) are refused (ValueError).
    """
    images = _check_scan(images, sep, "greedy_separated_subfamily")
    grid = _grid_for(images, sep, grid, "greedy_separated_subfamily")
    cell, indptr, rows = grid.listing
    first, stop = indptr[cell], indptr[cell + 1]
    todo = stop - first > 1
    kept = ~todo
    at = np.zeros(1, dtype=np.intp)
    i = int(np.argmax(todo))
    while todo[i]:
        kept[i] = True
        todo[i] = False
        later = rows[first[i] : stop[i]]
        later = later[todo[later]]  # every image up to i is decided
        at[0] = i
        for part in _row_blocks(len(later), images.shape[1]):
            close = later[part]
            todo[close[_image_distance(grid.columns, close, grid.columns, at) < sep]] = False
        i += int(np.argmax(todo[i:]))
    selected = np.flatnonzero(kept)
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


@dataclass(frozen=True, eq=False)
class ThetaFibers:
    """Assignment of each leftover center to its nearest selected image:
    leftovers[q] goes to selected[nearest[q]]; `leftovers` ascending."""

    selected: np.ndarray
    leftovers: np.ndarray
    nearest: np.ndarray

    @property
    def fibers(self) -> dict[int, list[int]]:
        """Selected position -> its leftover positions, in order; anchors
        in the order of their first leftover."""
        fibers: dict[int, list[int]] = {}
        for pos, anchor in zip(self.leftovers.tolist(), self.selected[self.nearest].tolist()):
            fibers.setdefault(anchor, []).append(pos)
        return fibers

    @property
    def largest(self) -> tuple[int, list[int]]:
        """(anchor, members) of the fiber with the most members, the lowest
        anchor on ties; (-1, []) if there are no leftovers."""
        if len(self.leftovers) == 0:
            return -1, []
        size = np.bincount(self.nearest, minlength=len(self.selected))
        tied = np.flatnonzero(size == size.max())
        best = tied[np.argmin(self.selected[tied])]
        return int(self.selected[best]), self.leftovers[self.nearest == best].tolist()


def theta_assignment(fam: SeparatedFamily, images, grid: _CellGrid | None = None) -> ThetaFibers:
    """Map every non-selected image row to the nearest selected image.

    Ties break toward the lowest selected index.  This is also the one check
    of the family, decided at the separation s itself as by the full cdist
    scans; AssertionError names the property that fails.  Both checks take
    their candidates from one :func:`_close_pairs` pass of every row against
    the selected ones, below s, in `grid`, a :class:`_CellGrid` over `images`
    for a limit of at least s (by default a one-block grid for s, keyed by
    the leading columns; a grid over other images or for a smaller limit is
    refused with ValueError).  The pass filters the grid's one listing to
    the selected rows (:meth:`_CellGrid.among`) and measures every candidate
    with :func:`_image_distance`, the greedy scan's metric, so every family
    of the greedy scan passes both checks:

    - separation: no two selected images closer than s.  Every such pair
      lies in neighbouring cubes of the grid, so the pass lists it.
    - maximality: every leftover has a selected image closer than s.  Its
      nearest one is the argmin of its cdist row, found among the same pairs
      (:func:`_nearest_below`).

    Images or a separation that :func:`greedy_separated_subfamily` refuses,
    and selected positions that are not 1-d integers in [0, len(images)),
    are refused (ValueError).
    """
    images = _check_scan(images, fam.separation, "theta_assignment")
    sel = np.asarray(fam.selected)
    if sel.ndim != 1 or sel.dtype.kind not in "iu" or not np.all((sel >= 0) & (sel < len(images))):
        raise ValueError(f"theta_assignment: selected must be 1-d integers in [0, {len(images)})")
    grid = _grid_for(images, fam.separation, grid, "theta_assignment")
    leftovers = np.delete(np.arange(len(images)), sel)
    # queries: the selected rows, then the leftovers
    t, u, d = _close_pairs(grid, np.concatenate((sel, leftovers)), sel, fam.separation)
    own = t < len(sel)
    if np.any(own & (t != u)):
        raise AssertionError("theta_assignment: separation violated")
    nearest = _nearest_below(t[~own] - len(sel), u[~own], d[~own], len(leftovers))
    if np.any(nearest < 0):
        raise AssertionError("theta_assignment: maximality violated")
    return ThetaFibers(sel, leftovers, nearest)


def net_images(F: LipschitzMapHandle, net: NetTemplate, points: PolarBatch) -> np.ndarray:
    """The (N, l, n) stack F(sigma_t p_i) of the net moved to each row p_i of
    `points`: raveled, row i is the net-augmented map at p_i, and the bound
    of (iii) (:func:`_hausdorff_bound`) pairs [i, t] with [j, t] the same way.
    One transport_net and one F.batch call per block of
    :func:`hypack.geometry._row_blocks` basepoints (l*(m+1) elements each);
    each row has the bits of the one-point evaluation."""
    out = np.empty((len(points), net.l, F.n))
    for part in _row_blocks(len(points), net.l * (F.m + 1)):
        out[part] = F.batch(transport_net(net, points[part])).reshape(-1, net.l, F.n)
    return out


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
    fiber_anchor: PolarBatch  # one row: the fiber's selected center
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


def _best_window(members: list[int], columns: np.ndarray, k: int) -> tuple[list[int], float]:
    """k consecutive fiber members minimizing their image diameter, the
    largest cdist value over the window's pairs (the first window on ties);
    `columns` are the column-major images (shape (W, N)) that the members
    index.

    The diameters of all windows of width w follow from those of width
    w - 1: diam_w(s) = max(diam_(w-1)(s), diam_(w-1)(s + 1),
    cdist(s, s + w - 1)), since the pairs of a window are those of its two
    sub-windows and its two ends.  Each diameter is thus the max of the same
    cdist values, from k - 1 :func:`_pair_cdist` passes over the members:
    O(len(members) k) time and O(len(members)) memory."""
    at = np.asarray(members, dtype=np.intp)
    diam = np.zeros(len(members))
    for w in range(2, k + 1):
        ends = _pair_cdist(columns, at[: len(diam) - 1], columns, at[w - 1 :])
        diam = np.maximum(np.maximum(diam[:-1], diam[1:]), ends)
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
      the net transported to its k centers) is at most epsilon; a rejected
      rung records ``rejected_hausdorff`` and the ladder moves on.
    - only when that ladder is exhausted, the augmented ladder: the
      pigeonhole on the map augmented over the net, each center's row of
      :func:`net_images` raveled, which guarantees (iii) as R grows (the
      paper's construction).

    Before any rung, a Hausdorff search builds its net, which refuses a
    net whose size bound is too large, and then every search refuses a
    first rung beyond the representable radius
    (:meth:`SearchParams.check_first_rung`).  Each rung builds one
    :class:`_CellGrid` over its images (one block per net point on the
    augmented ladder) for both pigeonhole scans, which list the neighbour
    rows of every image once.

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
    net = certificate_net(F, params.r, params.epsilon) if params.hausdorff else None
    params.check_first_rung()
    diagnostics: list[dict] = []
    for augmented in (False,) if net is None else (False, True):
        cfg = _walk_ladder(F, params, net, augmented, max_image_diameter, diagnostics)
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
    net: NetTemplate | None,
    augmented: bool,
    max_image_diameter: float | None,
    diagnostics: list[dict],
) -> BunchedConfiguration | None:
    """One R ladder of the pigeonhole, on F itself (the "plain" ladder) or,
    if `augmented`, on F augmented over `net`; None if it is exhausted.

    Each rung builds one :class:`_CellGrid` over its images for the
    separation sep and hands it to both scans, which read its one neighbour
    listing.  The augmented ladder's images are :func:`net_images` of the
    rung's centers, one row of l blocks of n columns a center (a view of the
    stack); its volume bound uses the affine growth sqrt(l) L (R + 2 rho) of
    that concatenated image, and its grid keys one block per net point.  On
    the plain ladder of a search with a `net`, a window is accepted only
    when :func:`_hausdorff_bound` of its centers is at most epsilon.
    Appends one entry per rung to `diagnostics`.
    """
    if augmented:
        rho, bound_L, blocks = net.rho, math.sqrt(net.l) * F.L, net.l
    else:
        rho, bound_L, blocks = 0.0, F.L, 1
    width = F.n * blocks
    ladder = "augmented" if augmented else "plain"
    sep = 1.0 / params.C
    for R in params.R_schedule:
        fam = generate_centers(params.C, R, F.m, params.cap)
        if augmented:
            images = net_images(F, net, fam.centers).reshape(len(fam), width)
        else:
            images = F.batch(fam.centers)
        grid = _CellGrid(images, sep, blocks)
        sf = greedy_separated_subfamily(images, sep, grid)
        bound = counting_upper_bound(R + 2.0 * rho, params.C, bound_L, width)
        if len(sf.selected) > bound:
            raise AssertionError(
                f"volume bound violated: {len(sf.selected)} selected > {bound}"
            )
        fibers = theta_assignment(sf, images, grid)
        anchor, members = fibers.largest
        entry = {
            "R": R,
            "R_effective": R + 2.0 * rho,
            "C": params.C,
            "L_effective": bound_L,
            "n_effective": width,
            "family": len(fam),
            "selected": int(len(sf.selected)),
            "largest_fiber": len(members),
            "bound": bound,
            "ladder": ladder,
        }
        diagnostics.append(entry)
        if len(members) < params.k:
            continue
        chosen, diam = _best_window(members, grid.columns, params.k)
        if max_image_diameter is not None and diam >= max_image_diameter and diam > 0.0:
            entry["rejected_diameter"] = diam
            continue
        if net is not None and not augmented:
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
            fiber_anchor=fam.centers[anchor : anchor + 1],
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
    """The bound M + L*delta of conclusion (iii) for the radius-net.rho balls
    B_i at `centers` p_i: M is the largest |F(sigma_t p_i) - F(sigma_t p_j)|
    over pairs i < j and net indices t (:func:`_pairwise_max`), L = F.L and
    delta = net.delta.  It is sound for any L-Lipschitz F:

    - N_i = {sigma_t p_i}, the transport_net rows of p_i, is a delta-net of B_i.
    - For a in B_i pick t with d(a, sigma_t p_i) <= delta; as sigma_t p_j lies
      in B_j, d(F(a), F(B_j)) <= L*delta + |F(sigma_t p_i) - F(sigma_t p_j)|.
    - So, with i and j swapped too, d_H(F(B_i), F(B_j)) <= M + L*delta.

    M is at most |Phi(p_i) - Phi(p_j)| for Phi the net-augmented map, which
    the augmented pigeonhole bounds by 2/C: both read the (k, l, n) stack of
    :func:`net_images`, and only that stack is kept.
    """
    return _pairwise_max(net_images(F, net, centers)) + F.L * net.delta


def _pairwise_max(P: np.ndarray) -> float:
    """max over pairs i < j and indices t of cdist(P[i, t], P[j, t])
    (:func:`_image_distance`), for a (k, l, n) stack P or a (k, n) array
    (l = 1); 0.0 for fewer than two rows, NaN if any pair is NaN.  The
    stack is measured as one column-major copy, P[i, t] its column i l + t.
    Indices t come in blocks of :func:`hypack.geometry._row_blocks` (k n
    elements each) and, within them, rows i (k elements a pair each), so
    beyond that copy no temporary grows with the pairs or with l.
    """
    if P.ndim == 2:
        P = P[:, None, :]
    k, l, n = P.shape
    X = np.ascontiguousarray(P.reshape(k * l, n).T)
    block_max = [0.0]
    for block in _row_blocks(l, k * n):
        t = np.arange(l)[block]
        for part in _row_blocks(k, k * len(t) * n):
            i = np.arange(k)[part]
            count = k - 1 - i
            a = (np.repeat(i * l, count)[:, None] + t).ravel()
            b = (_ranges(i + 1, count)[:, None] * l + t).ravel()
            block_max.append(_image_distance(X, a, X, b).max(initial=0.0))
    return float(np.max(block_max))


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


def certify_configuration(F: LipschitzMapHandle, cfg: BunchedConfiguration) -> Certificate:
    """Independent verification of conclusions (i)-(iii) for a configuration.

    (i) is exact: pairwise center distances are recomputed from the center
    indices with the stable kernel and must exceed 2r + 1/epsilon.  (ii) is
    bounded by the center images, recomputed here: each center p_i lies in
    its ball, so d(F(B_i), F(B_j)) <= |F(p_i) - F(p_j)|, and the largest of
    these (:func:`_pairwise_max`) bounds every pair; the search keeps it
    below 2/C < epsilon.  On the plain ladder it equals the configuration's
    pairwise_image_max bit for bit.  (iii) is only evaluated for
    configurations of a Hausdorff search (the set-distance C need not
    satisfy the Hausdorff budget): the certificate net is built here
    (:func:`certificate_net`), not taken from the search, and each Hausdorff
    distance d_H(F(B_i), F(B_j)) is bounded by the largest distance between
    the images of matched net points of the two balls plus the L*delta net
    slack (:func:`_hausdorff_bound`, the measure the plain Hausdorff ladder
    accepts its window on, O(k^2 l n) work).
    """
    eps = cfg.params.epsilon
    r = cfg.params.r

    # (i): d(B_i, B_j) = d(p_i, p_j) - 2r >= 1/eps
    pair_min = min_lag_distance(cfg.center_radius, cfg.alpha, cfg.indices)
    sep = pair_min - 2.0 * r
    pass_i = sep >= 1.0 / eps - 1e-9
    sep_2C_ok = pair_min >= 2.0 * cfg.params.C - 1e-9

    set_dist = _pairwise_max(F.batch(cfg.centers))
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
