"""Pigeonhole search for far-apart geodesic balls with near-coincident images.

The pipeline per ambient radius R: generate the 2-plane packing family of
radius-C balls inside B(o, R), evaluate the map (or its net-augmented
version) at the centers, extract a maximal 1/C-separated subfamily of
images, assign every leftover center to its nearest selected image, and
look for a fiber with at least k members.  Since the family grows like
sinh(R-C) while the separated subfamily is polynomially bounded in R, some
fiber outgrows any k once R is large enough; the k members then have
pairwise manifold distance >= 2C and image distance < 2/C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from hypack.geometry import HPoint, PolarBatch, exp_rows, sample_ball, transport_frame
from hypack.maps import LipschitzMapHandle
from hypack.nets import NetTemplate, build_reference_net, transport_net
from hypack.packing import PackingSpec, _pairwise_min_block, generate_centers, min_lag_distance, packing_angle

__all__ = [
    "BunchedConfiguration",
    "Certificate",
    "SAMPLES_MAX",
    "ScheduleExhausted",
    "SearchParams",
    "SeparatedFamily",
    "ThetaFibers",
    "augment_map",
    "ball_volume_constant",
    "choose_C_hausdorff",
    "choose_C_setdist",
    "corollary_sequences",
    "counting_upper_bound",
    "certify_configuration",
    "check_samples",
    "default_schedule",
    "find_bunched_configuration",
    "greedy_separated_subfamily",
    "hausdorff_distance_estimate",
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


def default_schedule(C: float, cap: int, max_rungs: int = 24) -> tuple[float, ...]:
    """Geometric ladder R_i = 2C + 2 * 2^i.

    The excess over 2C doubles per rung; the ladder stops once the uncapped
    family size would exceed 10x the cap (one final rung past that bound is
    kept, since subsampling preserves the separation invariant).
    """
    rungs = []
    excess = 2.0
    for _ in range(max_rungs):
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
    """Search parameters; C is derived from (r, epsilon) by the chooser."""

    r: float
    epsilon: float
    k: int
    C: float
    R_schedule: tuple[float, ...]
    m: int = 2
    cap: int = 100_000
    seed: int = 0
    hausdorff: bool = False

    def __post_init__(self):
        _check_r_eps(self.r, self.epsilon)
        if self.k < 2:
            raise ValueError("SearchParams: k must be >= 2")
        if self.m < 2:
            raise ValueError("SearchParams: m must be >= 2")
        if self.hausdorff:
            if self.C < choose_C_hausdorff(self.r, self.epsilon) - 1e-12:
                raise ValueError("SearchParams: C below the Hausdorff threshold")
        else:
            expected = choose_C_setdist(self.r, self.epsilon)
            if abs(self.C - expected) > 1e-12 * max(1.0, expected):
                raise ValueError(
                    f"SearchParams: set-distance C must equal 2(2 r eps + 1)/eps = {expected}"
                )
        if not self.R_schedule:
            raise ValueError("SearchParams: empty R schedule")
        if any(R <= 2.0 * self.C for R in self.R_schedule):
            raise ValueError("SearchParams: every R must exceed 2C")
        if any(b <= a for a, b in zip(self.R_schedule, self.R_schedule[1:])):
            raise ValueError("SearchParams: R schedule must be increasing")

    @staticmethod
    def derive(
        r, epsilon, k, hausdorff=False, m=2, cap=100_000, seed=0, R_schedule=None, R_max=None
    ):
        """Parameters with C chosen for the set-distance or the Hausdorff conclusion."""
        if R_max is not None and math.isnan(R_max):
            raise ValueError("SearchParams: R_max must not be NaN")
        C = (choose_C_hausdorff if hausdorff else choose_C_setdist)(r, epsilon)
        sched = tuple(R_schedule) if R_schedule is not None else default_schedule(C, cap)
        if R_max is not None:
            sched = tuple(R for R in sched if R <= R_max) or (min(sched[0], R_max),)
        return SearchParams(
            r=r, epsilon=epsilon, k=k, C=C, R_schedule=sched, m=m, cap=cap, seed=seed,
            hausdorff=hausdorff,
        )


@dataclass(frozen=True)
class SeparatedFamily:
    """Maximal subfamily whose images are pairwise >= separation apart.

    ``selected`` holds positions into the scanned center list.  Property a)
    (pairwise separation) and b) (maximality) hold by construction of the
    greedy scan and can be re-verified exhaustively.
    """

    selected: np.ndarray
    images: np.ndarray
    separation: float

    def verify(self, all_images: np.ndarray, tol: float = 1e-12) -> bool:
        sel = self.images
        if len(sel) > 1:
            gaps = cdist(sel, sel)
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() < self.separation - tol:
                return False
        mask = np.ones(len(all_images), dtype=bool)
        mask[self.selected] = False
        rest = all_images[mask]
        if rest.size:
            near = cdist(rest, sel).min(axis=1)
            if near.max() >= self.separation + tol:
                return False
        return True


def greedy_separated_subfamily(centers, images, sep: float) -> SeparatedFamily:
    """Scan in index order; keep a center iff its image clears all kept images.

    The output satisfies separation by the acceptance test and maximality
    because every rejected image was within `sep` of some kept one.
    """
    images = np.asarray(images, dtype=float)
    if len(centers) != len(images) or len(images) == 0:
        raise ValueError("greedy_separated_subfamily: need equally many centers and images")
    if sep <= 0.0:
        raise ValueError("greedy_separated_subfamily: sep must be > 0")
    kept: list[int] = []
    kept_imgs = np.empty_like(images)  # rows [0, len(kept)) hold the kept images
    for i, img in enumerate(images):
        if kept and np.min(np.linalg.norm(kept_imgs[: len(kept)] - img, axis=1)) < sep:
            continue
        kept_imgs[len(kept)] = img
        kept.append(i)
    return SeparatedFamily(
        selected=np.array(kept, dtype=int), images=kept_imgs[: len(kept)], separation=sep
    )


def ball_volume_constant(n: int) -> float:
    """Volume of the unit ball in R^n (cancels in the counting bound)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


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
    """Assignment of each leftover center to its nearest selected image."""

    assignment: np.ndarray  # leftover position -> selected position
    leftovers: np.ndarray
    fibers: dict[int, list[int]]

    @property
    def largest(self) -> tuple[int, list[int]]:
        if not self.fibers:
            return -1, []
        anchor = max(self.fibers, key=lambda a: (len(self.fibers[a]), -a))
        return anchor, self.fibers[anchor]


def theta_assignment(n_centers: int, fam: SeparatedFamily, images) -> ThetaFibers:
    """Map every non-selected center to the nearest selected image.

    Ties break toward the lowest selected index.  Maximality guarantees the
    assignment distance is < separation for every leftover.
    """
    images = np.asarray(images, dtype=float)
    mask = np.ones(n_centers, dtype=bool)
    mask[fam.selected] = False
    leftovers = np.nonzero(mask)[0]
    fibers: dict[int, list[int]] = {}
    if leftovers.size == 0:
        return ThetaFibers(assignment=np.empty(0, dtype=int), leftovers=leftovers, fibers=fibers)
    d = cdist(images[leftovers], fam.images)
    nearest = np.argmin(d, axis=1)  # first minimum = lowest selected index
    take = d[np.arange(leftovers.size), nearest]
    if np.any(take >= fam.separation + 1e-12):
        raise AssertionError("theta_assignment: maximality violated")
    assignment = fam.selected[nearest]
    for pos, anchor in zip(leftovers, assignment):
        fibers.setdefault(int(anchor), []).append(int(pos))
    return ThetaFibers(assignment=assignment, leftovers=leftovers, fibers=fibers)


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
    """k ball centers plus the certificate data for the bunching conclusions."""

    centers: PolarBatch
    r: float
    epsilon: float
    C: float
    R_used: float
    pairwise_manifold_min: float
    pairwise_image_max: float
    fiber_anchor: HPoint
    hausdorff_max: float | None = None
    alpha: float | None = None
    indices: tuple[float, ...] | None = None
    center_radius: float | None = None
    hausdorff_pipeline: bool = False
    selected_count: int = 0
    family_count: int = 0
    history: tuple = ()  # per-R records: family/selected/largest_fiber/bound

    @property
    def k(self) -> int:
        return len(self.centers)

    def manifold_min_recomputed(self) -> float:
        """Pairwise center separation via the stable angle kernel."""
        if self.alpha is None or self.indices is None:
            return _pairwise_min_block(self.centers.r, self.centers.dirs)
        return min_lag_distance(self.center_radius, self.alpha, self.indices)


def _best_window(members: list[int], imgs: np.ndarray, k: int) -> tuple[list[int], float]:
    """k consecutive fiber members minimizing their image diameter."""
    best_diam = math.inf
    best: list[int] = []
    for s in range(len(members) - k + 1):
        window = imgs[s : s + k]
        diam = float(np.max(cdist(window, window))) if k > 1 else 0.0
        if diam < best_diam:
            best_diam = diam
            best = members[s : s + k]
    return best, best_diam


def find_bunched_configuration(
    F: LipschitzMapHandle,
    params: SearchParams,
    net: NetTemplate | None = None,
    max_image_diameter: float | None = None,
) -> BunchedConfiguration:
    """Walk the R schedule until some Theta fiber holds k members.

    Returns the k members (the consecutive-in-index window of the largest
    fiber with the smallest image spread) together with the fiber's anchor.
    The returned configuration re-verifies the two proof inequalities:
    pairwise manifold distance >= 2C and pairwise image distance < 2/C.

    Raises
    ------
    ScheduleExhausted
        If no R in the schedule produces a fiber of size k (with the image
        diameter constraint, when one is given).
    """
    eff_F = F
    rho = 0.0
    if params.hausdorff:
        if net is None:
            net = build_reference_net(params.r, params.epsilon / (2.0 * F.L), F.m)
        if abs(net.rho - params.r) > 1e-12:
            raise ValueError("find_bunched_configuration: net rho must equal r")
        eff_F = augment_map(F, net)
        rho = net.rho

    sep = 1.0 / params.C
    diagnostics: list[dict] = []
    for R in params.R_schedule:
        fam = generate_centers(PackingSpec.at_origin(params.C, R, params.m), params.cap)
        images = eff_F.batch(fam.centers)
        sf = greedy_separated_subfamily(fam.centers, images, sep)
        if not sf.verify(images):
            raise AssertionError("separated family invariants failed")
        # volume bound; the augmented pipeline uses the affine growth
        # sqrt(l) L (R + 2 rho) of the concatenated image
        bound_L = math.sqrt(net.l) * F.L if params.hausdorff else F.L
        bound = counting_upper_bound(R + 2.0 * rho, params.C, bound_L, eff_F.n)
        if len(sf.selected) > bound:
            raise AssertionError(
                f"volume bound violated: {len(sf.selected)} selected > {bound}"
            )
        fibers = theta_assignment(len(fam), sf, images)
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
        }
        diagnostics.append(entry)
        if len(members) < params.k:
            continue
        chosen, diam = _best_window(members, images[members], params.k)
        if max_image_diameter is not None and diam >= max_image_diameter and diam > 0.0:
            entry["rejected_diameter"] = diam
            continue

        idx = tuple(float(fam.indices[i]) for i in chosen)
        pair_min = min_lag_distance(fam.center_radius, fam.alpha, idx)
        if pair_min < 2.0 * params.C - 1e-9:
            raise AssertionError("bunched configuration violates the 2C separation")
        if diam >= 2.0 / params.C + 1e-9:
            raise AssertionError("bunched configuration violates the 2/C image bound")
        return BunchedConfiguration(
            centers=fam.centers[chosen],
            r=params.r,
            epsilon=params.epsilon,
            C=params.C,
            R_used=R,
            pairwise_manifold_min=pair_min,
            pairwise_image_max=diam,
            fiber_anchor=fam.centers[anchor],
            alpha=fam.alpha,
            indices=idx,
            center_radius=fam.center_radius,
            hausdorff_pipeline=params.hausdorff,
            selected_count=int(len(sf.selected)),
            family_count=len(fam),
            history=tuple(diagnostics),
        )
    raise ScheduleExhausted(
        f"no fiber reached k={params.k} on schedule {params.R_schedule}", diagnostics
    )


def hausdorff_distance_estimate(A, B) -> float:
    """Hausdorff distance between finite point sets:
    max of the two directed sup-inf distances."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("hausdorff_distance_estimate: empty point set")
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    return max(
        _nearest_extreme(A, B, cKDTree(B), farthest=True),
        _nearest_extreme(B, A, cKDTree(A), farthest=True),
    )


#: Relative gap within which a tree distance may misorder two cdist values;
#: both are sums of squares rounded in different orders.
_TREE_SLACK = 1e-9


def _nearest_extreme(A: np.ndarray, B: np.ndarray, tree: cKDTree, farthest: bool) -> float:
    """min (or max, if `farthest`) over the rows a of A of min_b |a - b|, for
    `tree` built on B.

    Equals cdist(A, B).min(axis=1).min() (or .max()) bit for bit: the tree's
    nearest distances pick every row within _TREE_SLACK of the extreme, and
    only those rows are measured against all of B with cdist.
    """
    near = tree.query(A)[0]
    if farthest:
        rows = near >= near.max() * (1.0 - _TREE_SLACK)
    else:
        rows = near <= near.min() * (1.0 + _TREE_SLACK)
    exact = cdist(A[rows], B).min(axis=1)
    return float(exact.max() if farthest else exact.min())


def _set_distance_max(clouds: list[np.ndarray]) -> float:
    """max over pairs i < j of min_{a in clouds[i], b in clouds[j]} |a - b|,
    equal to the full-cdist minima bit for bit; one tree per cloud."""
    trees = [cKDTree(c) for c in clouds]
    worst = 0.0
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            worst = max(worst, _nearest_extreme(clouds[i], clouds[j], trees[j], farthest=False))
    return worst


#: Most random points certify_configuration draws per ball; each one is made
#: by exp, mapped and held in a k-d tree.
SAMPLES_MAX = 100_000


def check_samples(samples: int) -> None:
    """Refuse a per-ball sample count outside [0, SAMPLES_MAX]."""
    if not 0 <= samples <= SAMPLES_MAX:
        raise ValueError(f"samples must be >= 0 and <= {SAMPLES_MAX:,} (got {samples})")


@dataclass(frozen=True)
class Certificate:
    """Measured margins for the three bunching conclusions."""

    separation_min: float  # min over pairs of d(B_i, B_j) lower bound
    separation_required: float  # 1/epsilon
    pass_i: bool
    set_distance_max: float  # max over pairs of the image set-distance upper bound
    pass_ii: bool
    hausdorff_max: float | None
    pass_iii: bool | None
    epsilon: float
    separation_2C_ok: bool = True  # the proof invariant d(p_i, p_j) >= 2C

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
    net: NetTemplate | None = None,
    samples: int = 512,
    seed: int = 0,
) -> Certificate:
    """Independent verification of conclusions (i)-(iii) for a configuration.

    (i) is exact: pairwise center distances are recomputed with the stable
    kernel and must exceed 2r + 1/epsilon.  (ii) samples the image sets
    (centers, transported net points, and seeded random ball points); any
    cross pair bounds the set distance from above, and the closest pair is
    found through one k-d tree per set (`_set_distance_max`).  (iii) bounds the
    directed Hausdorff distances by the net-image estimate plus the L*delta
    net slack, and is only evaluated for configurations from the augmented
    pipeline (the set-distance C need not satisfy the Hausdorff budget).
    """
    check_samples(samples)
    eps = cfg.epsilon
    r = cfg.r
    k = cfg.k

    # (i): d(B_i, B_j) = d(p_i, p_j) - 2r >= 1/eps
    pair_min = cfg.manifold_min_recomputed()
    sep = pair_min - 2.0 * r
    pass_i = sep >= 1.0 / eps - 1e-9
    sep_2C_ok = pair_min >= 2.0 * cfg.C - 1e-9

    # point clouds per ball: net points plus volume-corrected random samples
    if net is None:
        net = build_reference_net(r, eps / (2.0 * F.L), F.m)
    if abs(net.rho - r) > 1e-12:
        raise ValueError("certify_configuration: net rho must equal the ball radius")
    rng = np.random.default_rng(seed)
    center_images = F.batch(cfg.centers)
    net_images = np.split(F.batch(transport_net(net, cfg.centers)), k)  # l rows per ball
    clouds = []
    for p, img, imgs_net in zip(cfg.centers, center_images, net_images):
        extra = F.batch(_sample_ball_points(p, r, samples, rng))
        clouds.append(np.vstack([imgs_net, extra, img[None, :]]))

    set_dist = _set_distance_max(clouds)
    pass_ii = set_dist <= eps + 1e-9

    hausdorff_max: float | None = None
    pass_iii: bool | None = None
    if cfg.hausdorff_pipeline:
        slack = F.L * net.delta
        worst = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                est = hausdorff_distance_estimate(net_images[i], net_images[j])
                worst = max(worst, est + slack)
        hausdorff_max = worst
        pass_iii = worst <= eps + 1e-9

    return Certificate(
        separation_min=sep,
        separation_required=1.0 / eps,
        pass_i=bool(pass_i),
        set_distance_max=set_dist,
        pass_ii=bool(pass_ii),
        hausdorff_max=hausdorff_max,
        pass_iii=pass_iii,
        epsilon=eps,
        separation_2C_ok=bool(sep_2C_ok),
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
        params = SearchParams.derive(
            r=base_params.r,
            epsilon=eps_l,
            k=k,
            m=base_params.m,
            cap=base_params.cap,
            seed=base_params.seed,
        )
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
