"""Fat flat subschemes and the builders for every named configuration.

A scheme is a list of (linear subspace, multiplicity) components, none of
which contains another.  The k-th symbolic power of its ideal is operated
on exclusively through the component-wise orders k*mu_i, which is exact
for linear supports (each component is a complete intersection, so the
powers of its ideal are unmixed).
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenericityError, ValidationError
from .projective import (
    LinForm,
    Subspace,
    collinear,
    hyperplane_subspace,
    hyperplanes_general,
    intersect_hyperplanes,
    line_through,
    normalize_point,
    point_subspace,
    random_general_hyperplanes,
    random_point_on,
    subspace_contains,
    transform_subspace,
)
from .scalars import require_int

_MAX_RETRIES = 64


@dataclass(frozen=True)
class FatComponent:
    subspace: Subspace
    multiplicity: int
    label: str = ""

    def __post_init__(self):
        if require_int(self.multiplicity, "multiplicity") < 1:
            raise ValidationError("multiplicity must be >= 1")


@dataclass(frozen=True)
class StarData:
    """The star construction m*S_N(e, s): the s hyperplanes H_1..H_s, cut
    e at a time, each e-fold intersection L_S taken with multiplicity m.

    ``s``, the flats and their labels are read off the hyperplanes; a
    scheme that carries a star checks it (see FatFlatScheme).
    """

    hyperplanes: tuple
    e: int
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hyperplanes", tuple(self.hyperplanes))

    @property
    def s(self) -> int:
        return len(self.hyperplanes)

    def components(self) -> tuple:
        """m*S_N(e, s): every L_S with multiplicity m, labelled L followed
        by the 1-based indices in S, the e-subsets S in lexicographic order."""
        return tuple(
            FatComponent(intersect_hyperplanes(self.hyperplanes, subset),
                         self.m,
                         label="L" + "".join(str(j + 1) for j in subset))
            for subset in itertools.combinations(range(self.s), self.e))


@dataclass(frozen=True)
class FatFlatScheme:
    """Components with multiplicities; pairwise distinct, containment-free.

    ``star``, when given, is a star construction that the scheme contains,
    and construction checks exactly what the closed form downstream needs:
    1 <= e <= min(s, N), m >= 1, the s hyperplanes are general hyperplanes
    of P^N, and every e-fold intersection is a component of multiplicity
    at least m.  Then W contains m*S_N(e, s), so I(W)^(k) lies in
    I(m*S_N(e, s))^(k) for every k, and by this monotonicity
    alpha_hat(W) >= alpha_hat(m*S_N(e, s)) = m*s/e.  ``star_core`` reads
    (e, s, m) off the star; ``alpha_table`` starts each k at the proved
    floor ceil(k*m*s/e) that this gives.
    """

    ambient_dim: int
    components: tuple
    star: StarData = None

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValidationError("scheme needs at least one component")
        for comp in comps:
            if comp.subspace.ambient_dim != self.ambient_dim:
                raise ValidationError("component ambient dimension mismatch")
        if self.star is not None:
            self._check_star(comps)
        for a, b in itertools.combinations(comps, 2):
            if a.subspace == b.subspace:
                raise ValidationError("components must be pairwise distinct")
            if subspace_contains(a.subspace, b.subspace) or \
               subspace_contains(b.subspace, a.subspace):
                raise ValidationError(
                    "no component may contain another "
                    f"({a.label or a.subspace} vs {b.label or b.subspace})")
        object.__setattr__(self, "components", comps)

    def _check_star(self, comps):
        star, n = self.star, self.ambient_dim
        if not (1 <= star.e <= min(star.s, n) and star.m >= 1):
            raise ValidationError(
                f"star_core (e, s, m) = {self.star_core} needs "
                f"1 <= e <= min(s, N = {n}) and m >= 1")
        if any(h.ambient_dim != n for h in star.hyperplanes) or \
           not hyperplanes_general(star.hyperplanes):
            raise ValidationError(
                f"star_core hyperplanes are not general hyperplanes of P^{n}")
        have = {c.subspace: c.multiplicity for c in comps}
        for flat in star.components():
            if have.get(flat.subspace, 0) < star.m:
                raise ValidationError(
                    f"star_core flat {flat.label} is not a component of "
                    f"multiplicity >= {star.m}")

    @property
    def star_core(self):
        """(e, s, m) of the checked star, or None."""
        star = self.star
        return None if star is None else (star.e, star.s, star.m)


@dataclass(frozen=True)
class FatPointsP2:
    """Fat points in P^2: distinct points with positive multiplicities."""

    points: tuple
    multiplicities: tuple

    def __init__(self, points, multiplicities):
        pts = tuple(normalize_point(p) for p in points)
        mults = tuple(require_int(m, "multiplicity") for m in multiplicities)
        if len(pts) != len(mults) or not pts:
            raise ValidationError("need equally many points and multiplicities")
        if any(len(p) != 3 for p in pts):
            raise ValidationError("points of P^2 need exactly three coordinates")
        if len(set(pts)) != len(pts):
            raise ValidationError("points must be pairwise distinct")
        if any(m < 1 for m in mults):
            raise ValidationError("multiplicities must be >= 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)

    def __len__(self):
        return len(self.points)

    def to_scheme(self) -> FatFlatScheme:
        comps = tuple(
            FatComponent(point_subspace(p), m, label=f"p{i+1}")
            for i, (p, m) in enumerate(zip(self.points, self.multiplicities)))
        return FatFlatScheme(2, comps)


def star_configuration(N, e, s, hyperplanes=None, seed=0) -> FatFlatScheme:
    """S_N(e, s): all e-wise intersections of s general hyperplanes."""
    if not (1 <= e <= N and e <= s):
        raise ValidationError("need 1 <= e <= N and e <= s")
    if hyperplanes is None:
        hyperplanes = random_general_hyperplanes(N, s, seed)
    star = StarData(hyperplanes, e)
    if star.s != s:
        raise ValidationError(f"need s = {s} hyperplanes, not {star.s}")
    return FatFlatScheme(N, star.components(), star)


def scale_multiplicities(scheme: FatFlatScheme, m: int) -> FatFlatScheme:
    if m < 1:
        raise ValidationError("scale factor must be >= 1")
    comps = tuple(FatComponent(c.subspace, c.multiplicity * m, c.label)
                  for c in scheme.components)
    star = scheme.star
    if star is not None:
        star = StarData(star.hyperplanes, star.e, star.m * m)
    return FatFlatScheme(scheme.ambient_dim, comps, star)


def build_fat_flat(star: StarData, m: int, extras=()):
    """W_m = W' + m*S_N(e, s) with validated extra components.

    Each extra (subspace, multiplicity) must have codimension in [2, N],
    lie inside one of the constructing hyperplanes, respect the cap
    mu <= floor(m / e), and be containment-free against everything else.
    Extras with multiplicity 0 are dropped.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    star = StarData(star.hyperplanes, star.e, m)
    N, e = star.hyperplanes[0].ambient_dim, star.e
    cap = m // e
    hyps = [hyperplane_subspace(h) for h in star.hyperplanes]
    kept = []
    for idx, (sub, mu) in enumerate(extras):
        if mu == 0:
            continue
        if not (0 <= mu <= cap):
            raise ValidationError(
                f"extra multiplicity {mu} exceeds cap floor({m}/{e}) = {cap}")
        if not (2 <= sub.codim <= N):
            raise ValidationError("extras must have codimension in [2, N]")
        if not any(subspace_contains(h, sub) for h in hyps):
            raise ValidationError(
                "extra subspace is not contained in the hyperplane union")
        kept.append(FatComponent(sub, mu, label=f"M{idx+1}"))
    return FatFlatScheme(N, star.components() + tuple(kept), star)


def build_theorem_a(N, s, t, e, extras=(), hyperplanes=None, seed=0):
    """A scheme with alpha(I^(k)) = s*t*k for every k: extras plus
    m*S_N(e, s) with m = e*t, so build_fat_flat's cap floor(m/e) is t.
    """
    star = star_configuration(N, e, s, hyperplanes=hyperplanes, seed=seed).star
    return build_fat_flat(star, e * t, extras)


def build_quasi_star(s, seed=0):
    """W_2 = sum q_i + 2*S_2(2, s): doubled star points of s general lines
    plus one simple point on each line, the extras not all collinear."""
    if s < 2:
        raise ValidationError("need s >= 2")
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        lines = random_general_hyperplanes(2, s, rng.randrange(1 << 30))
        star = StarData(lines, 2, 2)
        doubles = star.components()
        star_points = [c.subspace for c in doubles]
        line_subs = [hyperplane_subspace(h) for h in lines]
        qs = []
        try:
            for i in range(s):
                avoid = star_points + [ls for j, ls in enumerate(line_subs)
                                       if j != i] + \
                        [point_subspace(q) for q in qs]
                qs.append(random_point_on(line_subs[i], rng, avoid=avoid))
        except GenericityError:
            continue
        if s >= 3 and collinear(qs):
            continue
        simples = tuple(FatComponent(point_subspace(q), 1, label=f"q{i+1}")
                        for i, q in enumerate(qs))
        return FatFlatScheme(2, doubles + simples, star)
    raise GenericityError("quasi-star generation failed")


def build_rational_target(a, b, N=None, seed=0):
    """A scheme whose Waldschmidt constant is exactly b/a.

    Prefers W_m = m*S_N(a, s) for the smallest factorization b = s*m with
    m >= 2 and s >= a; falls back to the plain star S_N(a, b).
    """
    if not (1 <= a < b):
        raise ValidationError("need 1 <= a < b")
    if N is None:
        N = max(a, 2)
    if N < a:
        raise ValidationError("ambient dimension must be at least a")
    best = (b, 1)
    for m in range(2, b + 1):
        if b % m == 0 and a <= b // m < best[0]:
            best = (b // m, m)
    s, m = best
    star = StarData(random_general_hyperplanes(N, s, seed), a, m)
    return FatFlatScheme(N, star.components(), star)


def symbolic_multiplicities(scheme: FatFlatScheme, k: int):
    """Component orders of the k-th symbolic power: (subspace, k*mu_i)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return [(c.subspace, k * c.multiplicity) for c in scheme.components]


def transform_scheme(scheme: FatFlatScheme, matrix) -> FatFlatScheme:
    """Apply one invertible coordinate change to every component and to
    every hyperplane of the star."""
    comps = tuple(FatComponent(transform_subspace(c.subspace, matrix),
                               c.multiplicity, c.label)
                  for c in scheme.components)
    star = scheme.star
    if star is not None:
        star = StarData(
            tuple(transform_subspace(hyperplane_subspace(h), matrix).forms[0]
                  for h in star.hyperplanes), star.e, star.m)
    return FatFlatScheme(scheme.ambient_dim, comps, star)


# -- the planar families of the classification --------------------------------

def _pt(x, y, z=1):
    return normalize_point((Fraction(x), Fraction(y), Fraction(z)))


# The parameters each planar family reads.
_FAMILY_PARAMS = {"a": ("r", "s"), "b": ("r", "s"), "c": (), "wprime": (),
                  "zprime": (), "z": ("n",), "wsecond": (),
                  "vprime": ("multiplicities",)}


def build_theorem_b_family(case_id, params=None):
    """Exact-coordinate instances of the planar families.

    Cases: 'a' (r doubles + s simples on a line), 'b' (two lines crossing
    at the unique double), 'c' (one double off a line of three simples),
    'wprime', 'zprime', 'z' (n points, Figure-3 shape), 'wsecond',
    'vprime' (multiplicities on a line).  A parameter the case does not
    read, or one that is not an integer, is an error.
    """
    if case_id not in _FAMILY_PARAMS:
        raise ValidationError(f"unknown family {case_id!r}")
    params = dict(params or {})
    unread = sorted(set(params) - set(_FAMILY_PARAMS[case_id]))
    if unread:
        raise ValidationError(f"family {case_id!r} does not read "
                              f"{', '.join(map(str, unread))}")

    def get(name, default):
        return require_int(params.get(name, default), f"family {name!r}")

    if case_id == "a":
        r, s = get("r", 1), get("s", 0)
        if r < 1 or s < 0:
            raise ValidationError("case a needs r >= 1, s >= 0")
        pts = [_pt(i + 1, 0) for i in range(r + s)]
        mults = [2] * r + [1] * s
        return FatPointsP2(pts, mults)
    if case_id == "b":
        r, s = get("r", 1), get("s", 1)
        if r < 1 or s < 1:
            raise ValidationError("case b needs r, s >= 1")
        pts = [_pt(i + 1, 0) for i in range(r)] + \
              [_pt(0, i + 1) for i in range(s)] + [_pt(0, 0)]
        mults = [1] * (r + s) + [2]
        return FatPointsP2(pts, mults)
    if case_id == "c":
        pts = [_pt(0, 1), _pt(1, 0), _pt(2, 0), _pt(3, 0)]
        return FatPointsP2(pts, [2, 1, 1, 1])
    if case_id == "wprime":
        pts = [_pt(0, 1), _pt(0, 2), _pt(1, 0), _pt(2, 0)]
        return FatPointsP2(pts, [2, 1, 1, 1])
    if case_id == "zprime":
        pts = [_pt(0, 1), _pt(1, 0), _pt(2, 0)]
        return FatPointsP2(pts, [2, 2, 1])
    if case_id == "z":
        n = get("n", 5)
        if n < 4:
            raise ValidationError("the Figure-3 family needs n >= 4")
        pts = [_pt(0, 1)] + [_pt(i + 1, 0) for i in range(n - 1)]
        return FatPointsP2(pts, [2] + [1] * (n - 1))
    if case_id == "wsecond":
        pts = [_pt(0, 1), _pt(0, 2), _pt(1, 0), _pt(2, 0), _pt(0, 0)]
        return FatPointsP2(pts, [2, 1, 1, 1, 1])
    # vprime
    mults = params.get("multiplicities", (2, 1))
    if not isinstance(mults, (list, tuple)):
        raise ValidationError("V' multiplicities must be a list")
    mults = [require_int(m, "V' multiplicity") for m in mults]
    if not mults or any(m not in (1, 2) for m in mults):
        raise ValidationError("V' multiplicities must be 1 or 2")
    if 2 not in mults:
        raise ValidationError("V' must be non-reduced")
    pts = [_pt(i + 1, 0) for i in range(len(mults))]
    return FatPointsP2(pts, mults)


def support_line(fp: FatPointsP2) -> LinForm:
    """The line carrying a collinear configuration."""
    if not collinear(fp.points):
        raise ValidationError("configuration is not collinear")
    return line_through(fp.points[0], fp.points[1])
