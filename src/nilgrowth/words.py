"""Word-metric balls, word lengths, and growth-exponent fits.

Balls are enumerated by exact breadth-first search over the Cayley graph of a
finite generating set (inverses added automatically).  Every element of a
radius-n ball is packed into one integer key by a KeyCodec, which alone knows
the layout: a mixed-radix number over its coordinates in order, each offset
by an a-priori bound, with k the last digit.  Keys sort lexicographically,
and the keys of one abelian body v are consecutive.  The search works in
int32 when the ball codec's bound on every key and every partial sum of its
step plan is below 2^31, and in int64 otherwise; the runs it hands back are
int64 either way.

The search holds every sphere as runs [lo, hi] of consecutive keys, each
inside one body: the elements (v, k) with k in an interval.  Right
multiplication by a step adds a constant to the body and to k a shift that
depends only on the body, so it moves a whole run: the image of [lo, hi] is
[lo', lo' + hi - lo].  The step set is symmetric, so the ball B_{L+1} is B_L
and the one-step images of sphere L.  Their union is read off the candidate
starts and ends, each sorted once; sphere L+1 is then B_{L+1} minus B_L, the
gaps between B_L's runs inside B_{L+1}'s.  Sizes, central counts and word
lengths read the runs; per-element keys are built only when asked for.

enumerate_ball holds the last request's codec and runs, read-only, so a
repeated request does not search again; each call still gets its own
BallTable.  The next distinct request, or enumerate_ball.cache_clear(),
releases them.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np

from .errors import BudgetError, SpecError
from .groups import Element, GroupSpec, affine_maps, standard_generators

DEFAULT_BUDGET = 10**8
# Packed keys stay below this, so a key plus one step's shift cannot overflow int64, nor can it part way through
# BallCodec.expand, which adds the shift in parts.  A ball whose codec bounds every key and every partial sum of
# expand below NARROW_LIMIT is searched in int32 keys instead; the runs the search hands back are int64 either way.
KEY_LIMIT = 2**62
NARROW_LIMIT = 2**31


def resolve_budget(budget: int | None) -> int:
    """Explicit budget, else NILGROWTH_BUDGET from the environment, else 10^8 elements; never negative."""
    if budget is None:
        raw = os.environ.get("NILGROWTH_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise SpecError(f"NILGROWTH_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise SpecError(f"budget must be nonnegative, got {budget}")
    return budget


def check_budget(needed: int, budget: int | None, what: str) -> None:
    """The one budget check: BudgetError when `needed` stored items, named by `what`, pass the resolved budget."""
    cap = resolve_budget(budget)
    if needed > cap:
        raise BudgetError(f"{what}: {needed} needed, beyond the {cap} cap", needed=needed, budget=cap)


def cumulative_counts(lengths, n: int) -> list[int]:
    """Entry m, for m = 0..n, counts the given nonnegative lengths (an int array or any iterable of ints) that are <= m."""
    if not isinstance(lengths, np.ndarray):
        lengths = np.fromiter(lengths, dtype=np.int64)
    return np.cumsum(np.bincount(lengths[lengths <= n], minlength=max(n + 1, 0))).tolist()


@dataclass(frozen=True)
class GeneratingSet:
    """A finite generating set; inverses are implicit."""

    gens: tuple[Element, ...]

    def __post_init__(self):
        if not self.gens:
            raise SpecError("generating set must be non-empty")


def standard_generating_set(spec: GroupSpec) -> GeneratingSet:
    """The s+2r unit-coordinate generators z_1..z_s, a_1, b_1, ..., a_r, b_r."""
    return GeneratingSet(standard_generators(spec))


def _step_set(spec: GroupSpec, gens: GeneratingSet) -> list[Element]:
    """Generators and their inverses, deduplicated, identity dropped."""
    steps: dict[Element, None] = {}
    e = spec.identity()
    for g in gens.gens:
        if len(g) != spec.ncoords:
            raise SpecError("generator does not match spec")
        for h in (g, spec.inv(g)):
            if h != e:
                steps[h] = None
    return list(steps)


class KeyCodec:
    """Mixed-radix int64 keys for coordinate rows: the one place that knows the key layout.

    Coordinate p is stored as the digit x_p + offsets[p] in [0, radices[p]),
    the last coordinate as the least significant digit.  So keys sort as their
    rows do, and the keys of one body (every coordinate but the last) are
    consecutive.  A radix product of KEY_LIMIT or more raises SpecError naming
    `what`, the rows being packed.
    """

    def __init__(self, offsets, radices, what: str):
        self.offsets, self.radices = list(offsets), list(radices)
        self.strides = [math.prod(self.radices[p + 1 :]) for p in range(len(self.radices))]
        product = math.prod(self.radices)
        if product >= KEY_LIMIT:
            raise SpecError(f"{what} do not fit 64-bit keys (radix product {product} >= 2^62)")
        self.identity = sum(o * stride for o, stride in zip(self.offsets, self.strides))  # the zero row's key

    def with_last_digit(self, radix: int, what: str) -> KeyCodec:
        """A codec over the same body digits whose last digit also holds every value 0..radix-1 as itself."""
        return KeyCodec(self.offsets, self.radices[:-1] + [max(self.radices[-1], radix)], what)

    def pack(self, coords: np.ndarray) -> np.ndarray:
        """The key of every (..., p) int64 row of the first p coordinates, inside their ranges; the rest are 0."""
        return self.identity + coords @ np.array(self.strides[: coords.shape[-1]], dtype=np.int64)

    def pack_rows(self, coords: np.ndarray) -> np.ndarray:
        """The key of every (..., ncoords) coordinate row, or -1 for a row with some digit outside [0, radices[p]).

        The rows outside are zeroed before the int64 conversion and masked
        after packing, so a row far outside, int64 or exact Python ints,
        neither overflows nor reads as a valid key.
        """
        inside = ((coords >= -np.array(self.offsets)) & (coords < np.subtract(self.radices, self.offsets))).all(axis=-1)
        return np.where(inside, self.pack(np.where(inside[..., None], coords, 0).astype(np.int64)), -1)

    def split(self, keys):
        """(body, last digit) of every key; with_last_digit keeps a body's number."""
        return np.divmod(keys, self.radices[-1])

    def join(self, body, digit):
        """split's inverse."""
        return body * self.radices[-1] + digit

    def column(self, keys: np.ndarray, p: int) -> np.ndarray:
        """Coordinate p of every key."""
        return keys // self.strides[p] % self.radices[p] - self.offsets[p]

    def coords(self, keys: np.ndarray) -> np.ndarray:
        """The (len(keys), ncoords) coordinate rows of the keys, a column at a time: // by a scalar is fast."""
        digits = np.empty((len(self.radices), len(keys)), dtype=np.int64)
        for p, radix in reversed(list(enumerate(self.radices))):
            rest = keys // radix
            digits[p] = keys - rest * radix
            keys = rest
        return (digits - np.array(self.offsets, dtype=np.int64)[:, None]).T


class BallCodec(KeyCodec):
    """The radius-n ball's codec and its one-step plan (expand): |x_p| <= offsets[p], a bound from the steps.

    Both are read off the steps' affine maps h -> h g (groups.affine_maps):
    the body of h g is body(h) + body(g), and its k is k(h) + k(g) plus
    lin_p(g) h_p summed over the body coordinates p.
    """

    def __init__(self, spec: GroupSpec, steps: list[Element], n: int):
        # Radius 0 takes no step, so it plans none: its codec fits even where the steps' keys would not.
        rows = np.array(steps if n else [], dtype=object).reshape(-1, spec.ncoords)
        shift, c, lin = affine_maps(spec, spec.identity(), rows)
        lin = lin[:, :-1]  # the body coordinates' terms: k(h) enters h g with coefficient 1
        top = [max(map(abs, g_p), default=0) for g_p in shift.T.tolist()]  # the largest |g_p| over the steps
        cross = sum(max(map(abs, lin_p), default=0) * t for lin_p, t in zip(lin.T.tolist(), top))
        # |h_p| <= (m - 1) top[p] before step m, so step m adds at most max|k(g)| + sum_p max|lin_p(g)| (m - 1) top[p]
        k_bound = n * max(map(abs, c.tolist()), default=0) + cross * (n * (n - 1) // 2)
        bounds = [n * t for t in top] + [k_bound]
        super().__init__(bounds, [2 * b + 1 for b in bounds], f"elements of the radius-{n} ball")
        # h g shifts h's key by g's less the identity's, plus lin_p(g) h_p per body coordinate p.  expand reads h_p as
        # its digit less its offset, folded into deltas here, over the steps from the first to the last with lin_p != 0.
        strides, offsets = (np.array(x[:-1], dtype=object) for x in (self.strides, self.offsets))
        deltas = shift @ strides + c - lin @ offsets
        # The k bound leaves out a lin term at radius 1, or along a coordinate no step moves, so there a huge weight
        # can put the plan past int64 while the keys fit.
        if max(map(abs, deltas.tolist() + lin.ravel().tolist()), default=0) >= 2**63:
            raise SpecError(f"steps of the radius-{n} ball do not fit 64-bit keys")
        # A key, plus a step's delta, plus lin_p(g) times a digit below radix_p for some of the p, bounds every key,
        # every plan entry and every partial sum of expand: the search's working dtype holds them all.
        reach = math.prod(self.radices) + max(map(abs, deltas.tolist()), default=0)
        reach += sum(max(map(abs, lin_p), default=0) * radix for lin_p, radix in zip(lin.T.tolist(), self.radices))
        self.dtype = np.dtype(np.int32 if reach < NARROW_LIMIT else np.int64)
        self.deltas = deltas.astype(self.dtype)[:, None]
        self.cross = []  # (h_p stride, h_p radix, span of steps, lin_p(g) per step g of the span) per moving p
        for p, column in enumerate(lin.T):
            moves = column.nonzero()[0].tolist()
            if moves:
                span = slice(moves[0], moves[-1] + 1)
                self.cross.append((self.strides[p], self.radices[p], span, column[span].astype(self.dtype)[:, None]))

    def expand(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill the (steps, len(keys)) array out with the keys of every one-step product: row i holds g*x_i, g in keys.

        The k shift of g*x depends only on x and the body of g, so every row
        of a sorted keys array is sorted.  keys and out are in self.dtype:
        int32 when the codec's bound allows, so no sum here passes it.
        """
        np.add(keys, self.deltas, out=out)
        for stride, radix, span, corr in self.cross:
            out[span] += corr * (keys // stride % radix)
        return out


def run_keys(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every key of the runs [lo, hi] (lo <= hi), run by run: a cumulative sum of ones and the jumps between runs."""
    ends = np.cumsum(hi - lo + 1)
    keys = np.ones(ends[-1] if len(ends) else 0, dtype=np.int64)
    if len(keys):
        keys[0] = lo[0]
        keys[ends[:-1]] = lo[1:] - hi[:-1]
        np.cumsum(keys, out=keys)
    return keys


def _spheres(codec: BallCodec, n: int, cap: int):
    """Yield (L, lo, hi) for L = 1..n: sphere L as its runs [lo, hi], checking the cumulative ball size against cap.

    The search works in codec.dtype; every sphere it yields is int64.
    """
    dtype = codec.dtype
    lo = hi = np.array([codec.identity], dtype=dtype)  # the ball's runs so far
    sphere_lo, span = lo, np.zeros(1, dtype=dtype)  # the last sphere's runs: starts, and lengths less one
    steps = len(codec.deltas)
    total = 1
    for level in range(1, n + 1):
        # The candidates, starts in row 0 and ends in row 1: the ball's runs, then every step's image of the last
        # sphere's.  Each neighbour of the ball outside it is a neighbour of the last sphere, and a step moves a
        # whole run: its end keeps its distance from its start.
        old, size = len(lo), len(sphere_lo)
        cand = np.empty((2, old + steps * size), dtype=dtype)
        cand[0, :old], cand[1, :old] = lo, hi
        moved = cand[:, old:].reshape(2, steps, size)
        codec.expand(sphere_lo, moved[0])
        np.add(moved[0], span, out=moved[1])
        cand.sort()
        starts, ends = cand
        # Their union: a run breaks before start i when it passes every end before it by more than one,
        # or by exactly one at the first key of a body, so no run leaves its body.
        gap = starts[1:] - ends[:-1]
        cut = np.empty(len(starts) + 1, dtype=bool)
        cut[0] = cut[-1] = True
        np.greater(gap, 1, out=cut[1:-1])
        touch = (gap == 1).nonzero()[0] + 1
        if len(touch):
            cut[touch] = codec.split(starts[touch])[1] == 0
        # (compress, not a boolean index: it is far faster on masks without long runs)
        new_lo, new_hi = starts.compress(cut[:-1]), ends.compress(cut[1:])
        del cand, moved, starts, ends, gap, cut, touch  # freed before the gaps are built
        # Sphere L+1 is the new ball minus the old, which lies inside it: the gaps between the old runs in each
        # new run, paired in order.  A gap is empty where an old run meets a new run's end.
        runs = len(new_lo)
        gaps = np.empty((2, runs + old), dtype=dtype)
        gaps[0, :runs], gaps[1, :runs] = new_lo, new_hi
        np.add(hi, 1, out=gaps[0, runs:])
        np.subtract(lo, 1, out=gaps[1, runs:])
        gaps.sort()
        sphere = gaps.compress(gaps[0] <= gaps[1], axis=1)
        del gaps  # not held across the yield
        yield level, *sphere.astype(np.int64, copy=False)
        sphere_lo, span = sphere[0], sphere[1] - sphere[0]
        total += int(span.sum()) + len(span)
        check_budget(total, cap, f"stored elements of the radius-{level} ball")
        lo, hi = new_lo, new_hi


@dataclass(eq=False)
class BallTable:
    """Exact word lengths for the radius-n ball: each sphere as its sorted, disjoint runs of consecutive keys.

    The per-element arrays (keys, lengths, coords, entries) are built from the
    runs on first use, all in one order: increasing key, which is
    lexicographic coordinate order.  index returns positions in that order.
    """

    spec: GroupSpec
    radius: int
    codec: BallCodec
    runs: list[tuple[np.ndarray, np.ndarray]]  # (lo, hi) of every sphere

    @cached_property
    def sphere_sizes(self) -> list[int]:
        return [int((hi - lo).sum()) + len(lo) for lo, hi in self.runs]

    def ball_sizes(self) -> list[int]:
        """Cumulative counts beta(m) for m = 0..radius."""
        return list(accumulate(self.sphere_sizes))

    @cached_property
    def entries(self) -> dict[Element, int]:
        """Element -> word length, in key order."""
        return dict(zip(map(tuple, self.coords.tolist()), self.lengths.tolist()))

    @property
    def flat_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The runs of every sphere and each run's sphere, (lo, hi, level), sorted by start: so in key order."""
        lo, hi = (np.concatenate(ends) for ends in zip(*self.runs))
        level = np.repeat(np.arange(len(self.runs), dtype=np.int32), [len(lo) for lo, _ in self.runs])
        order = lo.argsort(kind="stable")  # merges the spheres, each sorted
        return lo[order], hi[order], level[order]

    @cached_property
    def keys(self) -> np.ndarray:
        """Every key of the ball, increasing."""
        return run_keys(*self.flat_runs[:2])

    @cached_property
    def coords(self) -> np.ndarray:
        """The coordinate rows of keys."""
        return self.codec.coords(self.keys)

    @cached_property
    def lengths(self) -> np.ndarray:
        """The word length of every row of keys."""
        lo, hi, level = self.flat_runs
        return np.repeat(level, hi - lo + 1)

    def prefix(self, r: int) -> BallTable:
        """The radius-r ball for r <= radius: spheres 0..r under the same codec, equal to a fresh radius-r ball.

        Keys sort lexicographically under any coordinate bounds, so the
        prefix has the elements, lengths and order of a fresh enumeration.
        """
        if not 0 <= r <= self.radius:
            raise SpecError(f"prefix radius {r} outside 0..{self.radius}")
        if r == self.radius:
            return self
        return BallTable(spec=self.spec, radius=r, codec=self.codec, runs=self.runs[: r + 1])

    def index(self, coords: np.ndarray) -> np.ndarray:
        """The position in keys of every (..., ncoords) coordinate row, or -1 for a row not in the ball."""
        keys = self.codec.pack_rows(coords)
        pos = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, pos, -1)


def enumerate_ball(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> BallTable:
    """Exact BFS ball of radius n; raises BudgetError past the element cap."""
    if n < 0:
        raise SpecError("radius must be nonnegative")
    codec, runs = _ball(spec, tuple(_step_set(spec, gens)), n, resolve_budget(budget))
    return BallTable(spec=spec, radius=n, codec=codec, runs=list(runs))


@lru_cache(maxsize=1)
def _ball(spec: GroupSpec, steps: tuple[Element, ...], n: int, cap: int) -> tuple[BallCodec, tuple]:
    """The codec and sphere runs of enumerate_ball, every array read-only: the last request's are held for the next.

    The cap is part of the key, so a lower budget is a miss and raises as a
    fresh search would; a BudgetError is not cached.
    """
    codec = BallCodec(spec, list(steps), n)
    identity = np.array([codec.identity], dtype=np.int64)
    runs = ((identity, identity),) + tuple((lo, hi) for _, lo, hi in _spheres(codec, n, cap))
    for array in (codec.deltas, *(corr for *_, corr in codec.cross), *chain.from_iterable(runs)):
        array.flags.writeable = False
    return codec, runs


enumerate_ball.cache_clear = _ball.cache_clear


def central_growth(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """beta_<c>(m) for m = 0..n: how many c^k lie in the m-ball."""
    table = enumerate_ball(spec, gens, n, budget=budget)
    codec = table.codec
    # The c^k are the identity's body, one block of the runs in key order: those starting in its key range.
    lo, hi, level = table.flat_runs
    a, b = np.searchsorted(lo, codec.join(codec.split(codec.identity)[0] + np.arange(2), 0))
    return cumulative_counts(np.repeat(level[a:b], hi[a:b] - lo[a:b] + 1), n)


def growth_exponent_fit(values, window: tuple[int, int]) -> float:
    """Least-squares slope of log values[n] vs log n for n in the inclusive window."""
    lo, hi = window
    if hi - lo + 1 < 3:
        raise SpecError("fit window needs at least 3 points")
    if lo < 1 or hi >= len(values):
        raise SpecError("fit window out of range")
    xs, ys = [], []
    for m in range(lo, hi + 1):
        if values[m] <= 0:
            raise SpecError("values must be positive on the fit window")
        xs.append(math.log(m))
        ys.append(math.log(values[m]))
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
