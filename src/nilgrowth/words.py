"""Word-metric balls, word lengths, and growth-exponent fits.

Balls are enumerated by exact breadth-first search over the Cayley graph of a
finite generating set (inverses added automatically).  Every element of a
radius-n ball is packed into one int64 key: a mixed-radix number over its
coordinates in order, each offset by an a-priori bound (n times the largest
step entry for a non-central coordinate, O(n^2) for k through the weighted
cross term).  Ascending key order is lexicographic coordinate order.

The step set is symmetric, so every neighbour of sphere L lies in sphere
L-1, L or L+1.  Sphere L+1 is therefore the one-step expansion of sphere L
minus spheres L and L-1, and each sphere is kept as a sorted key array with
no ball-wide seen set.  Right multiplication by a fixed step adds a constant
to the body and a shift to k that depends only on the body, so it keeps
(body, k) order: each step's row of the expansion of a sorted sphere is
sorted.  One stable sort (a timsort, which merges sorted runs) of spheres
L-1 and L and those rows, with the candidates tagged, then yields sphere
L+1 as the tagged keys that come first among their equals.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import BudgetError, SpecError
from .groups import Element, GroupSpec, standard_generators

DEFAULT_BUDGET = 10**8
# Packed keys stay below this, so a key plus one step's delta cannot overflow int64,
# nor can a key doubled and tagged in the sphere step (2 * key + 1 < 2^63).
KEY_LIMIT = 2**62


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
    """Mixed-radix int64 keys for the elements of the radius-n ball over a step set.

    Coordinate p is stored as the digit x_p + bounds[p] in [0, radices[p]);
    k is the last, least significant digit, so key // radix_k is the body
    (every coordinate but k).
    """

    def __init__(self, spec: GroupSpec, steps: list[Element], n: int):
        top = [max((abs(x[p]) for x in steps), default=0) for p in range(spec.ncoords)]
        body = [n * t for t in top[:-1]]
        pairs = [(w, spec.s + 2 * t) for t, w in enumerate(spec.weights)]
        # g*x adds -w_t j_t(g) i_t(x) to k, and |j_t(g)| <= (m - 1) max|j_t| before step m.
        k_bound = n * top[-1] + sum(w * top[a] * top[a + 1] for w, a in pairs) * (n * (n - 1) // 2)
        self.bounds = body + [k_bound]
        self.radices = [2 * b + 1 for b in self.bounds]
        strides = [1]
        for radix in reversed(self.radices[1:]):
            strides.append(strides[-1] * radix)
        self.strides = strides[::-1]
        if self.strides[0] * self.radices[0] >= KEY_LIMIT:
            raise SpecError(
                f"the radius-{n} ball does not fit 64-bit packed keys "
                f"(radix product {self.strides[0] * self.radices[0]} >= 2^62)"
            )
        self.k_bound = k_bound
        # (off k, on k) bounds on every coordinate of the ball, as groups.product_bound takes them
        self.reach = (max(body, default=0), k_bound)
        self.radix_k = self.radices[-1]
        self.identity = sum(b * stride for b, stride in zip(self.bounds, self.strides))
        self.deltas = np.array([self._offset(x) for x in steps], dtype=np.int64)
        # (j_t digit position, -w_t i_t(x) per step) for every pair some step moves along a_t.
        self.cross = [
            (a + 1, np.array([-w * x[a] for x in steps], dtype=np.int64)) for w, a in pairs if any(x[a] for x in steps)
        ]

    def _offset(self, g: Element) -> int:
        return sum(x * stride for x, stride in zip(g, self.strides))

    def pack_rows(self, coords: np.ndarray, bounds) -> np.ndarray:
        """The key of every (..., ncoords) coordinate row, or -1 for a row with some |x_p| > bounds[p].

        bounds lie within the codec's own.  Every row is packed and the rows
        outside are then masked, so a row far outside, whose int64 key may
        wrap, never reads as a valid key; rows of another dtype (exact Python
        ints) are zeroed outside before conversion.
        """
        inside = (np.abs(coords) <= bounds).all(axis=-1)
        if coords.dtype != np.int64:
            coords = np.where(inside[..., None], coords, 0).astype(np.int64)
        return np.where(inside, self.identity + coords @ np.array(self.strides, dtype=np.int64), -1)

    def column(self, keys: np.ndarray, p: int) -> np.ndarray:
        """Coordinate p of every key."""
        return keys // self.strides[p] % self.radices[p] - self.bounds[p]

    def coords(self, keys: np.ndarray) -> np.ndarray:
        """The (len(keys), ncoords) coordinate rows of the keys."""
        digits = keys[:, None] // np.array(self.strides, dtype=np.int64) % np.array(self.radices, dtype=np.int64)
        return digits - np.array(self.bounds, dtype=np.int64)

    def unpack(self, keys: np.ndarray) -> list[Element]:
        """Coordinate tuples, in key order."""
        return list(map(tuple, self.coords(keys).tolist()))

    def expand(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill the (steps, len(keys)) array out with the keys of every one-step product: row i holds g*x_i, g in keys.

        The k shift of g*x depends only on x and the body of g, so every row
        of a sorted keys array is sorted.
        """
        for row, delta in zip(out, self.deltas.tolist()):
            np.add(keys, delta, out=row)
        for pos, corr in self.cross:
            col = self.column(keys, pos)
            for row, c in zip(out, corr.tolist()):
                if c:
                    row += col * c
        return out


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique by sorting: numpy's hash-based unique is far slower on large int64 arrays."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


def _spheres(codec: KeyCodec, n: int, cap: int):
    """Yield (L, sorted keys of sphere L) for L = 1..n, checking the cumulative ball size against cap.

    A sphere's budget check runs when the consumer asks for the next one, so a
    length search that stops at the sphere holding its target skips it.
    """
    prev = np.empty(0, dtype=np.int64)
    cur = np.array([codec.identity], dtype=np.int64)
    steps = len(codec.deltas)
    total = 1
    for level in range(1, n + 1):
        # prev, cur and each step row of the candidates are sorted runs; doubled keys tag the candidates odd,
        # so a candidate sorts after an equal key of prev or cur and survives only when first among its equals.
        old = len(prev) + len(cur)
        buf = np.empty(old + steps * len(cur), dtype=np.int64)
        np.concatenate((prev, cur), out=buf[:old])
        codec.expand(cur, buf[old:].reshape(steps, len(cur)))
        buf <<= 1
        buf[old:] |= 1
        buf.sort(kind="stable")
        first = np.empty(len(buf), dtype=bool)
        np.bitwise_and(buf, 1, out=first, casting="unsafe")
        buf >>= 1
        first[1:] &= buf[1:] != buf[:-1]
        nxt = buf[first]
        del buf, first  # not held across the yield, while the consumer works on nxt
        yield level, nxt
        total += len(nxt)
        check_budget(total, cap, f"stored elements of the radius-{level} ball")
        prev, cur = cur, nxt


@dataclass(eq=False)
class BallTable:
    """Exact word lengths for the radius-n ball: one sorted key array per sphere."""

    spec: GroupSpec
    radius: int
    codec: KeyCodec
    spheres: list[np.ndarray]

    @property
    def sphere_sizes(self) -> list[int]:
        return [len(keys) for keys in self.spheres]

    def ball_sizes(self) -> list[int]:
        """Cumulative counts beta(m) for m = 0..radius."""
        return list(accumulate(self.sphere_sizes))

    @cached_property
    def entries(self) -> dict[Element, int]:
        """Element -> word length, sphere by sphere and lexicographic within a sphere."""
        return dict(zip(self.codec.unpack(self.keys), self.lengths.tolist()))

    @cached_property
    def keys(self) -> np.ndarray:
        """Every key of the ball in the order of entries: sphere by sphere, sorted within a sphere."""
        return np.concatenate(self.spheres)

    @cached_property
    def coords(self) -> np.ndarray:
        """The coordinate rows of keys."""
        return self.codec.coords(self.keys)

    @cached_property
    def lengths(self) -> np.ndarray:
        """The word length of every row of keys."""
        return np.repeat(np.arange(len(self.spheres)), self.sphere_sizes)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.keys)
        return self.keys[order], order

    def prefix(self, r: int) -> BallTable:
        """The radius-r ball for r <= radius: spheres 0..r under the same codec, equal to a fresh radius-r ball.

        Keys sort lexicographically under any coordinate bounds, so the
        prefix has the elements, lengths and order of a fresh enumeration.
        """
        if not 0 <= r <= self.radius:
            raise SpecError(f"prefix radius {r} outside 0..{self.radius}")
        if r == self.radius:
            return self
        return BallTable(spec=self.spec, radius=r, codec=self.codec, spheres=self.spheres[: r + 1])

    @cached_property
    def _bounds(self) -> np.ndarray:
        """The largest |x_p| over this ball for every coordinate p: within the codec's bounds, and tighter on a prefix."""
        return np.abs(self.coords).max(axis=0)

    def index(self, coords: np.ndarray) -> np.ndarray:
        """The position in keys of every (..., ncoords) coordinate row, or -1 for a row not in the ball."""
        keys = self.codec.pack_rows(coords, self._bounds)
        ordered, order = self._sorted
        pos = np.searchsorted(ordered, keys).clip(max=len(ordered) - 1)
        return np.where(ordered[pos] == keys, order[pos], -1)


def enumerate_ball(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> BallTable:
    """Exact BFS ball of radius n; raises BudgetError past the element cap."""
    if n < 0:
        raise SpecError("radius must be nonnegative")
    cap = resolve_budget(budget)
    codec = KeyCodec(spec, _step_set(spec, gens), n)
    spheres = [np.array([codec.identity], dtype=np.int64)]
    spheres += [keys for _, keys in _spheres(codec, n, cap)]
    return BallTable(spec=spec, radius=n, codec=codec, spheres=spheres)


def word_length(
    spec: GroupSpec,
    g: Element,
    gens: GeneratingSet,
    cutoff: int,
    budget: int | None = None,
) -> int | None:
    """Exact word length if <= cutoff, else None."""
    if cutoff < 0:
        raise SpecError("cutoff must be nonnegative")
    if len(g) != spec.ncoords:
        raise SpecError("element does not match spec")
    cap = resolve_budget(budget)
    if g == spec.identity():
        return 0
    codec = KeyCodec(spec, _step_set(spec, gens), cutoff)
    target = int(codec.pack_rows(np.array(g, dtype=object), codec.bounds))
    if target < 0:
        return None
    for level, keys in _spheres(codec, cutoff, cap):
        pos = np.searchsorted(keys, target)
        if pos < len(keys) and keys[pos] == target:
            return level
    return None


def central_growth(
    spec: GroupSpec,
    gens: GeneratingSet,
    n: int,
    budget: int | None = None,
) -> list[int]:
    """beta_<c>(m) for m = 0..n: how many c^k lie in the m-ball."""
    table = enumerate_ball(spec, gens, n, budget=budget)
    codec = table.codec
    # The keys of the c^k are those of the identity's body, one run of each sorted sphere.
    lo = codec.identity // codec.radix_k * codec.radix_k
    counts = [int(np.diff(np.searchsorted(keys, (lo, lo + codec.radix_k)))[0]) for keys in table.spheres]
    return list(accumulate(counts))


def bass_guivarch_exponent(spec: GroupSpec) -> int:
    """Polynomial growth degree: s + 2r + 2, or s when r = 0 (no central c)."""
    if spec.r == 0:
        return spec.s
    return spec.s + 2 * spec.r + 2


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


def check_generates(spec: GroupSpec, gens: GeneratingSet, radius: int, budget: int | None = None) -> bool:
    """Empirical generation check: the radius-ball contains every standard generator."""
    table = enumerate_ball(spec, gens, radius, budget=budget)
    return bool((table.index(np.array(standard_generators(spec))) >= 0).all())
