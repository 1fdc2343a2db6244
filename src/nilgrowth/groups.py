"""Mal'cev coordinate arithmetic for Z^s x H_D.

H_D is the higher Heisenberg group with generators a_1, b_1, ..., a_r, b_r
and central c, subject to [a_t, b_t] = c^{w_t} and all other generator pairs
commuting.  The weights are w_1 = 1 and w_t = delta_{t-1} for t >= 2, where
D = (delta_1, ..., delta_{r-1}) is a chain of positive integers with
delta_t | delta_{t+1}.  The free abelian factor Z^s contributes central
generators z_1, ..., z_s.

An element is a flat tuple of s + 2r + 1 integers

    (l_1, ..., l_s, i_1, j_1, ..., i_r, j_r, k)

recording the normal form z_1^{l_1}...z_s^{l_s} a_1^{i_1} b_1^{j_1} ...
a_r^{i_r} b_r^{j_r} c^k.  Group operations only ever touch k through the
weighted cross terms, so all coordinate arithmetic below is exact integer
arithmetic.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from operator import index

import numpy as np

from .errors import SpecError

Element = tuple[int, ...]
Vector = tuple[int, ...]

NAMED_SPECS = {
    "H1": (0, 1, ()),
    "H2": (0, 2, (1,)),
    "H3": (0, 3, (1, 1)),
    "ZxH1": (1, 1, ()),
    "HD2": (0, 2, (2,)),
}


def exact_int(x) -> int:
    """x as an int by operator.index, else SpecError; a bool too, as a JSON true or false is no integer."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise SpecError(f"entries must be integers, got {x!r}")
    return index(x)


@dataclass(frozen=True)
class GroupSpec:
    """Parameters (s, r, delta) of Z^s x H_D, with derived weights.

    `mul` and `inv` are the group law's straight-line kernels, generated once
    for this spec by `_compile_law`; they take no part in repr, equality or hashing.
    """

    s: int
    r: int
    delta: tuple[int, ...]
    weights: tuple[int, ...] = field(init=False)
    mul: Callable[[Element, Element], Element] = field(init=False, repr=False, compare=False, hash=False)
    inv: Callable[[Element], Element] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        exact = {"s": exact_int(self.s), "r": exact_int(self.r), "delta": tuple(map(exact_int, self.delta))}
        for name, value in exact.items():
            object.__setattr__(self, name, value)
        if self.s < 0 or self.r < 0:
            raise SpecError("s and r must be nonnegative")
        if self.s == 0 and self.r == 0:
            raise SpecError("trivial group: need s > 0 or r > 0")
        if len(self.delta) != max(self.r - 1, 0):
            raise SpecError(f"delta must have r-1 = {max(self.r - 1, 0)} entries")
        for d in self.delta:
            if d < 1:
                raise SpecError("delta entries must be positive")
        for lo, hi in zip(self.delta, self.delta[1:]):
            if hi % lo != 0:
                raise SpecError("delta chain must satisfy delta_t | delta_{t+1}")
        # w_1 = 1, w_t = delta_{t-1}; the chain condition makes w_t | w_{t+1}.
        object.__setattr__(self, "weights", (1,) + self.delta if self.r else ())
        for name, kernel in zip(("mul", "inv"), _compile_law(self)):
            object.__setattr__(self, name, kernel)

    def __reduce__(self):
        # the generated kernels cannot be pickled; rebuild them from the parameters
        return type(self), (self.s, self.r, self.delta)

    @property
    def dim(self) -> int:
        """Number of non-central-c coordinates, s + 2r."""
        return self.s + 2 * self.r

    @property
    def ncoords(self) -> int:
        """Full coordinate count including the c exponent."""
        return self.s + 2 * self.r + 1

    def identity(self) -> Element:
        return (0,) * self.ncoords

    def to_json_dict(self) -> dict:
        return {"s": self.s, "r": self.r, "delta": list(self.delta)}


def make_group_spec(s: int, r: int, delta: tuple[int, ...] | list[int] = ()) -> GroupSpec:
    """Validated GroupSpec; r = 0 gives the degenerate pure Z^s case."""
    return GroupSpec(s, r, tuple(delta))


def refuse_unknown_keys(data, known: tuple[str, ...], what: str) -> None:
    """SpecError naming every key of the JSON object data outside known; a non-object is left to its reader."""
    unknown = sorted(data.keys() - set(known)) if isinstance(data, dict) else []
    if unknown:
        raise SpecError(f"bad {what} payload: unknown keys {unknown}; known: {list(known)}")


def spec_from_json_dict(data: dict) -> GroupSpec:
    refuse_unknown_keys(data, ("s", "r", "delta"), "group spec")
    try:
        return make_group_spec(data["s"], data["r"], data["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad group spec payload: {exc}") from exc


def named_spec(name: str) -> GroupSpec:
    if name not in NAMED_SPECS:
        raise SpecError(f"unknown named spec {name!r}; known: {sorted(NAMED_SPECS)}")
    s, r, delta = NAMED_SPECS[name]
    return make_group_spec(s, r, delta)


def check_element(spec: GroupSpec, g: Element) -> Element:
    if len(g) != spec.ncoords:
        raise SpecError(f"element has {len(g)} coordinates, spec needs {spec.ncoords}")
    return g


@lru_cache(maxsize=64)
def _law_code(s: int, r: int):
    """The compiled module that defines mul and inv for ncoords = s + 2r + 1 coordinates.

    The source holds only identifiers and indices from range, so it depends on
    s and r alone; the weights are the names w0, w1, ... and the spec is the
    name spec of the namespace it runs in.  The c exponent takes one statement
    per Heisenberg pair, since one expression over thousands of pairs
    overflows the compiler's recursion limit.  An input that does not unpack
    to ncoords coordinates goes through check_element.
    """
    n = s + 2 * r + 1
    pairs = [(t, s + 2 * t, s + 2 * t + 1) for t in range(r)]
    gs = "".join(f"g{p}, " for p in range(n))
    hs = "".join(f"h{p}, " for p in range(n))
    source = "\n".join([
        "def mul(g, h):",
        "    try:",
        f"        {gs}= g",
        f"        {hs}= h",
        "    except (TypeError, ValueError):",
        "        check_element(spec, g)",
        "        check_element(spec, h)",
        "        raise",
        f"    k = g{n - 1} + h{n - 1}",
        *(f"    k -= w{t} * g{b} * h{a}" for t, a, b in pairs),
        f"    return ({''.join(f'g{p} + h{p}, ' for p in range(n - 1))}k)",
        "def inv(g):",
        "    try:",
        f"        {gs}= g",
        "    except (TypeError, ValueError):",
        "        check_element(spec, g)",
        "        raise",
        f"    k = -g{n - 1}",
        *(f"    k -= w{t} * g{a} * g{b}" for t, a, b in pairs),
        f"    return ({''.join(f'-g{p}, ' for p in range(n - 1))}k)",
    ])
    return compile(source, f"<group law s={s} r={r}>", "exec")


def _compile_law(spec: GroupSpec) -> tuple[Callable, Callable]:
    """Straight-line (mul, inv) for one spec, as dataclasses and namedtuple generate theirs.

    The code is compiled once per (s, r) and run in a fresh namespace that
    binds this spec and its weights, so every spec has its own kernels.
    """
    namespace = {"check_element": check_element, "spec": spec}
    namespace.update((f"w{t}", w) for t, w in enumerate(spec.weights))
    exec(_law_code(spec.s, spec.r), namespace)
    return namespace["mul"], namespace["inv"]


def multiply(spec: GroupSpec, g: Element, h: Element) -> Element:
    """Product gh in normal form.

    All z/a/b coordinates add; the c exponent picks up the cross term
    -sum_t w_t * j_t(g) * i_t(h) from commuting h's a-letters past g's
    b-letters.
    """
    return spec.mul(g, h)


def inverse(spec: GroupSpec, g: Element) -> Element:
    """Inverse; the c exponent needs -k - sum_t w_t i_t j_t to cancel the cross term."""
    return spec.inv(g)


def power(spec: GroupSpec, g: Element, m: int) -> Element:
    """g^m for any integer m, via the closed form k_m = m k - C(m,2) sum_t w_t i_t j_t."""
    check_element(spec, g)
    s = spec.s
    q = 0
    for t, w in enumerate(spec.weights):
        q += w * g[s + 2 * t] * g[s + 2 * t + 1]
    out = [m * x for x in g]
    out[-1] = m * g[-1] - (m * (m - 1) // 2) * q
    return tuple(out)


# The array law runs in int64 when a bound on its result's entries, and on every partial sum on the way, is below
# this; otherwise in object arrays of exact Python ints.  Bounds are in exact ints, so none can wrap.  The weights
# enter the formulas as int64 scalars, so their sum W is a term of every bound too.
INT64_LIMIT = 2**62
_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)
# top_entry's crossover: a sorted list beats numpy's max and min up to about 64-80 entries on int64 and about 200 on
# object arrays (numpy 2.4, Python 3.11, a 2-vCPU Xeon)
SMALL_ARRAY = 64


def top_entry(a: np.ndarray) -> int:
    """The largest |entry| of an integer or object array, as an exact int; 0 for an empty array.

    Up to SMALL_ARRAY entries a sorted list beats numpy's max and min, whose
    call overhead dominates there.  Both read the ends as Python ints, so
    -int(-2^63) is exact.
    """
    if a.size <= SMALL_ARRAY:
        entries = a.ravel().tolist() or [0]
        entries.sort()  # one call for both ends: cheaper than max and min on so few
        return max(entries[-1], -entries[0])
    return max(int(a.max()), -int(a.min()))


def exact_dtype(bound: int) -> np.dtype:
    """int64 when bound < INT64_LIMIT, else object (exact ints).

    Callers cast with astype(dtype, copy=False), which copies no array that has the dtype already.
    """
    return _INT64 if bound < INT64_LIMIT else _OBJECT


def multiply_array(spec: GroupSpec, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise g h over (..., ncoords) coordinate arrays, broadcast; the formula of multiply.

    With X and Y the largest |entry| of g and h and W the sum of the weights,
    every entry and partial sum is at most X + Y + W X Y: the product is int64
    when that bound (plus W) is below INT64_LIMIT, else exact ints.
    """
    x, y, wsum = top_entry(g), top_entry(h), sum(spec.weights)
    dtype = exact_dtype(x + y + wsum + wsum * x * y)
    g, h = g.astype(dtype, copy=False), h.astype(dtype, copy=False)
    s = spec.s
    out = g + h
    for t, w in enumerate(spec.weights):
        out[..., -1] -= w * g[..., s + 2 * t + 1] * h[..., s + 2 * t]
    return out


def inverse_array(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Row-wise g^-1 over (..., ncoords) coordinate arrays; the formula of inverse.

    It is int64 when X + W + W X^2 < INT64_LIMIT, else exact ints.
    """
    x, wsum = top_entry(g), sum(spec.weights)
    g = g.astype(exact_dtype(x + wsum + wsum * x * x), copy=False)
    s = spec.s
    out = -g
    for t, w in enumerate(spec.weights):
        out[..., -1] -= w * g[..., s + 2 * t] * g[..., s + 2 * t + 1]
    return out


def power_array(spec: GroupSpec, g: np.ndarray, m) -> np.ndarray:
    """Row-wise g^m over (..., ncoords) coordinate arrays and exponents m, broadcast; the formula of power.

    With M the largest |exponent|, it is int64 when
    X + M + M X + W + M (M + 1) (1 + W X^2) < INT64_LIMIT, which bounds
    m (m - 1) and the c exponent's terms.  An m that is no array is read as
    exact ints.
    """
    if not isinstance(m, np.ndarray):
        m = np.array(m, dtype=object)
    x, e, wsum = top_entry(g), top_entry(m), sum(spec.weights)
    dtype = exact_dtype(x + e + e * x + wsum + e * (e + 1) * (1 + wsum * x * x))
    g, m = g.astype(dtype, copy=False), m.astype(dtype, copy=False)
    s = spec.s
    q = sum(w * g[..., s + 2 * t] * g[..., s + 2 * t + 1] for t, w in enumerate(spec.weights))
    out = m[..., None] * g
    out[..., -1] = m * g[..., -1] - (m * (m - 1) // 2) * q
    return out


def affine_maps(spec: GroupSpec, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shift, c, lin) of h -> left h right for (..., ncoords) rows left and right, broadcast.

    The body of left h right is body(h) + shift and its k is c + lin @ h, as h
    enters the product once: read off multiply_array at h = 0 and at each unit
    vector e_p, so lin's last entry is 1.  Rows that are no array are read as
    exact ints.  The maps are int64 or object arrays as multiply_array picks,
    exact either way: each |lin_p| is 1 or at most W max(X, Y), below the
    second product's bound, so the int64 difference that gives lin cannot wrap.
    """
    probes = np.eye(spec.ncoords + 1, spec.ncoords, -1, dtype=np.int64)
    left, right = (rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object) for rows in (left, right))
    image = multiply_array(spec, multiply_array(spec, left[..., None, :], probes), right[..., None, :])
    shift, c = image[..., 0, :-1], image[..., 0, -1]
    return shift, c, image[..., 1:, -1] - c[..., None]


def commutator(spec: GroupSpec, g: Element, h: Element) -> Element:
    """[g, h] = g h g^-1 h^-1, computed by composition (not the bilinear form)."""
    mul, inv = spec.mul, spec.inv
    return mul(mul(mul(g, h), inv(g)), inv(h))


def broken_relators(spec: GroupSpec, images, form) -> list[tuple[int, int]]:
    """The pairs p < q with [images[p], images[q]] != c^{form[p][q]}.

    For the standard generators and omega_form(spec) these are the defining
    relators; by von Dyck's theorem, x_p -> images[p], c -> c^eps is a
    homomorphism exactly when none break for form = eps * Omega.
    """
    return [
        (p, q)
        for q in range(len(images))
        for p in range(q)
        if commutator(spec, images[p], images[q]) != central_element(spec, form[p][q])
    ]


def conjugate(spec: GroupSpec, x: Element, g: Element) -> Element:
    """x g x^-1, computed by composition."""
    return spec.mul(spec.mul(x, g), spec.inv(x))


def abelianize(spec: GroupSpec, g: Element) -> Vector:
    """Image in Z^{s+2r}: drop the c coordinate."""
    check_element(spec, g)
    return g[:-1]


def central_element(spec: GroupSpec, k: int) -> Element:
    """c^k."""
    return (0,) * spec.dim + (k,)


def omega_form(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    """Skew matrix of the commutator pairing on Z^{s+2r}.

    Zero on the s block; per Heisenberg pair t a 2x2 block w_t * [[0, 1], [-1, 0]].
    """
    n = spec.dim
    mat = [[0] * n for _ in range(n)]
    s = spec.s
    for t, w in enumerate(spec.weights):
        mat[s + 2 * t][s + 2 * t + 1] = w
        mat[s + 2 * t + 1][s + 2 * t] = -w
    return tuple(tuple(row) for row in mat)


def commutator_form(spec: GroupSpec, u: Vector, v: Vector) -> int:
    """u Omega v^T = sum_t w_t (u_{a_t} v_{b_t} - u_{b_t} v_{a_t})."""
    if len(u) != spec.dim or len(v) != spec.dim:
        raise SpecError(f"vectors must have {spec.dim} coordinates")
    s = spec.s
    total = 0
    for t, w in enumerate(spec.weights):
        total += w * (u[s + 2 * t] * v[s + 2 * t + 1] - u[s + 2 * t + 1] * v[s + 2 * t])
    return total


def omega_apply(spec: GroupSpec, v: Vector) -> Vector:
    """Omega v^T as a vector: zero on z slots, (w_t v_{b_t}, -w_t v_{a_t}) per pair."""
    if len(v) != spec.dim:
        raise SpecError(f"vector must have {spec.dim} coordinates")
    out = [0] * spec.dim
    s = spec.s
    for t, w in enumerate(spec.weights):
        out[s + 2 * t] = w * v[s + 2 * t + 1]
        out[s + 2 * t + 1] = -w * v[s + 2 * t]
    return tuple(out)


def standard_generators(spec: GroupSpec) -> tuple[Element, ...]:
    """z_1, ..., z_s, a_1, b_1, ..., a_r, b_r as elements (c is not a generator)."""
    gens = []
    for pos in range(spec.dim):
        e = [0] * spec.ncoords
        e[pos] = 1
        gens.append(tuple(e))
    return tuple(gens)
