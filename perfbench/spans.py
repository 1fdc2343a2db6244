"""Outside-in spans around nilgrowth's public functions, and the per-layer metrics drawn from them.

`Tracer.install()` replaces each function in `TARGETS` by a wrapper that
records a span (name, start, end, parent, counts).  The wrapper is bound
everywhere the original was imported, e.g. `nilgrowth.conjugacy.enumerate_ball`
and `nilgrowth.cli.conjugacy_growth_exact` as well as `nilgrowth.words.enumerate_ball`,
so calls made inside the package nest as child spans.  Counts come only from
public arguments and return values.  Nothing under `src/` is changed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    rss_kb_before: int = 0
    rss_kb_after: int = 0
    counts: dict = field(default_factory=dict)


def _l1_points(dim: int, radius: int) -> int:
    return sum((1 << k) * math.comb(dim, k) * math.comb(radius, k) for k in range(min(dim, radius) + 1))


def _gcd_route(a) -> str:
    return "gcdsums." + a["method"]


def _gcd_sum_counts(a, result) -> dict:
    ball = a["ball"]
    if a["method"] == "direct":
        if ball.norm == "cube":
            return {"points": (2 * ball.radius + 1) ** ball.dim}
        return {"points": _l1_points(ball.dim, ball.radius)}
    return {"limit": ball.radius + max(abs(x) for x in ball.offset)}


def _positive_cube_counts(a, result) -> dict:
    if a["method"] == "direct":
        return {"points": max(a["n"], 0) ** a["dim"]}
    return {"limit": max(a["n"], 0)}


def _cli_counts(a, result) -> dict:
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    sidecar = out.with_name(out.name + ".manifest.json")
    return {"bytes_out": sum(p.stat().st_size for p in (out, sidecar) if p.exists())}


# (module, function, span name or fn(arguments) -> name, fn(arguments, result) -> counts)
TARGETS = [
    ("nilgrowth.words", "enumerate_ball", "words.enumerate_ball", lambda a, r: {"elements": r.ball_sizes()[-1]}),
    ("nilgrowth.words", "central_growth", "words.central_growth", None),
    ("nilgrowth.conjugacy", "class_lengths", "conjugacy.class_lengths", lambda a, r: {"class_keys": len(r)}),
    ("nilgrowth.conjugacy", "conjugacy_growth_exact", "conjugacy.exact", None),
    ("nilgrowth.conjugacy", "conjugacy_growth_oracle", "conjugacy.oracle", None),
    ("nilgrowth.conjugacy", "conjugacy_growth_bounds", "conjugacy.bounds", None),
    ("nilgrowth.conjugacy", "hd_embeddings", "conjugacy.embeddings", None),
    ("nilgrowth.gcdsums", "gcd_sum", _gcd_route, _gcd_sum_counts),
    ("nilgrowth.gcdsums", "positive_cube_gcd_sum", _gcd_route, _positive_cube_counts),
    ("nilgrowth.gcdsums", "expected_gcd", "gcdsums.expected", None),
    ("nilgrowth.autos", "twisted_growth_bruteforce", "autos.twisted", None),
    ("nilgrowth.autos", "twisted_growth_structural", "autos.twisted", None),
    ("nilgrowth.autos", "extension_conjugacy_growth", "autos.extension", None),
    ("nilgrowth.autos", "verify_automorphism", "autos.verify", None),
    ("nilgrowth.series", "select_asymptotic_model", "series.fit", None),
    ("nilgrowth.cli", "main", "cli.main", _cli_counts),
]

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
MODULES = ("words", "conjugacy", "gcdsums", "autos", "groups", "series", "cli", "bench")
PER_LAYER = {
    "words.enumerate_ball.calls": "count",
    "words.enumerate_ball.self_s": "s",
    "words.elements": "count",
    "words.elements_per_s": "1/s",
    "words.bytes_per_element": "B",
    "words.central_growth.self_s": "s",
    "conjugacy.class_lengths.self_s": "s",
    "conjugacy.class_keys": "count",
    "conjugacy.oracle.calls": "count",
    "conjugacy.oracle.self_s": "s",
    "conjugacy.bounds.calls": "count",
    "conjugacy.bounds.self_s": "s",
    "gcdsums.direct.calls": "count",
    "gcdsums.direct.self_s": "s",
    "gcdsums.direct.points": "count",
    "gcdsums.direct.points_per_s": "1/s",
    "gcdsums.sieve.calls": "count",
    "gcdsums.sieve.self_s": "s",
    "gcdsums.sieve.limit_total": "count",
    "autos.twisted.calls": "count",
    "autos.twisted.self_s": "s",
    "autos.extension.self_s": "s",
    "autos.verify.self_s": "s",
    "groups.multiply.calls": "count",
    "groups.multiply_per_s": "1/s",
    "series.fit.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    **{f"{m}.self_frac": "ratio" for m in MODULES},
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans kept in memory; `layer_metrics` reduces them once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        sp = Span(name, time.perf_counter(), self._open[-1] if self._open else None, counts=counts)
        sp.rss_kb_before = _maxrss_kb()
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_kb_after = _maxrss_kb()
            self._open.pop()

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span(name(bound.arguments) if callable(name) else name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                sp.counts.update(counter(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and bind the wrapper wherever the original is referenced."""
        for modname, fname, name, counter in TARGETS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(orig, name, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("nilgrowth"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac, which needs an untraced run.

        The root spans, one per task, must be named "bench"; their self time is
        the benchmark's own work.
        """
        selfs = self.self_times()
        calls = Counter(sp.name for sp in self.spans)
        self_s: Counter = Counter()
        counts: Counter = Counter()
        for sp, st in zip(self.spans, selfs):
            self_s[sp.name] += st
            for key, value in sp.counts.items():
                counts[f"{sp.name}.{key}"] += value

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        balls = [sp for sp in self.spans if sp.name == "words.enumerate_ball"]
        largest = max((sp.counts["elements"] for sp in balls), default=0)
        bytes_per_element = max(
            ((sp.rss_kb_after - sp.rss_kb_before) * 1024 / largest for sp in balls if sp.counts["elements"] == largest),
            default=0.0,
        )
        elements = counts["words.enumerate_ball.elements"]
        points = counts["gcdsums.direct.points"]
        multiplies = counts["groups.multiply.calls"]
        out = {
            "words.enumerate_ball.calls": calls["words.enumerate_ball"],
            "words.enumerate_ball.self_s": self_s["words.enumerate_ball"],
            "words.elements": elements,
            "words.elements_per_s": rate(elements, self_s["words.enumerate_ball"]),
            "words.bytes_per_element": bytes_per_element,
            "words.central_growth.self_s": self_s["words.central_growth"],
            "conjugacy.class_lengths.self_s": self_s["conjugacy.class_lengths"],
            "conjugacy.class_keys": counts["conjugacy.class_lengths.class_keys"],
            "conjugacy.oracle.calls": calls["conjugacy.oracle"],
            "conjugacy.oracle.self_s": self_s["conjugacy.oracle"],
            "conjugacy.bounds.calls": calls["conjugacy.bounds"],
            "conjugacy.bounds.self_s": self_s["conjugacy.bounds"],
            "gcdsums.direct.calls": calls["gcdsums.direct"],
            "gcdsums.direct.self_s": self_s["gcdsums.direct"],
            "gcdsums.direct.points": points,
            "gcdsums.direct.points_per_s": rate(points, self_s["gcdsums.direct"]),
            "gcdsums.sieve.calls": calls["gcdsums.sieve"],
            "gcdsums.sieve.self_s": self_s["gcdsums.sieve"],
            "gcdsums.sieve.limit_total": counts["gcdsums.sieve.limit"],
            "autos.twisted.calls": calls["autos.twisted"],
            "autos.twisted.self_s": self_s["autos.twisted"],
            "autos.extension.self_s": self_s["autos.extension"],
            "autos.verify.self_s": self_s["autos.verify"],
            "groups.multiply.calls": multiplies,
            "groups.multiply_per_s": rate(multiplies, self_s["groups.multiply"]),
            "series.fit.self_s": self_s["series.fit"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.bytes_out": counts["cli.main.bytes_out"],
        }
        total = sum(sp.end - sp.start for sp in self.spans if sp.name == "bench")
        for module in MODULES:
            module_self = sum(st for name, st in self_s.items() if name.split(".")[0] == module)
            out[f"{module}.self_frac"] = rate(module_self, total)
        return out
