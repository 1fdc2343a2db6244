"""One run of one workload in a fresh process: set up, run the fixed task list once, check every output.

`run.py` starts this script once per sample and reads the JSON object it
prints as its last line.  By hand, from the repository root:

    python3 perfbench/workload.py --workload gcd_orbits --seed 3 --scale toy

After a deliberate change to what nilgrowth outputs, re-record the row
digests of the seed-independent tasks, for every workload and both scales:

    python3 perfbench/workload.py --workload ball_classes --scale full --record

Every task is checked: tasks with two routes must agree, seed-independent
outputs must match the digest recorded in digests.json, and self-checking
tasks must return their expected value.  A task that raises counts as failed.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

# Radii per scale.  "full" is what run.py measures (about 5-6 s per workload
# on a 2-vCPU Xeon); "toy" is for the benchmark's own tests.
SCALES = {
    "full": {
        "h1": 22, "h2": 8, "hd2": 8, "h3": 6, "zxh1": 10,
        "cube3": 44, "l1_4": 24, "l1_3": 80, "egcd": 210, "bounds": 420, "fit_lo": 70,
        "oracle_h1": 7, "oracle_h2": 4, "oracle_hd2": 4, "oracle_zxh1": 6,
        "twisted": 4, "extension": 5, "fuzz": 5000, "verify": 5000,
    },
    "toy": {
        "h1": 6, "h2": 3, "hd2": 3, "h3": 2, "zxh1": 3,
        "cube3": 6, "l1_4": 5, "l1_3": 12, "egcd": 10, "bounds": 40, "fit_lo": 20,
        "oracle_h1": 3, "oracle_h2": 2, "oracle_hd2": 2, "oracle_zxh1": 2,
        "twisted": 2, "extension": 2, "fuzz": 50, "verify": 50,
    },
}
SPECS = ("H1", "H2", "H3", "ZxH1", "HD2")

# The host shares its cores, and its speed swings by up to 2x from one second
# or minute to the next, in wall and CPU time alike.  So a fixed reference loop
# is timed REF_REPS times before the first task and after every task, and each
# task's time is scaled by (REF_S / m) ** ALPHA, where m is the median
# reference time around it.  The tasks gain or lose less than the reference
# loop when the host speeds up or slows down: their time went as m ** 0.5 to
# m ** 0.78 in four sets of 42 to 101 samples, hence ALPHA.  The
# scaled sums are seconds on a host where the reference loop takes REF_S.
REF_S = 0.012
REF_REPS = 5
ALPHA = 0.6


class TaskError(Exception):
    """A task's output could not be produced, e.g. the CLI exited non-zero."""


@dataclass
class Task:
    """One checked unit of work.

    Every route is run and all must return the same output.  Then the output
    must equal `expect` when that is given, and otherwise (when the output does
    not depend on the seed) match its recorded digest.
    """

    id: str
    routes: tuple
    seeded: bool = False
    expect: object = None

    def __post_init__(self):
        if self.seeded and self.expect is None and len(self.routes) < 2:
            raise ValueError(f"task {self.id!r} has no check")


def reference() -> tuple[list[float], list[float]]:
    """REF_REPS (wall, CPU) timings of a fixed dict-and-tuple loop, with the garbage collector off."""
    walls, cpus = [], []
    gc.disable()
    try:
        for _ in range(REF_REPS):
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            table = {}
            for i in range(20000):
                table[(i % 97, i * 7 % 101)] = table.get((i % 89, i % 7), 0) + i
            walls.append(time.perf_counter() - wall0)
            cpus.append(_cpu_s() - cpu0)
    finally:
        gc.enable()
    return walls, cpus


def scaled(task_s: list[float], ref_s: list[list[float]]) -> float:
    """Sum of task times, each scaled by (REF_S / the median reference time just before and after it) ** ALPHA."""
    return sum(
        t * (REF_S / statistics.median(before + after)) ** ALPHA for t, before, after in zip(task_s, ref_s, ref_s[1:])
    )


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


class Cli:
    """In-process `nilgrowth.cli.main` with --out into a scratch directory; returns the parsed CSV rows."""

    def __init__(self, ng_cli, tmp: Path):
        self.ng_cli = ng_cli
        self.tmp = tmp
        self.calls = 0

    def __call__(self, *argv: str) -> list[list[str]]:
        self.calls += 1
        out = self.tmp / f"out{self.calls}.csv"
        try:
            code = self.ng_cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        if code != 0:
            raise TaskError(f"nilgrowth {' '.join(argv)} exited with {code}")
        # The "# manifest: <sidecar>" line names the file, so only the rows are compared.
        with open(out, newline="") as fh:
            return list(csv.reader(line for line in fh if not line.startswith("#")))


class Inputs:
    """Everything a workload needs before its first task: specs, generating sets and the seeded draws."""

    def __init__(self, ng, seed: int, scale: str):
        self.scale = SCALES[scale]
        self.specs = {name: ng.named_spec(name) for name in SPECS}
        self.gens = {name: ng.standard_generating_set(spec) for name, spec in self.specs.items()}
        self.rng = random.Random(seed)
        self.offset = tuple(self.rng.randint(-9, 9) for _ in range(3))
        self.kappa = self.rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)])
        h1 = self.specs["H1"]
        self.swap = ng.swap_automorphism(h1)
        self.identity = ng.identity_automorphism(h1)
        self.kappa_auto = ng.make_automorphism(h1, [[1, 0], [0, 1]], self.kappa)


def ball_classes(ng, inp: Inputs, cli: Cli, tracer) -> list[Task]:
    """Large BFS balls through the CLI, then class keying and central counts on them."""
    s = inp.scale

    def cli_task(*argv):
        return Task("nilgrowth " + " ".join(argv), (lambda: cli(*argv),))

    h1 = str(s["h1"])
    return [
        cli_task("ball", "--spec", "H1", "--radius", h1),
        cli_task("conj", "--spec", "H1", "--radius", h1, "--mode", "exact"),
        cli_task("growth", "--spec", "H1", "--radius", h1, "--mode", "central"),
        cli_task("conj", "--spec", "H2", "--radius", str(s["h2"]), "--mode", "exact"),
        cli_task("conj", "--spec", "HD2", "--radius", str(s["hd2"]), "--mode", "exact"),
        cli_task("conj", "--spec", "H3", "--radius", str(s["h3"]), "--mode", "exact"),
        cli_task("ball", "--spec", "ZxH1", "--radius", str(s["zxh1"])),
    ]


def gcd_sweep(ng, inp: Inputs, cli: Cli, tracer) -> list[Task]:
    """One large direct enumeration per sweep, many small per-radius sieves, and the bounds table."""
    s = inp.scale

    def both_methods(*argv):
        return tuple((lambda m=m: cli("gcdsum", *argv, "--method", m)) for m in ("direct", "sieve"))

    offset = ",".join(map(str, inp.offset))
    cube = ("--dim", "3", "--radius", str(s["cube3"]), f"--offset={offset}")
    l1 = ("--dim", "4", "--radius", str(s["l1_4"]), "--norm", "l1")
    # The sieve refuses offset l1 balls, so this sweep has only the direct route.
    l1_offset = ("--dim", "3", "--radius", str(s["l1_3"]), "--norm", "l1", "--offset", "2,-1,3", "--step", "4")
    n = s["egcd"]

    def bounds_and_fit():
        rows = cli("conj", "--spec", "H1", "--radius", str(s["bounds"]), "--mode", "bounds")
        upper = [int(row[2]) for row in rows[1:]]
        model = ng.select_asymptotic_model(upper, (s["fit_lo"], s["bounds"]))
        return {"rows": rows, "family": model.family, "degree": model.degree}

    return [
        Task("nilgrowth gcdsum " + " ".join(cube), both_methods(*cube), seeded=True),
        Task("nilgrowth gcdsum " + " ".join(l1), both_methods(*l1)),
        Task("nilgrowth gcdsum " + " ".join(l1_offset), (lambda: cli("gcdsum", *l1_offset),)),
        Task(
            f"expected_gcd(3, {n})",
            tuple((lambda m=m: ng.expected_gcd(3, n, method=m)) for m in ("direct", "sieve")),
        ),
        Task(f"bounds H1 r={s['bounds']} + fit", (bounds_and_fit,)),
    ]


def orbits_twisted(ng, inp: Inputs, cli: Cli, tracer) -> list[Task]:
    """Many small materialised balls, read element by element: orbit union-find, automorphisms, group law."""
    s = inp.scale
    h1, g1 = inp.specs["H1"], inp.gens["H1"]

    def oracle_task(name, r):
        spec, gens = inp.specs[name], inp.gens[name]
        return Task(
            f"oracle == exact {name} r={r}",
            (lambda: ng.conjugacy_growth_oracle(spec, gens, r), lambda: ng.conjugacy_growth_exact(spec, gens, r)),
        )

    triples = []
    for spec in inp.specs.values():
        flat = inp.rng.choices(range(-9, 10), k=3 * spec.ncoords * s["fuzz"])
        elements = [tuple(flat[i : i + spec.ncoords]) for i in range(0, len(flat), spec.ncoords)]
        triples += [(spec, elements[i : i + 3]) for i in range(0, len(elements), 3)]
    r = s["twisted"]

    def twisted_swap():
        res = ng.twisted_growth_bruteforce(h1, g1, inp.swap, r)
        return {"counts": res.counts, "stable": res.stable}

    def embeddings():
        rep = ng.hd_embeddings(inp.specs["HD2"])
        return [list(rep.gamma), rep.index_gamma1, rep.index_gamma1_formula, rep.index_gamma2,
                rep.index_gamma2_formula, rep.label_invariance_ok, rep.reduction_ok,
                rep.phi_relators_ok, rep.phi_injective_ok, rep.phi_homomorphism_ok]

    def fuzz():
        bad = 0
        span = tracer.span("groups.multiply", calls=4 * len(triples)) if tracer else nullcontext()
        with span:
            for spec, (a, b, c) in triples:
                if ng.multiply(spec, ng.multiply(spec, a, b), c) != ng.multiply(spec, a, ng.multiply(spec, b, c)):
                    bad += 1
        return bad

    return [
        oracle_task("H1", s["oracle_h1"]),
        oracle_task("H2", s["oracle_h2"]),
        oracle_task("HD2", s["oracle_hd2"]),
        oracle_task("ZxH1", s["oracle_zxh1"]),
        Task(f"twisted swap H1 r={r}", (twisted_swap,)),
        Task(
            f"twisted M=I kappa={inp.kappa} brute == structural H1 r={r}",
            (
                lambda: ng.twisted_growth_bruteforce(h1, g1, inp.kappa_auto, r).counts,
                lambda: ng.twisted_growth_structural(h1, inp.kappa_auto, r, gens=g1),
            ),
            seeded=True,
        ),
        Task(
            f"twisted identity == exact H1 r={r}",
            (
                lambda: ng.twisted_growth_bruteforce(h1, g1, inp.identity, r).counts,
                lambda: ng.conjugacy_growth_exact(h1, g1, r),
            ),
        ),
        Task(f"extension swap order 2 H1 r={s['extension']}",
             (lambda: ng.extension_conjugacy_growth(h1, g1, inp.swap, 2, s["extension"]),)),
        Task("hd_embeddings HD2", (embeddings,)),
        Task(f"associativity fuzz {len(triples)} triples", (fuzz,), seeded=True, expect=0),
        Task(f"verify_automorphism swap trials={s['verify']}",
             (lambda: ng.verify_automorphism(h1, inp.swap, trials=s["verify"]).ok,), expect=True),
    ]


def gcd_orbits(ng, inp: Inputs, cli: Cli, tracer) -> list[Task]:
    """No large ball: the gcd sweeps, then the small-ball orbit and twisted work."""
    return gcd_sweep(ng, inp, cli, tracer) + orbits_twisted(ng, inp, cli, tracer)


WORKLOADS = {"ball_classes": ball_classes, "gcd_orbits": gcd_orbits}


def run_tasks(tasks: list[Task], digests: dict, record: dict | None = None, times: list | None = None) -> list[str]:
    """Run and check every task; return one message per failed task.

    A task that raises (a NilgrowthError, a CLI exit code, or anything else)
    has failed.  With `record`, seed-independent outputs are stored there
    instead of checked.  With `times`, one (wall, cpu) pair in seconds per
    task is appended to it, covering the task's routes and not its check.
    """
    failures = []
    for task in tasks:
        try:
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            try:
                outputs = [route() for route in task.routes]
            finally:
                if times is not None:
                    times.append((time.perf_counter() - wall0, _cpu_s() - cpu0))
            if any(out != outputs[0] for out in outputs[1:]):
                failures.append(f"{task.id}: routes disagree")
            elif task.expect is not None:
                if outputs[0] != task.expect:
                    failures.append(f"{task.id}: got {outputs[0]!r}, expected {task.expect!r}")
            elif not task.seeded:
                if record is not None:
                    record[task.id] = digest(outputs[0])
                elif digests.get(task.id) != digest(outputs[0]):
                    reason = "no recorded digest" if task.id not in digests else "digest mismatch"
                    failures.append(f"{task.id}: {reason}")
        except Exception:  # the task loop must go on; the message keeps the innermost frame
            failures.append(f"{task.id}: {traceback.format_exc(limit=-1)}")
    return failures


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def import_nilgrowth():
    """The nilgrowth package and its CLI module from src/ of this checkout, never an installed copy."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import nilgrowth
    import nilgrowth.cli

    if not Path(nilgrowth.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"imported nilgrowth from {nilgrowth.__file__}, not from {src}")
    return nilgrowth, nilgrowth.cli


def _cpu_s() -> float:
    return time.process_time()  # user + sys of this process, all threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="time.monotonic() just before this process was started")
    parser.add_argument("--record", action="store_true", help="store digests instead of checking them")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    import numpy

    ng, ng_cli = import_nilgrowth()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    digests = load_digests()
    record = {} if args.record else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        inp = Inputs(ng, args.seed, args.scale)
        tasks = WORKLOADS[args.workload](ng, inp, Cli(ng_cli, Path(tmp)), tracer)
        setup_s = time.monotonic() - t0
        times, refs, failures = [], [reference()], []
        for task in tasks:
            with tracer.span("bench") if tracer else nullcontext():
                failures += run_tasks([task], digests, record, times)
            refs.append(reference())
    task_wall, task_cpu = zip(*times)
    ref_wall, ref_cpu = zip(*refs)
    result = {
        "wall_s": scaled(task_wall, ref_wall),
        "cpu_s": scaled(task_cpu, ref_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "raw_wall_s": sum(task_wall),
        "ref_wall_s": statistics.median(t for walls in ref_wall for t in walls),
        "attempted": len(tasks),
        "failures": failures,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    if record is not None:
        digests.update(record)
        DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
