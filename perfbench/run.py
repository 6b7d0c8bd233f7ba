"""cyclotile benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (the package is imported from ./src, and
`cyclotile` processes are started with ./src on PYTHONPATH; nothing is
installed):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs
every primary operation twice, once untraced and once as a traced replay
(replay.py), and reports per-layer self times, counters, coverage and
tracing overhead instead.  Every output is checked by checker.py, which
does not import the package.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
start with "#": a report of the environment, seed, sample counts and every
failure, then one line per metric.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checker
import replay

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECIPES = ROOT / "recipes"

STARTED = time.perf_counter()
# Operations that would start after this many seconds are counted as failed
# without running, so that a regression cannot push a run past 180 s.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 9
CLI_ENTRY = "import sys; from cyclotile.cli import main; sys.exit(main())"


class OverBudget(BaseException):
    """Raised by SIGALRM when an operation runs past its budget.

    A BaseException, so that no `except Exception` inside the package can
    swallow it.
    """


class Failed(Exception):
    """An operation that completed but did not do what it must."""


def _alarm(signum, frame):
    raise OverBudget()


@contextmanager
def budget(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value with at least (100 - p)% above or at it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def trimmed_mean(values) -> float:
    """The mean of the values without the highest and lowest tenth.

    The reference machine switches between speed states some 30% apart,
    each lasting seconds, so repeated samples of one input cluster around
    two values.  A median snaps to whichever cluster holds half the
    samples; this mean moves in proportion to the share of time spent in
    each, while one stray sample cannot move it far.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- one run ---------------------------------------------------------------------


class Run:
    """Counts, samples, checks and (with tracing) spans of one benchmark run."""

    def __init__(self, workload: "Workload", traced: bool):
        self.workload = workload
        self.tracer = replay.Tracer() if traced else None
        self.env = child_env()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.wrong: list[tuple[str, list[str]]] = []
        self.ops = 0
        self.op_seconds = 0.0
        # latency samples by input, "base digits"
        self.decide_ms: dict[str, list[float]] = {}
        self.verify_ms: dict[str, list[float]] = {}
        self.cli_ms: dict[str, list[float]] = {}
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.replays = 0
        self.setup_s = 0.0
        # (label, check) of operations whose output is not checked yet
        self.pending: list[tuple[str, object]] = []

    # bookkeeping

    def attempt(self, label: str, op) -> None:
        self.attempted += 1
        left = RUN_DEADLINE_S - (time.perf_counter() - STARTED)
        if left <= 0:
            self.failures.append((label, "not started: run deadline passed"))
            return
        try:
            with budget(min(self.workload.op_budget_s, left)):
                check = op()
        except (OverBudget, subprocess.TimeoutExpired):
            self.failures.append((label, "over budget"))
        except Exception as exc:  # a fault in the package must not end the run
            self.failures.append((label, f"{type(exc).__name__}: {exc}"))
        else:
            self.pending.append((label, check))

    def check_pending(self) -> None:
        """Check the outputs of the round's operations.

        Checking after the round, not between operations, keeps the
        checker's own work from evicting the package's code and data from
        the CPU caches before each timed operation.
        """
        for label, check in self.pending:
            try:
                problems = check()
            except Exception as exc:  # output the checker cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.wrong.append((label, problems))
        self.pending.clear()

    def process(self, argv: list[str]) -> tuple[int, str, float]:
        left = RUN_DEADLINE_S - (time.perf_counter() - STARTED)
        t0 = time.perf_counter()
        done = subprocess.run(
            argv,
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(min(self.workload.op_budget_s, left), 0.001),
        )
        return done.returncode, done.stdout, time.perf_counter() - t0

    # operations

    def certificate_op(self, base: int, digits, primary: bool, repeat: int = 1, warm: int = 0):
        """Decide, serialize and verify in process; check the certificate.

        `repeat` runs the round trip that many times back to back, and the
        first `warm` of them are untimed; each other one is a latency
        sample.  Callers leave both at their defaults for primary
        operations, so that each of those is one operation.  With tracing,
        a primary operation is also replayed with spans, before the
        untraced run on every other operation so that neither side always
        finds the package's caches warm.
        """
        key = f"{base} {digits}"

        def op():
            cy = sys.modules["cyclotile"]
            traced = self.tracer is not None and primary
            replayed = None
            if traced and self.replays % 2 == 1:
                replayed = self._replay_certificate(base, digits)
            for i in range(repeat):
                t0 = time.perf_counter()
                cert = cy.decide_tile_digit_set(base, digits)
                t1 = time.perf_counter()
                text = cy.certificate_to_json(cert)
                t2 = time.perf_counter()
                back = cy.certificate_from_json(text)
                t3 = time.perf_counter()
                if i >= warm:
                    self.decide_ms.setdefault(key, []).append((t1 - t0) * 1e3)
                    self.verify_ms.setdefault(key, []).append((t3 - t2) * 1e3)
            if primary:
                self.ops += 1
                self.op_seconds += t3 - t0
            if traced:
                self.untraced_s += t3 - t0
                if replayed is None:
                    replayed = self._replay_certificate(base, digits)

            def check() -> list[str]:
                problems = []
                if traced and replayed != text:
                    problems.append("replayed certificate differs from the package's")
                payload = json.loads(text)
                problems += checker.certificate_problems(payload)
                problems += checker.round_trip_problems(cert, back)
                return problems

            return check

        return op

    def _replay_certificate(self, base: int, digits) -> str | None:
        """Traced decide, serialize and verify; the certificate text, or None
        when the replayed kernel check fails."""
        self.replays += 1
        t0 = time.perf_counter()
        cert = replay.decide(self.tracer, base, digits)
        text = replay.to_json(self.tracer, cert)
        kernel_ok = replay.verify(self.tracer, text)
        self.traced_s += time.perf_counter() - t0
        return text if kernel_ok else None

    def tamper_op(self, text: str):
        """certificate_from_json must refuse a tampered certificate with CertificateError."""
        def op():
            cy = sys.modules["cyclotile"]
            try:
                cy.certificate_from_json(text)
            except cy.CertificateError:
                return lambda: []
            except Exception as exc:
                raise Failed(f"raised {type(exc).__name__} instead of CertificateError") from exc
            raise Failed("accepted a tampered certificate")

        return op

    def cli_op(self, argv: list[str], check, primary: bool):
        """One `cyclotile` process; check its exit code and JSON output."""
        def op():
            code, out, seconds = self.process([sys.executable, "-c", CLI_ENTRY, *argv])
            self.cli_ms.setdefault(" ".join(argv), []).append(seconds * 1e3)
            if code not in (0, 1):
                return lambda: [f"exit code {code}"]
            problems = list(check(code, json.loads(out)))
            if primary:
                self.ops += 1
                self.op_seconds += seconds
                if self.tracer is not None:
                    self.untraced_s += seconds
                    problems += self._replay_command(argv, code, out)
            return lambda: problems

        return op

    def _replay_command(self, argv: list[str], code: int, out: str) -> list[str]:
        _, _, startup = self.process([sys.executable, "-c", "import cyclotile.cli"])
        self.tracer.add_span("cli.startup", startup)
        rcode, rout, seconds = self.process([sys.executable, str(HERE / "replay.py"), *argv])
        self.traced_s += seconds
        data = json.loads(rout.splitlines()[-1])
        self.tracer.absorb(data["spans"], data["counters"])
        if (data["code"], data["stdout"]) != (code, out):
            return ["replayed command output differs from the process's"]
        return []

    # results

    def metrics(self) -> dict:
        if self.tracer is not None:
            return self._layer_metrics()
        w = self.workload
        values = {
            "setup_s": (self.setup_s, "s"),
            "ops_per_s": (self.ops / self.op_seconds if self.ops else 0.0, "1/s"),
            "decide_ms_p50": (w.p50(self.decide_ms), "ms"),
            "decide_ms_tail": (w.tail(self.decide_ms), "ms"),
            "verify_ms_p50": (w.p50(self.verify_ms), "ms"),
            "verify_ms_tail": (w.tail(self.verify_ms), "ms"),
            "cli_ms_p50": (w.p50(self.cli_ms), "ms"),
            "peak_rss_mb": (self._peak_rss_mb(), "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def _peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.workload.rss_of_children else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024

    def _layer_metrics(self) -> dict:
        self_s = self.tracer.self_seconds()
        out = {}
        for name in LAYER_TIMES:
            out[f"{name}_ms"] = {"value": self_s.get(name, 0.0) * 1e3, "unit": "ms"}
        for name in LAYER_COUNTS:
            out[name] = {"value": self.tracer.counters.get(name, 0), "unit": "count"}
        spans = self.tracer.total_seconds()
        out["trace.span_ms"] = {"value": spans * 1e3, "unit": "ms"}
        out["trace.untraced_ms"] = {"value": self.untraced_s * 1e3, "unit": "ms"}
        out["trace.traced_ms"] = {"value": self.traced_s * 1e3, "unit": "ms"}
        out["trace.coverage_pct"] = {"value": 100 * spans / self.untraced_s, "unit": "%"}
        out["trace.overhead_pct"] = {
            "value": 100 * (self.traced_s - self.untraced_s) / self.untraced_s,
            "unit": "%",
        }
        return out


LAYER_TIMES = (
    "digitset.validate",
    "intpoly.mask",
    "phitree.decide",
    "phitree.search",
    "phitree.order",
    "phitree.enumerate",
    "phitree.to_json",
    "phitree.from_json",
    "phitree.kernel_check",
    "spectra.prime_power",
    "spectra.general",
    "spectra.t1",
    "spectra.t2",
    "spectra.structure",
    "protasov.decide",
    "protasov.kenyon",
    "productform.recipe",
    "oracles.integer_tile",
    "oracles.direct_sum",
    "oracles.continuity",
    "cli.command",
    "cli.startup",
)
LAYER_COUNTS = (
    "phitree.search_nodes",
    "phitree.search_divisions",
    "phitree.search_pruned",
    "protasov.vertices",
    "protasov.divisions",
    "protasov.blocking_vertices",
)


# -- workloads --------------------------------------------------------------------


class Workload:
    name = ""
    op_budget_s = 60.0
    min_rounds = 1
    # None: the tail metrics report p50 (README.md says why, per workload).
    tail_percentile: int | None = None
    rss_of_children = False

    def p50(self, samples: dict[str, list[float]]) -> float:
        """The median over inputs of each input's trimmed mean latency."""
        if not samples:  # every operation failed: each missed any limit
            return self.op_budget_s * 1e3
        return statistics.median(trimmed_mean(v) for v in samples.values())

    def tail(self, samples: dict[str, list[float]]) -> float:
        if self.tail_percentile is None or not samples:
            return self.p50(samples)
        return percentile(itertools.chain.from_iterable(samples.values()), self.tail_percentile)

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def warm_up(self, run: Run) -> None:
        run.certificate_op(4, (0, 1, 8, 9), primary=False)()

    def round_ops(self, run: Run, inputs: dict, r: int, rng: random.Random):
        """(label, operation) pairs of round r in the order they run, the
        same count every round; rng, seeded, shuffles them."""
        raise NotImplementedError


def analyze_check(base: int, digits):
    """Check for `cyclotile analyze --format json` output."""
    mask = checker.Mask(digits)

    def check(code: int, payload) -> list[str]:
        problems = checker.certificate_problems(payload)
        if code != (0 if payload.get("verdict") == "tile" else 1):
            problems.append(f"exit code {code} for verdict {payload.get('verdict')}")
        if tuple(payload.get("digits", ())) != tuple(sorted(digits)) or payload.get("base") != base:
            problems.append("certificate names other digits")
        labels = payload.get("protasov_blocking")
        if labels is not None:
            problems += checker.residue_vertex_problems(base, mask, labels)
        return problems

    return check


def analyze_argv(base: int, digits, cross_check: bool = False) -> list[str]:
    argv = ["analyze", "--base", str(base), "--digits", ",".join(map(str, digits))]
    return argv + (["--cross-check"] if cross_check else []) + ["--format", "json"]


def criterion08_random_sets(rng: random.Random, base: int, count: int, top: int):
    """The acceptance suite's generator: two uniform draws, then one
    residue-complete perturbation (a guaranteed supply of genuine tiles)."""
    out = []
    while len(out) < count:
        if len(out) % 3 == 2:
            digits = [0] + [i + base * rng.randint(0, (top - i) // base) for i in range(1, base)]
        else:
            digits = [0] + sorted(rng.sample(range(1, top + 1), base - 1))
        if math.gcd(*digits) == 1:
            out.append(tuple(sorted(digits)))
    return out


def tampered_certificates() -> list[tuple[str, str]]:
    """Fixed tampers of genuine certificates; each must raise CertificateError.

    The first three are accepted or mis-rejected by certificate_from_json
    today, so they count as failed operations until the package is fixed.
    """
    cy = sys.modules["cyclotile"]
    tile = json.loads(cy.certificate_to_json(cy.decide_tile_digit_set(4, (0, 1, 8, 9))))
    other = json.loads(cy.certificate_to_json(cy.decide_tile_digit_set(4, (0, 1, 4, 5))))
    # the kernel field repeats the blocking; tamper it too where it exists
    def kernel(value):
        return {"kernel": value} if "kernel" in tile else {}

    tampers = {
        "flipped-verdict": {**tile, "verdict": "not-tile", "blocking": None, **kernel(None)},
        "wrong-pk-order": {**tile, "pk_order": 7},
        "string-digit": {**tile, "digits": [0, 1, "8", 9]},
        "non-dividing-blocking": {**other, "verdict": "tile", "blocking": [2, 16], **kernel([2, 16])},
        "swapped-digits": {**tile, "digits": other["digits"]},
        "not-a-blocking": {**tile, "blocking": [2], **kernel([2])},
        "unknown-verdict": {**tile, "verdict": "maybe"},
    }
    return [(name, json.dumps(payload)) for name, payload in tampers.items()]


class Corpus(Workload):
    """Criterion 08's corpus: every normalized base-4 set with digits <= 20,
    plus seeded random base 6/8/9/12 sets with digits <= 500."""

    name = "corpus"
    op_budget_s = 10.0
    base4_per_round = 60
    random_per_round = 5  # per base
    cli_per_round = 3
    # p99 has ten samples beyond it once a run holds 1000 decides.
    tail_percentile = 99
    min_rounds = math.ceil(1000 / (60 + 4 * 5))

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        base4 = [
            (0,) + combo
            for combo in itertools.combinations(range(1, 21), 3)
            if math.gcd(*combo) == 1
        ]
        rng.shuffle(base4)
        return {
            "base4": base4,
            "random": {b: criterion08_random_sets(rng, b, 200, 500) for b in (6, 8, 9, 12)},
            "tampers": tampered_certificates(),
        }

    def round_ops(self, run, inputs, r, rng):
        n = self.base4_per_round
        sets = [(4, inputs["base4"][(r * n + i) % len(inputs["base4"])]) for i in range(n)]
        # The same few sets every round, so that each one's process time
        # is sampled through the whole run.
        cli_sets = [(4, d) for d in inputs["base4"][: self.cli_per_round]]
        for b, pool in inputs["random"].items():
            k = self.random_per_round
            sets += [(b, pool[(r * k + i) % len(pool)]) for i in range(k)]
        # Base-4 sets run as one block and random sets as another: a
        # sub-millisecond operation right after a 50 ms one finds the CPU
        # caches cold, and its time then tracks the machine's memory
        # traffic more than the package.
        small, large = sets[:n], sets[n:]
        rng.shuffle(small)
        rng.shuffle(large)
        ops = [(f"decide {b} {d}", run.certificate_op(b, d, primary=True)) for b, d in small + large]
        ops += [(f"tamper {name}", run.tamper_op(text)) for name, text in inputs["tampers"]]
        for b, d in cli_sets:
            ops.append((f"cli {b} {d}", run.cli_op(analyze_argv(b, d), analyze_check(b, d), primary=False)))
        return ops


SECOND_ORDER_DIGITS = tuple(
    sorted(
        checker.polynomial_product(
            [
                checker.substituted_cyclotomic(2, 1),
                checker.substituted_cyclotomic(2, 96),
                checker.substituted_cyclotomic(3, 2304),
            ]
        )
    )
)


def construct_check(recipe: str, order: int):
    def check(code: int, payload) -> list[str]:
        cert = payload.get("certificate", {})
        problems = checker.certificate_problems(cert)
        if payload.get("order") != order:
            problems.append(f"order {payload.get('order')}, expected {order}")
        if code != 0 or cert.get("verdict") != "tile":
            problems.append("a recipe construction is not a tile")
        if payload.get("digits") != cert.get("digits"):
            problems.append("construction and certificate digits differ")
        if recipe == "b12_second_order" and tuple(payload.get("digits", ())) != SECOND_ORDER_DIGITS:
            problems.append("second-order mask is not Phi2(x) Phi2(x^96) Phi3(x^2304)")
        labels = cert.get("protasov_blocking")
        if labels is not None:
            mask = checker.Mask(cert["digits"])
            problems += checker.residue_vertex_problems(cert["base"], mask, labels)
        return problems

    return check


def oracle_check(base: int, digits):
    def check(code: int, payload) -> list[str]:
        problems = []
        tiling = payload.get("integer_tile")
        if (code == 0) != (tiling is not None):
            problems.append(f"exit code {code} does not match the integer tiling")
        if tiling is not None:
            problems += checker.complement_problems(digits, tiling["period"], tiling["complement"])
        mask = checker.Mask(digits)
        tiles = checker.escaping_path(base, mask) is None
        continuity = payload.get("continuity", {})
        if continuity.get("accepted") != tiles:
            problems.append("continuity verdict differs from the checker's tile verdict")
        if continuity.get("blocking") is not None:
            problems += checker.blocking_problems(base, continuity["blocking"])
            problems += [f"Phi_{e} does not divide" for e in continuity["blocking"] if not mask.divisible_by(e)]
        return problems

    return check


def kernels_check(base: int, digits=None, max_degree=None):
    def check(code: int, payload) -> list[str]:
        problems = []
        mask = checker.Mask(digits) if digits is not None else None
        if not payload:
            problems.append("no blockings listed")
        for entry in payload:
            members = entry["indices"]
            problems += checker.blocking_problems(base, members)
            if entry["degree"] != sum(checker.totient(e) for e in members):
                problems.append(f"{members}: degree {entry['degree']} is not the kernel degree")
            if max_degree is not None and entry["degree"] > max_degree:
                problems.append(f"{members}: degree above {max_degree}")
            if mask is not None:
                problems += [f"Phi_{e} does not divide" for e in members if not mask.divisible_by(e)]
        return problems

    return check


class Cli(Workload):
    """Separate `cyclotile` processes, one command at a time."""

    name = "cli"
    op_budget_s = 60.0
    # A round takes 21-33 s, most of it in four commands.  Two rounds
    # put the in-process samples at 24 moments of the run, not 12.
    min_rounds = 2
    rss_of_children = True
    recipes = {"b12_first_order_variant": 1, "b12_modulo": 1, "b12_second_order": 2}
    # The in-process samples use the modulo recipe's digit set, whose round
    # trip takes milliseconds; sub-millisecond sets read mostly the state
    # of the CPU caches after a child process.  A block of round trips runs
    # after each command, so that the samples are spread over the round;
    # the first of each block is an untimed warm-up, which pays for the
    # caches the command left cold.
    in_process_repeats = 5

    def make_inputs(self, seed: int) -> dict:
        modulo = sys.modules["cyclotile"].load_recipe(RECIPES / "b12_modulo.json").digits
        commands = []
        for recipe, order in self.recipes.items():
            argv = ["construct", "--recipe", str(Path("recipes") / f"{recipe}.json"), "--format", "json"]
            commands.append((argv, construct_check(recipe, order)))
            commands.append((argv + ["--cross-check"], construct_check(recipe, order)))
        for d in ((0, 1, 8, 9), (0, 1, 4, 5)):
            commands.append((analyze_argv(4, d, cross_check=True), analyze_check(4, d)))
            argv = ["oracle", "--base", "4", "--digits", ",".join(map(str, d)), "--format", "json"]
            commands.append((argv, oracle_check(4, d)))
        argv = ["kernels", "--base", "12", "--digits", ",".join(map(str, modulo)), "--format", "json"]
        commands.append((argv, kernels_check(12, digits=modulo)))
        argv = ["kernels", "--base", "12", "--max-degree", "200", "--format", "json"]
        commands.append((argv, kernels_check(12, max_degree=200)))
        return {"commands": commands, "modulo": modulo}

    def warm_up(self, run):
        run.cli_op(analyze_argv(4, (0, 1, 8, 9)), analyze_check(4, (0, 1, 8, 9)), primary=False)()

    def round_ops(self, run, inputs, r, rng):
        commands = [(" ".join(argv), run.cli_op(argv, check, primary=True)) for argv, check in inputs["commands"]]
        rng.shuffle(commands)
        op = run.certificate_op(12, inputs["modulo"], primary=False, repeat=self.in_process_repeats, warm=1)
        ops = []
        for command in commands:
            ops += [command, ("decide modulo recipe", op)]
        return ops


WORKLOADS = {w.name: w for w in (Corpus(), Cli())}


# -- main loop --------------------------------------------------------------------


def import_package():
    """Import cyclotile afresh, so each set-up pays for the import again."""
    for name in [n for n in sys.modules if n == "cyclotile" or n.startswith("cyclotile.")]:
        del sys.modules[name]
    importlib.import_module("cyclotile")
    importlib.import_module("cyclotile.cli")


def set_up(run: Run, seed: int) -> dict:
    """Import, input generation and one untimed warm-up, SETUP_REPEATS times;
    the median is setup_s.  Operations of the warm-ups are not counted."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_package()
        inputs = run.workload.make_inputs(seed)
        run.workload.warm_up(run)
        times.append(time.perf_counter() - t0)
    run.setup_s = statistics.median(times)
    run.decide_ms.clear()
    run.verify_ms.clear()
    run.cli_ms.clear()
    run.ops, run.op_seconds = 0, 0.0
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclotile" / "__init__.py").is_file() or not RECIPES.is_dir():
        print(f"error: no cyclotile source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    workload = WORKLOADS[args.workload]
    run = Run(workload, traced=bool(args.trace))
    inputs = set_up(run, args.seed)
    rng = random.Random(args.seed)
    # Whole rounds, for --seconds: after the minimum, a round starts only if
    # it should end in time, judged by the length of the round before it.
    # A traced run replays every operation, which doubles a round, and
    # reports no percentiles, so one round is enough there.
    min_rounds = 1 if args.trace else workload.min_rounds
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while time.perf_counter() - STARTED < RUN_DEADLINE_S:
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + last > args.seconds:
            break
        for label, op in workload.round_ops(run, inputs, rounds, rng):
            run.attempt(label, op)
        run.check_pending()
        rounds += 1
        last = time.perf_counter() - start - elapsed
    elapsed = time.perf_counter() - start

    for label, reason in run.failures:
        print(f"failed: {label}: {reason}", file=sys.stderr)
    for label, problems in run.wrong:
        print(f"wrong: {label}: {'; '.join(problems)}", file=sys.stderr)
    metrics = run.metrics()
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "rounds": rounds,
        "measured_s": elapsed,
        "primary_ops": run.ops,
        "decide_samples": sum(map(len, run.decide_ms.values())),
        "verify_samples": sum(map(len, run.verify_ms.values())),
        "cli_samples": sum(map(len, run.cli_ms.values())),
        "tail_percentile": workload.tail_percentile,
        "failures": run.failures,
        "wrong": run.wrong,
    }
    print("# report " + json.dumps(report))
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not run.wrong,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
