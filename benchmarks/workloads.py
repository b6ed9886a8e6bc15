"""The three benchmark workloads: how each generates its ops from a seed, runs
one op, and checks the op's answer.

Every op is checked against references that the package under test did not
produce (hand-written L-polynomial coefficients, classical signatures,
hand-derived pushforwards and mode traces, and Tr(R^2) and Tr(R^4) computed
by the benchmark's own Grassmann product), against the identity verdict the program itself reports, and
against the digest of its canonical output.  Checks raise ``CheckFailed``
explicitly, so they hold under ``python -O``.

Ops come in rounds.  Every round of a workload holds the same multiset of op
shapes in a seed-dependent order, so the mix is the same on every seed and
the traced run (one round) repeats its counts exactly.  Op costs differ by
size, so in-process rounds give five of their eight ops to one middle size:
both the median op and the tail (the 11th-slowest op of a run) then fall
inside that size's cluster, not on the edge between two sizes, which would
make them jump with the op count.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "digests.json"


class CheckFailed(Exception):
    """An op returned a wrong verdict, a wrong answer or an unexpected digest."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "supersdet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import supersdet.zeta  # noqa: F401  (loads series, grassmann, gaussian)


# ---------------------------------------------------------------------------
# hand-written references
# ---------------------------------------------------------------------------

Poly = Dict[Tuple[int, ...], F]

# L_1..L_3 over (p1, p2, p3): p1/3, (7 p2 - p1^2)/45, (62 p3 - 13 p1 p2 + 2 p1^3)/945
L_HAND: List[Poly] = [
    {(1, 0, 0): F(1, 3)},
    {(0, 1, 0): F(7, 45), (2, 0, 0): F(-1, 45)},
    {(0, 0, 1): F(62, 945), (1, 1, 0): F(-13, 945), (3, 0, 0): F(2, 945)},
]

# p_k = e_k of the power sums s_j = (2j)! ph_j (Newton, by hand), over (ph1, ph2, ph3):
# e1 = s1, e2 = (s1^2 - s2)/2, e3 = (s1^3 - 3 s1 s2 + 2 s3)/6
P_IN_PH: List[Poly] = [
    {(1, 0, 0): F(2)},
    {(2, 0, 0): F(2), (0, 1, 0): F(-12)},
    {(3, 0, 0): F(4, 3), (1, 1, 0): F(-24), (0, 0, 1): F(240)},
]

SIGNATURES = {"cp2": 1, "cp4": 1, "hp2": 1, "k3": -16, "cp2xcp2": 1, "k3xcp2": -16}

# a non-unit class per ring model and its pushforward <s . L, [X]>, by hand:
# cp2: 2 h^2 is twice the top class; cp4: h^2 . L_1 = h^2 . 5h^2/3;
# hp2: u . L_1 = u . 2u/3; k3: 3 v; cp2xcp2: (a + c) . L_1 = (a + c)^2 = 2 f
PUSHFORWARD_HAND = {
    "cp2": ("2*h^2", F(2)),
    "cp4": ("h^2", F(5, 3)),
    "hp2": ("u", F(2, 3)),
    "k3": ("3*v", F(3)),
    "cp2xcp2": ("h1^2 + h2^2", F(2)),
}

# Tr (d/dt)^(-2) over the periodic and antiperiodic modes, in units of r^2
TRACE_K1_HAND = {"periodic": F(-1, 12), "antiperiodic": F(-1, 4)}


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, F(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _l_class_low_weights_in_ph() -> Poly:
    """1 + L_1 + L_2 + L_3 rewritten in ph_1..ph_3 from the tables above."""
    out: Poly = {(0, 0, 0): F(1)}
    for piece in L_HAND:
        for exps, coeff in piece.items():
            term: Poly = {(0, 0, 0): coeff}
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = _poly_mul(term, P_IN_PH[i])
            for k, c in term.items():
                out[k] = out.get(k, F(0)) + c
    return {k: c for k, c in out.items() if c}


L_CLASS_PH_HAND = _l_class_low_weights_in_ph()


def _weight(exps) -> int:
    return sum((i + 1) * e for i, e in enumerate(exps))


def _check_terms_low_weight(terms: List[dict], reference: Poly, what: str) -> None:
    """The weight <= 3 terms of a JSON polynomial equal the reference."""
    got: Poly = {}
    for t in terms:
        exps = t["monomial"]
        if _weight(exps) <= 3:
            got[tuple(exps[:3])] = F(t["num"], t["den"])
    check(got == reference, f"{what}: weight <= 3 part {got} != hand reference {reference}")


def _check_l_polys(polys: List[dict]) -> None:
    for k, piece in enumerate(L_HAND, start=1):
        got = {tuple(t["monomial"][:3]): F(t["num"], t["den"])
               for t in polys[k - 1]["terms"]}
        check(polys[k - 1]["weight"] == k and got == piece,
              f"L_{k} = {got} differs from the hand-written {piece}")


def check_formal_report(report: dict, n: int, K: int) -> None:
    check(report.get("equal") is True, f"sdet({n}, {K}): verdict equal is not true")
    check(report["n"] == n and report["K"] == K and report["sector"] == "PA",
          f"sdet({n}, {K}): report echoes wrong inputs")
    check(report["sdet"] == report["l_class"], f"sdet({n}, {K}) differs from the L-class")
    _check_terms_low_weight(report["l_class"], L_CLASS_PH_HAND, f"L-class K={K}")


# ---------------------------------------------------------------------------
# oracle_formal
# ---------------------------------------------------------------------------

ORACLE_KS = (10, 11, 12, 12, 12, 12, 12, 13)
ORACLE_NS = (1, 2, 4, 8)


class OracleOp:
    def __init__(self, n: int, K: int):
        self.n, self.K = n, K
        self.key = f"oracle_formal:n={n}:K={K}"

    def run(self):
        from supersdet import zeta
        return zeta.sdet_report(self.n, self.K)

    def check(self, report) -> str:
        check_formal_report(report, self.n, self.K)
        return canonical(report)


def oracle_rounds(seed: int) -> Iterator[List[OracleOp]]:
    rng = random.Random(seed)
    while True:
        ks = list(ORACLE_KS)
        rng.shuffle(ks)
        yield [OracleOp(rng.choice(ORACLE_NS), K) for K in ks]


def oracle_warmup() -> None:
    OracleOp(1, 4).run()


# ---------------------------------------------------------------------------
# concrete_grassmann
# ---------------------------------------------------------------------------

# (matrix size, odd generators)
CONCRETE_SIZES = ((6, 8), (6, 10), (8, 8), (8, 8), (8, 8), (8, 8), (8, 8), (8, 10))
COEFFS = (-2, -1, 1, 2)

Entry = List[Tuple[int, int, int]]  # c * psi_a * psi_b summands


def curvature_entries(rng: random.Random, n: int, g: int) -> Dict[Tuple[int, int], Entry]:
    """Upper-triangle entries: small-integer combinations of one or two
    odd-generator pairs.  A base matrix per size is fixed; the seed draws a
    relabeling of the generators and a sign per generator.  Both are algebra
    automorphisms, so every op gets a different matrix with the same term
    counts, and op cost does not depend on the seed."""
    base = random.Random(f"{n}x{g}")
    relabel = list(range(g))
    rng.shuffle(relabel)
    sign = [rng.choice((-1, 1)) for _ in range(g)]
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            entry = []
            for _ in range(1 + base.randrange(2)):
                a, b = base.sample(range(g), 2)
                entry.append((base.choice(COEFFS) * sign[a] * sign[b], relabel[a], relabel[b]))
            upper[(i, j)] = entry
    return upper


def _odd_name(a: int) -> str:
    return f"psi{a:02d}"


Gr = Dict[int, F]  # bitmask of odd generators -> coefficient


def _gr_mul(x: Gr, y: Gr) -> Gr:
    out: Gr = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            if m1 & m2:
                continue
            # each generator of m2 moves left past the larger generators of m1
            swaps, rest = 0, m2
            while rest:
                low = rest & -rest
                swaps += bin(m1 & ~((low << 1) - 1)).count("1")
                rest ^= low
            out[m1 | m2] = out.get(m1 | m2, F(0)) + (-c1 * c2 if swaps & 1 else c1 * c2)
    return {m: c for m, c in out.items() if c}


def _gr_add(x: Gr, y: Gr) -> Gr:
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, F(0)) + c
    return {m: c for m, c in out.items() if c}


def even_traces(n: int, upper: Dict[Tuple[int, int], Entry]) -> Tuple[Gr, Gr]:
    """Tr(R^2) and Tr(R^4), computed without the package."""
    R: List[List[Gr]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), entry in upper.items():
        e: Gr = {}
        for c, a, b in entry:
            e = _gr_add(e, {(1 << a) | (1 << b): F(-c if a > b else c)})
        R[i][j], R[j][i] = e, {m: -c for m, c in e.items()}
    R2 = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                R2[i][j] = _gr_add(R2[i][j], _gr_mul(R[i][k], R[k][j]))
    tr2: Gr = {}
    tr4: Gr = {}
    for i in range(n):
        tr2 = _gr_add(tr2, R2[i][i])
        for j in range(n):
            tr4 = _gr_add(tr4, _gr_mul(R2[i][j], R2[j][i]))
    return tr2, tr4


class ConcreteOp:
    def __init__(self, index: int, n: int, g: int, upper: Dict[Tuple[int, int], Entry]):
        self.n, self.g, self.upper = n, g, upper
        self.key = f"concrete_grassmann:{index}:{n}x{n}/{g}"

    def matrix(self):
        from supersdet.grassmann import GrassmannElement, odd, scalar
        from supersdet.zeta import CurvatureMatrix
        rows = [[scalar(0)] * self.n for _ in range(self.n)]
        for (i, j), entry in self.upper.items():
            e = GrassmannElement()
            for c, a, b in entry:
                e = e + c * odd(_odd_name(a)) * odd(_odd_name(b))
            rows[i][j], rows[j][i] = e, -e
        return CurvatureMatrix(rows)

    def run(self):
        from supersdet import zeta
        M = self.matrix()
        value = zeta.sdet_concrete(M)
        phs = [zeta.curvature_to_ph(M, k) for k in range(1, self.g // 2 + 1)]
        formal = zeta.substitute_ph(zeta.sdet_formal(self.n, self.g // 2), phs)
        return value, formal, phs

    def check(self, result) -> str:
        from supersdet.grassmann import GrassmannElement, even, odd
        value, formal, phs = result
        check((value - formal).is_zero(),
              f"{self.key}: concrete sdet does not match the formal route")
        # ph_k = (i r / 2)^{2k} (1/2) Tr(R^{2k}) / (2k)!: -r^2/16 Tr(R^2), r^4/768 Tr(R^4)
        for k, (trace, scale) in enumerate(zip(even_traces(self.n, self.upper),
                                               (F(-1, 16), F(1, 768))), start=1):
            expected = GrassmannElement()
            for mask, c in trace.items():
                mono = scale * c * even("r", 2 * k)
                for a in range(self.g):
                    if mask >> a & 1:
                        mono = mono * odd(_odd_name(a))
                expected = expected + mono
            check((phs[k - 1] - expected).is_zero(),
                  f"{self.key}: ph_{k} differs from the independent Tr(R^{2 * k})")
        return canonical({"n": self.n, "g": self.g, "sdet": str(value)})


def concrete_rounds(seed: int) -> Iterator[List[ConcreteOp]]:
    rng = random.Random(seed)
    index = 0
    while True:
        sizes = list(CONCRETE_SIZES)
        rng.shuffle(sizes)
        ops = []
        for n, g in sizes:
            ops.append(ConcreteOp(index, n, g, curvature_entries(rng, n, g)))
            index += 1
        yield ops


def concrete_warmup() -> None:
    ConcreteOp(-1, 4, 6, curvature_entries(random.Random(0), 4, 6)).run()


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

CliCheck = Callable[[dict], None]


def _verify_check(suite: str) -> CliCheck:
    def run(out: dict) -> None:
        want = ["grassmann", "susy", "series", "zeta"] if suite == "all" else [suite]
        check(out["suites"] == want, f"verify {suite}: ran suites {out['suites']}")
        check(out["passed"] is True and out["checks"]
              and all(c["passed"] for c in out["checks"]),
              f"verify {suite}: a check failed")
    return run


def _lpoly_check(out: dict) -> None:
    check(out["K"] == 6 and len(out["polynomials"]) == 6, "lpoly: wrong polynomial count")
    _check_l_polys(out["polynomials"])


def _lgenus_check(name: str) -> CliCheck:
    def run(out: dict) -> None:
        sig = {"num": SIGNATURES[name], "den": 1}
        check(out["manifold"] == name and out["match"] is True
              and out["l_genus"] == sig and out["signature"] == sig,
              f"lgenus {name}: {out} against signature {SIGNATURES[name]}")
    return run


def _pushforward_check(name: str, expected: F) -> CliCheck:
    def run(out: dict) -> None:
        value = F(out["value"]["num"], out["value"]["den"])
        check(out["manifold"] == name and value == expected,
              f"pushforward over {name}: {value} != {expected}")
    return run


def _sdet_check(n: int, K: int) -> CliCheck:
    def run(out: dict) -> None:
        check(out["mode"] == "formal", "sdet: wrong mode")
        check_formal_report(out, n, K)
    return run


def _sdet_concrete_check(pp: bool) -> CliCheck:
    def run(out: dict) -> None:
        check(out["mode"] == "concrete" and out["equal"] is True,
              f"sdet concrete pp={pp}: verdict equal is not true")
        if pp:
            check(out["sector"] == "PP" and out["sdet"] == "(1)",
                  f"sdet concrete PP sector is {out['sdet']}, not 1")
    return run


def _zeta_product_check(out: dict) -> None:
    check(out["r_exponent"] == {"num": 1, "den": 1} and out["coefficient"] == {"num": 1, "den": 1},
          f"zeta product n=2: {out} is not r^1")


def _zeta_trace_check(bc: str) -> CliCheck:
    def run(out: dict) -> None:
        c = TRACE_K1_HAND[bc]
        check(out["bc"] == bc and out["r_exponent"] == {"num": 2, "den": 1}
              and out["coefficient"] == {"num": c.numerator, "den": c.denominator},
              f"zeta trace k=1 {bc}: {out}")
    return run


def cli_commands() -> List[Tuple[List[str], CliCheck]]:
    cmds: List[Tuple[List[str], CliCheck]] = []
    for suite in ("all", "grassmann", "susy", "series", "zeta"):
        cmds.append((["verify"] + ([] if suite == "all" else ["--suite", suite]),
                     _verify_check(suite)))
    cmds.append((["lpoly", "--k", "6"], _lpoly_check))
    for name in SIGNATURES:
        cmds.append((["lgenus", "--manifold", name], _lgenus_check(name)))
    for name, (expr, value) in PUSHFORWARD_HAND.items():
        cmds.append((["pushforward", "--manifold", name, "--class", "1"],
                     _pushforward_check(name, F(SIGNATURES[name]))))
        cmds.append((["pushforward", "--manifold", name, "--class", expr],
                     _pushforward_check(name, value)))
    for n in (1, 4):
        for K in (4, 8):
            cmds.append((["sdet", "--n", str(n), "--k", str(K)], _sdet_check(n, K)))
    cmds.append((["sdet", "--n", "4", "--mode", "concrete"], _sdet_concrete_check(False)))
    cmds.append((["sdet", "--n", "4", "--mode", "concrete", "--pp"], _sdet_concrete_check(True)))
    cmds.append((["zeta", "--what", "product", "--n", "2"], _zeta_product_check))
    for bc in TRACE_K1_HAND:
        cmds.append((["zeta", "--what", "trace", "--k", "1", "--bc", bc], _zeta_trace_check(bc)))
    return [(argv + ["--format", "json"], fn) for argv, fn in cmds]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("SUPERSDET_TRUNCATION", None)  # inputs come from the argv alone
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliOp:
    """One CLI invocation in a fresh interpreter.  With ``traced`` the child is
    the benchmark's own entry script, which installs the tracer first."""

    traced = False

    def __init__(self, argv: List[str], fn: CliCheck):
        self.argv, self.fn = argv, fn
        self.key = "cli_batch:" + " ".join(argv)

    def command(self) -> List[str]:
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "cli_child.py")] + self.argv
        return [sys.executable, "-m", "supersdet.cli"] + self.argv

    def run(self):
        proc = subprocess.run(self.command(), cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        return proc

    def check(self, proc) -> str:
        check(proc.returncode == 0,
              f"{self.key}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        self.fn(json.loads(proc.stdout))
        return proc.stdout


def cli_rounds(seed: int) -> Iterator[List[CliOp]]:
    rng = random.Random(seed)
    commands = cli_commands()
    while True:
        order = list(commands)
        rng.shuffle(order)
        yield [CliOp(argv, fn) for argv, fn in order]


def cli_warmup() -> None:
    argv, fn = next(c for c in cli_commands() if c[0][:3] == ["zeta", "--what", "product"])
    CliOp(argv, fn).run()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    rounds: Callable[[int], Iterator[list]]
    warmup: Callable[[], None]
    in_process: bool
    digests: bool  # op outputs must match digests.json


WORKLOADS = {
    "oracle_formal": Workload(oracle_rounds, oracle_warmup, True, True),
    "concrete_grassmann": Workload(concrete_rounds, concrete_warmup, True, False),
    "cli_batch": Workload(cli_rounds, cli_warmup, False, True),
}


def setup(name: str, seed: int):
    """Everything a run does before its first timed op: import the package
    (in-process workloads), generate the first round, and warm up once."""
    workload = WORKLOADS[name]
    if workload.in_process:
        import_package()
    elif not (SRC / "supersdet" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    rounds = workload.rounds(seed)
    first = next(rounds)
    workload.warmup()
    return workload, first, rounds
