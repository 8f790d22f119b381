"""Seeded command lists for the benchmark workloads, and their oracles.

Every workload draws its commands from a fixed pool.  The pool is built
from constant generator seeds, so it is the same on every commit, and
``golden/<workload>.txt`` holds the SHA-256 of the stdout that the commit
which defined the benchmark printed for each pool entry.  A run's
``--seed`` chooses which pool entries form one pass over the workload and
in which order; every template contributes the same number of commands to
every pass, so the amount of work per pass does not depend on the seed.

Each command also carries the exit code its generator expects and, where
the inputs determine the answer, a structural oracle that does not come
from the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
# Embedding records read through ``--file``, relative to the checkout root.
DATA_DIR = "bench/data"


@dataclass(frozen=True)
class Command:
    """One CLI invocation with what it must produce."""

    argv: tuple[str, ...]
    exit_code: int = 0
    oracle: tuple = ()


@dataclass(frozen=True)
class Template:
    """A family of similar commands: its pool and its share of a pass."""

    name: str
    per_pass: int
    smoke: int
    pool: tuple[Command, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple[Template, ...]
    warmup: tuple[tuple[str, ...], ...]

    def pool(self) -> list[Command]:
        return [c for t in self.templates for c in t.pool]

    def pool_digest(self) -> str:
        return digest(self.pool())

    def commands(self, seed: int, smoke: bool = False) -> list[Command]:
        """One pass: a fixed number of commands per template, drawn from
        the template's pool by ``seed``, then shuffled."""
        rng = random.Random(f"{self.name}:{seed}")
        chosen = []
        for template in self.templates:
            count = template.smoke if smoke else template.per_pass
            pool = list(template.pool)
            rounds, rest = divmod(count, len(pool))
            chosen += pool * rounds + rng.sample(pool, rest)
        rng.shuffle(chosen)
        return chosen


def digest(commands) -> str:
    """SHA-256 of a command list: equal digests mean identical inputs."""
    text = json.dumps(
        [[list(c.argv), c.exit_code, list(c.oracle)] for c in commands]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: Workload) -> list[str]:
    """Expected stdout digests in pool order; raises when the pool the
    file was recorded from differs from the pool built now."""
    lines = (GOLDEN_DIR / f"{workload.name}.txt").read_text().split("\n")
    header, hashes = lines[0], [line for line in lines[1:] if line]
    expected = f"# pool {workload.pool_digest()}"
    if header != expected or len(hashes) != len(workload.pool()):
        raise ValueError(
            f"golden/{workload.name}.txt was recorded from another pool"
        )
    return hashes


# ------------------------------------------------------------ oracles


def level_group_order(n: int, k: int) -> int:
    """|G_k| = n! * |G_{k-1}|**n, by orbit-stabilizer on the cone."""
    order = 1
    for _ in range(k):
        order = math.factorial(n) * order**n
    return order


def _class(payload, s, m):
    return [payload["s"], payload["m"]], [s, m]


def _conjugate(payload, s, m):
    return _class(payload["class"], s, m)


def _covolume(payload, volume):
    return payload["covolume"], volume


def _count_hk(payload, n, k):
    brute = level_group_order(n, k)
    formula = math.factorial(n) ** k * n ** (k - 1)
    got = [payload["brute"], payload["formula"], payload["match"]]
    return got, [brute, formula, brute == formula]


def _centralizer(payload, n, k):
    order = payload["group_order"]
    index_ok = order // payload["centralizer_order"] == payload["index"]
    return [order, index_ok], [level_group_order(n, k), True]


# oracle kind -> (payload, *params) -> (what the command printed, expected)
ORACLES = {
    "class": _class,
    "conjugate": _conjugate,
    "covolume": _covolume,
    "count-hk": _count_hk,
    "centralizer": _centralizer,
}


def check(command: Command, code, stdout: str, stderr: str) -> str | None:
    """Reason the result is wrong, or None.  Exit code, traceback and the
    structural oracle; the stdout digest is compared by the caller."""
    if "Traceback (most recent call last)" in stderr:
        return "printed a traceback"
    if code != command.exit_code:
        return f"exit {code}, expected {command.exit_code}"
    if not command.oracle:
        return None
    kind, *params = command.oracle
    try:
        got, expected = ORACLES[kind](json.loads(stdout)["payload"], *params)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable {kind} output: {exc!r}"
    if got != expected:
        return f"{kind} oracle: got {got}, expected {expected}"
    return None


# ------------------------------------------------------------ generators

S_VALUES = ("-1/2", "1/2", "-1", "1", "3/2", "7/3", "5/4", "-7/3")


def star_valid(n: int, m: int) -> bool:
    rest = m
    for p in (2, 3):
        if n % p == 0:
            while rest % p == 0:
                rest //= p
    return rest == 1 and m % n != 0


# (n, l, s, m) points whose class is (s, m) and whose covolume is l*|s|.
GRID = tuple(
    (n, l, s, m)
    for n in (2, 3, 4, 6)
    for l in (1, 2, 3)
    for s in S_VALUES
    for m in range(1, 13)
    if star_valid(n, m)
)


def spec_flags(n, l, s, m) -> tuple[str, ...]:
    return ("--n", str(n), "--l", str(l), f"--s={s}", "--m", str(m))


def units(n: int) -> list[int]:
    return [u for u in range(1, 30) if math.gcd(u, n) == 1]


def rational(rng: random.Random, n: int, span: int, depth: int) -> str:
    """A random element of Z[1/n] as text."""
    return str(Fraction(rng.randint(-span, span), n ** rng.randint(0, depth)))


def word(rng: random.Random, letters: int, exponent: int) -> str:
    parts = []
    for _ in range(rng.randint(1, letters)):
        e = rng.choice([v for v in range(-exponent, exponent + 1) if v])
        gen = rng.choice("ab")
        parts.append(gen if e == 1 else f"{gen}^{e}")
    return " ".join(parts)


def sampled(name, size, make) -> tuple[Command, ...]:
    """``size`` distinct commands from ``make(rng)``, in a fixed order."""
    rng = random.Random(f"pool:{name}")
    seen, out = set(), []
    for _ in range(50 * size):
        command = make(rng)
        if command.argv not in seen:
            seen.add(command.argv)
            out.append(command)
            if len(out) == size:
                break
    return tuple(out)


def maybe_json(rng: random.Random) -> tuple[str, ...]:
    return ("--json",) if rng.random() < 0.3 else ()


# Embedding records under DATA_DIR: (file stem, n, l, s, m, class pair).
SPEC_FILES = (
    ("phi_2_1_1_3", 2, 1, "1", 3, ("3", 1)),
    ("spec_3_2_half", 3, 2, "1/2", 1, ("1/2", 1)),
    ("spec_4_1_neg", 4, 1, "-1", 2, ("-1", 2)),
    ("spec_6_2_seven", 6, 2, "7/3", 9, ("7/3", 9)),
    ("spec_6_1_four", 6, 1, "5/4", 4, ("5/4", 4)),
    ("spec_2_3_neg", 2, 3, "-7/3", 1, ("-7/3", 1)),
)


def spec_path(stem: str) -> str:
    return f"{DATA_DIR}/{stem}.json"


# The light commands of the acceptance suite's CLI corpus (criterion 12).
CORPUS = tuple(
    Command(tuple(argv))
    for argv in (
        ["bs", "normalize", "--N", "2", "b^-1 a^5 b^2", "--json"],
        ["bs", "collins", "--N", "6", "theta_2", "a b a^-1"],
        ["tree", "orbit", "--n", "2", "--beta", "3", "--vertex", "0:0",
         "--depth", "4", "--json"],
        ["tree", "aeta", "--n", "3", "--depth", "3", "--eta", "11"],
        ["embed", "classify", "--file", spec_path("phi_2_1_1_3"), "--json"],
        ["embed", "conjugate", "--file", spec_path("phi_2_1_1_3"),
         "--random", "--seed", "5", "--json"],
        ["embed", "straighten", "--n", "2", "--l", "1", "--s", "1",
         "--m", "3", "--depth", "3", "--json"],
        ["covol", "enumerate", "--n", "6", "--l", "2", "--s=-2/3",
         "--m", "9", "--json"],
        ["present", "verify", "--case", "3", "--n", "3", "--l", "2",
         "--m-ref", "-1"],
        ["lab", "trans-search", "--n", "6", "--beta", "243/4",
         "--l", "2", "--json"],
        ["lab", "level-sum", "--n", "4", "--gamma", "2", "--a-v", "1",
         "--depth", "4"],
        ["lab", "jordan-index", "--n", "2", "--k", "3", "--m", "1",
         "--m", "2", "--m", "4", "--json"],
    )
)

# Invalid inputs, each with the exit code its error class maps to.
ERRORS = tuple(
    Command(tuple(argv), code)
    for code, argv in (
        (2, ["bs", "normalize", "--N", "2", "a q"]),
        (2, ["bs", "mult", "--N", "3", "a^2 b^", "b"]),
        (2, ["bs", "invert", "--N", "x", "a b"]),
        (2, ["tree", "act", "--n", "2", "--vertex", "00"]),
        (2, ["tree", "act", "--n", "3", "--beta", "1/x", "--vertex", "0:0"]),
        (2, ["embed", "classify", "--n", "2", "--l", "1"]),
        (2, ["embed", "classify", "--n", "2", "--l", "1", "--s", "1/x",
             "--m", "1"]),
        (2, ["covol", "enumerate", "--n", "4", "--l", "1", "--s", "1"]),
        (2, ["present", "verify", "--case", "4", "--n", "2", "--l", "1"]),
        (2, ["lab", "count-hk", "--n", "2"]),
        (2, ["lab", "jordan-index", "--n", "2", "--k", "3"]),
        (2, ["embed", "classify", "--file", spec_path("missing")]),
        (1, ["embed", "classify", "--n", "2", "--l", "0", "--s", "1",
             "--m", "1"]),
        (1, ["embed", "classify", "--n", "3", "--l", "1", "--s", "0",
             "--m", "1"]),
        (1, ["covol", "enumerate", "--n", "2", "--l", "1", "--s", "1",
             "--m", "0"]),
        (1, ["tree", "orbit", "--n", "2", "--beta", "1/2", "--vertex",
             "0:0"]),
        (1, ["tree", "orbit", "--n", "3", "--beta", "1", "--vertex", "0:0",
             "--depth", "0"]),
        (1, ["tree", "axis", "--n", "2", "--beta", "1"]),
        (1, ["lab", "count-hk", "--n", "1", "--k", "2"]),
        (1, ["lab", "trans-search", "--n", "2", "--beta", "0"]),
        (1, ["lab", "level-sum", "--n", "2", "--gamma", "1/2", "--a-v", "1"]),
        (1, ["present", "verify", "--case", "2", "--n", "2", "--l", "1"]),
        (3, ["tree", "orbit", "--n", "2", "--beta", "3", "--vertex", "0:0",
             "--depth", "13"]),
        (3, ["tree", "orbit", "--n", "3", "--beta", "1", "--vertex", "0:0",
             "--depth", "8"]),
        (3, ["tree", "axis", "--n", "2", "--height", "1", "--unit", "2",
             "--beta", "1", "--depth", "13", "--dot", "bench/out/x.dot"]),
        (3, ["lab", "count-hk", "--n", "3", "--k", "4"]),
        (3, ["lab", "count-hk", "--n", "2", "--k", "7"]),
        (3, ["lab", "centralizer", "--n", "4", "--k", "3", "--m", "1"]),
        (3, ["lab", "level-sum", "--n", "10", "--gamma", "1", "--a-v", "1",
             "--depth", "7"]),
        (3, ["lab", "trans-search", "--n", "2", "--beta", "1",
             "--depth", "25"]),
    )
)


def _bs(verb):
    def make(rng):
        n = rng.choice((2, 3, 4, 6))
        if verb == "mult":
            operands = (word(rng, 12, 9), word(rng, 12, 9))
        elif verb == "collins":
            gens = ["A", "B", "C", "D", "Q1"] + (["Q2"] if n == 6 else [])
            gens.append(f"theta_{rng.randint(1, 9)}")
            operands = (rng.choice(gens), word(rng, 12, 9))
        else:
            operands = (word(rng, 12, 9),)
        return Command(("bs", verb, "--N", str(n), *operands) + maybe_json(rng))

    return make


def _tree_act(rng):
    n = rng.choice((2, 3, 4, 6))
    height = rng.choice((0, 0, 1, -1))
    unit = Fraction(rng.choice(units(n))) * Fraction(n) ** height
    vertex = f"{rng.randint(-2, 3)}:{rng.randint(0, 40)}/{n ** rng.randint(0, 2)}"
    return Command(
        ("tree", "act", "--n", str(n), "--height", str(height),
         f"--unit={unit}", f"--beta={rational(rng, n, 40, 2)}",
         f"--vertex={vertex}", f"--power={rng.choice([-1, 1]) * rng.randint(1, 9)}")
        + maybe_json(rng)
    )


def _tree_orbit(rng):
    n = rng.choice((2, 3, 4, 6))
    depth = rng.randint(1, 4)
    while n**depth > 256:
        depth -= 1
    height = rng.choice((0, 1))
    beta = rng.randint(-20, 20) * n**height
    return Command(
        ("tree", "orbit", "--n", str(n), f"--unit={rng.choice(units(n))}",
         f"--beta={beta}", f"--vertex={height}:0", "--depth", str(depth))
        + maybe_json(rng)
    )


def _tree_axis(rng):
    n = rng.choice((2, 3, 4, 6))
    height = rng.choice((1, 2, -1))
    unit = Fraction(rng.choice(units(n))) * Fraction(n) ** height
    return Command(
        ("tree", "axis", "--n", str(n), "--height", str(height),
         f"--unit={unit}", f"--beta={rational(rng, n, 40, 2)}",
         f"--at-height={rng.randint(-2, 3)}")
        + maybe_json(rng)
    )


def _tree_aeta(rng):
    n = rng.choice((2, 3, 4, 6))
    depth = rng.randint(1, 4)
    while n**depth > 256:
        depth -= 1
    return Command(
        ("tree", "aeta", "--n", str(n), "--depth", str(depth),
         "--eta", str(rng.randint(0, 1000)))
        + maybe_json(rng)
    )


def _grid_command(verb, oracle_kind=None, extra=lambda rng: ()):
    def make(rng):
        n, l, s, m = rng.choice(GRID)
        oracle = ()
        if oracle_kind in ("class", "conjugate"):
            oracle = (oracle_kind, str(Fraction(s)), m)
        elif oracle_kind == "covolume":
            oracle = (oracle_kind, str(l * abs(Fraction(s))))
        json_flag = ("--json",) if oracle else maybe_json(rng)
        return Command(
            ("embed" if verb != "enumerate" else "covol", verb,
             *spec_flags(n, l, s, m), *extra(rng), *json_flag),
            oracle=oracle,
        )

    return make


def _conjugator(rng):
    if rng.random() < 0.7:
        return ("--random", "--seed", str(rng.randint(0, 999)))
    return ("--unit", str(rng.choice((1, 5, 7, 11, 13))),
            f"--beta={rng.randint(-30, 30)}",
            f"--alpha={Fraction(rng.randint(-9, 9), rng.randint(1, 5))}")


def _straighten(rng):
    n = rng.choice((2, 3))
    l = rng.choice((1, 2))
    depth = rng.randint(1, 3 if n == 2 else 2)
    return Command(
        ("embed", "straighten", *spec_flags(n, l, rng.choice(S_VALUES), 1),
         "--depth", str(depth))
        + maybe_json(rng)
    )


def _present():
    out = []
    for n in (2, 3, 4, 6):
        for l in (1, 2, 3):
            out.append(["--case", "1", "--n", str(n), "--l", str(l)])
            if l % 2 == 0:
                out.append(["--case", "2", "--n", str(n), "--l", str(l)])
            for m_ref in (-1, 0, 1, 2):
                out.append(["--case", "3", "--n", str(n), "--l", str(l),
                            f"--m-ref={m_ref}"])
    return tuple(Command(("present", "verify", *flags)) for flags in out)


def _lab_count():
    sizes = ((2, 1), (2, 2), (2, 3), (3, 1), (4, 1))
    return tuple(
        Command(("lab", "count-hk", "--n", str(n), "--k", str(k), "--json"),
                oracle=("count-hk", n, k))
        for n, k in sizes
    )


def _lab_centralizer(sizes):
    return tuple(
        Command(("lab", "centralizer", "--n", str(n), "--k", str(k),
                 "--m", str(m), "--json"),
                oracle=("centralizer", n, k))
        for n, k, ms in sizes
        for m in ms
    )


def _lab_trans(rng):
    n = rng.choice((2, 3, 4, 6))
    depth = rng.randint(0, 4)
    while n**depth > 256:
        depth -= 1
    beta = "0"
    while Fraction(beta) == 0:
        beta = rational(rng, n, 300, 2)
    return Command(
        ("lab", "trans-search", "--n", str(n), f"--beta={beta}",
         "--l", str(rng.choice((1, 2))), "--depth", str(depth))
        + maybe_json(rng)
    )


def _lab_level_sum(rng):
    n = rng.choice((2, 3, 4, 6))
    weight = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    return Command(
        ("lab", "level-sum", "--n", str(n),
         "--gamma", str(rng.randint(0, 10**6)), "--a-v", str(weight),
         "--depth", str(rng.randint(1, 4)))
        + maybe_json(rng)
    )


def _jordan(k, size):
    # one shift of each 2-adic valuation below k, so every command in the
    # template filters the same centralizer orders and costs the same
    def make(rng):
        ms = [rng.choice(range(2**v, 2**k, 2 ** (v + 1))) for v in range(size)]
        flags = [f for m in ms for f in ("--m", str(m))]
        return Command(
            ("lab", "jordan-index", "--n", "2", "--k", str(k), *flags)
            + maybe_json(rng)
        )

    return make


# The query_mix weights are chosen, not measured: nothing records how bslat
# is used.  The rule: every verb gets PER_VERB commands a pass, split evenly
# over its templates; each corpus command appears once; invalid inputs are
# about 5% of a pass.
PER_VERB = 95
ERRORS_PER_PASS = 100


def _verb(*parts) -> tuple[Template, ...]:
    """One verb's templates from (name, pool) pairs: PER_VERB commands a
    pass in all, split evenly, and one each in a smoke pass."""
    share, extra = divmod(PER_VERB, len(parts))
    return tuple(
        Template(name, share + (i < extra), 1, pool)
        for i, (name, pool) in enumerate(parts)
    )


def _query_mix() -> Workload:
    grid = _grid_command
    verbs = (
        _verb(("bs-normalize", sampled("bs-normalize", 700, _bs("normalize")))),
        _verb(("bs-mult", sampled("bs-mult", 500, _bs("mult")))),
        _verb(("bs-invert", sampled("bs-invert", 400, _bs("invert")))),
        _verb(("bs-collins", sampled("bs-collins", 500, _bs("collins")))),
        _verb(("tree-act", sampled("tree-act", 600, _tree_act))),
        _verb(("tree-orbit", sampled("tree-orbit", 400, _tree_orbit))),
        _verb(("tree-axis", sampled("tree-axis", 320, _tree_axis))),
        _verb(("tree-aeta", sampled("tree-aeta", 320, _tree_aeta))),
        _verb(
            ("embed-classify",
             sampled("embed-classify", 240, grid("classify", "class"))),
            ("embed-classify-file", tuple(
                Command(("embed", "classify", "--file", spec_path(stem),
                         "--json"), oracle=("class", *pair))
                for stem, _, _, _, _, pair in SPEC_FILES
            )),
        ),
        _verb(("embed-validate", sampled("embed-validate", 240,
                                         grid("validate")))),
        _verb(("embed-conjugate", sampled(
            "embed-conjugate", 400, grid("conjugate", "conjugate", _conjugator)
        ))),
        _verb(("embed-auto-equiv", tuple(
            Command(("embed", "auto-equiv", spec_path(a[0]), spec_path(b[0])))
            for a in SPEC_FILES for b in SPEC_FILES if a[1] == b[1]
        ))),
        _verb(("embed-straighten", sampled("embed-straighten", 160,
                                           _straighten))),
        _verb(("covol-enumerate", sampled(
            "covol-enumerate", 240, grid("enumerate", "covolume")))),
        _verb(("present-verify", _present())),
        _verb(("lab-count-hk", _lab_count())),
        _verb(("lab-centralizer", _lab_centralizer(
            ((2, 2, range(1, 4)), (2, 3, range(1, 8)), (3, 1, (1, 2)))))),
        _verb(("lab-trans-search", sampled("lab-trans-search", 240,
                                           _lab_trans))),
        _verb(("lab-level-sum", sampled("lab-level-sum", 240,
                                        _lab_level_sum))),
        _verb(
            ("lab-jordan-k2", sampled("lab-jordan-k2", 8, _jordan(2, 2))),
            ("lab-jordan-k3", sampled("lab-jordan-k3", 16, _jordan(3, 3))),
        ),
    )
    templates = (
        Template("corpus", len(CORPUS), len(CORPUS), CORPUS),
        *(template for verb in verbs for template in verb),
        Template("errors", ERRORS_PER_PASS, 3, ERRORS),
    )
    return Workload(
        "query_mix",
        templates,
        warmup=tuple(c.argv for c in CORPUS[:9]),
    )


def _lab_reports() -> Workload:
    t = Template
    templates = (
        t("count-hk-2-3", 1, 1, (Command(
            ("lab", "count-hk", "--n", "2", "--k", "3", "--json"),
            oracle=("count-hk", 2, 3)),)),
        t("count-hk-3-2", 1, 0, (Command(
            ("lab", "count-hk", "--n", "3", "--k", "2", "--json"),
            oracle=("count-hk", 3, 2)),)),
        t("count-hk-2-4", 1, 0, (Command(
            ("lab", "count-hk", "--n", "2", "--k", "4", "--json"),
            oracle=("count-hk", 2, 4)),)),
        # odd shifts: every centralizer here has order 8 and costs the same
        t("centralizer-k3", 5, 1, _lab_centralizer(((2, 3, range(1, 8, 2)),))),
        t("centralizer-k4", 1, 0,
          _lab_centralizer(((2, 4, range(1, 16, 2)),))),
        t("jordan-index", 1, 1, (Command(
            ("lab", "jordan-index", "--n", "2", "--k", "3",
             "--m", "1", "--m", "2", "--m", "4")),)),
    )
    return Workload(
        "lab_reports",
        templates,
        warmup=(
            ("lab", "count-hk", "--n", "2", "--k", "2"),
            ("lab", "centralizer", "--n", "2", "--k", "2", "--m", "1"),
            ("lab", "jordan-index", "--n", "2", "--k", "2", "--m", "1"),
        ),
    )


def _deep_orbit(n, depth):
    def make(rng):
        return Command(
            ("tree", "orbit", "--n", str(n), f"--unit={rng.choice(units(n))}",
             f"--beta={rng.randint(-99, 99)}", "--vertex", "0:0",
             "--depth", str(depth))
        )

    return make


def _deep_act(power):
    def make(rng):
        vertex = f"{rng.randint(0, 3)}:{rng.randint(0, 7)}"
        return Command(
            ("tree", "act", "--n", "2", f"--unit={rng.choice((1, 3, 5, 7))}",
             f"--beta={rational(rng, 2, 40, 2)}", f"--vertex={vertex}",
             "--power", str(power))
        )

    return make


def _deep_straighten(n, depth):
    def make(rng):
        return Command(
            ("embed", "straighten", *spec_flags(n, 1, rng.choice(S_VALUES), 1),
             "--depth", str(depth))
        )

    return make


def _deep_normalize(rng):
    n = rng.choice((2, 3, 6))
    down, up = rng.randint(900, 1100), rng.randint(900, 1100)
    text = f"b^-{down} a^{rng.randint(-9, 9) or 1} b^{up} a^{rng.randint(1, 9)}"
    return Command(("bs", "normalize", "--N", str(n), text))


def _deep_trans(rng):
    beta = Fraction(rng.randrange(1, 64, 2), 2 ** rng.randint(0, 3))
    return Command(
        ("lab", "trans-search", "--n", "2", "--beta", str(beta),
         "--depth", "14")
    )


def _deep_level_sum(n):
    def make(rng):
        return Command(
            ("lab", "level-sum", "--n", str(n),
             "--gamma", str(rng.randint(1, 10**6)),
             "--a-v", str(Fraction(rng.randint(1, 9), rng.randint(1, 9))),
             "--depth", "11")
        )

    return make


def _deep_inputs() -> Workload:
    def t(name, per_pass, smoke, make):
        return Template(name, per_pass, smoke, sampled(name, 8, make))

    # Costs fall into three bands (about 750, 350 and 200 ms on a 2.1 GHz
    # Xeon) above a band of light commands, so the tail (11th slowest)
    # and the median land inside a band rather than on its edge.
    templates = (
        t("trans-search-d14", 4, 0, _deep_trans),
        t("orbit-n2-d12", 4, 0, _deep_orbit(2, 12)),
        t("straighten-n3-d5", 3, 0, _deep_straighten(3, 5)),
        t("act-p20000", 3, 0, _deep_act(20000)),
        t("act-p10000", 4, 0, _deep_act(10000)),
        t("straighten-n2-d7", 4, 0, _deep_straighten(2, 7)),
        t("orbit-n3-d7", 4, 0, _deep_orbit(3, 7)),
        t("act-p5000", 2, 1, _deep_act(5000)),
        t("straighten-n2-d6", 2, 1, _deep_straighten(2, 6)),
        t("orbit-n6-d4", 2, 1, _deep_orbit(6, 4)),
        t("normalize-e1000", 4, 1, _deep_normalize),
        t("level-sum-n2-d11", 2, 1, _deep_level_sum(2)),
        t("level-sum-n3-d11", 2, 0, _deep_level_sum(3)),
    )
    return Workload(
        "deep_inputs",
        templates,
        warmup=(
            ("tree", "orbit", "--n", "2", "--beta", "3", "--vertex", "0:0",
             "--depth", "3"),
            ("tree", "act", "--n", "2", "--beta", "3", "--vertex", "2:1",
             "--power", "10"),
            ("embed", "straighten", *spec_flags(2, 1, "1", 1), "--depth", "2"),
            ("bs", "normalize", "--N", "2", "b^-20 a^3 b^21"),
            ("lab", "trans-search", "--n", "2", "--beta", "3", "--depth", "4"),
            ("lab", "level-sum", "--n", "2", "--gamma", "3", "--a-v", "1",
             "--depth", "4"),
        ),
    )


# Workload name -> the function that makes it; a pool takes tens of ms.
WORKLOADS = {
    "query_mix": _query_mix,
    "lab_reports": _lab_reports,
    "deep_inputs": _deep_inputs,
}
