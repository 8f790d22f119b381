"""Batch command line front end.

Subcommand groups mirror the library layout: ``bs`` for normal forms,
``tree`` for the vertex action, ``embed`` for lattice embeddings, ``covol``
for quotient data, ``present`` for presentation checks, and ``lab`` for the
finite brute-force reports.  Default output is a small human-readable
key = value block; ``--json`` switches to one canonical JSON object per
invocation (sorted keys, rationals as strings).

Exit codes: 0 ok, 1 validation error, 2 parse error (including malformed
flags and unreadable files), 3 infeasible.  Failures print a one-line
reason, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import bsgroup
from .errors import InvalidParams, ParseError, TooLarge, ValidationError
from .exactnum import (
    TruncatedNAdic,
    format_rational,
    parse_rational,
    unit_in_base,
)
from .isometry import ArithmeticIsometry
from .lab import (
    _shift_element,
    centralizer,
    enumerate_level_group,
    eventually_transitive_search,
    jordan_index_report,
    level_group_report,
    level_sum_report,
)
from .lattice import (
    EmbeddingSpec,
    PresentationCase,
    QuotientEntry,
    are_automorphism_equivalent,
    are_conjugate,
    build_full_lattice,
    classify,
    conjugate_spec,
    covolume_from_quotient,
    enumerate_quotient,
    evaluate_word,
    presentation_relators,
    standard_embedding,
    straighten,
    validate,
)
from .tree import (
    BallAffineMap,
    LevelPermAutomorphism,
    TreeVertex,
    act_power,
    axis_vertex,
    label_above,
    levelwise_translation,
    restrict_to_up,
    subtree_dot,
    translation_amount,
)

# Cone sizes above this would make orbit listings useless as terminal output.
ORBIT_CONE_CAP = 4096

_EXIT = {"ok": 0, "validation_error": 1, "parse_error": 2, "infeasible": 3}


@dataclass(frozen=True)
class CommandResult:
    """Outcome of one subcommand: a status tag, the operation's record, and
    any diagnostic lines (failure reasons, or informational notes when the
    status is ok)."""

    status: str
    payload: dict
    diagnostics: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.status not in _EXIT:
            raise ValueError(f"unknown status {self.status!r}")


class _Parser(argparse.ArgumentParser):
    # Funnel argparse failures into the normal error path instead of
    # letting the default handler print usage and exit on its own.
    def error(self, message):
        raise ParseError(message)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _human_lines(payload: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_human_lines(value, indent + "  "))
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(item, dict) for item in value)
        ):
            for position, item in enumerate(value):
                lines.append(f"{indent}{key}[{position}]:")
                lines.extend(_human_lines(item, indent + "  "))
        else:
            lines.append(f"{indent}{key} = {_format_value(value)}")
    return lines


def _emit(result: CommandResult, as_json: bool) -> int:
    if as_json:
        record = {
            "status": result.status,
            "payload": result.payload,
            "diagnostics": list(result.diagnostics),
        }
        print(json.dumps(record, sort_keys=True))
    else:
        for line in _human_lines(result.payload):
            print(line)
        if result.status == "ok":
            for note in result.diagnostics:
                print(f"note: {note}")
        else:
            for note in result.diagnostics:
                print(f"error: {note}", file=sys.stderr)
    return _EXIT[result.status]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_text(path: str, content: str):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content + "\n")
    except OSError as exc:
        raise ParseError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from exc


def _spec_from_payload(payload) -> EmbeddingSpec:
    try:
        return EmbeddingSpec.from_json(payload)
    except (ParseError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"embedding record is malformed: {exc}") from exc


def _obtain_spec(args) -> EmbeddingSpec:
    """Embedding from --file, or from the standard family flags."""
    if args.file is not None:
        spec = _spec_from_payload(_load_json(args.file))
        for name in ("n", "l"):
            given = getattr(args, name)
            if given is not None and given != getattr(spec, name):
                raise ParseError(
                    f"--{name} {given} contradicts the file "
                    f"({name} = {getattr(spec, name)})"
                )
        return spec
    if None in (args.n, args.l, args.s, args.m):
        raise ParseError("need --file, or all of --n --l --s --m")
    return standard_embedding(args.n, args.l, args.s, args.m)


def _check_printable(n: int, h: int):
    """Refuse height h when its centers (their denominators, at h < 0) can
    reach n**|h| >= 10**limit, past the digits Python converts to text."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # 2**|h| > 10**limit once |h| > 4 * limit: skip the big power
    if limit and (abs(h) > 4 * limit or n ** abs(h) >= 10**limit):
        raise TooLarge(f"centers at height {h} can exceed {limit} digits")


def _parse_vertex(n: int, text: str) -> TreeVertex:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"vertex must be HEIGHT:CENTER, got {text!r}")
    try:
        height = int(head)
    except ValueError:
        raise ParseError(
            f"vertex height {head!r} is not an integer"
        ) from None
    _check_printable(n, height)
    return TreeVertex.of(n, height, parse_rational(tail))


def _tree_map(args) -> BallAffineMap:
    return BallAffineMap(
        args.n,
        args.height,
        parse_rational(args.unit),
        parse_rational(args.beta),
    )


def _cycles(perm) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        y = start
        while not seen[y]:
            seen[y] = True
            cycle.append(y)
            y = perm[y]
        out.append(cycle)
    return out


# ---------------------------------------------------------------- bs


def _cmd_bs_normalize(args) -> CommandResult:
    form = bsgroup.normalize(bsgroup.BSWord.from_text(args.N, args.word))
    return CommandResult("ok", _normal_form_record(form))


def _cmd_bs_mult(args) -> CommandResult:
    left = bsgroup.normalize(bsgroup.BSWord.from_text(args.N, args.left))
    right = bsgroup.normalize(bsgroup.BSWord.from_text(args.N, args.right))
    return CommandResult(
        "ok", _normal_form_record(bsgroup.multiply(left, right))
    )


def _cmd_bs_invert(args) -> CommandResult:
    form = bsgroup.normalize(bsgroup.BSWord.from_text(args.N, args.word))
    return CommandResult("ok", _normal_form_record(bsgroup.invert(form)))


def _cmd_bs_collins(args) -> CommandResult:
    word = bsgroup.BSWord.from_text(args.N, args.word)
    image = bsgroup.apply_collins(args.generator, word)
    record = {"generator": args.generator, "input": str(word) or "1"}
    record.update(_normal_form_record(bsgroup.normalize(image)))
    return CommandResult("ok", record)


def _normal_form_record(form) -> dict:
    return {
        "word": str(form) or "1",
        "x": form.x,
        "y": form.y,
        "z": form.z,
    }


# ---------------------------------------------------------------- tree


def _cmd_tree_act(args) -> CommandResult:
    vertex = _parse_vertex(args.n, args.vertex)
    _check_printable(args.n, vertex.h + args.power * args.height)
    image = act_power(_tree_map(args), args.power, vertex)
    return CommandResult(
        "ok",
        {
            "input": vertex.to_json(),
            "power": args.power,
            "image": image.to_json(),
        },
    )


def _cmd_tree_orbit(args) -> CommandResult:
    vertex = _parse_vertex(args.n, args.vertex)
    if args.depth < 1:
        raise InvalidParams("depth must be >= 1")
    if args.n**args.depth > ORBIT_CONE_CAP:
        raise TooLarge(
            f"{args.n}^{args.depth} cone vertices; cap is {ORBIT_CONE_CAP}"
        )
    sigma = restrict_to_up(_tree_map(args), vertex, args.depth)
    levels = []
    index_at = []
    for level in range(1, args.depth + 1):
        orbits = _cycles(sigma.perms[level - 1])
        levels.append(
            {
                "level": level,
                "orbit_count": len(orbits),
                "orbits": orbits,
            }
        )
        index_at.append(
            {
                label: position
                for position, orbit in enumerate(orbits)
                for label in orbit
            }
        )
    if args.dot:

        def orbit_of(v):
            level = v.h - vertex.h
            if level < 1:
                return None
            return index_at[level - 1][label_above(vertex, v)]

        _write_text(args.dot, subtree_dot(vertex, args.depth, orbit_of))
    payload = {"vertex": vertex.to_json(), "levels": levels}
    if args.dot:
        payload["dot_file"] = args.dot
    return CommandResult("ok", payload)


def _cmd_tree_axis(args) -> CommandResult:
    map_ = _tree_map(args)
    _check_printable(args.n, args.at_height)
    vertex = axis_vertex(map_, args.at_height)
    fixed = map_.hyperbolic_fixed_point()
    if args.dot:
        if args.n**args.depth > ORBIT_CONE_CAP:
            raise TooLarge(
                f"{args.n}^{args.depth} cone vertices; "
                f"cap is {ORBIT_CONE_CAP}"
            )
        _write_text(args.dot, subtree_dot(vertex, args.depth))
    payload = {
        "fixed_point": format_rational(fixed),
        "vertex": vertex.to_json(),
    }
    if args.dot:
        payload["dot_file"] = args.dot
    return CommandResult("ok", payload)


def _cmd_tree_aeta(args) -> CommandResult:
    if args.eta is not None:
        eta = TruncatedNAdic(
            base=args.n,
            precision=args.depth,
            residue=args.eta % args.n**args.depth,
        )
        built = levelwise_translation(eta)
        return CommandResult(
            "ok",
            {
                "n": args.n,
                "depth": args.depth,
                "eta": eta.residue,
                "perms": built.to_lists(),
            },
        )
    try:
        lists = json.loads(args.perms)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--perms: {exc}") from exc
    perm = LevelPermAutomorphism.from_lists(args.n, lists)
    eta = translation_amount(perm)
    return CommandResult(
        "ok",
        {
            "n": args.n,
            "depth": perm.depth,
            "eta": eta.residue,
            "residues": [
                eta.residue_at(level)
                for level in range(1, perm.depth + 1)
            ],
        },
    )


# ---------------------------------------------------------------- embed


def _cmd_embed_classify(args) -> CommandResult:
    return CommandResult("ok", classify(_obtain_spec(args)).to_json())


def _cmd_embed_validate(args) -> CommandResult:
    spec = _obtain_spec(args)
    problems = validate(spec)
    payload = {"valid": not problems, "problems": problems}
    if problems:
        return CommandResult("validation_error", payload, tuple(problems))
    return CommandResult("ok", payload)


def _random_conjugator(n: int, seed: int) -> ArithmeticIsometry:
    rng = random.Random(seed)
    height = rng.randint(-3, 3)
    unit = rng.choice(
        [u for u in range(1, 30) if unit_in_base(u, n)]
    )
    scale = rng.choice([1, -1]) * Fraction(unit) * Fraction(n) ** height
    beta = Fraction(rng.randint(-50, 50), n ** rng.randint(0, 2))
    alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
    return ArithmeticIsometry(
        n, 1, height, alpha, BallAffineMap(n, height, scale, beta)
    )


def _cmd_embed_conjugate(args) -> CommandResult:
    spec = _obtain_spec(args)
    if args.random:
        if (args.height, args.unit, args.beta, args.alpha) != (
            0,
            "1",
            "0",
            "0",
        ):
            raise ParseError(
                "--random excludes the explicit conjugator flags"
            )
        conjugator = _random_conjugator(spec.n, args.seed)
    else:
        conjugator = ArithmeticIsometry(
            spec.n,
            1,
            args.height,
            parse_rational(args.alpha),
            BallAffineMap(
                spec.n,
                args.height,
                parse_rational(args.unit),
                parse_rational(args.beta),
            ),
        )
    moved = conjugate_spec(spec, conjugator)
    return CommandResult(
        "ok",
        {
            "conjugator": conjugator.to_json(),
            "embedding": moved.to_json(),
            "class": classify(moved).to_json(),
        },
    )


def _cmd_embed_auto_equiv(args) -> CommandResult:
    first = _spec_from_payload(_load_json(args.first))
    second = _spec_from_payload(_load_json(args.second))
    return CommandResult(
        "ok",
        {
            "first": classify(first).to_json(),
            "second": classify(second).to_json(),
            "conjugate": are_conjugate(first, second),
            "equivalent": are_automorphism_equivalent(first, second),
        },
    )


def _cmd_embed_straighten(args) -> CommandResult:
    spec = _obtain_spec(args)
    mapping = straighten(spec, args.depth, window=args.window)
    pairs = [
        {"from": source.to_json(), "to": target.to_json()}
        for source, target in mapping.pairs
    ]
    return CommandResult(
        "ok", {"n": spec.n, "pair_count": len(pairs), "pairs": pairs}
    )


# ---------------------------------------------------------------- covol


def _cmd_covol_enumerate(args) -> CommandResult:
    spec = _obtain_spec(args)
    entries = enumerate_quotient(spec)
    total = covolume_from_quotient(entries, spec.n)
    return CommandResult(
        "ok",
        {
            "n": spec.n,
            "entries": [entry.to_json() for entry in entries],
            "covolume": format_rational(total),
        },
    )


def _cmd_covol_from_quotient(args) -> CommandResult:
    payload = _load_json(args.file)
    try:
        n = int(payload["n"])
        entries = [
            QuotientEntry(
                TreeVertex.from_json(n, record["rep"]),
                parse_rational(str(record["a_v"])),
                int(record["h_v"]),
                int(record["stab0"]),
            )
            for record in payload["entries"]
        ]
    except (ParseError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"quotient record is malformed: {exc}") from exc
    total = covolume_from_quotient(entries, n)
    return CommandResult(
        "ok",
        {"n": n, "entry_count": len(entries), "covolume": format_rational(total)},
    )


# ---------------------------------------------------------------- present


def _cmd_present_verify(args) -> CommandResult:
    case = PresentationCase(args.case, args.n, args.l, args.m_ref)
    generators = build_full_lattice(case)
    checks = []
    for relator in presentation_relators(case):
        holds = evaluate_word(generators, relator).is_identity()
        checks.append({"relator": relator, "identity": holds})
    return CommandResult(
        "ok",
        {
            "case": args.case,
            "n": args.n,
            "l": args.l,
            "relators": checks,
            "all_identity": all(item["identity"] for item in checks),
        },
    )


# ---------------------------------------------------------------- lab


def _cmd_lab_count(args) -> CommandResult:
    report = level_group_report(args.n, args.k)
    notes = (report.notes,) if report.notes else ()
    return CommandResult("ok", report.to_json(), notes)


def _cmd_lab_centralizer(args) -> CommandResult:
    group = enumerate_level_group(args.n, args.k)
    sub = centralizer(_shift_element(args.n, args.k, args.m), group)
    return CommandResult(
        "ok",
        {
            "n": args.n,
            "k": args.k,
            "m": args.m,
            "group_order": len(group),
            "centralizer_order": len(sub),
            "index": len(group) // len(sub),
        },
    )


def _cmd_lab_trans_search(args) -> CommandResult:
    k, j = eventually_transitive_search(
        parse_rational(args.beta), args.l, depth=args.depth, n=args.n
    )
    return CommandResult(
        "ok",
        {"n": args.n, "beta": args.beta, "l": args.l, "k": k, "j": j},
    )


def _cmd_lab_level_sum(args) -> CommandResult:
    report = level_sum_report(
        parse_rational(args.gamma),
        parse_rational(args.a_v),
        args.depth,
        n=args.n,
    )
    notes = (report.notes,) if report.notes else ()
    return CommandResult("ok", report.to_json(), notes)


def _cmd_lab_jordan(args) -> CommandResult:
    report = jordan_index_report(args.n, args.k, args.m)
    notes = (report.notes,) if report.notes else ()
    return CommandResult("ok", report.to_json(), notes)


# ---------------------------------------------------------------- wiring


@functools.cache
def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json",
        action="store_true",
        help="emit one canonical JSON object instead of key = value lines",
    )

    spec_source = argparse.ArgumentParser(add_help=False)
    spec_source.add_argument(
        "--file", help="embedding record file with fields n, l, a, b"
    )
    spec_source.add_argument("--n", type=int, help="base of the tree")
    spec_source.add_argument("--l", type=int, help="stable letter height")
    spec_source.add_argument("--s", help="rational translation parameter")
    spec_source.add_argument("--m", type=int, help="tree multiplier")

    ball_map = argparse.ArgumentParser(add_help=False)
    ball_map.add_argument("--n", type=int, required=True)
    ball_map.add_argument("--height", type=int, default=0)
    ball_map.add_argument("--unit", default="1", help="rational slope u")
    ball_map.add_argument("--beta", default="0", help="rational offset")

    parser = _Parser(
        prog="bslat",
        description="Exact computations in the isometry group of the "
        "Baumslag-Solitar model space.",
    )
    groups = parser.add_subparsers(
        dest="group", required=True, parser_class=_Parser
    )

    group_bs = groups.add_parser("bs", help="normal forms in BS(1,N)")
    verbs = group_bs.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("normalize", parents=[shared])
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_bs_normalize)
    sub = verbs.add_parser("mult", parents=[shared])
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("left")
    sub.add_argument("right")
    sub.set_defaults(handler=_cmd_bs_mult)
    sub = verbs.add_parser("invert", parents=[shared])
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_bs_invert)
    sub = verbs.add_parser("collins", parents=[shared])
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("generator", help="A, B, C, D, Q<i> or theta_<m>")
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_bs_collins)

    group_tree = groups.add_parser("tree", help="vertex actions and axes")
    verbs = group_tree.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("act", parents=[shared, ball_map])
    sub.add_argument("--vertex", required=True, help="HEIGHT:CENTER")
    sub.add_argument("--power", type=int, default=1)
    sub.set_defaults(handler=_cmd_tree_act)
    sub = verbs.add_parser("orbit", parents=[shared, ball_map])
    sub.add_argument("--vertex", required=True, help="HEIGHT:CENTER")
    sub.add_argument("--depth", type=int, default=3)
    sub.add_argument("--dot", metavar="FILE", help="write a DOT picture")
    sub.set_defaults(handler=_cmd_tree_orbit)
    sub = verbs.add_parser("axis", parents=[shared, ball_map])
    sub.add_argument("--at-height", type=int, default=0)
    sub.add_argument("--depth", type=int, default=2)
    sub.add_argument("--dot", metavar="FILE", help="write a DOT picture")
    sub.set_defaults(handler=_cmd_tree_axis)
    sub = verbs.add_parser("aeta", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--depth", type=int, default=4)
    either = sub.add_mutually_exclusive_group(required=True)
    either.add_argument("--eta", type=int, help="build the translation")
    either.add_argument(
        "--perms", help="JSON level permutations; extract the residue"
    )
    sub.set_defaults(handler=_cmd_tree_aeta)

    group_embed = groups.add_parser("embed", help="lattice embeddings")
    verbs = group_embed.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("classify", parents=[shared, spec_source])
    sub.set_defaults(handler=_cmd_embed_classify)
    sub = verbs.add_parser("validate", parents=[shared, spec_source])
    sub.set_defaults(handler=_cmd_embed_validate)
    sub = verbs.add_parser("conjugate", parents=[shared, spec_source])
    sub.add_argument("--height", type=int, default=0)
    sub.add_argument("--unit", default="1")
    sub.add_argument("--beta", default="0")
    sub.add_argument("--alpha", default="0")
    sub.add_argument(
        "--random",
        action="store_true",
        help="draw the conjugator from the fixed-seed generator",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=_cmd_embed_conjugate)
    sub = verbs.add_parser("auto-equiv", parents=[shared])
    sub.add_argument("first", help="embedding record file")
    sub.add_argument("second", help="embedding record file")
    sub.set_defaults(handler=_cmd_embed_auto_equiv)
    sub = verbs.add_parser("straighten", parents=[shared, spec_source])
    sub.add_argument("--depth", type=int, default=3)
    sub.add_argument("--window", type=int, default=2)
    sub.set_defaults(handler=_cmd_embed_straighten)

    group_covol = groups.add_parser("covol", help="quotient graph data")
    verbs = group_covol.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("enumerate", parents=[shared, spec_source])
    sub.set_defaults(handler=_cmd_covol_enumerate)
    sub = verbs.add_parser("from-quotient", parents=[shared])
    sub.add_argument("--file", required=True)
    sub.set_defaults(handler=_cmd_covol_from_quotient)

    group_present = groups.add_parser(
        "present", help="presentation verification"
    )
    verbs = group_present.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("verify", parents=[shared])
    sub.add_argument("--case", type=int, required=True, choices=(1, 2, 3))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--m-ref", type=int, default=None)
    sub.set_defaults(handler=_cmd_present_verify)

    group_lab = groups.add_parser("lab", help="finite brute-force reports")
    verbs = group_lab.add_subparsers(
        dest="verb", required=True, parser_class=_Parser
    )
    sub = verbs.add_parser("count-hk", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.set_defaults(handler=_cmd_lab_count)
    sub = verbs.add_parser("centralizer", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.set_defaults(handler=_cmd_lab_centralizer)
    sub = verbs.add_parser("trans-search", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--beta", required=True)
    sub.add_argument("--l", type=int, default=1)
    sub.add_argument("--depth", type=int, default=4)
    sub.set_defaults(handler=_cmd_lab_trans_search)
    sub = verbs.add_parser("level-sum", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--gamma", required=True)
    sub.add_argument("--a-v", required=True, help="positive vertex weight")
    sub.add_argument("--depth", type=int, default=6)
    sub.set_defaults(handler=_cmd_lab_level_sum)
    sub = verbs.add_parser("jordan-index", parents=[shared])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument(
        "--m", type=int, action="append", required=True,
        help="shift amount; repeat for several",
    )
    sub.set_defaults(handler=_cmd_lab_jordan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT["parse_error"]
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        result = args.handler(args)
    except ParseError as exc:
        result = CommandResult("parse_error", {}, (str(exc),))
    except TooLarge as exc:
        result = CommandResult("infeasible", {}, (str(exc),))
    except ValidationError as exc:
        result = CommandResult("validation_error", {}, (str(exc),))
    return _emit(result, args.json)


if __name__ == "__main__":
    sys.exit(main())
