"""End-to-end command line tests, run in process through main()."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from bslat import cli, exactnum, lab, lattice, tree
from bslat.cli import CommandResult, main
from bslat.lattice import standard_embedding, straighten


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    return code, json.loads(out), err


# Runs a batch of commands through main() in one child process; each
# command's argv goes to stderr first, so a hang names its command.
CHILD = (
    "import contextlib, io, json, sys, time, traceback\n"
    "from bslat.cli import main\n"
    "results = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    print(json.dumps(argv), file=sys.stderr, flush=True)\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    start = time.perf_counter()\n"
    "    with contextlib.redirect_stdout(out), "
    "contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            code = main(argv)\n"
    "        except Exception:\n"
    "            code = None\n"
    "            traceback.print_exc()\n"
    "    seconds = time.perf_counter() - start\n"
    "    results.append([code, out.getvalue(), err.getvalue(), seconds])\n"
    "print(json.dumps(results))\n"
)


def run_batch(argvs, cwd=None, timeout=30):
    """[code, stdout, stderr, seconds] of each command, run in one child
    process under a 1 GiB address-space limit and a timeout, so that a
    command that hangs or allocates without bound fails the test instead
    of exhausting the machine."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(argvs)],
            capture_output=True, text=True, timeout=timeout, cwd=cwd,
            preexec_fn=limit_memory,
            env={**os.environ,
                 "PYTHONPATH": src + (os.pathsep + path if path else "")},
        )
    except subprocess.TimeoutExpired as exc:
        started = exc.stderr or b""
        if isinstance(started, bytes):
            started = started.decode(errors="replace")
        last = started.splitlines()[-1:]
        pytest.fail(f"no answer in {timeout} s; last started: {last}")
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    return results


@pytest.fixture
def phi_file(tmp_path):
    path = tmp_path / "phi_1_3.json"
    path.write_text(json.dumps(standard_embedding(2, 1, 1, 3).to_json()))
    return str(path)


class TestNormalForms:
    def test_normalize_human(self, capsys):
        code, out, err = run(["bs", "normalize", "--N", "2", "b^-1 a b"], capsys)
        assert code == 0
        assert "word = b^-1 a b" in out
        assert "x = 1" in out and "y = 1" in out and "z = 1" in out
        assert err == ""

    def test_normalize_json(self, capsys):
        code, record, _ = run_json(
            ["bs", "normalize", "--N", "2", "a^3 b a^-1"], capsys
        )
        assert code == 0
        assert record["status"] == "ok"
        assert record["diagnostics"] == []
        assert record["payload"] == {"word": "a b", "x": 0, "y": 1, "z": 1}

    def test_mult_reduces(self, capsys):
        code, record, _ = run_json(
            ["bs", "mult", "--N", "2", "b^-1 a b", "b^-1 a b"], capsys
        )
        assert code == 0
        assert record["payload"] == {"word": "a", "x": 0, "y": 1, "z": 0}

    def test_invert(self, capsys):
        code, record, _ = run_json(
            ["bs", "invert", "--N", "3", "b^-1 a^2 b^2"], capsys
        )
        assert code == 0
        assert record["payload"]["word"] == "b^-2 a^-2 b"

    def test_collins_substitution(self, capsys):
        code, record, _ = run_json(
            ["bs", "collins", "--N", "2", "theta_2", "a b"], capsys
        )
        assert code == 0
        assert record["payload"]["word"] == "a^2 b"
        assert record["payload"]["generator"] == "theta_2"

    def test_unknown_letter_is_parse_error(self, capsys):
        code, out, err = run(["bs", "normalize", "--N", "2", "b^-1 q b"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_bad_base_is_validation_error(self, capsys):
        code, _, err = run(["bs", "normalize", "--N", "1", "a"], capsys)
        assert code == 1
        assert "N must be >= 2" in err


class TestTreeVerbs:
    def test_act(self, capsys):
        code, record, _ = run_json(
            [
                "tree", "act", "--n", "2", "--height", "1",
                "--unit", "2", "--beta", "1/2", "--vertex", "0:0",
            ],
            capsys,
        )
        assert code == 0
        assert record["payload"]["image"] == {"h": 1, "c": "1/2"}

    def test_orbit_transitive_shift(self, capsys):
        code, record, _ = run_json(
            [
                "tree", "orbit", "--n", "2", "--beta", "3",
                "--vertex", "0:0", "--depth", "3",
            ],
            capsys,
        )
        assert code == 0
        levels = record["payload"]["levels"]
        assert [item["orbit_count"] for item in levels] == [1, 1, 1]
        assert levels[2]["orbits"] == [[0, 3, 6, 1, 4, 7, 2, 5]]

    def test_orbit_requires_fixed_vertex(self, capsys):
        code, _, err = run(
            ["tree", "orbit", "--n", "2", "--beta", "1/2", "--vertex", "0:0"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_orbit_depth_cap(self, capsys):
        code, _, err = run(
            [
                "tree", "orbit", "--n", "2", "--beta", "3",
                "--vertex", "0:0", "--depth", "13",
            ],
            capsys,
        )
        assert code == 3
        assert "4096" in err

    def test_orbit_dot_output(self, tmp_path, capsys):
        target = tmp_path / "orbit.dot"
        argv = [
            "tree", "orbit", "--n", "2", "--beta", "3",
            "--vertex", "0:0", "--depth", "2", "--dot", str(target),
        ]
        code, record, _ = run_json(argv, capsys)
        assert code == 0
        assert record["payload"]["dot_file"] == str(target)
        first = target.read_text()
        assert first.startswith("digraph tree {")
        assert "fillcolor" in first
        run_json(argv, capsys)
        assert target.read_text() == first

    def test_axis(self, capsys):
        code, record, _ = run_json(
            [
                "tree", "axis", "--n", "2", "--height", "1",
                "--unit", "2", "--beta", "1", "--at-height", "0",
            ],
            capsys,
        )
        assert code == 0
        assert record["payload"]["fixed_point"] == "-1"
        assert record["payload"]["vertex"] == {"h": 0, "c": "0"}

    def test_axis_dot(self, tmp_path, capsys):
        target = tmp_path / "axis.dot"
        code, _, _ = run_json(
            [
                "tree", "axis", "--n", "2", "--height", "1", "--unit", "2",
                "--beta", "1", "--dot", str(target), "--depth", "1",
            ],
            capsys,
        )
        assert code == 0
        assert target.read_text().startswith("digraph tree {")

    MAP = ["--n", "2", "--height", "1", "--unit", "2", "--beta", "1"]

    @pytest.mark.parametrize(
        "argv, height",
        [
            (["tree", "act", *MAP, "--vertex", "0:0", "--power", "14500"],
             14500),
            (["tree", "axis", *MAP, "--at-height", "15000"], 15000),
            (["tree", "axis", *MAP, "--at-height", "14285"], 14285),
            (["tree", "act", "--n", "2", "--height", "-1", "--unit", "1/2",
              "--vertex", "0:0", "--power", "15000"], -15000),
            (["tree", "orbit", "--n", "2", "--vertex", "20000:-1"], 20000),
        ],
    )
    def test_height_past_the_printable_digits(self, argv, height, capsys):
        # centers below 2**h need more than Python's 4300 default digits
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: centers at height {height} can exceed 4300 digits\n"

    def test_height_at_the_printable_digits(self, capsys):
        # 2**14284 - 1 has exactly 4300 digits
        code, record, _ = run_json(
            ["tree", "axis", *self.MAP, "--at-height", "14284"], capsys
        )
        assert code == 0
        assert record["payload"]["vertex"]["c"] == str(2**14284 - 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "act", "--n", "2", "--vertex", "14284:-1/2",
             "--power", "0"],
            ["tree", "orbit", "--n", "2", "--vertex", "14284:-1/2"],
        ],
    )
    def test_rational_past_the_printable_digits(self, argv, capsys):
        # height 14284 is inside the bound, but the center 2**14284 - 1/2
        # has a 4301-digit numerator
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: a rational exceeds 4300 digits\n"

    def test_elliptic_power_is_logarithmic(self, capsys):
        start = time.perf_counter()
        code, record, _ = run_json(
            [
                "tree", "act", "--n", "2", "--unit=7", "--beta=1",
                "--vertex=0:0", "--power", "10000000",
            ],
            capsys,
        )
        assert time.perf_counter() - start < 2
        assert code == 0
        assert record["payload"]["image"] == {"h": 0, "c": "0"}

    def test_long_hyperbolic_power(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            [
                "tree", "act", "--n", "6", "--height", "-1", "--unit=1/6",
                "--beta=5", "--vertex=2:1", "--power", "5000",
            ],
            capsys,
        )
        assert time.perf_counter() - start < 2
        assert code == 0
        # stdout of the vertex-at-a-time loop, which took over two minutes
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "924a63410f33cbf12b6984655b453fea51b1825e0f5afc7e72d26f8e21c33b3e"
        )

    def test_axis_of_elliptic_map_fails(self, capsys):
        code, _, err = run(
            ["tree", "axis", "--n", "2", "--unit", "1", "--beta", "1"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_aeta_build(self, capsys):
        code, record, _ = run_json(
            ["tree", "aeta", "--n", "2", "--depth", "3", "--eta", "5"], capsys
        )
        assert code == 0
        assert record["payload"]["perms"] == [
            [1, 0],
            [1, 2, 3, 0],
            [5, 6, 7, 0, 1, 2, 3, 4],
        ]

    def test_aeta_extract(self, capsys):
        code, record, _ = run_json(
            ["tree", "aeta", "--n", "2", "--perms", "[[1,0],[3,0,1,2]]"],
            capsys,
        )
        assert code == 0
        assert record["payload"]["eta"] == 3
        assert record["payload"]["residues"] == [1, 3]

    def test_aeta_round_trip(self, capsys):
        _, built, _ = run_json(
            ["tree", "aeta", "--n", "3", "--depth", "2", "--eta", "7"], capsys
        )
        code, extracted, _ = run_json(
            [
                "tree", "aeta", "--n", "3",
                "--perms", json.dumps(built["payload"]["perms"]),
            ],
            capsys,
        )
        assert code == 0
        assert extracted["payload"]["eta"] == 7

    def test_aeta_rejects_non_translation(self, capsys):
        code, _, err = run(
            ["tree", "aeta", "--n", "2", "--perms", "[[1,0],[1,0,3,2]]"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "perms",
        ["[[true,false]]", "[[0.0,1.0],[0,1,2,3]]", '[["a","b"]]', '[[0,"a"]]'],
    )
    def test_aeta_refuses_labels_that_are_not_ints(self, capsys, perms):
        code, out, err = run(
            ["tree", "aeta", "--n", "2", "--perms", perms], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: level 1 is not a permutation of Z/2^1\n"

    def test_aeta_needs_exactly_one_source(self, capsys):
        code, _, _ = run(["tree", "aeta", "--n", "2", "--depth", "2"], capsys)
        assert code == 2
        code, _, _ = run(
            ["tree", "aeta", "--n", "2", "--eta", "1", "--perms", "[[1,0]]"],
            capsys,
        )
        assert code == 2


class TestEmbed:
    def test_classify_from_file(self, phi_file, capsys):
        code, record, _ = run_json(
            ["embed", "classify", "--n", "2", "--l", "1", "--file", phi_file],
            capsys,
        )
        assert code == 0
        assert record["payload"] == {"s": "3", "m": 1, "h0": 0, "j": 1, "k": 0}

    def test_classify_from_params(self, capsys):
        code, record, _ = run_json(
            ["embed", "classify", "--n", "2", "--l", "1", "--s", "1", "--m", "3"],
            capsys,
        )
        assert code == 0
        assert record["payload"]["s"] == "3"

    def test_classify_flag_file_contradiction(self, phi_file, capsys):
        code, _, err = run(
            ["embed", "classify", "--n", "3", "--file", phi_file], capsys
        )
        assert code == 2
        assert "contradicts" in err

    def test_classify_missing_input(self, capsys):
        code, _, err = run(["embed", "classify", "--n", "2", "--l", "1"], capsys)
        assert code == 2
        assert "--file" in err

    def test_classify_missing_file(self, capsys):
        code, _, err = run(
            ["embed", "classify", "--file", "/nonexistent/phi.json"], capsys
        )
        assert code == 2

    def test_validate_good(self, phi_file, capsys):
        code, record, _ = run_json(["embed", "validate", "--file", phi_file], capsys)
        assert code == 0
        assert record["payload"] == {"valid": True, "problems": []}

    def test_validate_bad_spec(self, tmp_path, capsys):
        payload = standard_embedding(2, 1, 1, 3).to_json()
        payload["a"]["alpha"] = "0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, record, err = run_json(["embed", "validate", "--file", str(path)], capsys)
        assert code == 1
        assert record["status"] == "validation_error"
        assert record["payload"]["valid"] is False
        assert record["payload"]["problems"]

    def test_conjugate_explicit(self, phi_file, capsys):
        code, record, _ = run_json(
            [
                "embed", "conjugate", "--file", phi_file, "--height", "1",
                "--unit", "2", "--beta", "1/2", "--alpha", "3",
            ],
            capsys,
        )
        assert code == 0
        assert record["payload"]["class"] == {
            "s": "3", "m": 1, "h0": 1, "j": 1, "k": 0,
        }

    def test_conjugate_random_is_seeded(self, phi_file, capsys):
        argv = ["embed", "conjugate", "--file", phi_file, "--random", "--seed", "7"]
        code, first, _ = run_json(argv, capsys)
        assert code == 0
        # classification is conjugation invariant up to the height shift
        assert first["payload"]["class"]["s"] == "3"
        assert first["payload"]["class"]["m"] == 1
        _, second, _ = run_json(argv, capsys)
        assert first == second
        _, other, _ = run_json(argv[:-1] + ["8"], capsys)
        assert other["payload"]["conjugator"] != first["payload"]["conjugator"]

    def test_conjugate_random_excludes_explicit(self, phi_file, capsys):
        code, _, err = run(
            ["embed", "conjugate", "--file", phi_file, "--random", "--beta", "3"],
            capsys,
        )
        assert code == 2

    def test_auto_equiv(self, phi_file, tmp_path, capsys):
        other = tmp_path / "phi_1_1.json"
        other.write_text(json.dumps(standard_embedding(2, 1, 1, 1).to_json()))
        code, record, _ = run_json(
            ["embed", "auto-equiv", phi_file, str(other)], capsys
        )
        assert code == 0
        assert record["payload"]["conjugate"] is False
        assert record["payload"]["equivalent"] is True
        code, record, _ = run_json(
            ["embed", "auto-equiv", phi_file, phi_file], capsys
        )
        assert record["payload"]["conjugate"] is True

    def test_straighten_moves_labels(self, capsys):
        code, record, _ = run_json(
            [
                "embed", "straighten", "--n", "2", "--l", "1",
                "--s", "1", "--m", "3", "--depth", "2",
            ],
            capsys,
        )
        assert code == 0
        pairs = record["payload"]["pairs"]
        moved = {
            (item["from"]["h"], item["from"]["c"]): item["to"]["c"]
            for item in pairs
        }
        assert moved[(2, "1")] == "3"

    def test_straighten_failed_certificate_exits_4(self, monkeypatch, capsys):
        real_apply = tree.LevelPermAutomorphism.apply
        monkeypatch.setattr(
            tree.LevelPermAutomorphism, "apply",
            lambda self, level, label: 0 if (level, label) == (2, 1)
            else real_apply(self, level, label),
        )
        code, out, err = run(
            [
                "embed", "straighten", "--n", "2", "--l", "1",
                "--s", "1", "--m", "3", "--depth", "2",
            ],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == (
            "error: window map not injective at (-2, 1/16): it and (-2, 0) "
            "both go to (-2, 0)\n"
        )

    @pytest.mark.parametrize(
        "n, l, depth, window", [(3, 1, 2, 2), (2, 2, 3, 1), (6, 1, 1, 3)]
    )
    def test_straighten_prints_the_vertex_centers(
        self, n, l, depth, window, capsys
    ):
        argv = [
            "embed", "straighten", "--n", str(n), "--l", str(l), "--s", "1",
            "--m", "1", "--depth", str(depth), "--window", str(window),
        ]
        code, record, _ = run_json(argv, capsys)
        assert code == 0
        mapping = straighten(
            standard_embedding(n, l, 1, 1), depth, window=window
        )
        assert record["payload"]["pairs"] == [
            {"from": source.to_json(), "to": target.to_json()}
            for source, target in mapping.pairs
        ]

    def test_straighten_builds_vertices_only_when_read(self, monkeypatch):
        built = []
        real_post_init = tree.TreeVertex.__post_init__

        def counting(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(tree.TreeVertex, "__post_init__", counting)
        argv = [
            "embed", "straighten", "--n", "3", "--l", "1", "--s=1", "--m",
            "1", "--depth", "5",
        ]
        assert main(argv) == 0
        # 5 heights of 3**5 window vertices, none of them built
        assert len(built) <= 20

    def test_straighten_rejects_shifted_class(self, capsys):
        code, _, err = run(
            [
                "embed", "straighten", "--n", "2", "--l", "1",
                "--s", "1", "--m", "4", "--depth", "2",
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")


class TestCovol:
    def test_enumerate(self, capsys):
        code, record, _ = run_json(
            ["covol", "enumerate", "--n", "6", "--l", "2", "--s", "2/3", "--m", "4"],
            capsys,
        )
        assert code == 0
        assert record["payload"]["covolume"] == "4/3"
        assert [entry["a_v"] for entry in record["payload"]["entries"]] == [
            "2/3",
            "4",
        ]

    def test_round_trip_through_file(self, tmp_path, capsys):
        _, record, _ = run_json(
            ["covol", "enumerate", "--n", "2", "--l", "1", "--s", "1", "--m", "3"],
            capsys,
        )
        path = tmp_path / "quotient.json"
        path.write_text(
            json.dumps(
                {"n": 2, "entries": record["payload"]["entries"]}
            )
        )
        code, loaded, _ = run_json(
            ["covol", "from-quotient", "--file", str(path)], capsys
        )
        assert code == 0
        assert loaded["payload"]["covolume"] == record["payload"]["covolume"]

    def test_from_quotient_malformed(self, phi_file, capsys):
        code, _, err = run(
            ["covol", "from-quotient", "--file", phi_file], capsys
        )
        assert code == 2
        assert "malformed" in err

    def test_from_quotient_heights_within_the_scaling_cap(
        self, tmp_path, capsys
    ):
        # 2^262143 is the last power of 2 within SCALING_CAP: a vertex there
        # is kept, and an h_v there gives a covolume past printing
        for name, rep_h, h_v, code, out, err in [
            ("rep.json", 262143, 0, 0,
             "n = 2\nentry_count = 1\ncovolume = 3\n", ""),
            ("h_v.json", 0, 262143, 3, "",
             "error: a rational exceeds 4300 digits\n"),
        ]:
            path = tmp_path / name
            path.write_text(json.dumps({"n": 2, "entries": [
                {"rep": {"h": rep_h, "c": "0"}, "a_v": "3", "h_v": h_v,
                 "stab0": 1}
            ]}))
            assert run(
                ["covol", "from-quotient", "--file", str(path)], capsys
            ) == (code, out, err)

    def test_from_quotient_invalid_entry(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "entries": [
                        {"rep": {"h": 0, "c": "0"}, "a_v": "-1", "h_v": 0, "stab0": 1}
                    ],
                }
            )
        )
        code, _, err = run(["covol", "from-quotient", "--file", str(path)], capsys)
        assert code == 1

    @pytest.mark.parametrize("n, code, err", [
        ("0", 1, "base must be >= 2, got 0"),
        ("-3", 1, "base must be >= 2, got -3"),
        ("1", 1, "base must be >= 2, got 1"),
        ("true", 2, "quotient record is malformed: n must be an integer, "
                    "not bool"),
        ("2.0", 2, "quotient record is malformed: n must be an integer, "
                   "not float"),
        ('"2"', 2, "quotient record is malformed: n must be an integer, "
                   "not str"),
    ])
    def test_from_quotient_checks_the_base_first(
        self, tmp_path, capsys, n, code, err
    ):
        # with no entries, every base here answered covolume = 0
        path = tmp_path / "empty.json"
        path.write_text(f'{{"n": {n}, "entries": []}}')
        assert run(
            ["covol", "from-quotient", "--file", str(path)], capsys
        ) == (code, "", f"error: {err}\n")


class TestPresent:
    def test_case_three(self, capsys):
        code, record, _ = run_json(
            [
                "present", "verify", "--case", "3", "--n", "2",
                "--l", "1", "--m-ref", "1",
            ],
            capsys,
        )
        assert code == 0
        assert record["payload"]["all_identity"] is True
        assert len(record["payload"]["relators"]) == 4

    def test_case_one(self, capsys):
        code, record, _ = run_json(
            ["present", "verify", "--case", "1", "--n", "3", "--l", "2"], capsys
        )
        assert code == 0
        assert record["payload"]["all_identity"] is True

    def test_case_two_odd_height(self, capsys):
        code, _, err = run(
            ["present", "verify", "--case", "2", "--n", "2", "--l", "1"], capsys
        )
        assert code == 1
        assert "even" in err

    def test_case_three_needs_reference(self, capsys):
        code, _, _ = run(
            ["present", "verify", "--case", "3", "--n", "2", "--l", "1"], capsys
        )
        assert code == 1


class TestLab:
    def test_count_report(self, capsys):
        code, record, _ = run_json(["lab", "count-hk", "--n", "2", "--k", "3"], capsys)
        assert code == 0
        assert record["payload"] == {
            "lemma": "level-group-order",
            "params": {"n": 2, "k": 3},
            "brute": 128,
            "formula": 32,
            "match": False,
        }
        assert record["diagnostics"] == ["level-extension recurrence gives 128"]

    def test_count_infeasible(self, capsys):
        code, _, err = run(["lab", "count-hk", "--n", "4", "--k", "2"], capsys)
        assert code == 3
        assert "cap" in err

    def test_centralizer(self, capsys):
        code, record, _ = run_json(
            ["lab", "centralizer", "--n", "2", "--k", "3", "--m", "2"], capsys
        )
        assert code == 0
        assert record["payload"]["group_order"] == 128
        assert record["payload"]["centralizer_order"] == 32
        assert record["payload"]["index"] == 4

    @pytest.mark.parametrize(
        "m, digest",
        [
            # order 2,048
            ("4", "64de48a448ff058ad8cdc9c5ca2f2620fa28ec40852b291e11d1d018d7a550e9"),
            # order 32,768: the whole group
            ("8", "59d718909e4a2ff4c303c65463493d6b9d13fecf502a129c64e19ae53fb52107"),
        ],
    )
    def test_largest_centralizers(self, capsys, m, digest):
        # the lift search's output is as large as the group here; stdout
        # recorded from the exhaustive filter over all 32,768 elements
        start = time.perf_counter()
        code, out, _ = run(
            ["lab", "centralizer", "--n", "2", "--k", "4", "--m", m], capsys
        )
        assert time.perf_counter() - start < 5
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_trans_search(self, capsys):
        code, record, _ = run_json(
            ["lab", "trans-search", "--n", "6", "--beta", "4", "--l", "1"], capsys
        )
        assert code == 0
        assert record["payload"]["k"] == 2
        assert record["payload"]["j"] == 9

    def test_trans_search_zero(self, capsys):
        code, _, _ = run(
            ["lab", "trans-search", "--n", "2", "--beta", "0"], capsys
        )
        assert code == 1

    def test_level_sum(self, capsys):
        code, record, _ = run_json(
            [
                "lab", "level-sum", "--n", "2", "--gamma", "3",
                "--a-v", "1/2", "--depth", "4",
            ],
            capsys,
        )
        assert code == 0
        assert record["payload"]["brute"] == ["1/2"] * 4
        assert record["payload"]["match"] is True

    def test_jordan(self, capsys):
        code, record, _ = run_json(
            ["lab", "jordan-index", "--n", "2", "--k", "2", "--m", "1", "--m", "2"],
            capsys,
        )
        assert code == 0
        assert record["payload"]["brute"] == [2, 1]
        assert record["diagnostics"]


class TestSelfChecks:
    """Each self-check, forced by a monkeypatch, exits 4 through main()
    with one error line naming both values that disagreed."""

    def run_forced(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_orbit_certification(self, monkeypatch, capsys):
        monkeypatch.setattr(lab, "is_transitive_on_up", lambda *args: False)
        err = self.run_forced(
            ["lab", "trans-search", "--n", "6", "--beta", "4", "--l", "1"],
            capsys,
        )
        assert err == (
            "error: orbit certification failed at level 1: "
            "(k, j) = (2, 9) but the walk is not transitive\n"
        )

    def test_centralizer_order_divides_the_group(self, monkeypatch, capsys):
        monkeypatch.setattr(lab, "centralizer", lambda g, group: range(3))
        err = self.run_forced(
            ["lab", "jordan-index", "--n", "2", "--k", "2", "--m", "1"],
            capsys,
        )
        assert err == "error: centralizer order 3 does not divide |G| = 8\n"

    def test_orbit_closes(self, monkeypatch, capsys):
        # a step y -> 1 never returns to label 0
        monkeypatch.setattr(tree, "_label_step", lambda f, w, level: (0, 1))
        err = self.run_forced(
            ["lab", "trans-search", "--n", "2", "--beta", "1", "--l", "1"],
            capsys,
        )
        assert err == (
            "error: orbit failed to close: 3 steps on 2 labels\n"
        )

    def test_flip_relation_is_a_power_of_a(self, monkeypatch, capsys):
        real = lattice.build_full_lattice

        def moved_c(case):
            # c's tree part moved by 1, its real part kept
            gens = real(case)
            c = gens["c"]
            tree_part = tree.BallAffineMap(
                c.n, c.tree.h, c.tree.u, c.tree.beta + 1
            )
            gens["c"] = type(c)(c.n, c.eps, c.h, c.alpha, tree_part)
            return gens

        monkeypatch.setattr(lattice, "build_full_lattice", moved_c)
        err = self.run_forced(
            ["present", "verify", "--case", "3", "--n", "2", "--l", "1",
             "--m-ref", "1"],
            capsys,
        )
        assert err == (
            "error: flip relation did not reduce to a power of a: product "
            "(t -> 2^0*t + -1; x -> 1*x + -2), translation by y = -1: "
            "(t -> 2^0*t + -1; x -> 1*x + -1)\n"
        )

    CLASSIFY = ["embed", "classify", "--n", "2", "--l", "1", "--s", "1",
                "--m", "3"]

    def test_h0_formula_matches_the_axis_walk(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice, "valuation_in_base", lambda x, n: 1)
        err = self.run_forced(self.CLASSIFY, capsys)
        assert err == (
            "error: classifier self-check failed: h0 formula 1, axis walk 0\n"
        )

    def test_m_times_j_is_a_power_of_n(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice, "transitive_pair", lambda b, l, n: (1, 1))
        err = self.run_forced(self.CLASSIFY, capsys)
        assert err == (
            "error: classifier self-check failed: m * j = 1, n**(l*k) = 2\n"
        )

    def test_flip_product_is_the_power_of_a(self, monkeypatch, capsys):
        # every power of a reads as a itself
        monkeypatch.setattr(
            lattice.ArithmeticIsometry, "power", lambda self, k: self
        )
        err = self.run_forced(
            ["present", "verify", "--case", "3", "--n", "2", "--l", "1",
             "--m-ref", "1"],
            capsys,
        )
        assert err == (
            "error: flip relation self-check failed: product "
            "(t -> 2^0*t + -1; x -> 1*x + -1), "
            "a^-1 = (t -> 2^0*t + 1; x -> 1*x + 1)\n"
        )


class TestHarness:
    def test_help_exits_clean(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "usage: bslat" in out

    def test_unknown_group(self, capsys):
        code, _, err = run(["nonsense"], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_group_without_verb(self, capsys):
        code, _, _ = run(["embed"], capsys)
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(["lab", "count-hk", "--n", "2"], capsys)
        assert code == 2
        assert "--k" in err

    def test_removed_workers_flag_is_a_parse_error(self, capsys):
        code, out, err = run(
            ["lab", "count-hk", "--n", "2", "--k", "3", "--workers", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--workers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "aeta", "--n", "10", "--depth", "9", "--eta", "3"],
            ["tree", "orbit", "--n", "2", "--vertex", "0:0",
             "--depth", str(10**12)],
            # 5 heights of 2**14 window vertices
            ["embed", "straighten", "--n", "2", "--l", "1", "--s", "1",
             "--m", "1", "--depth", "14"],
            ["embed", "straighten", "--n", "2", "--l", "1", "--s", "1",
             "--m", "1", "--depth", "3", "--window", "1000"],
            # a seed cone of 3**20 labels
            ["embed", "straighten", "--n", "3", "--l", "20", "--s", "1",
             "--m", "1", "--depth", "1"],
        ],
    )
    def test_cone_cap_is_checked_before_any_work(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("cone vertices; cap is 4096\n")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bs", "normalize", "--N", "2", "a b^-30000"], 3),
            (["bs", "collins", "--N", "2", "C", "b^20000"], 3),
            (["bs", "normalize", "--N", "2", "a^" + "9" * 5000], 2),
            (["bs", "normalize", "--N", "2", "b^-99999999 a"], 3),
            (["bs", "mult", "--N", "2", "a", "b^-99999999 a"], 3),
            # heights pass; y = (10**4290 - 1) * 2**7000 has 6,398 digits
            (["bs", "normalize", "--N", "2",
              f"b^7000 a^{'9' * 4290} b^-7000"], 3),
        ],
    )
    def test_huge_words_are_refused_at_once(self, argv, code, capsys):
        start = time.perf_counter()
        got, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 2
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_classify_with_huge_multiplier(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            ["embed", "classify", "--n", "2", "--l", "1", "--s", "1",
             "--m", str(2**3000)],
            capsys,
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (0, "s = 1\nm = 1\nh0 = 3000\nj = 1\nk = 0\n")

    def test_failed_self_check_exits_4(self, monkeypatch, capsys):
        # both commands run the one literal search in exactnum
        monkeypatch.setattr(
            exactnum, "_search_pair", lambda beta, l, n: (5, 7)
        )
        for argv, formula in [
            (["embed", "classify", "--n", "2", "--l", "1", "--s", "1",
              "--m", "3"], (0, 1)),
            (["lab", "trans-search", "--n", "6", "--beta", "4"], (2, 9)),
        ]:
            code, out, err = run(argv, capsys)
            assert (code, out) == (4, "")
            assert err == (
                "error: exponent self-check failed: formula (k, j) = "
                f"{formula}, search (5, 7)\n"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "classify", "--n", "6", "--l", "1", "--s", "1",
             "--m", str(2**100)],
            ["lab", "trans-search", "--n", "2", "--beta", str(2**100),
             "--depth", "0"],
            ["embed", "classify", "--n", "6", "--l", "1", "--s", "1",
             "--m", str(2**60)],
        ],
    )
    def test_search_past_its_budget_exits_3(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("error: the (k, j) search ")
        assert err.count("\n") == 1

    # each command used to build the power its guard compares with a cap
    GUARDED = [
        ["lab", "count-hk", "--n", "2", "--k", "99999999999"],
        ["lab", "centralizer", "--n", "2", "--k", "99999999999", "--m", "1"],
        ["lab", "jordan-index", "--n", "2", "--k", "99999999999", "--m", "1"],
        ["lab", "trans-search", "--n", "2", "--beta", "1",
         "--depth", "99999999999999"],
        ["lab", "level-sum", "--n", "2", "--gamma", "1", "--a-v", "1",
         "--depth", "99999999999999"],
    ]
    def test_lab_guards_refuse_before_they_compute(self):
        results = run_batch(self.GUARDED)
        for argv, (code, out, err, seconds) in zip(self.GUARDED, results):
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "Traceback" not in err
            assert seconds < 2, argv

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    # append, a mutually exclusive group, a parse error and --help, in one
    # process on the one parser
    SEQUENCE = [
        ["lab", "jordan-index", "--n", "2", "--k", "2", "--m", "1", "--m", "3"],
        ["lab", "jordan-index", "--n", "2", "--k", "2", "--m", "2"],
        ["tree", "aeta", "--n", "2", "--eta", "3"],
        ["tree", "aeta", "--n", "2", "--perms", "[[1,0]]"],
        ["lab", "count-hk", "--n", "2"],
        ["--help"],
        ["bs", "normalize", "--N", "2", "b^-1 a b"],
    ]

    def test_reused_parser_keeps_no_state_between_commands(self, capsys):
        in_sequence = [run(argv, capsys) for argv in self.SEQUENCE]
        assert [code for code, _, _ in in_sequence] == [0, 0, 0, 0, 2, 0, 0]
        assert "m = [2]\n" in in_sequence[1][1]
        for argv, seen in zip(self.SEQUENCE, in_sequence):
            cli._build_parser.cache_clear()
            assert run(argv, capsys) == seen, argv

    CORPUS = [
        ["bs", "normalize", "--N", "2", "b^-1 a^5 b^2"],
        ["tree", "orbit", "--n", "3", "--beta", "2", "--vertex", "0:0", "--depth", "2"],
        ["embed", "classify", "--n", "4", "--l", "1", "--s", "-7/3", "--m", "2"],
        ["covol", "enumerate", "--n", "6", "--l", "2", "--s", "2/3", "--m", "9"],
        ["present", "verify", "--case", "2", "--n", "3", "--l", "2"],
        ["lab", "count-hk", "--n", "3", "--k", "2"],
        ["lab", "jordan-index", "--n", "2", "--k", "3", "--m", "1", "--m", "2"],
        ["lab", "centralizer", "--n", "2", "--k", "3", "--m", "1"],
    ]

    def test_corpus_byte_identical_across_runs(self, capsys):
        for argv in self.CORPUS:
            first = run(argv + ["--json"], capsys)
            second = run(argv + ["--json"], capsys)
            assert first == second, argv


# Runs main() once in a fresh interpreter, then prints its exit code and
# the bslat modules it imported.
LOADED_CHILD = (
    "import contextlib, io, json, sys\n"
    "from bslat.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, sorted(\n"
    "    name for name in sys.modules if name.startswith('bslat.')\n"
    ")]))\n"
)

WORD_LAYERS = ["bslat.bsgroup", "bslat.cli", "bslat.errors", "bslat.exactnum"]
MODEL_SPACE = ["bslat.isometry", "bslat.lab", "bslat.lattice", "bslat.tree"]


class TestLayerLoading:
    """A bs verb, --help and a parse error load only the word layer; every
    other verb group loads the four model-space layers, all of them, since
    the traced benchmark looks each one up after its warm-up."""

    @staticmethod
    def loaded(argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_CHILD, json.dumps(argv)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": src + (os.pathsep + path if path else "")},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        code, modules = json.loads(proc.stdout)
        return code, modules

    @pytest.mark.parametrize("argv, code", [
        (["bs", "normalize", "--N", "2", "b^-1 a b"], 0),
        (["bs", "mult", "--N", "3", "a", "b"], 0),
        (["bs", "collins", "--N", "2", "C", "b"], 0),
        (["bs", "normalize", "--N", "2", "a^"], 2),
        (["--help"], 0),
        (["lab", "--help"], 0),
        (["embed", "classify", "--help"], 0),
        (["bs"], 2),
        (["tree", "act", "--n", "2"], 2),
        (["lab", "count-hk", "--n", "2", "--k", "x"], 2),
        (["nosuch"], 2),
    ])
    def test_word_layer_only(self, argv, code):
        assert self.loaded(argv) == (code, WORD_LAYERS)

    @pytest.mark.parametrize("argv", [
        ["tree", "act", "--n", "2", "--beta", "3", "--vertex", "2:1"],
        ["embed", "classify", "--n", "2", "--l", "1", "--s", "1", "--m", "1"],
        ["covol", "enumerate", "--n", "2", "--l", "1", "--s", "1", "--m", "1"],
        ["present", "verify", "--case", "1", "--n", "2", "--l", "1"],
        ["lab", "count-hk", "--n", "2", "--k", "2"],
    ])
    def test_every_model_space_layer(self, argv):
        assert self.loaded(argv) == (0, sorted(WORD_LAYERS + MODEL_SPACE))



def _emit_line_by_line(result, as_json):
    """The output loop _emit replaced: one print per line."""
    if as_json:
        print(json.dumps({
            "status": result.status,
            "payload": result.payload,
            "diagnostics": list(result.diagnostics),
        }, sort_keys=True))
    else:
        for line in cli._human_lines(result.payload):
            print(line)
        if result.status == "ok":
            for note in result.diagnostics:
                print(f"note: {note}")
        else:
            for note in result.diagnostics:
                print(f"error: {note}", file=sys.stderr)
    return cli._EXIT[result.status]


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize(
    "result",
    [
        CommandResult("ok", {}),
        CommandResult("ok", {}, ("only a note",)),
        CommandResult("validation_error", {}, ("first", "second")),
        CommandResult(
            "internal_error", {"n": 2, "kept": [1, 2]}, ("a note",)
        ),
        CommandResult(
            "ok",
            {"n": 3, "ok": True, "pairs": [{"from": {"h": 0, "c": "1/3"}}]},
            ("one", "two"),
        ),
    ],
)
def test_emit_writes_the_bytes_of_the_per_line_loop(result, as_json, capsys):
    expected_code = _emit_line_by_line(result, as_json)
    expected = capsys.readouterr()
    assert cli._emit(result, as_json) == expected_code
    assert capsys.readouterr() == expected


# ---------------------------------------------------------------- grammar fuzz

# bases: mostly valid, so that the commands reach their guards
N_VALUES = st.sampled_from([2, 3, 4, 6, 10, 2, 3, 2, 1, 0, -2])
# every size flag: small, negative, and far past any cap, up to the most
# digits an int flag parses
SIZES = st.integers(min_value=1, max_value=4) | st.sampled_from(
    [0, -1, -3, 99999999999, 99999999999999, -99999999999, 2**64, 10**30,
     int("9" * 4300), -int("9" * 4300)]
)
RATIONALS = st.sampled_from(
    ["1", "2", "-7/3", "2/3", "1/2", "0", "1.5", "1/0", "abc", "", "2/", "--1"]
)
WORDS = st.sampled_from(
    ["a b^-1", "b^-3 a^5 b^2", "b^99999999999 a", "a^-99999999999",
     "b^-99999999999 a b", "c", "a^", "", "b^2 a b^-1"]
)
GENERATORS = st.sampled_from(
    ["A", "B", "C", "D", "Q1", "Q99999999999", "theta_3",
     "theta_99999999999", "X"]
)
# deeper than the recursion limit, and an integer literal past the digit
# limit, in a JSON text
DEEP = "[" * 100000 + "]" * 100000
DIGITS = "9" * 5000
PERMS = st.sampled_from([
    "[[1,0]]", "[[0,1],[1,0,3,2]]", "[[", "[]", "[[0]]",
    "[" * 20000 + "]" * 20000, f"[[{DIGITS}]]", f"[[1,0],[{DIGITS},0,1,2]]",
    "[[NaN,0]]", "[[Infinity]]", "[[1e400,0]]", "[[-Infinity,1]]",
    "5", "null", "true", '"10"', "[[true,false]]", "[[0.0,1.0]]",
    '{"0": [1, 0]}', '[{"a": 1}]', '[[1, "a"]]', "[[[1],[0]]]", "[5]",
])


def _phi_with(h) -> str:
    """The record of phi with the literal h as its first map's height."""
    record = standard_embedding(2, 1, 1, 3).to_json()
    record["a"]["h"] = "HEIGHT"
    return json.dumps(record).replace('"HEIGHT"', h)


def _quotient_with(h_v) -> str:
    """A one-entry quotient record with the literal h_v as its h_v."""
    return json.dumps({"n": 2, "entries": [
        {"rep": {"h": 0, "c": "0"}, "a_v": "3", "h_v": "H_V", "stab0": 1}
    ]}).replace('"H_V"', h_v)


def _phi_changed(part, field: str, value) -> str:
    """The record of phi with one field set to a JSON value: a field of the
    whole record when part is None, else of the map named part."""
    record = standard_embedding(2, 1, 1, 3).to_json()
    (record if part is None else record[part])[field] = value
    return json.dumps(record)


def _quotient_entry(**fields) -> str:
    """A one-entry quotient record, with fields replacing the entry's."""
    entry = {"rep": {"h": 0, "c": "0"}, "a_v": "3", "h_v": 0, "stab0": 1}
    return json.dumps({"n": 2, "entries": [{**entry, **fields}]})


# files written into the child's working directory
FILES = {
    "phi.json": json.dumps(standard_embedding(2, 1, 1, 3).to_json()),
    "psi.json": json.dumps(
        standard_embedding(3, 2, Fraction(2, 3), 9).to_json()
    ),
    "bad.json": "{",
    "short.json": json.dumps({"n": 2, "l": 1}),
    "quotient.json": json.dumps({"n": 2, "entries": [
        {"rep": {"h": 0, "c": "0"}, "a_v": "3", "h_v": 0, "stab0": 1}
    ]}),
    "high_rep.json": json.dumps({"n": 2, "entries": [
        {"rep": {"h": 99999999999, "c": "0"}, "a_v": "3", "h_v": 0,
         "stab0": 1}
    ]}),
    "high_h_v.json": json.dumps({"n": 2, "entries": [
        {"rep": {"h": 0, "c": "0"}, "a_v": "3", "h_v": 99999999999,
         "stab0": 1}
    ]}),
    # data that parses to values no record reader can hold
    "digits.json": _phi_with(DIGITS),
    "deep.json": DEEP,
    "utf16.json": b"\xff\xfe" + "{}".encode("utf-16-le"),
    "infinite_h.json": _phi_with("Infinity"),
    "overflow_h.json": _phi_with("1e400"),
    "nan_h.json": _phi_with("NaN"),
    "true_h.json": _phi_with("true"),
    "list_h.json": _phi_with("[0]"),
    "infinite_h_v.json": _quotient_with("Infinity"),
    # a base that is not a JSON integer
    "true_n.json": json.dumps({"n": True, "entries": []}),
    "float_n.json": json.dumps({"n": 2.0, "entries": []}),
    "str_n.json": json.dumps({"n": "2", "entries": []}),
    # integer fields that are not JSON integers
    "float_n_phi.json": _phi_changed(None, "n", 2.5),
    "float_l.json": _phi_changed(None, "l", 3.9),
    "true_eps.json": _phi_changed("a", "eps", True),
    "str_h.json": _phi_changed("a", "h", "0"),
    "str_h_v.json": _quotient_entry(h_v="3"),
    "true_stab0.json": _quotient_entry(stab0=True),
    "true_rep_h.json": _quotient_entry(rep={"h": True, "c": "0"}),
    "overflow_h_v.json": _quotient_with("-1e400"),
    "digits_h_v.json": _quotient_with(DIGITS),
    "deep_h_v.json": _quotient_with(DEEP),
    "list.json": "[1, 2]",
}
PATHS = st.sampled_from([*FILES, "missing.json"])


def run_among_files(argvs):
    """run_batch in a fresh working directory holding FILES."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in FILES.items():
            data = text if isinstance(text, bytes) else text.encode()
            Path(work, name).write_bytes(data)
        return run_batch(argvs, cwd=work)


def flag(name, values):
    return values.map(lambda value: [f"--{name}={value}"])


def maybe(name, values):
    return st.just([]) | flag(name, values)


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def spec_flags():
    return flag("file", PATHS) | joined(
        flag("n", N_VALUES), flag("l", SIZES), flag("s", RATIONALS),
        flag("m", SIZES),
    )


def ball_map():
    return joined(
        flag("n", N_VALUES), maybe("height", SIZES), maybe("unit", RATIONALS),
        maybe("beta", RATIONALS),
    )


def vertex():
    return flag("vertex", st.tuples(SIZES, RATIONALS).map(
        lambda pair: f"{pair[0]}:{pair[1]}"
    )) | flag("vertex", st.just("abc"))


VERBS = {
    ("bs", "normalize"): joined(flag("N", N_VALUES), WORDS.map(lambda w: [w])),
    ("bs", "mult"): joined(
        flag("N", N_VALUES), st.lists(WORDS, min_size=2, max_size=2)
    ),
    ("bs", "invert"): joined(flag("N", N_VALUES), WORDS.map(lambda w: [w])),
    ("bs", "collins"): joined(
        flag("N", N_VALUES), st.tuples(GENERATORS, WORDS).map(list)
    ),
    ("tree", "act"): joined(ball_map(), vertex(), maybe("power", SIZES)),
    ("tree", "orbit"): joined(
        ball_map(), vertex(), maybe("depth", SIZES),
        maybe("dot", st.just("orbit.dot")),
    ),
    ("tree", "axis"): joined(
        ball_map(), maybe("at-height", SIZES), maybe("depth", SIZES),
        maybe("dot", st.just("axis.dot")),
    ),
    ("tree", "aeta"): joined(
        flag("n", N_VALUES), maybe("depth", SIZES),
        flag("eta", SIZES) | flag("perms", PERMS),
    ),
    ("embed", "classify"): spec_flags(),
    ("embed", "validate"): spec_flags(),
    ("embed", "conjugate"): joined(
        spec_flags(), maybe("height", SIZES), maybe("unit", RATIONALS),
        maybe("beta", RATIONALS), maybe("alpha", RATIONALS),
        st.just([]) | joined(st.just(["--random"]), maybe("seed", SIZES)),
    ),
    ("embed", "auto-equiv"): st.lists(PATHS, min_size=2, max_size=2),
    ("embed", "straighten"): joined(
        spec_flags(), maybe("depth", SIZES), maybe("window", SIZES)
    ),
    ("covol", "enumerate"): spec_flags(),
    ("covol", "from-quotient"): flag("file", PATHS),
    ("present", "verify"): joined(
        flag("case", st.integers(min_value=0, max_value=4)),
        flag("n", N_VALUES), flag("l", SIZES), maybe("m-ref", SIZES),
    ),
    ("lab", "count-hk"): joined(flag("n", N_VALUES), flag("k", SIZES)),
    ("lab", "centralizer"): joined(
        flag("n", N_VALUES), flag("k", SIZES), flag("m", SIZES)
    ),
    ("lab", "trans-search"): joined(
        flag("n", N_VALUES), flag("beta", RATIONALS), maybe("l", SIZES),
        maybe("depth", SIZES),
    ),
    ("lab", "level-sum"): joined(
        flag("n", N_VALUES), flag("gamma", RATIONALS),
        flag("a-v", RATIONALS), maybe("depth", SIZES),
    ),
    ("lab", "jordan-index"): joined(
        flag("n", N_VALUES), flag("k", SIZES),
        st.lists(flag("m", SIZES), min_size=1, max_size=2).map(
            lambda flags: sum(flags, [])
        ),
    ),
}
# five commands of every verb a batch, in the human or the JSON format
BATCHES = st.tuples(*[
    st.lists(
        joined(st.just(list(verb)), rest, st.sampled_from([[], ["--json"]])),
        min_size=5, max_size=5,
    )
    for verb, rest in sorted(VERBS.items())
]).map(lambda lists: sum(lists, []))


class TestGrammarFuzz:
    # each of these hung, or printed a traceback, before its guard
    REFUSED = [
        [*verb, "--n", "2", "--l", "99999999999", "--s", "1", "--m", "1"]
        for verb in (
            ["embed", "classify"],
            ["embed", "validate"],
            ["embed", "straighten"],
            ["covol", "enumerate"],
        )
    ] + [
        ["present", "verify", "--case", "1", "--n", "2", "--l", "99999999999"],
        ["covol", "enumerate", "--n", "2", "--l", "99999", "--s", "1",
         "--m", "1"],
        ["present", "verify", "--case", "1", "--n", "2", "--l", "20000"],
        ["present", "verify", "--case", "3", "--n", "2", "--l", "4",
         "--m-ref", "9" * 4300],
        # a prime base past the trial-division budget
        ["bs", "normalize", "--N", "1000000000000000000000007", "a b"],
        ["embed", "classify", "--n", "1000000000000000000000007", "--l", "1",
         "--s", "1", "--m", "1"],
        # a height with n^|h| past SCALING_CAP in a quotient record
        ["covol", "from-quotient", "--file", "high_rep.json"],
        ["covol", "from-quotient", "--file", "high_h_v.json"],
    ]

    # each of these printed a traceback: JSON text that Python cannot hold,
    # and records holding floats that no integer field can take; the last
    # three were answered as if their base were the integer 1 or 2
    HOSTILE_JSON = [
        ["embed", "classify", "--file", "digits.json"],
        ["embed", "classify", "--file", "deep.json"],
        ["embed", "classify", "--file", "utf16.json"],
        ["embed", "auto-equiv", "phi.json", "infinite_h.json"],
        ["embed", "auto-equiv", "overflow_h.json", "phi.json"],
        ["covol", "from-quotient", "--file", "infinite_h_v.json"],
        ["covol", "from-quotient", "--file", "true_n.json"],
        ["covol", "from-quotient", "--file", "float_n.json"],
        ["covol", "from-quotient", "--file", "str_n.json"],
        ["embed", "classify", "--file", "float_n_phi.json"],
        ["embed", "classify", "--file", "float_l.json"],
        ["embed", "classify", "--file", "true_eps.json"],
        ["embed", "classify", "--file", "str_h.json"],
        ["covol", "from-quotient", "--file", "str_h_v.json"],
        ["covol", "from-quotient", "--file", "true_stab0.json"],
        ["covol", "from-quotient", "--file", "true_rep_h.json"],
        ["tree", "aeta", "--n", "2", "--perms", "[" * 20000 + "]" * 20000],
        ["tree", "aeta", "--n", "2", "--perms", f"[[{DIGITS}]]"],
    ]

    def test_hostile_json_is_a_parse_error(self):
        for argv, (code, out, err, seconds) in zip(
            self.HOSTILE_JSON, run_among_files(self.HOSTILE_JSON)
        ):
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert "Traceback" not in err, argv
            assert seconds < 2, argv

    def test_scaling_and_printing_guards_refuse_in_time(self):
        for argv, (code, out, err, seconds) in zip(
            self.REFUSED, run_among_files(self.REFUSED)
        ):
            assert (code, out) == (3, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            assert seconds < 2, argv

    # a failing batch names its command, so it is reported unshrunk
    def test_large_answers_keep_their_bytes(self, capsys):
        # l = 99999 took 8.7 s through the composing power; the answers are
        # those it printed
        code, out, _ = run(
            ["embed", "classify", "--n", "2", "--l", "99999", "--s", "1",
             "--m", "1"],
            capsys,
        )
        assert (code, out) == (0, "s = 1\nm = 1\nh0 = 0\nj = 1\nk = 0\n")
        code, out, _ = run_json(
            ["present", "verify", "--case", "3", "--n", "2", "--l", "14000",
             "--m-ref", "99999"],
            capsys,
        )
        relators = [item["relator"] for item in out["payload"]["relators"]]
        y = 99999 * (1 - 2**14000)
        assert code == 0 and out["payload"]["all_identity"]
        assert relators == [
            f"b a b^-1 a^{-(2**14000)}", "c a c^-1 a",
            f"c b c^-1 b^-1 a^{-y}", "c^2",
        ]

    @settings(max_examples=4, phases=[Phase.explicit, Phase.generate])
    @example(batch=REFUSED + HOSTILE_JSON + TestHarness.GUARDED)
    @given(batch=BATCHES)
    def test_every_command_answers_or_refuses_in_time(self, batch):
        results = run_among_files(batch)
        for argv, (code, out, err, seconds) in zip(batch, results):
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in err, argv
            assert seconds < 2, argv
