"""End-to-end command line tests, run in process through main()."""

import json

import pytest

from bslat import cli
from bslat.cli import main
from bslat.lattice import standard_embedding


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    return code, json.loads(out), err


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

