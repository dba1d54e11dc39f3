import json
import time

import pytest

from twistlab import acceptance, cli
from twistlab.braid import diagram_from_name
from twistlab.cli import main
from twistlab.reconstruct import NotTwistImage


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTwist:
    def test_single_letter(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "twist", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_degree"] == -1
        assert payload["profile"]["1,-1"] == 3

    def test_empty_word_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "twist", "")
        assert code == 0
        payload = json.loads(out)
        assert payload["complex"]["degrees"] == {"0": [1, 2]}

    def test_object_spec_stalk(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "twist", "1", "--object", "P2")
        assert code == 0
        payload = json.loads(out)
        assert payload["complex"]["degrees"] == {"-1": [1], "0": [2]}

    @pytest.mark.parametrize("spec", ["P9", "P0"])
    def test_projective_outside_the_diagram_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "--diagram", "A2", "twist", "1", "--object", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ") and f"unknown vertex {spec[1:]}" in err

    def test_malformed_word_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "--diagram", "A2", "twist", "1,x")
        assert code == 2
        assert "input error" in err

    def test_bad_diagram_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "--diagram", "Z9", "twist", "1")
        assert code == 2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "--format", "text", "twist", "1")
        assert code == 0
        assert "profile" in out

    def test_complex_on_stdin(self, capsys, monkeypatch):
        import io

        payload = {"degrees": {"0": [2]}, "diffs": {}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_cli(capsys, "--diagram", "A2", "twist", "1", "--object", "-")
        assert code == 0
        assert json.loads(out)["complex"]["degrees"] == {"-1": [1], "0": [2]}

    def test_bad_stdin_complex_exits_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        code, _, err = run_cli(capsys, "--diagram", "A2", "twist", "1", "--object", "-")
        assert code == 2

    # the first 12 letters of CI's 40-letter A4 word: an image of 32 summands whose
    # dense differentials hold 198 cells
    BUDGET_WORD = "2,3,1,4,2,1,4,3,1,2,3,2"

    def test_image_at_the_cell_budget_is_written(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TWIST_CELLS", 198)
        code, out, err = run_cli(capsys, "--diagram", "A4", "twist", self.BUDGET_WORD)
        assert code == 0 and err == ""
        obj = json.loads(out)["complex"]
        assert sum(len(rows) * len(rows[0]) for rows in obj["diffs"].values()) == 198

    def test_image_one_cell_past_the_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TWIST_CELLS", 197)
        code, out, err = run_cli(capsys, "--diagram", "A4", "twist", self.BUDGET_WORD)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "198 dense matrix cells" in err and "limit of 197" in err


# Malformed JSON on stdin, for each command that reads it: exit 2, no traceback
MALFORMED_COMPLEXES = {
    "row-too-long": {"degrees": {"0": [1], "1": [2]}, "diffs": {"0": [[None, None]]}},
    "too-many-rows": {"degrees": {"0": [1], "1": [2]}, "diffs": {"0": [[None], [None]]}},
    "row-too-short": {"degrees": {"0": [1, 1], "1": [2]}, "diffs": {"0": [[None]]}},
    "label-out-of-range": {"degrees": {"0": [1], "1": [9]}, "diffs": {}},
    "top-level-array": [1],
    # labels, src and tgt are JSON integers: no string, float or bool
    "labels-as-a-string": {"degrees": {"0": "12"}, "diffs": {}},
    "label-as-a-float": {"degrees": {"0": [1.9]}, "diffs": {}},
    "label-as-a-bool": {"degrees": {"0": [True]}, "diffs": {}},
    "src-float-tgt-string": {
        "degrees": {"0": [1], "1": [2]},
        "diffs": {"0": [[{"src": 1.7, "tgt": "2", "terms": [{"kind": "arrow", "coef": "1"}]}]]},
    },
}
_A2 = {"family": "A", "rank": 2}
MALFORMED_CASES = [
    (f"{command[0]}-{name}", command, payload)
    for command in (["twist", "1", "--object", "-"], ["recover"])
    for name, payload in MALFORMED_COMPLEXES.items()
] + [
    ("mesh-solve-decorated-array", ["mesh-solve", "--decorated"], [1]),
    ("mesh-solve-layered-array", ["mesh-solve", "--layered"], [1]),
    ("mesh-solve-layered-float-vertex", ["mesh-solve", "--layered"], {"diagram": _A2, "slices": [[1.0], [2], [1]]}),
    # a diagram's rank is a JSON integer
    (
        "mesh-solve-layered-float-rank",
        ["mesh-solve", "--layered"],
        {"diagram": {"family": "A", "rank": 2.5}, "slices": [[1], [2], [1]]},
    ),
    (
        "mesh-solve-layered-string-rank",
        ["mesh-solve", "--layered"],
        {"diagram": {"family": "A", "rank": "3"}, "slices": [[1], [2], [1]]},
    ),
    (
        "mesh-solve-decorated-string-theta",
        ["mesh-solve", "--decorated"],
        {
            "diagram": _A2,
            "vertices": [[0, 1], [1, 2], [2, 1]],
            "theta": {"0,1": "1", "1,2": 1, "2,1": 0},
            "boundary": {"1": -1, "2": 0},
        },
    ),
]


@pytest.mark.parametrize("argv,payload", [c[1:] for c in MALFORMED_CASES], ids=[c[0] for c in MALFORMED_CASES])
def test_malformed_stdin_exits_2(capsys, monkeypatch, argv, payload):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, "--diagram", "A2", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: bad ")



def _cell_complex(coef):
    """A one-entry complex P_1 -> P_1 in degrees 0 and 1 whose loop coefficient is coef."""
    cell = {"src": 1, "tgt": 1, "terms": [{"kind": "loop", "coef": coef}]}
    return json.dumps({"degrees": {"0": [1], "1": [1]}, "diffs": {"0": [[cell]]}})


# Hostile input: each ends at once with exit 2 and a message, not with a
# traceback (a zero denominator, deep nesting) or a hang (a huge exponent,
# field order or rank).  (diagram, field, command, stdin, expected message)
HOSTILE_CASES = {
    "zero-denominator-q": ("A2", "q", ["recover"], _cell_complex("1/0"), "zero denominator"),
    "zero-denominator-f2": ("A2", "f2", ["recover"], _cell_complex("1/2"), "divides by zero in GF(2)"),
    "coefficient-exponent": ("A2", "q", ["recover"], _cell_complex("1e999999999"), "malformed coefficient"),
    "nested-complex": ("A2", "f2", ["recover"], "[" * 100000 + "]" * 100000, "bad complex on stdin"),
    "nested-layered": ("A2", "f2", ["mesh-solve", "--layered"], "[" * 100000 + "]" * 100000, "bad layered word"),
    "nested-decorated": ("A2", "f2", ["mesh-solve", "--decorated"], "[" * 100000 + "]" * 100000, "bad decorated set"),
    "huge-field-order": ("A2", "f1000000000000000000000000000057", ["twist", "1"], "", "too large"),
    "huge-rank": ("A100000", "f2", ["braid-eq", "1", "1", "--mode", "oracle"], "", "rank 100000 is above"),
    "huge-layered-rank": (
        "A2",
        "f2",
        ["mesh-solve", "--layered"],
        json.dumps({"diagram": {"family": "A", "rank": 10**9}, "slices": [[1]]}),
        "rank 1000000000 is above",
    ),
}


@pytest.mark.parametrize("diagram,field,argv,text,message", HOSTILE_CASES.values(), ids=list(HOSTILE_CASES))
def test_hostile_input_exits_2_at_once(capsys, monkeypatch, diagram, field, argv, text, message):
    import io
    import time

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--diagram", diagram, "--field", field, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and message in err


class TestRecover:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "recover", "--word", "1,2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["word"]) == 3
        assert payload["peels"][0]["min_degree"] < 0

    def test_long_a4_word_is_verified(self, capsys):
        letters = "1,2,3,4,1,2,3,1,2,1,4,3,2,1,2,3,4,3,2,1"
        code, out, _ = run_cli(capsys, "--diagram", "A4", "recover", "--word", letters)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["word"]) == 20

    @pytest.mark.parametrize("name", ["A16", "D12"])
    def test_root_system_past_a_byte(self, capsys, name):
        last = name[1:]
        code, out, _ = run_cli(capsys, "--diagram", name, "twist", last)
        assert code == 0
        assert json.loads(out)["min_degree"] == -1
        code, out, _ = run_cli(capsys, "--diagram", name, "recover", "--word", f"1,2,{last}")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["word"] == [1, 2, int(last)]
        code, out, _ = run_cli(capsys, "--diagram", name, "braid-eq", f"1,{last}", f"{last},1", "--mode", "oracle")
        assert code == 0

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "recover", "--word", "")
        assert code == 0
        assert json.loads(out)["word"] == []

    def test_non_image_exits_1(self, capsys, monkeypatch):
        import io

        payload = {"degrees": {"0": [1]}, "diffs": {}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, _, err = run_cli(capsys, "--diagram", "A2", "recover")
        assert code == 1
        assert "not a twist image" in err

    def test_loop_complex_from_stdin_exits_1(self, capsys, monkeypatch):
        import io

        # P_1 -> P_1 by the loop, in degrees -1 and 0: minimal, so peel takes
        # the letter 1 from its bottom label, and a later step rejects it
        loop = {"src": 1, "tgt": 1, "terms": [{"kind": "loop", "coef": "1"}]}
        payload = {"degrees": {"-1": [1], "0": [1]}, "diffs": {"-1": [[loop]]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run_cli(capsys, "--diagram", "A2", "recover")
        assert code == 1
        assert out == ""
        assert "not a twist image" in err

    def test_complex_from_stdin_verified(self, capsys, monkeypatch):
        import io

        # T_{s1} over A2 serialized by hand: P1[1] + cone(arrow)
        payload = {
            "degrees": {"-1": [1, 1], "0": [2]},
            "diffs": {
                "-1": [[
                    {"src": 1, "tgt": 2, "terms": []},
                    {"src": 1, "tgt": 2, "terms": [{"kind": "arrow", "coef": "1"}]},
                ]]
            },
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_cli(capsys, "--diagram", "A2", "recover")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == [1]
        assert payload["verified"] is True

    def test_stdin_image_inverts_each_letter_once(self, capsys, monkeypatch):
        import io

        from twistlab import reconstruct, twists

        letters = [1, 2, 3, 4, 5, 3, 2, 1]
        code, out, _ = run_cli(capsys, "--diagram", "D5", "--field", "q", "twist", ",".join(map(str, letters)))
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(json.loads(out)["complex"])))
        original, inverted = twists.twist_inv, []

        def counting(j, x):
            inverted.append(j)
            return original(j, x)

        # recovery's last step decides T = t_w(Lambda), so nothing inverts the word a second time
        for module in (twists, reconstruct):
            monkeypatch.setattr(module, "twist_inv", counting)
        code, out, _ = run_cli(capsys, "--diagram", "D5", "--field", "q", "recover")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True and len(payload["word"]) == len(letters)
        assert inverted == payload["word"]


class TestBraidEq:
    def test_equal_words(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "braid-eq", "1,2,1", "2,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] and payload["oracle"] and payload["category"]

    def test_unequal_words_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "braid-eq", "1,2", "2,1")
        assert code == 1
        assert json.loads(out)["equal"] is False

    def test_commutation_case(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A3", "braid-eq", "1,3", "3,1")
        assert code == 0

    def test_oracle_only_mode(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "braid-eq", "1", "1", "--mode", "oracle")
        payload = json.loads(out)
        assert code == 0 and "category" not in payload

    def test_one_changed_letter_of_a_40_letter_word(self, capsys):
        # the first 40 letters of the 60-letter A4 word that CI recovers, and the
        # same word with its first letter 2 changed to 3: an inverse chain along
        # the wrong word grows without bound, the two recoveries stay linear
        w = "2,2,3,4,1,1,4,3,2,2,4,4,4,2,2,2,4,1,1,2,1,3,1,3,4,4,4,4,4,2,3,1,1,2,4,2,3,4,3,4"
        u = "3" + w[1:]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "--diagram", "A4", "braid-eq", w, u, "--mode", "category")
        assert time.perf_counter() - start < 20.0
        assert code == 1
        assert json.loads(out)["equal"] is False

    def test_an_image_that_does_not_recover_is_a_breach(self, capsys, monkeypatch):
        def stuck(t1, t2):
            raise NotTwistImage("peeling failed to make progress")

        monkeypatch.setattr(cli, "isomorphic_images", stuck)
        code, out, err = run_cli(capsys, "--diagram", "A2", "braid-eq", "1,2", "2,1", "--mode", "category")
        assert code == 3 and out == ""
        assert "does not recover" in err and "peeling failed to make progress" in err


class TestMeshSolve:
    def test_a2_example(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "A2", "mesh-solve", "1,2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor"] == 2
        assert payload["replay_ok"] is True
        assert payload["certificate"][0]["move"] == "braid"

    def test_d4_example(self, capsys):
        code, out, _ = run_cli(capsys, "--diagram", "D4", "mesh-solve", "2,1,3,4,2,1,3,4,2,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor"] != 2
        assert payload["replay_ok"] is True

    def test_hypothesis_violation_exits_2(self, capsys):
        # theta goes negative for s1 s1
        code, _, err = run_cli(capsys, "--diagram", "A2", "mesh-solve", "1,1")
        assert code == 2
        assert "hypotheses" in err

    @pytest.mark.parametrize("seed", ["9", "0"])
    def test_seed_vertex_outside_the_diagram_exits_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "--diagram", "A2", "mesh-solve", "1,2,1", "--seed-vertex", seed)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ") and f"unknown vertex {seed}" in err

    def test_decorated_stdin(self, capsys, monkeypatch):
        import io

        payload = {
            "diagram": {"family": "A", "rank": 2},
            "vertices": [[0, 1], [1, 2], [2, 1]],
            "theta": {"0,1": 1, "1,2": 1, "2,1": 0},
            "boundary": {"1": -1, "2": 0},
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_cli(capsys, "--diagram", "A2", "mesh-solve", "--decorated")
        assert code == 0
        assert json.loads(out)["divisor"] == 2

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--diagram", "A2", "--format", "dot", "mesh-solve", "1,2,1"
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_empty_word_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "--diagram", "A2", "mesh-solve", "")
        assert code == 2


class TestSelftest:
    def test_small_scale_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--diagram", "A2", "--max-len", "2", "selftest"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("ACCEPTANCE")]
        assert len(lines) == 9
        assert all("PASS" in l for l in lines)

    def test_corrupt_hook_fails_with_pinpointed_invariant(self, capsys):
        code, out, _ = run_cli(
            capsys, "--diagram", "A2", "--max-len", "1", "selftest", "--debug-corrupt-compose"
        )
        assert code == 3
        assert "FAIL" in out
        assert "trace pairing" in out  # criterion 1 names the broken invariant

    def test_non_integer_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TWISTLAB_SEED", "abc")
        code, _, err = run_cli(capsys, "--diagram", "A2", "--max-len", "1", "selftest")
        assert code == 2
        assert "TWISTLAB_SEED" in err

    def test_negative_sample_longer_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "--diagram", "A2", "--max-len", "1", "selftest", "--sample-longer", "-3")
        assert code == 2
        assert "--sample-longer" in err

    @pytest.fixture
    def no_criteria(self, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all", lambda *args, **kwargs: [])

    def test_corpus_at_the_word_budget_is_accepted(self, capsys, no_criteria):
        # the limit is the D4 corpus up to 5 letters, which Scale() sweeps in full
        assert len(acceptance.all_words(diagram_from_name("D4"), 5)) == cli.MAX_SELFTEST_WORDS
        code, _, err = run_cli(capsys, "--diagram", "D4", "--max-len", "5", "selftest")
        assert code == 0 and err == ""

    def test_corpus_one_word_past_the_budget_exits_2(self, capsys, monkeypatch, no_criteria):
        monkeypatch.setattr(cli, "MAX_SELFTEST_WORDS", cli.MAX_SELFTEST_WORDS - 1)
        code, out, err = run_cli(capsys, "--diagram", "D4", "--max-len", "5", "selftest")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "more than 1364 words" in err

    @pytest.mark.parametrize("diagram, max_len", [("D4", "6"), ("E8", "12"), ("A2", "1000000000")])
    def test_oversized_corpus_exits_2_at_once(self, capsys, diagram, max_len):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--diagram", diagram, "--max-len", max_len, "selftest")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "--max-len" in err

    def test_oversized_sample_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--diagram", "A2", "selftest", "--sample-longer", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "--sample-longer" in err

    def test_seeded_sampling(self, capsys, monkeypatch):
        monkeypatch.setenv("TWISTLAB_SEED", "7")
        code, out, _ = run_cli(
            capsys, "--diagram", "A2", "--max-len", "1", "selftest", "--sample-longer", "2"
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("ACCEPTANCE 5"))
        assert "PASS" in line
