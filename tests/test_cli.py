"""Command line interface, driven through run() with real files."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fairrank

from fairrank import DuplicateId, ParseError
from fairrank.cli import (
    distribution_from_dict,
    load_constraints,
    parse_instance,
    run,
)

from conftest import EIGHT_ROWS

EIGHT_CSV = "id,group,score\n" + "".join(
    f"{i},{g},{s}\n" for i, g, s in EIGHT_ROWS
)
ABC_CSV = "id,group,score\na,M,0.9\nb,F,0.8\nc,M,0.7\n"


@pytest.fixture()
def eight_csv(tmp_path):
    path = tmp_path / "eight.csv"
    path.write_text(EIGHT_CSV)
    return str(path)


def run_json(capsys, argv):
    """Exit code and printed JSON: the result from stdout, or on failure
    the error payload from stderr, with nothing on stdout."""
    code = run(argv)
    captured = capsys.readouterr()
    if code == 0:
        return code, json.loads(captured.out)
    assert captured.out == ""
    return code, json.loads(captured.err)


def test_parse_instance_roundtrip():
    inst = parse_instance(EIGHT_CSV)
    assert inst.n == 8
    assert inst.ids[0] == "u1"
    assert inst.group_labels == ("M", "F")


def test_parse_instance_errors():
    with pytest.raises(ParseError) as err:
        parse_instance("id;group;score\nu1,a,1.0\n")
    assert err.value.row == 1
    with pytest.raises(ParseError) as err:
        parse_instance("id,group,score\nu1,a,high\n")
    assert err.value.row == 2
    with pytest.raises(DuplicateId):
        parse_instance("id,group,score\nu1,a,1.0\nu1,a,0.9\n")
    with pytest.raises(ParseError):
        parse_instance("id,group,score\nu1,a,-0.5\n")
    with pytest.raises(ParseError):
        parse_instance("id,group,score\n")
    for score in ("nan", "inf", "-inf"):
        with pytest.raises(ParseError, match="not finite") as err:
            parse_instance(f"id,group,score\nu1,a,1.0\nu2,a,{score}\n")
        assert err.value.row == 3
    # Blank rows are skipped, but later row numbers still count them.
    for text, message, row in [
        ("", "empty input", None),
        ("id,group,score\nu1,a,1.0\n\n,,\nu2,a,high\n", "bad score", 5),
        ("id,group,score\nu1,a\n", "expected 3 fields, got 2", 2),
        ("id,group,score\nu1,a,1.0\n ,a,0.5\n", "empty id", 3),
    ]:
        with pytest.raises(ParseError, match=message) as err:
            parse_instance(text)
        assert err.value.row == row


@pytest.mark.parametrize("text, ids, labels", [
    # str.splitlines breaks at U+2028 and at a form feed; CSV does not.
    ("id,group,score\nx\u2028y,M,0.9\nb,F,0.8\n", ("x\u2028y", "b"), ("M", "F")),
    ("id,group,score\na,M\f,0.9\nb,F,0.8\n", ("a", "b"), ("M", "F")),
    # A quoted field keeps its line break.
    ('id,group,score\n"a\n1",M,0.9\nb,F,0.8\n', ("a\n1", "b"), ("M", "F")),
    ("id,group,score\r\na,M,0.9\r\nb,F,0.8\r\n", ("a", "b"), ("M", "F")),
])
def test_parse_instance_reads_records_as_csv(text, ids, labels, tmp_path, capsys):
    inst = parse_instance(text)
    assert (inst.ids, inst.group_labels) == (ids, labels)
    path = tmp_path / "roster.csv"
    path.write_text(text, encoding="utf-8", newline="")
    code, payload = run_json(capsys, ["baseline", "--input", str(path)])
    assert code == 0 and payload["ranking"] == list(ids)


@pytest.mark.parametrize("text, error, message, row", [
    ('id,group,score\n"a\n1",M,0.9\nb,F,high\n', ParseError, "row 4: bad score", 4),
    ('id,group,score\n"a\n1",M,0.9\nb,F,0.8\n"a\n1",F,0.7\n',
     DuplicateId, "row 6: duplicate id", 6),
], ids=["bad-score", "duplicate-id"])
def test_parse_error_row_is_the_line_the_record_ends_on(
    text, error, message, row, tmp_path, capsys
):
    """A quoted line break counts as a line, as it does in the row of a
    ``csv`` refusal, so the row names the line where the bad record ends."""
    with pytest.raises(error, match=message) as err:
        parse_instance(text)
    assert err.value.row == row
    path = tmp_path / "roster.csv"
    path.write_text(text, encoding="utf-8", newline="")
    code, payload = run_json(capsys, ["baseline", "--input", str(path)])
    assert code == 2
    assert payload["error"]["type"] == error.__name__ and payload["error"]["row"] == row


def test_field_over_the_csv_limit_exits_2(tmp_path, capsys):
    text = "id,group,score\na,M,0.9\n" + "b" * 131_073 + ",F,0.8\n"
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        parse_instance(text)
    assert err.value.row == 3
    path = tmp_path / "roster.csv"
    path.write_text(text)
    code, payload = run_json(capsys, ["baseline", "--input", str(path)])
    assert code == 2
    assert payload["error"]["type"] == "ParseError" and payload["error"]["row"] == 3


def test_nul_byte_is_field_text_or_a_parse_error():
    """The csv module reads a NUL as field text from Python 3.11 on and
    refuses it before; either way the refusal is a ParseError."""
    try:
        assert parse_instance("id,group,score\na\0,M,0.9\nb,F,0.8\n").ids == ("a\0", "b")
    except ParseError as exc:
        assert sys.version_info < (3, 11) and exc.row == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--constraints", "{deep}"],
    ["metrics", "--distribution", "{deep}"],
    ["sample", "--distribution", "{deep}"],
])
def test_json_nested_too_deeply_exits_2(argv, eight_csv, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [a.format(deep=deep) for a in argv] + ["--input", eight_csv]
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["error"] == {
        "type": "ValueError", "message": f"{deep}: JSON nested too deeply",
    }


@pytest.mark.parametrize("group", ["", "  "])
def test_empty_group_exits_2(tmp_path, capsys, group):
    text = f"id,group,score\na,A,0.9\nb,{group},0.8\n"
    with pytest.raises(ParseError, match="empty group") as err:
        parse_instance(text)
    assert err.value.row == 3
    path = tmp_path / "roster.csv"
    path.write_text(text)
    code, payload = run_json(capsys, ["baseline", "--input", str(path)])
    assert code == 2
    assert payload["error"] == {
        "type": "ParseError", "message": "row 3: empty group", "row": 3,
    }


def test_load_constraints_tables(eight):
    cons = load_constraints(
        eight, {"upper": {"M": [1, 2, 2, 2, 3, 3, 4, 4]}}
    )
    assert cons.upper[0] == (1, 2, 2, 2, 3, 3, 4, 4)
    assert cons.upper_only
    with pytest.raises(ValueError):
        load_constraints(eight, {"upper": {"M": [1, 2]}})
    with pytest.raises(ValueError):
        load_constraints(eight, {})
    huge = load_constraints(eight, {"upper": {"M": [10**30] * 8}})
    assert huge.upper[0] == tuple(range(1, 9))


def test_solve_command(eight_csv, capsys):
    code, payload = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    expected = payload["expected_satisfaction"]
    assert expected["u1"] == pytest.approx(-0.75, abs=0.05)
    assert expected["u6"] == pytest.approx(1.0, abs=0.05)
    probs = [entry["probability"] for entry in payload["support"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(p == float(f"{p:.12g}") for p in probs)
    assert set(payload["metrics"]) == {
        "min_value", "spread", "gini", "dcg_mean", "dcg_std",
    }


def test_baseline_command(eight_csv, capsys):
    code, payload = run_json(capsys, [
        "baseline", "--input", eight_csv, "--rule", "floor-balanced",
    ])
    assert code == 0
    assert payload["ranking"] == ["u1", "u2", "u3", "u6", "u4", "u7", "u5", "u8"]
    assert payload["min_value"] == -2.0


def test_sample_and_metrics_commands(eight_csv, tmp_path, capsys):
    code, solved = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(solved))

    code, draw = run_json(capsys, [
        "sample", "--distribution", str(dist_path), "--seed", "11",
    ])
    assert code == 0
    supports = {tuple(e["ranking"]) for e in solved["support"]}
    assert tuple(draw["ranking"]) in supports
    code, again = run_json(capsys, [
        "sample", "--distribution", str(dist_path), "--seed", "11",
    ])
    assert code == 0
    assert again == draw

    code, metrics = run_json(capsys, [
        "metrics", "--input", eight_csv, "--distribution", str(dist_path),
    ])
    assert code == 0
    assert metrics["min_value"] == pytest.approx(
        solved["metrics"]["min_value"], abs=1e-9
    )
    assert metrics["expected_satisfaction"] == pytest.approx(
        solved["expected_satisfaction"]
    )


def _ceil_roster(tmp_path) -> str:
    """Forty people, twelve protected (B) and drawn lower, so the ceil-0.3
    floors bind along most prefixes."""
    rng = np.random.default_rng(40)
    rows = [(f"a{i}", "A", s) for i, s in enumerate(rng.uniform(0.3, 1.0, 28))]
    rows += [(f"b{i}", "B", s) for i, s in enumerate(rng.uniform(0.0, 0.7, 12))]
    path = tmp_path / "ceil.csv"
    path.write_text("id,group,score\n" + "".join(f"{i},{g},{s}\n" for i, g, s in rows))
    return str(path)


def test_stored_mass_is_checked_to_1e_9(tmp_path, capsys):
    roster = _ceil_roster(tmp_path)
    rule = ["--rule", "ceil-alpha", "--alpha", "0.3", "--protected", "B"]
    dist_path = tmp_path / "dist.json"
    code = run([
        "solve", "--input", roster, *rule, "--value-fn", "log-ratio",
        "--epsilon", "0.05", "--output", str(dist_path),
    ])
    assert code == 0
    solved = json.loads(dist_path.read_text())
    assert len(solved["support"]) > 10
    metrics_args = [
        "metrics", "--input", roster, "--distribution", str(dist_path), *rule,
        "--value-fn", "log-ratio",
    ]
    code, metrics = run_json(capsys, metrics_args)
    assert code == 0
    assert metrics["expected_satisfaction"] == pytest.approx(
        solved["expected_satisfaction"], abs=1e-9
    )

    solved["support"][0]["probability"] += 1e-7
    dist_path.write_text(json.dumps(solved))
    code, payload = run_json(capsys, metrics_args)
    assert code == 2
    assert "support probabilities sum to" in payload["error"]["message"]


def test_metrics_rejects_an_atom_that_breaks_the_rule(eight_csv, tmp_path, capsys):
    code, solved = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    solved["support"][0]["ranking"].reverse()
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(solved))
    code, payload = run_json(capsys, [
        "metrics", "--input", eight_csv, "--distribution", str(dist_path),
        "--rule", "floor-balanced",
    ])
    assert code == 2
    assert "support atom 0" in payload["error"]["message"]


def test_metrics_rejects_a_negative_probability(eight_csv, tmp_path, capsys):
    """A copy of atom 0 at probability -0.3 next to atoms that still sum to
    one."""
    code, solved = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    extra = len(solved["support"])
    solved["support"].append(dict(solved["support"][0], probability=-0.3))
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(solved))
    code, payload = run_json(capsys, [
        "metrics", "--input", eight_csv, "--distribution", str(dist_path),
        "--rule", "floor-balanced",
    ])
    assert code == 2
    assert f"support atom {extra}" in payload["error"]["message"]
    assert "probability -0.3" in payload["error"]["message"]


def test_sample_rejects_an_atom_that_breaks_the_rule(eight_csv, tmp_path, capsys):
    code, solved = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(solved))
    checked = ["--input", eight_csv, "--rule", "floor-balanced", "--seed", "11"]
    code, draw = run_json(capsys, [
        "sample", "--distribution", str(good_path), *checked,
    ])
    assert code == 0
    code, unchecked = run_json(capsys, [
        "sample", "--distribution", str(good_path), "--seed", "11",
    ])
    assert code == 0
    assert draw == unchecked

    solved["support"][0]["ranking"].reverse()
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(solved))
    code, payload = run_json(capsys, [
        "sample", "--distribution", str(bad_path), *checked,
    ])
    assert code == 2
    assert "support atom 0" in payload["error"]["message"]
    for flags in (["--rule", "floor-balanced"], ["--alpha", "0.3", "--protected", "F"]):
        code, payload = run_json(capsys, [
            "sample", "--distribution", str(bad_path), *flags,
        ])
        assert code == 2
        assert "--input" in payload["error"]["message"]
    # The drawn ranking does not depend on a value model, so sample takes none.
    with pytest.raises(SystemExit):
        run(["sample", "--distribution", str(good_path), *checked,
             "--value-fn", "top-k"])


def test_sample_checks_the_stored_mass_without_input(tmp_path, capsys):
    """Without ``--input`` the stored probabilities still have to be
    nonnegative and sum to one."""
    ranking = ["a", "b", "c"]
    files = {
        "half.json": ([0.5], "sum to 0.5"),
        "negative.json": ([1.3, -0.3], "support atom 1 has probability -0.3"),
        "empty.json": ([], "support probabilities sum to 0, expected 1"),
    }
    for name, (probabilities, message) in files.items():
        path = tmp_path / name
        path.write_text(json.dumps({
            "support": [{"probability": p, "ranking": ranking} for p in probabilities]
        }))
        code, payload = run_json(capsys, [
            "sample", "--distribution", str(path), "--seed", "1",
        ])
        assert code == 2
        assert message in payload["error"]["message"]


def test_mistyped_stored_distribution_exits_2(tmp_path, capsys):
    """A probability of the wrong JSON type, a list where the object
    belongs, or a mistyped stored field is malformed input to sample and
    metrics alike: exit 2 with the error JSON, not a traceback.  The
    library reader refuses the same data with ``ValueError``."""
    roster = tmp_path / "abc.csv"
    roster.write_text(ABC_CSV)
    inst = parse_instance(ABC_CSV)
    model = fairrank.ValueModel.position_diff(inst)
    atom = {"probability": 1.0, "ranking": ["a", "b", "c"]}
    files = {
        "null.json": {"support": [dict(atom, probability=None)]},
        "text.json": {"support": [dict(atom, probability="1")]},
        "bool.json": {"support": [dict(atom, probability=True)]},
        "string_ranking.json": {"support": [dict(atom, ranking="abc")]},
        "list.json": [1, 2],
        "phases.json": {"support": [atom], "lambda_phases": 5},
        "null_phase.json": {"support": [atom], "lambda_phases": [None]},
        # 401-digit integers: no float holds them.
        "huge.json": {"support": [dict(atom, probability=10**400)]},
        "huge_phase.json": {"support": [atom], "lambda_phases": [10**400]},
    }
    for name, data in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        for argv in (
            ["sample", "--distribution", str(path), "--seed", "1"],
            ["metrics", "--input", str(roster), "--distribution", str(path)],
        ):
            code, payload = run_json(capsys, argv)
            assert code == 2, argv
            assert payload["error"]["type"] == "ValueError"
        with pytest.raises(ValueError):
            distribution_from_dict(inst, model, data)


def test_distribution_from_dict_merges_duplicate_support(eight, eight_model):
    """A stored file may list one ranking twice: the reader merges the two
    into one atom."""
    ranking = list(eight.ids)
    values = eight_model.values(fairrank.merit_ranking(eight))
    data = {"support": [{"probability": 0.5, "ranking": ranking}] * 2}
    dist = distribution_from_dict(eight, eight_model, data)
    assert dist.support_size == 1
    assert dist.support[0][1] == pytest.approx(1.0)
    assert dist.expected.tolist() == values.tolist()
    assert not dist.atoms[0].values.flags.writeable


def test_distribution_from_dict_validates_probabilities(eight, eight_model):
    """The reader names a negative stored atom by its index in the file and
    drops atoms of probability zero."""
    ranking = list(eight.ids)

    def stored(*probabilities):
        return {
            "support": [{"probability": p, "ranking": ranking} for p in probabilities]
        }

    # Positive atoms summing to one do not excuse a negative one.
    with pytest.raises(ValueError, match="support atom 1 .* probability -0.3"):
        distribution_from_dict(eight, eight_model, stored(1.0, -0.3))
    zero = distribution_from_dict(eight, eight_model, stored(1.0, 0.0))
    assert zero.support_size == 1


@pytest.mark.parametrize("rankings, message", [
    ([["a", "a", "zz"]], "individual ids must be unique"),
    ([["a", "b", "c"], ["a", "a", "c"]], "ranking must be a permutation of 0..n-1"),
    ([["a", "b", "c"], ["a", "b", "zz"]], "unknown id 'zz' in a ranking"),
    ([["a", "b", "c"], ["a", "b"]], "a ranking lists all 3 ids, got 2"),
])
def test_sample_without_input_refuses_rankings_off_the_roster(
    rankings, message, tmp_path, capsys
):
    """Without ``--input`` the roster is the first stored ranking's ids: a
    ranking that repeats an id or disagrees with that roster exits 2."""
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"support": [
        {"probability": 1 / len(rankings), "ranking": r} for r in rankings
    ]}))
    code, payload = run_json(capsys, [
        "sample", "--distribution", str(path), "--seed", "1",
    ])
    assert code == 2
    assert payload["error"] == {"type": "ValueError", "message": message}


FOUR_CSV = "id,group,score\na,M,0.9\nb,F,0.8\nc,M,0.7\nd,F,0.6\n"


@pytest.mark.parametrize("spec", [
    {"upper": [1, 2]},
    {"upper": {"M": 5}},
    {"rule": "ceil-alpha", "alpha": [1], "protected": "F"},
    {"rule": "floor-balanced", "start_k": "3"},
    {"upper": {"M": [1.5, 2, 2, 2]}},
    [{"rule": "floor-balanced"}],
    {"rule": "no-such-rule"},
])
def test_mistyped_constraint_json_exits_2(spec, tmp_path, capsys):
    """A constraint file with a field of the wrong JSON type, a top level
    that is not an object, or an unknown rule is malformed input: exit 2
    with the error JSON, not a traceback or a silent cut."""
    roster = tmp_path / "four.csv"
    roster.write_text(FOUR_CSV)
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps(spec))
    code, payload = run_json(capsys, [
        "solve", "--input", str(roster), "--constraints", str(path),
    ])
    assert code == 2
    assert payload["error"]["type"] == "ValueError"


@pytest.mark.parametrize("spec, key", [
    ({"rule": "floor-balanced", "upper": {"M": [0, 1, 2]}}, "upper"),
    ({"rule": "floor-balanced", "alpha": 0.3, "protected": "F"}, "alpha"),
    ({"rule": "floor-balanced", "protected": "F"}, "protected"),
    ({"rule": "ceil-alpha", "alpha": 0.3, "lower": {"F": [1, 1, 1]}}, "lower"),
    ({"upper": {"M": [0, 1, 2]}, "lowr": {"F": [1, 1, 1]}}, "lowr"),
    ({"upper": {"M": [0, 1, 2]}, "start_k": 2}, "start_k"),
])
def test_unread_constraint_json_key_exits_2(spec, key, tmp_path, capsys):
    """A constraint-file key that the chosen form does not read is refused
    by name, not dropped: a cap table beside a rule would otherwise leave M
    free to take position 1."""
    roster = tmp_path / "abc.csv"
    roster.write_text(ABC_CSV)
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps(spec))
    code, payload = run_json(capsys, [
        "baseline", "--input", str(roster), "--constraints", str(path),
    ])
    assert code == 2
    assert payload["error"]["message"].startswith(f"constraint JSON key {key!r} is not read")


@pytest.mark.parametrize("ranking, message", [
    (["a", "b", "c"], "a ranking lists all 4 ids, got 3"),
    (["a", "b", "c", "zz"], "unknown id 'zz' in a ranking"),
])
def test_stored_ranking_must_list_the_roster(ranking, message, tmp_path, capsys):
    roster = tmp_path / "four.csv"
    roster.write_text(FOUR_CSV)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"support": [{"probability": 1.0, "ranking": ranking}]}))
    for command in ("metrics", "sample"):
        code, payload = run_json(capsys, [
            command, "--input", str(roster), "--distribution", str(path),
        ])
        assert code == 2, command
        assert payload["error"] == {"type": "ValueError", "message": message}


def test_rule_file_solves_like_the_rule_flags(eight_csv, tmp_path, capsys):
    cases = [
        ({"rule": "ceil-alpha", "alpha": 0.3, "protected": "F"},
         ["--rule", "ceil-alpha", "--alpha", "0.3", "--protected", "F"]),
        ({"rule": "floor-balanced", "start_k": 4},
         ["--rule", "floor-balanced", "--start-k", "4"]),
    ]
    for spec, flags in cases:
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(spec))
        code, from_file = run_json(capsys, [
            "solve", "--input", eight_csv, "--constraints", str(path),
        ])
        assert code == 0
        code, from_flags = run_json(capsys, ["solve", "--input", eight_csv, *flags])
        assert code == 0
        assert from_file == from_flags
    # Unlike --rule, a rule file names its protected group.
    path.write_text(json.dumps({"rule": "ceil-alpha", "alpha": 0.3}))
    code, payload = run_json(capsys, [
        "solve", "--input", eight_csv, "--constraints", str(path),
    ])
    assert code == 2
    assert "protected group" in payload["error"]["message"]


def test_byte_order_mark_is_ignored_in_every_input_file(eight_csv, tmp_path, capsys):
    """A UTF-8 byte-order mark, as spreadsheet programs write one, reads
    like the same file without it: roster CSV, constraint JSON and stored
    distribution alike."""
    spec = json.dumps({"rule": "ceil-alpha", "alpha": 0.3, "protected": "F"})
    plain_rule = tmp_path / "rule.json"
    plain_rule.write_text(spec, encoding="utf-8")
    marked_csv = tmp_path / "marked.csv"
    marked_csv.write_text(EIGHT_CSV, encoding="utf-8-sig")
    marked_rule = tmp_path / "marked.json"
    marked_rule.write_text(spec, encoding="utf-8-sig")
    assert marked_csv.read_bytes().startswith(b"\xef\xbb\xbf")

    outputs = []
    for roster, rule in ((eight_csv, plain_rule), (marked_csv, marked_rule)):
        assert run(["solve", "--input", str(roster), "--constraints", str(rule)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    stored = tmp_path / "dist.json"
    stored.write_text(outputs[0], encoding="utf-8-sig")
    code, metrics = run_json(capsys, [
        "metrics", "--input", str(marked_csv), "--constraints", str(marked_rule),
        "--distribution", str(stored),
    ])
    assert code == 0
    assert metrics["expected_satisfaction"] == json.loads(outputs[0])["expected_satisfaction"]


def test_solve_with_the_top_k_value_function(eight_csv, capsys):
    code, payload = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--value-fn", "top-k", "--k", "3",
    ])
    assert code == 0
    expected = payload["expected_satisfaction"]
    assert all(-1.0 <= v <= 1.0 for v in expected.values())
    assert sum(expected.values()) == pytest.approx(0.0, abs=1e-9)


def test_decompose_command(eight_csv, capsys):
    code, payload = run_json(capsys, [
        "decompose", "--input", eight_csv, "--rule", "floor-balanced",
    ])
    assert code == 0
    levels = {
        frozenset(block["individuals"]): block["lambda"]
        for block in payload["blocks"]
    }
    assert levels == {
        frozenset({"u1", "u2", "u4", "u5"}): -0.75,
        frozenset({"u3"}): 0.0,
        frozenset({"u6", "u7", "u8"}): 1.0,
    }


def test_experiment_command(eight_csv, capsys):
    code, payload = run_json(capsys, [
        "experiment", "--input", eight_csv, "--alpha", "0.25",
        "--protected", "F", "--epsilon", "1.0",
    ])
    assert code == 0
    assert payload["alphas"] == [0.25]
    row = payload["rows"][0]
    assert row["maxmin"]["min_value"] >= row["deterministic"]["min_value"] - 1.0


@pytest.mark.parametrize("protected", [[], ["--protected", "F"]])
def test_experiment_rows_match_solve_and_baseline(eight_csv, protected, capsys):
    """With the same rule flags, each experiment row's maxmin metrics are
    the metrics of ``solve --rule ceil-alpha`` and its deterministic ones
    those of ``baseline``."""
    flags = [*protected, "--start-k", "2"]
    code, payload = run_json(capsys, [
        "experiment", "--input", eight_csv, "--alpha", "0.25,0.5",
        "--epsilon", "0.05", *flags,
    ])
    assert code == 0
    assert payload["protected"] == (protected[1] if protected else "M")
    for row in payload["rows"]:
        rule = ["--input", eight_csv, "--rule", "ceil-alpha", "--alpha", str(row["alpha"]), *flags]
        code, solved = run_json(capsys, ["solve", *rule, "--epsilon", "0.05"])
        assert code == 0
        assert {key: row["maxmin"][key] for key in solved["metrics"]} == solved["metrics"]
        code, base = run_json(capsys, ["baseline", *rule])
        assert code == 0
        assert row["deterministic"] == base["metrics"]


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_threshold_flag_is_a_usage_error(eight_csv, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--input", eight_csv, "--threshold", "1e-9"])
    assert exit_info.value.code == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize("epsilon", ["inf", "nan", "0"])
def test_epsilon_must_be_positive_and_finite(eight_csv, command, epsilon, capsys):
    """An infinite epsilon would be written out as ``Infinity``, which is
    not JSON."""
    code, payload = run_json(capsys, [command, "--input", eight_csv, "--epsilon", epsilon])
    assert code == 2
    assert payload["error"]["message"] == "epsilon must be positive and finite"


@pytest.mark.parametrize("command", ["solve", "baseline", "metrics", "decompose", "sample"])
@pytest.mark.parametrize("flags, message", [
    (["--alpha", "0.9", "--protected", "F"], "--alpha needs --rule ceil-alpha"),
    (["--protected", "F"], "--protected needs --rule ceil-alpha"),
    (["--rule", "floor-balanced", "--alpha", "0.3"], "--alpha needs --rule ceil-alpha"),
    (["--start-k", "2"], "--start-k needs --rule"),
    (["--constraints", "RULE", "--rule", "ceil-alpha", "--alpha", "0.3"],
     "--rule and --constraints cannot be combined"),
    (["--constraints", "RULE", "--start-k", "2"], "--start-k needs --rule"),
])
def test_constraint_flags_that_would_be_ignored_exit_2(
    eight_csv, tmp_path, command, flags, message, capsys
):
    """A constraint flag that the chosen source of constraints does not
    read is refused, not dropped."""
    spec = tmp_path / "rule.json"
    spec.write_text(json.dumps({"rule": "floor-balanced"}))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({
        "support": [{"probability": 1.0, "ranking": [u for u, _, _ in EIGHT_ROWS]}]
    }))
    flags = [str(spec) if flag == "RULE" else flag for flag in flags]
    extra = ["--distribution", str(dist)] if command in ("metrics", "sample") else []
    code, payload = run_json(capsys, [command, "--input", eight_csv, *flags, *extra])
    assert code == 2
    assert payload["error"]["message"] == message


@pytest.mark.parametrize("command", ["solve", "baseline", "metrics", "decompose", "experiment"])
def test_k_without_top_k_exits_2(eight_csv, tmp_path, command, capsys):
    """``--k`` is read only by the top-k value function, which needs it;
    with any other it is refused, not dropped."""
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({
        "support": [{"probability": 1.0, "ranking": [u for u, _, _ in EIGHT_ROWS]}]
    }))
    extra = ["--distribution", str(dist)] if command == "metrics" else []
    for value_fn in ([], ["--value-fn", "log-ratio"]):
        code, payload = run_json(capsys, [
            command, "--input", eight_csv, "--k", "2", *value_fn, *extra,
        ])
        assert code == 2, (command, value_fn)
        assert payload["error"]["message"] == "--k needs --value-fn top-k"
    code, payload = run_json(capsys, [
        command, "--input", eight_csv, "--value-fn", "top-k", *extra,
    ])
    assert code == 2
    assert payload["error"]["message"] == "--value-fn top-k needs --k"


def test_ceil_alpha_without_protected_protects_the_first_group(eight_csv, capsys):
    """The first group of the roster, M, is the default protected group."""
    outputs = []
    for protected in ([], ["--protected", "M"]):
        code, payload = run_json(capsys, [
            "solve", "--input", eight_csv, "--rule", "ceil-alpha", "--alpha", "0.5",
            *protected,
        ])
        assert code == 0
        outputs.append(payload)
    assert outputs[0] == outputs[1]
    code, other = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "ceil-alpha", "--alpha", "0.5",
        "--protected", "F",
    ])
    assert code == 0
    assert other["support"] != outputs[0]["support"]


def test_output_flag_writes_file(eight_csv, tmp_path, capsys):
    out = tmp_path / "baseline.json"
    code = run([
        "baseline", "--input", eight_csv, "--rule", "floor-balanced",
        "--output", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["min_value"] == -2.0


def test_unwritable_output_exits_2(eight_csv, tmp_path, capsys):
    """An ``--output`` in a missing directory, or one that names a
    directory, is an ``OSError`` like any other: exit 2, nothing on stdout,
    and the error JSON names the path."""
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        code, payload = run_json(capsys, [
            "solve", "--input", eight_csv, "--output", str(out),
        ])
        assert code == 2
        assert str(out) in payload["error"]["message"]


def test_exit_code_for_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,team,points\nu1,a,1.0\n")
    code, payload = run_json(capsys, ["baseline", "--input", str(bad)])
    assert code == 2
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["row"] == 1

    code, payload = run_json(
        capsys, ["baseline", "--input", str(tmp_path / "missing.csv")]
    )
    assert code == 2

    good = tmp_path / "good.csv"
    good.write_text(EIGHT_CSV)
    code, payload = run_json(capsys, [
        "baseline", "--input", str(good), "--value-fn", "top-k",
    ])
    assert code == 2


def test_exit_code_for_infeasible_bounds(eight_csv, tmp_path, capsys):
    code, payload = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "ceil-alpha",
        "--alpha", "0.9", "--protected", "F",
    ])
    assert code == 3
    assert payload["error"]["type"] == "InfeasibleConstraints"

    spec = tmp_path / "blocked.json"
    spec.write_text(json.dumps({"upper": {"M": [0] * 8, "F": [0] * 8}}))
    code, payload = run_json(capsys, [
        "solve", "--input", eight_csv, "--constraints", str(spec),
    ])
    assert code == 3


def test_infeasible_caps_exit_3_with_the_solver_message(eight_csv, tmp_path, capsys):
    """Caps of one M and two F in every prefix pass construction but cover
    only three positions.  solve, baseline and decompose each exit 3 with
    the fill's message, the same words the library raises."""
    message = (
        "no valid ranking satisfies the bounds: "
        "no group may take position 4 without exceeding its cap"
    )
    spec = tmp_path / "tight.json"
    spec.write_text(json.dumps({"upper": {"M": [1] * 8, "F": [2] * 8}}))
    for command in ("solve", "baseline", "decompose"):
        code, payload = run_json(capsys, [
            command, "--input", eight_csv, "--constraints", str(spec),
        ])
        assert code == 3, command
        assert payload["error"] == {
            "type": "InfeasibleConstraints", "message": message,
        }, command
    # baseline fills before it builds the value model, so the infeasible
    # roster is reported ahead of the missing --k.
    code, payload = run_json(capsys, [
        "baseline", "--input", eight_csv, "--constraints", str(spec),
        "--value-fn", "top-k",
    ])
    assert code == 3


def _atoms(*pairs):
    return {"support": [{"probability": p, "ranking": list(r)} for p, r in pairs]}


def test_sample_command_draws_like_the_library(eight_csv, tmp_path, capsys):
    """``fairrank sample``, with and without ``--input``, draws what
    ``fairrank.sample`` draws from the same file and seed: on a solved file
    and on hand-written files whose atoms are not in the library's order."""
    code, solved = run_json(capsys, [
        "solve", "--input", eight_csv, "--rule", "floor-balanced",
        "--epsilon", "0.05",
    ])
    assert code == 0
    abc_csv = tmp_path / "abc.csv"
    abc_csv.write_text(ABC_CSV)
    files = {
        "solved.json": (EIGHT_CSV, eight_csv, solved),
        "ascending.json": (ABC_CSV, str(abc_csv), _atoms((0.3, "abc"), (0.7, "bac"))),
        "ties.json": (ABC_CSV, str(abc_csv), _atoms((0.5, "cba"), (0.5, "abc"))),
        "repeated.json": (
            ABC_CSV, str(abc_csv), _atoms((0.2, "bac"), (0.5, "abc"), (0.3, "bac"))
        ),
        "zero.json": (
            ABC_CSV, str(abc_csv), _atoms((0.0, "cab"), (0.4, "abc"), (0.6, "bca"))
        ),
    }
    for name, (csv_text, csv_path, data) in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        inst = parse_instance(csv_text)
        stored = distribution_from_dict(
            inst, fairrank.ValueModel.position_diff(inst), data
        )
        drawn = set()
        for seed in range(16):
            ranking = fairrank.sample(stored, seed).ids(inst)
            want = json.dumps({"ranking": list(ranking), "seed": seed}, indent=2) + "\n"
            argv = ["sample", "--distribution", str(path), "--seed", str(seed)]
            for extra in ([], ["--input", csv_path]):
                assert run(argv + extra) == 0
                assert capsys.readouterr().out == want, (name, seed, extra)
            drawn.add(ranking)
        assert len(drawn) > 1, name


def test_exit_code_for_size_guard(tmp_path, capsys):
    """Two groups of 1024: a 1025 * 1025 = 1050625-cell count-lattice
    table, past the 2**20 the exact decomposition builds."""
    rows = "".join(f"x{i:04d},{'ab'[i % 2]},{1.0 - i / 4096}\n" for i in range(2048))
    big = tmp_path / "big.csv"
    big.write_text("id,group,score\n" + rows)
    code, payload = run_json(capsys, ["decompose", "--input", str(big)])
    assert code == 4
    assert payload["error"]["type"] == "InstanceTooLarge"


def test_import_leaves_scipy_unloaded():
    """Neither the import nor a parsed roster loads scipy or numpy.ma: each
    costs a CLI process milliseconds that no command needs."""
    src = os.path.dirname(os.path.dirname(fairrank.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c",
         "import fairrank, fairrank.cli, sys; "
         "fairrank.cli.parse_instance('id,group,score\\na,M,1\\nb,F,0\\n'); "
         "assert 'scipy' not in sys.modules and 'numpy.ma' not in sys.modules"],
        env=env, check=True, timeout=60,
    )
