import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from support import REMARK3_W10, THM8
from tcamsplit.cli import main
from tcamsplit.core import MAX_TARGET, new_partition, sample_partition
from tcamsplit.errors import TcamSplitError
from tcamsplit.matcher import min_rules
from tcamsplit.signed import lpm_bounds
from tcamsplit.tcam import evaluate_table, synthesize_lpm, table_from_text, table_to_text
from tcamsplit.worstcase import gen_general_hard, gen_k3, gen_triplets


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the weights printed by worstcase --kind general --k 12 --width 100
GENERAL_K12_W100 = ",".join(
    ["52818775009509558395695966891", "105637550019019116791391933781"] * 4
    + ["132046937523773895989239917227", "184865712533283454384935884117"] * 2
)
TABLE_512 = "010 2\n00* 3\n*** 1\n# lambda=3 lpm_lower=3 lpm_upper=3"
JSON_512 = {
    "width": 3,
    "rules": [
        {"pattern": "010", "target": 2},
        {"pattern": "00*", "target": 3},
        {"pattern": "***", "target": 1},
    ],
    "lambda": 3,
    "lpm_lower": 3,
    "lpm_upper": 3,
}
SEQUENCE_512 = "2 1 1\n3 2 1\n1 8 0"
SEQUENCE_512_JSON = (
    '[{"src": 2, "level": 0, "size": 1, "dst": 1}, {"src": 3, "level": 1, "size": 2, "dst": 1}, '
    '{"src": 1, "level": 3, "size": 8, "dst": 0}]'
)

# Every byte-pinned CLI output, id -> (argv, stdin, stdout less its final
# newline).  " | " in argv pipes each command's stdout into the next one's stdin.
PINS = {
    # README's example
    "compile": ("compile --weights 5,1,2 --width 3", "", TABLE_512),
    "compile-emit-sequence": (
        "compile --weights 5,1,2 --emit-sequence", "",
        TABLE_512 + "\n# tx 2 1 1\n# tx 3 2 1\n# tx 1 8 0",
    ),
    # bit_matcher's level order: at level 0 weight 1 has no bits above it and
    # 5 a 0 next; 3,3,1,1 tie in pairs, so the lower index donates
    "compile-1,5,2,8": (
        "compile --weights 1,5,2,8 --width 4", "",
        "0010 1\n000* 3\n0*** 2\n**** 4\n# lambda=4 lpm_lower=3 lpm_upper=4",
    ),
    "compile-3,3,1,1,8-emit-sequence": (
        "compile --weights 3,3,1,1,8 --width 4 --emit-sequence", "",
        "0000 3\n0100 4\n00** 1\n0*** 2\n**** 5\n# lambda=5 lpm_lower=4 lpm_upper=6\n"
        "# tx 3 1 1\n# tx 4 1 2\n# tx 1 4 2\n# tx 2 8 5\n# tx 5 16 0",
    ),
    "compile-json": ("compile --weights 5,1,2 --format json", "", json.dumps(JSON_512, indent=2)),
    "compile-json-emit-sequence": (
        "compile --weights 5,1,2 --width 3 --emit-sequence --format json", "",
        json.dumps({**JSON_512, "sequence": json.loads(SEQUENCE_512_JSON)}, indent=2),
    ),
    # compile's tables read back through verify's checked reader
    "compile-verify-341,683": (
        "compile --weights 341,683 --width 10 | verify --rules - --format csv", "", "341,683",
    ),
    "worstcase-general-k12-w100": (
        "worstcase --kind general --k 12 --width 100", "", GENERAL_K12_W100 + " lambda=300",
    ),
    "compile-verify-general-k12-w100": (
        f"compile --weights {GENERAL_K12_W100} --width 100 | verify --rules - --format csv", "",
        GENERAL_K12_W100,
    ),
    # a width-0 table's lines are the target alone, read back with --width 0
    "compile-verify-width-0": (
        "compile --weights 1 --width 0 | verify --rules - --width 0 --format csv", "", "1",
    ),
    "sequence-bm": ("sequence --weights 5,1,2 --width 3 --matcher bm", "", SEQUENCE_512),
    "sequence-anchor": ("sequence --weights 5,1,2 --width 3 --matcher anchor", "", SEQUENCE_512),
    "sequence-bm-json": (
        "sequence --weights 5,1,2 --width 3 --matcher bm --format json", "", SEQUENCE_512_JSON,
    ),
    "sequence-anchor-json": (
        "sequence --weights 5,1,2 --width 3 --matcher anchor --format json", "", SEQUENCE_512_JSON,
    ),
    "sequence-sm": ("sequence --weights 5,1,2 --width 3 --matcher sm", "", "1 1 0\n2 1 0\n3 2 0\n1 4 0"),
    "sequence-sm-json": (
        "sequence --weights 5,1,2 --width 3 --matcher sm --format json", "",
        '[{"src": 1, "level": 0, "size": 1, "dst": 0}, {"src": 2, "level": 0, "size": 1, "dst": 0}, '
        '{"src": 3, "level": 1, "size": 2, "dst": 0}, {"src": 1, "level": 2, "size": 4, "dst": 0}]',
    ),
    # -1 digits (3 = 4 - 1, 7 = 8 - 1, 9 = 8 + 1) and digits at level W (7 at W=3)
    "sequence-sm-3,5,7,9,8": (
        "sequence --weights 3,5,7,9,8 --width 5 --matcher sm", "",
        "2 1 1\n4 1 3\n1 4 0\n2 4 0\n3 8 0\n4 8 0\n5 8 0",
    ),
    "sequence-anchor-3,5,7,9,8": (
        "sequence --weights 3,5,7,9,8 --width 5 --matcher anchor", "",
        "2 1 1\n1 1 3\n4 1 1\n2 4 1\n3 8 1\n4 8 1\n5 8 1\n1 32 0",
    ),
    "sequence-sm-7,1": ("sequence --weights 7,1 --width 3 --matcher sm", "", "2 1 1\n1 8 0"),
    "sequence-anchor-7,1": ("sequence --weights 7,1 --width 3 --matcher anchor", "", "2 1 1\n1 8 0"),
    # a seeded random_matcher: its moves differ from bm's
    "sequence-rm-seed-2": (
        "sequence --weights 3,5,7,9,8 --width 5 --matcher rm --seed 2", "",
        "2 1 3\n4 1 1\n2 4 1\n1 8 5\n3 8 4\n4 16 5\n5 32 0",
    ),
    "bounds": (
        "bounds --weights 5,1,2 --width 3", "",
        "trivial_lower=3\nlpm_lower=3\nlpm_upper=3\ngeneral_lower=3\n"
        "worstcase_cap=6\nlambda=3\nphi_total=4\nphi_max=2",
    ),
    "bounds-json": (
        "bounds --weights 5,1,2 --width 3 --format json", "",
        '{"trivial_lower": 3, "lpm_lower": 3, "lpm_upper": 3, "general_lower": 3, '
        '"worstcase_cap": 6, "lambda": 3, "phi_total": 4, "phi_max": 2}',
    ),
    # one part: no worst-case cap, and the general lower bound is 1
    "bounds-one-part": (
        "bounds --weights 8 --width 3", "",
        "trivial_lower=1\nlpm_lower=1\nlpm_upper=1\ngeneral_lower=1\n"
        "worstcase_cap=None\nlambda=1\nphi_total=1\nphi_max=1",
    ),
    "bounds-one-part-json": (
        "bounds --weights 8 --width 3 --format json", "",
        '{"trivial_lower": 1, "lpm_lower": 1, "lpm_upper": 1, "general_lower": 1, '
        '"worstcase_cap": null, "lambda": 1, "phi_total": 1, "phi_max": 1}',
    ),
    "bounds-json-683,341": (
        "bounds --weights 683,341 --width 10 --format json", "",
        '{"trivial_lower": 2, "lpm_lower": 6, "lpm_upper": 6, "general_lower": 4, '
        '"worstcase_cap": 7, "lambda": 6, "phi_total": 11, "phi_max": 6}',
    ),
    "sample-k3-w100": (
        "sample --k 3 --width 100 --trials 50 --seed 7", "",
        "k,W,trials,mean_lambda_per_kw,se,mean_lb_ratio,mean_ub_ratio\n"
        "3,100,50,0.189733,0.001288,0.901755,1.159459",
    ),
    "normalize-json-stdin": (
        "normalize --counts - --format json", "3\n1\n", '{"width": 8, "weights": [192, 64]}',
    ),
}


@pytest.mark.parametrize("argv, stdin, out", PINS.values(), ids=list(PINS))
def test_pinned_output(capsys, monkeypatch, argv, stdin, out):
    code, text, err = 0, stdin, ""
    for command in argv.split(" | "):
        assert (code, err) == (0, "")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, text, err = run_cli(capsys, *command.split())
    assert (code, text, err) == (0, out + "\n", "")


def test_compile_trivial(capsys):
    code, out, _ = run_cli(capsys, "compile", "--weights", "8", "--width", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "*** 1"
    assert lines[1] == "# lambda=1 lpm_lower=1 lpm_upper=1"


def test_compile_three_rules(capsys):
    code, out, _ = run_cli(capsys, "compile", "--weights", "5,1,2", "--width", "3")
    assert code == 0
    rules = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rules) == 3
    code, out, _ = run_cli(capsys, "compile", "--weights", "341,683", "--width", "10")
    rules = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rules) == 6


def test_compile_json_and_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "compile", "--weights", "5,1,2", "--format", "json", "--emit-sequence"
    )
    obj = json.loads(out)
    assert obj["lambda"] == 3 and len(obj["rules"]) == 3
    assert obj["sequence"][-1] == {"src": 1, "level": 3, "size": 8, "dst": 0}


@st.composite
def compile_partitions(draw):
    """Uniform partitions up to W=100 and the worst-case families."""
    width = draw(st.integers(0, 100))
    gen = draw(st.sampled_from([sample_partition, gen_k3, gen_triplets, gen_general_hard]))
    try:
        if gen is sample_partition:
            k = draw(st.integers(1, min(60, 1 << width)))
            return sample_partition(k, width, random.Random(draw(st.integers(0, 2**32))))
        return gen(width) if gen is gen_k3 else gen(draw(st.integers(4, 60)), width)
    except TcamSplitError:  # too narrow for the family
        reject()


@settings(max_examples=150, deadline=None)
@given(compile_partitions())
@example(new_partition([1], 0))
def test_compile_output_reads_back(p):
    # compile renders its rows without building a RuleTable, so read its text
    # back through the checked reader
    argv = ["compile", "--weights", ",".join(map(str, p.weights)), "--width", str(p.width)]
    text, js = io.StringIO(), io.StringIO()
    with redirect_stdout(text):
        assert main(argv) == 0
    with redirect_stdout(js):
        assert main(argv + ["--format", "json"]) == 0
    table = table_from_text(text.getvalue(), p.width)
    assert evaluate_table(table) == [0, *p.weights]
    assert len(table) == min_rules(p)
    # compile's rows and the RuleTable of the same moves render byte for byte alike
    lo, hi = lpm_bounds(p)
    footer = f"# lambda={len(table)} lpm_lower={lo} lpm_upper={hi}"
    assert text.getvalue() == f"{table_to_text(synthesize_lpm(p))}\n{footer}\n"
    rules = json.loads(js.getvalue())["rules"]
    assert [f"{r['pattern']} {r['target']}" for r in rules] == text.getvalue().splitlines()[:-1]


def test_compile_bad_input_exit_1(capsys):
    code, _, err = run_cli(capsys, "compile", "--weights", "5,1,1", "--width", "3")
    assert code == 1 and "error" in err


def test_compile_inferred_width_needs_power_of_two_sum(capsys):
    # the sum must equal 2**width, so no explicit width can help: no such hint
    code, out, err = run_cli(capsys, "compile", "--weights", "3,2")
    assert (code, out, err) == (1, "", "error: sum 5 is not a power of two\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["rw", "--p", "1/6", "--n", "3", "--format", "json"],
     ["bounds", "--weights", "5,1,2", "--format", "csv"]],
    ids=["rw-has-no-format", "bounds-has-no-csv"],
)
def test_unrendered_format_exit_2(capsys, argv):
    # these used to print the plain value, or key=value lines, under json/csv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--weights", "683,341", "--width", "10")
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert fields["general_lower"] == "4" and fields["lambda"] == "6"
    code, out, _ = run_cli(capsys, "bounds", "--weights", "15,4,45", "--width", "6")
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert fields["lpm_lower"] == fields["lpm_upper"] == fields["lambda"] == "4"
    code, out, _ = run_cli(capsys, "bounds", "--weights", "16", "--width", "4")
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert fields["lpm_lower"] == fields["lpm_upper"] == fields["lambda"] == "1"


def test_verify(capsys, tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text(REMARK3_W10)
    code, out, _ = run_cli(capsys, "verify", "--rules", str(f), "--format", "csv")
    assert code == 0 and out.strip() == "683,341"
    f.write_text(THM8)
    code, out, _ = run_cli(capsys, "verify", "--rules", str(f))
    assert out.strip().splitlines() == ["1 21", "2 11"]
    f.write_text("**** 1\n")
    code, out, _ = run_cli(capsys, "verify", "--rules", str(f), "--format", "csv")
    assert out.strip() == "16"


def test_verify_rejects_negative_target(capsys, tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("1* -1\n** 1\n")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert code == 1 and out == "" and err.startswith("error:")


def test_verify_rejects_overwide_table(capsys, tmp_path):
    f = tmp_path / "rules.txt"
    f.write_text("1" + "*" * 199 + " 1\n" + "*" * 200 + " 2\n")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert code == 1 and out == "" and err.startswith("error:")


def test_verify_rejects_table_too_large_to_evaluate(capsys, tmp_path):
    # 21 general rules at width 25: neither inclusion-exclusion nor enumeration
    f = tmp_path / "rules.txt"
    f.write_text("".join("*" * i + "1" + "*" * (24 - i) + " 1\n" for i in range(21)))
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert code == 1 and out == ""
    assert err == "error: 21 general rules at width 25\n"


def test_verify_single_bit_rules_past_ie_limit(capsys, tmp_path):
    # 25 general rules at width 24: read by owner sets, not refused
    f = tmp_path / "rules.txt"
    rules = "".join("*" * (23 - b) + "1" + "*" * b + " 1\n" for b in range(24))
    f.write_text(rules + "*" * 24 + " 2\n")
    code, out, _ = run_cli(capsys, "verify", "--rules", str(f))
    assert code == 0 and out.splitlines() == ["1 16777215", "2 1"]


def test_compile_verify_pipeline(capsys, tmp_path):
    rng = random.Random(77)
    for _ in range(100):
        k = rng.randrange(1, 9)
        w = rng.randrange(4, 21)
        p = sample_partition(k, w, rng)
        weights = ",".join(str(x) for x in p.weights)
        table_file = tmp_path / "t.txt"
        code, out, _ = run_cli(
            capsys, "compile", "--weights", weights, "--width", str(w),
            "--out", str(table_file),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", "--rules", str(table_file), "--format", "csv"
        )
        assert code == 0 and out.strip() == weights


def test_sequence_command(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--weights", "5,1,2", "--width", "3")
    assert code == 0 and out.strip().splitlines()[-1] == "1 8 0"
    code, out, _ = run_cli(
        capsys, "sequence", "--weights", "5,1,2", "--matcher", "anchor"
    )
    assert code == 0
    # random matcher refuses to run unseeded
    code, _, err = run_cli(capsys, "sequence", "--weights", "5,1,2", "--matcher", "rm")
    assert code == 1 and "seed" in err
    code, out, _ = run_cli(
        capsys, "sequence", "--weights", "5,1,2", "--matcher", "rm", "--seed", "3"
    )
    assert code == 0


@pytest.mark.parametrize("weights", ["1,,1", "1,1,", ",2", ""])
@pytest.mark.parametrize("cmd", ["bounds", "sequence", "compile"])
def test_empty_weight_field_exit_1(capsys, cmd, weights):
    # "1,,1" and "1,1," gave a 2-part answer and exit 0
    code, out, err = run_cli(capsys, cmd, "--weights", weights)
    assert (code, out) == (1, "") and err.startswith("error: empty field ")


def test_worstcase_command(capsys):
    code, out, _ = run_cli(capsys, "worstcase", "--kind", "k3", "--width", "4")
    assert code == 0 and out.strip() == "5,5,6 lambda=5"
    code, out, _ = run_cli(capsys, "worstcase", "--kind", "k2", "--width", "10")
    assert out.strip() == "341,683 lambda=6"
    code, out, _ = run_cli(
        capsys, "worstcase", "--kind", "general", "--width", "7", "--k", "5",
        "--format", "json",
    )
    assert json.loads(out)["weights"] == [11, 21, 27, 27, 42]


@pytest.mark.parametrize("kind", ["triplets", "general"])
def test_worstcase_needs_k(capsys, kind):
    code, out, err = run_cli(capsys, "worstcase", "--kind", kind, "--width", "8")
    assert code == 1 and out == "" and err.startswith("error:") and "--k" in err


def test_rw_command(capsys):
    code, out, _ = run_cli(capsys, "rw", "--p", "1/6", "--n", "0")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "rw", "--p", "1/6", "--n", "1")
    assert out.strip() == "1/3"


@pytest.mark.parametrize(
    "p, got",
    [("2/3", "p=2/3"),
     ("1e9999", "p with a 33216-bit numerator and a 1-bit denominator"),
     ("-1e-9999", "p with a 1-bit numerator and a 33216-bit denominator")],
    ids=["2/3", "1e9999", "-1e-9999"],
)
def test_rw_p_out_of_range_names_value_or_bit_lengths(capsys, p, got):
    # 1e9999 passes the exponent guard; printing all of its digits failed
    # int-to-str conversion's 4300-digit limit
    err = f"error: need 0 <= 2p <= 1, got {got}\n"
    assert run_cli(capsys, "rw", f"--p={p}", "--n", "1") == (1, "", err)


def test_game_command(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--strategy", "opt", "--m", "256", "--seed", "1",
        "--format", "json",
    )
    obj = json.loads(out)
    assert code == 0 and obj["turns"] > 0 and 1 <= obj["mean_gain"] <= 6


@pytest.mark.parametrize("m", ["131073", "1000000000000"])
def test_game_refuses_huge_m(capsys, m):
    # m had no cap: 10**12 ended in an OverflowError traceback
    code, out, err = run_cli(capsys, "game", "--strategy", "opt", "--m", m, "--seed", "1")
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


def test_compile_emit_sequence_matches_sequence_command(capsys):
    rng = random.Random(23)
    parts = [gen_k3(40), gen_triplets(37, 100), gen_general_hard(100, 100)]
    for k in (1, 2, 3, 5, 16, 37, 100):
        for width in (max(0, (k - 1).bit_length()), 8, 33, 100, 128):
            parts.append(sample_partition(k, width, rng))
    for p in parts:
        argv = ["--weights", ",".join(map(str, p.weights)), "--width", str(p.width)]
        code, plain, _ = run_cli(capsys, "compile", *argv)
        assert code == 0
        plain = plain.splitlines()
        emitted = run_cli(capsys, "compile", *argv, "--emit-sequence")[1].splitlines()
        assert emitted[:len(plain)] == plain
        txs = emitted[len(plain):]
        assert all(line.startswith("# tx ") for line in txs)
        sequence = run_cli(capsys, "sequence", *argv, "--matcher", "bm")[1].splitlines()
        assert [line.removeprefix("# tx ") for line in txs] == sequence


def test_sample_command(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--k", "3", "--width", "16", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "k,W,trials,mean_lambda_per_kw,se,mean_lb_ratio,mean_ub_ratio"
    assert row.startswith("3,16,50,")
    argv = ("sample", "--k", "3", "--width", "16", "--trials", "50", "--seed", "7")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, out, "")
    # a width outside 0..128 used to fail untyped ("negative shift count") or run
    code, out, err = run_cli(capsys, "sample", "--k", "3", "--width", "-1", "--trials", "1", "--seed", "7")
    assert code == 1 and out == "" and err == "error: width -1 outside 0..128\n"
    # k * width == 0 used to end in a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, "sample", "--k", "1", "--width", "0", "--trials", "1", "--seed", "7")
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--weights", "5,1,2", "--emit-sequence"],
        ["bounds", "--weights", "683,341", "--format", "json"],
        ["verify", "--rules", "RULES", "--format", "csv"],
        ["sequence", "--weights", "5,1,2", "--matcher", "rm", "--seed", "3"],
        ["sample", "--k", "3", "--width", "16", "--trials", "5", "--seed", "7"],
        ["worstcase", "--kind", "k3", "--width", "4", "--format", "json"],
        ["normalize", "--counts", "COUNTS"],
        ["rw", "--p", "1/6", "--n", "5"],
        ["game", "--strategy", "mix", "--m", "64", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_writes_stdout_bytes(capsys, tmp_path, argv):
    (tmp_path / "rules.txt").write_text(THM8)
    (tmp_path / "counts.txt").write_text("1\n2\n3\n")
    paths = {"RULES": str(tmp_path / "rules.txt"), "COUNTS": str(tmp_path / "counts.txt")}
    argv = [paths.get(a, a) for a in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 0 and stdout and err == ""
    out = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == stdout.encode()
    for bad in (str(tmp_path / "no-dir" / "out.txt"), ""):  # "" once printed to stdout
        code, stdout, err = run_cli(capsys, *argv, "--out", bad)
        assert code == 1 and stdout == "" and err.startswith("error:") and err.count("\n") == 1


def test_normalize_command(capsys, tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("1\n1\n1\n")
    code, out, _ = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", "8")
    assert code == 0 and out.strip().splitlines() == ["width=8", "86,85,85"]


@pytest.mark.parametrize(
    "counts, multiple",
    [("1\n1\n1\n", "0"), ("inf\n3\n", "8"), ("nan\n3\n", "8"), ("1e308\n1e308\n", "8"),
     ("1\n2\n", "2000"), ("1\n2\n", "10" * 10)],
    ids=["multiple-0", "inf", "nan", "huge", "multiple-2000", "multiple-10e19"],
)
def test_normalize_rejects(capsys, tmp_path, counts, multiple):
    f = tmp_path / "counts.txt"
    f.write_text(counts)
    code, out, err = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", multiple)
    assert code == 1 and out == "" and err.startswith("error:")


def test_normalize_zero_count_names_line(capsys, tmp_path):
    # the zero used to be dropped, so "3,5" came out as targets 1 and 2
    f = tmp_path / "counts.txt"
    f.write_text("0\n3\n5\n")
    code, out, err = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", "3")
    assert code == 1 and out == "" and err.startswith("error: line 1:")


def test_normalize_wide_width(capsys, tmp_path):
    # float scaling refused these counts with BadSum from width 55
    f = tmp_path / "counts.txt"
    f.write_text("1\n2\n")
    code, out, _ = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", "60")
    assert code == 0 and out == "width=60\n384307168202282325,768614336404564651\n"


@pytest.mark.parametrize("line", ["01", "01 1 2", "01 x", "01 1.5"])
def test_verify_names_malformed_line(capsys, tmp_path, line):
    # a missing target used to print "not enough values to unpack (expected 2, got 1)"
    f = tmp_path / "rules.txt"
    f.write_text(f"# header\n\n{line}  # comment\n** 1\n")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: line 3: expected '<pattern> <target>', got {line!r}\n"


def test_verify_hints_width_zero(capsys, tmp_path):
    # a width-0 rule prints as its target alone, which reads back only with --width 0
    f = tmp_path / "rules.txt"
    code, out, _ = run_cli(capsys, "compile", "--weights", "1", "--width", "0", "--out", str(f))
    assert (code, out) == (0, "")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert (code, out) == (1, "")
    assert err == ("error: line 1: expected '<pattern> <target>', got '1'"
                   " (a width-0 table reads with --width 0)\n")
    assert run_cli(capsys, "verify", "--rules", str(f), "--width", "0") == (0, "1 1\n", "")


@pytest.mark.parametrize(
    "argv, text, message",
    [(("verify", "--rules"), "0x 1\n** 1\n", "line 1: bad pattern character 'x'"),
     (("normalize", "--counts"), "# counts\n3\nabc\n",
      "line 3: could not convert string to float: 'abc'")],
    ids=["pattern", "count"],
)
def test_bad_line_names_its_number(capsys, tmp_path, argv, text, message):
    # without the line number a long input gives no way to find the bad line
    f = tmp_path / "input.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(f))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, stdin, start",
    [(("verify", "--rules", "-"), "** " + "1" * 5001, "error: line 1: expected '<pattern> <target>'"),
     (("normalize", "--counts", "-"), "x" * 5001, "error: line 1: could not convert string")],
    ids=["rule", "count"],
)
def test_long_bad_line_is_cut_in_the_error(capsys, monkeypatch, argv, stdin, start):
    # the whole 5001-character line used to be quoted in the message
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin + "\n"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(start) and "..." in err
    assert err.count("\n") == 1 and len(err) < 150


RW_DIGITS = "--p needs numbers of at most 4300 digits and exponents of at most 4"


@pytest.mark.parametrize(
    "argv, message",
    [(("compile", "--weights", "1" * 5001), "weight field 1 has 5001 digits, 2**128 has 39"),
     (("bounds", "--weights", "5," + "0" * 50 + "3", "--width", "3"), None),
     (("bounds", "--weights", "5," + "0" * 5000 + "3", "--width", "3"), None),
     (("compile", "--weights", "5,+" + "0" * 5000 + "1" * 40, "--width", "3"),
      "weight field 2 has 40 digits, 2**128 has 39"),
     (("compile", "--weights", "4," + "4" * 4000, "--width", "3"),
      "weight field 2 has 4000 digits, 2**128 has 39"),
     (("rw", "--p", "1" * 5001, "--n", "1"), RW_DIGITS),
     (("rw", "--p", "1/" + "1" * 5001, "--n", "1"), RW_DIGITS),
     (("rw", "--p", "0." + "1_" * 4400 + "1", "--n", "1"), RW_DIGITS)],
    ids=["weight", "leading-zeros", "leading-zeros-5000", "leading-zeros-5000-then-40",
         "weight-4000", "p", "p-denominator", "p-underscores"],
)
def test_over_long_numbers_refused_by_digit_count(capsys, argv, message):
    # int() refused these with Python's 4300-digit message; a 4000-digit weight
    # was read and then refused with all of its digits in the sum
    code, out, err = run_cli(capsys, *argv)
    if message is None:  # leading zeros are not digits of the weight, nor int()'s
        assert (code, out, err) == run_cli(capsys, "bounds", "--weights", "5,3", "--width", "3")
        assert code == 0
    else:
        assert (code, out, err) == (1, "", f"error: {message}\n") and len(err) < 150


@pytest.mark.parametrize("argv", [
    ("worstcase", "--kind", "general", "--width", "128"),
    ("worstcase", "--kind", "triplets", "--width", "128"),
    ("sample", "--width", "128", "--trials", "1", "--seed", "1"),
])
def test_k_above_max_target_refused_at_once(capsys, argv):
    # k-element lists and a k-element rejection set were built uncapped:
    # worstcase --kind general --k 100000000 --width 128 exhausted memory
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--k", str(MAX_TARGET + 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: k={MAX_TARGET + 1} above {MAX_TARGET}\n"


def test_verify_rejects_huge_target(capsys, tmp_path):
    # counts are indexed by target: 10**12 used to end in a MemoryError
    f = tmp_path / "rules.txt"
    f.write_text("1* 1000000000000\n** 1\n")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert code == 1 and out == "" and err.startswith("error:")
    f.write_text(f"** {MAX_TARGET + 1}\n")
    code, out, err = run_cli(capsys, "verify", "--rules", str(f))
    assert (code, out, err) == (1, "", "error: target 1048577 above 1048576\n")


@pytest.mark.parametrize("p, bits", [("1e-999", 3319), ("1e-5000", 16610)])
def test_rw_too_large_names_denominator_bit_length(capsys, p, bits):
    # 1e-5000 passes the exponent guard; its message printed the whole
    # denominator and so failed int-to-str conversion's 4300-digit limit
    code, out, err = run_cli(capsys, "rw", "--p", p, "--n", "3")
    assert (code, out) == (1, "") and err.endswith(f"got n=3, a {bits}-bit denominator\n")
    assert err.startswith("error: exact rw needs") and len(err) < 150


@pytest.mark.parametrize(
    "p, n", [("1/0", "3"), ("0/0", "3"), ("1e-99999", "3"), ("1E+123456789", "3"), ("1/6", "201")]
)
def test_rw_rejects(capsys, p, n):
    # ZeroDivisionError tracebacks, a DP over a 332 000-bit denominator, a parse
    # that hung building 10**123456789, and a step count above the exact cap
    code, out, err = run_cli(capsys, "rw", "--p", p, "--n", n)
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


# --- fuzz: every text gets exit 0, 1 or 2, never a traceback ---------------

def _exit_code(argv, stdin=""):
    """main's exit code, with argparse's usage exit as 2; any other exception
    escapes and fails the test.  An exit 1 prints one `error:` line only."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    return code


_NUMBER_CHARS = "0123456789+-./eE_ x"
_int_texts = st.one_of(
    st.integers(-3, 48), st.integers(-(10**30), 10**30)
).map(str) | st.text(_NUMBER_CHARS, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(-3, 10**6), st.integers(-3, 10**6)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(_NUMBER_CHARS, max_size=12),
        st.text(max_size=8),
    ),
    _int_texts,
)
def test_fuzz_rw(p, n):
    _exit_code(["rw", f"--p={p}", f"--n={n}"])


@pytest.mark.parametrize(
    "argv",
    [
        ["rw", "--p=0/1", "--n=--"],
        ["compile", "--weights=--"],
        ["sample", "--k=--", "--width=3", "--trials=1", "--seed=1"],
    ],
)
def test_option_value_double_dash(argv):
    # CPython 3.11's argparse parsed --opt=-- as [], which reached the command
    # and ended in a TypeError traceback
    assert _exit_code(argv) != 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.integers(-5, 10**40).map(str),
            st.text(_NUMBER_CHARS + "#", max_size=8),
        ),
        max_size=20,
    ),
    _int_texts,
)
def test_fuzz_normalize(lines, multiple):
    _exit_code(["normalize", "--counts", "-", f"--multiple={multiple}"], "\n".join(lines))


@st.composite
def rule_texts(draw):
    width = draw(st.integers(0, 8))
    pattern = st.text("01*", min_size=width, max_size=width) | st.text("01*x ", max_size=10)
    target = st.integers(-2, 20).map(str) | _int_texts
    lines = draw(st.lists(st.tuples(pattern, target), max_size=24))
    return "\n".join(f"{pat} {tgt}" for pat, tgt in lines)


@settings(max_examples=200, deadline=None)
@given(rule_texts(), st.none() | _int_texts, st.sampled_from(["table", "json", "csv"]))
def test_fuzz_verify(rules, width, fmt):
    argv = ["verify", "--rules", "-", f"--format={fmt}"]
    if width is not None:
        argv.append(f"--width={width}")
    _exit_code(argv, rules)


_junk_weights = st.lists(
    st.integers(-2, 20).map(str) | st.text(_NUMBER_CHARS, max_size=4), max_size=6
).map(",".join)
# junk alone is almost never a partition, so draw valid ones too (sum <= 16)
_partition_weights = st.builds(
    lambda w, k, seed: sample_partition(min(k, 1 << w), w, random.Random(seed)).weights,
    st.integers(0, 4), st.integers(1, 6), st.integers(0, 99),
).map(lambda ws: ",".join(map(str, ws)))
_weight_texts = _junk_weights | _partition_weights
_widths = st.none() | st.integers(-2, 12)
_formats = st.sampled_from(["table", "json", "csv"])


def _opt(flag, value):
    return [] if value is None else [f"{flag}={value}"]


@settings(max_examples=200, deadline=None)
@given(_weight_texts, _widths, _formats, st.booleans())
def test_fuzz_compile(weights, width, fmt, emit_sequence):
    argv = ["compile", f"--weights={weights}", f"--format={fmt}", *_opt("--width", width)]
    _exit_code(argv + ["--emit-sequence"] * emit_sequence)


@settings(max_examples=200, deadline=None)
@given(_weight_texts, _widths, _formats)
def test_fuzz_bounds(weights, width, fmt):
    _exit_code(["bounds", f"--weights={weights}", f"--format={fmt}", *_opt("--width", width)])


@settings(max_examples=200, deadline=None)
@given(
    _weight_texts,
    _widths,
    _formats,
    st.sampled_from(["bm", "rm", "sm", "anchor"]),
    st.none() | st.integers(-2, 20),
)
def test_fuzz_sequence(weights, width, fmt, matcher, seed):
    argv = ["sequence", f"--weights={weights}", f"--format={fmt}", f"--matcher={matcher}"]
    _exit_code(argv + _opt("--width", width) + _opt("--seed", seed))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["k2", "k3", "triplets", "general"]),
    st.integers(-2, 40),
    st.none() | st.integers(-2, 30),
    _formats,
)
def test_fuzz_worstcase(kind, width, k, fmt):
    argv = ["worstcase", f"--kind={kind}", f"--width={width}", f"--format={fmt}"]
    _exit_code(argv + _opt("--k", k))


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 6), st.integers(-2, 12), st.integers(-1, 5), st.integers(0, 20), _formats)
def test_fuzz_sample(k, width, trials, seed, fmt):
    argv = ["sample", f"--k={k}", f"--width={width}", f"--trials={trials}", f"--seed={seed}"]
    _exit_code(argv + [f"--format={fmt}"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["opt", "rnd", "mix"]), st.integers(-2, 256), st.integers(0, 20), _formats)
def test_fuzz_game(strategy, m, seed, fmt):
    _exit_code(["game", f"--strategy={strategy}", f"--m={m}", f"--seed={seed}", f"--format={fmt}"])
