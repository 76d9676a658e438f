import json
import random

import pytest

from tcamsplit.cli import main
from tcamsplit.core import sample_partition

REMARK3_W10 = (
    "0000000000 2\n*000***000 1\n**000***** 2\n00******** 2\n********** 1\n"
)
THM8 = "**000 2\n00*** 2\n***** 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_compile_json_bytes(capsys):
    table = {
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
    code, out, _ = run_cli(capsys, "compile", "--weights", "5,1,2", "--format", "json")
    assert code == 0 and out == json.dumps(table, indent=2) + "\n"
    table["sequence"] = [
        {"src": 2, "level": 0, "size": 1, "dst": 1},
        {"src": 3, "level": 1, "size": 2, "dst": 1},
        {"src": 1, "level": 3, "size": 8, "dst": 0},
    ]
    code, out, _ = run_cli(
        capsys, "compile", "--weights", "5,1,2", "--format", "json", "--emit-sequence"
    )
    assert code == 0 and out == json.dumps(table, indent=2) + "\n"


def test_compile_bad_input_exit_1(capsys):
    code, _, err = run_cli(capsys, "compile", "--weights", "5,1,1", "--width", "3")
    assert code == 1 and "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--no-such-flag"])
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
    code, _, err = run_cli(capsys, "rw", "--p", "2/3", "--n", "1")
    assert code == 1


def test_game_command(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--strategy", "opt", "--m", "256", "--seed", "1",
        "--format", "json",
    )
    obj = json.loads(out)
    assert code == 0 and obj["turns"] > 0 and 1 <= obj["mean_gain"] <= 6


def test_sample_command(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--k", "3", "--width", "16", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "k,W,trials,mean_lambda_per_kw,se,mean_lb_ratio,mean_ub_ratio"
    assert row.startswith("3,16,50,")


def test_normalize_command(capsys, tmp_path):
    f = tmp_path / "counts.txt"
    f.write_text("1\n1\n1\n")
    code, out, _ = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", "8")
    assert code == 0 and out.strip().splitlines() == ["width=8", "86,85,85"]


@pytest.mark.parametrize(
    "counts, multiple",
    [("1\n1\n1\n", "0"), ("inf\n3\n", "8"), ("nan\n3\n", "8"), ("1e308\n1e308\n", "8")],
    ids=["multiple-0", "inf", "nan", "huge"],
)
def test_normalize_rejects(capsys, tmp_path, counts, multiple):
    f = tmp_path / "counts.txt"
    f.write_text(counts)
    code, out, err = run_cli(capsys, "normalize", "--counts", str(f), "--multiple", multiple)
    assert code == 1 and out == "" and err.startswith("error:")
