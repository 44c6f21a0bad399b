import json
import os
import re

import pytest

from attnseg.cli import _build_parser, main
from attnseg.corpus import read_lines

TOY = os.path.join(os.path.dirname(__file__), os.pardir,
                   "src", "attnseg", "data", "toy.txt")

FAST = ["--epochs", "2", "--batch-size", "8", "--hidden", "8",
        "--emb-dim", "4", "--dropout", "0.0", "--seed", "42"]


def train_into(tmp_path, name, extra=()):
    out = str(tmp_path / name)
    rc = main(["train", "--train", TOY, "--out", out] + FAST + list(extra))
    assert rc == 0
    return out


def test_parser_defaults_match_stated_values():
    args = _build_parser().parse_args(["train", "--train", "x", "--out", "y"])
    assert args.batch_size == 50
    assert args.hidden == 150
    assert args.emb_dim == 100
    assert args.dropout == 0.2
    assert args.window == 3
    assert args.seed == 42
    assert args.extra_layers == 0


def test_seed_only_on_train_and_gradcheck():
    parser = _build_parser()
    assert parser.parse_args(["train", "--train", "x", "--out", "y",
                              "--seed", "7"]).seed == 7
    assert parser.parse_args(["gradcheck"]).seed == 42
    assert parser.parse_args(["gradcheck", "--seed", "7"]).seed == 7
    # segment and eval draw no random numbers, so they take no seed
    for argv in (["segment", "--model", "m", "--input", "i"],
                 ["eval", "--gold", "g", "--pred", "p"]):
        assert "seed" not in vars(parser.parse_args(argv))
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--seed", "42"])


def test_train_writes_model_and_epoch_lines(tmp_path, capsys):
    out = train_into(tmp_path, "m")
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.splitlines() if l.startswith("epoch=")]
    assert len(lines) == 2
    pat = re.compile(r"^epoch=\d+ nll=\d+\.\d{6} p=\d\.\d{4} "
                     r"r=\d\.\d{4} f1=\d\.\d{4}$")
    for line in lines:
        assert pat.match(line), line
    for name in ("model.json", "vocab.txt", "params.bin", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))


def test_train_announces_split_when_no_dev(tmp_path, capsys):
    train_into(tmp_path, "m")
    err = capsys.readouterr().err
    assert "90/10" in err


def test_train_twice_is_byte_identical(tmp_path):
    a = train_into(tmp_path, "a")
    b = train_into(tmp_path, "b")
    blob_a = open(os.path.join(a, "params.bin"), "rb").read()
    blob_b = open(os.path.join(b, "params.bin"), "rb").read()
    assert blob_a == blob_b


def test_train_missing_file_fails_with_message(tmp_path, capsys):
    rc = main(["train", "--train", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "m")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_segment_conserves_characters(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    capsys.readouterr()
    raw = tmp_path / "raw.txt"
    # the toy corpus's sentences with their spaces taken out
    gold_lines = ["".join(line.split()) for line in read_lines(TOY) if line.strip()]
    raw.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    out_file = tmp_path / "seg.txt"
    rc = main(["segment", "--model", model_dir, "--input", str(raw),
               "--output", str(out_file)])
    assert rc == 0
    out_lines = out_file.read_text(encoding="utf-8").splitlines()
    assert len(out_lines) == len(gold_lines)
    for got, src in zip(out_lines, gold_lines):
        assert got.replace(" ", "") == src


def test_segment_empty_line_stays_empty(tmp_path):
    model_dir = train_into(tmp_path, "m")
    raw = tmp_path / "raw.txt"
    raw.write_text("我爱北京\n\n我爱北京\n", encoding="utf-8")
    out_file = tmp_path / "seg.txt"
    assert main(["segment", "--model", model_dir, "--input", str(raw),
                 "--output", str(out_file)]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1] == ""
    assert lines[0] == lines[2]


def test_segment_splits_lines_on_newline_only(tmp_path):
    # U+2028 and U+0085 are line breaks to str.splitlines, not to a file
    model_dir = train_into(tmp_path, "m")
    raw = tmp_path / "raw.txt"
    raw.write_text("我爱\u2028北京\n北京\u0085我爱\n", encoding="utf-8")
    out_file = tmp_path / "seg.txt"
    assert main(["segment", "--model", model_dir, "--input", str(raw),
                 "--output", str(out_file)]) == 0
    out = out_file.read_text(encoding="utf-8")
    assert out.count("\n") == 2
    assert out.endswith("\n")


@pytest.mark.parametrize("flag", ["--lexicon", "--embeddings", "--input"])
def test_input_not_utf8_names_file_and_line(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 3\n\xff\n")
    if flag == "--input":
        argv = ["segment", "--model", train_into(tmp_path, "m"), flag, str(bad)]
    else:
        argv = ["train", "--train", TOY, "--out", str(tmp_path / "out"),
                flag, str(bad)] + FAST
    capsys.readouterr()
    assert main(argv) == 1
    assert f"error: {bad}: line 2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("name, extra", [("vocab.txt", []),
                                         ("bigrams.txt", ["--bigrams"])])
def test_model_vocab_not_utf8_names_file_and_line(tmp_path, capsys, name, extra):
    model_dir = train_into(tmp_path, "m", extra)
    bad = os.path.join(model_dir, name)
    lines = open(bad, "rb").read().split(b"\n")
    lines[2] = b"\xff"
    open(bad, "wb").write(b"\n".join(lines))
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["segment", "--model", model_dir, "--input", str(raw)]) == 1
    assert f"error: {bad}: line 3: not valid UTF-8" in capsys.readouterr().err


def test_segment_to_stdout(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    raw = tmp_path / "raw.txt"
    raw.write_text("我爱北京\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["segment", "--model", model_dir, "--input", str(raw)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.strip().replace(" ", "") == "我爱北京"


def test_segment_rejects_unknown_model_version(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    meta = os.path.join(model_dir, "model.json")
    text = open(meta, encoding="utf-8").read()
    open(meta, "w", encoding="utf-8").write(
        text.replace("attnseg-model/1", "attnseg-model/9")
    )
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    assert rc != 0
    assert "format" in capsys.readouterr().err


def test_segment_rejects_incomplete_model(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    manifest_path = os.path.join(model_dir, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest["params"] = [e for e in manifest["params"] if e["name"] != "out.b"]
    json.dump(manifest, open(manifest_path, "w"))
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_segment_rejects_mistyped_config(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    meta_path = os.path.join(model_dir, "model.json")
    meta = json.load(open(meta_path, encoding="utf-8"))
    meta["config"]["hidden"] = "4"
    json.dump(meta, open(meta_path, "w", encoding="utf-8"))
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "hidden" in err


def test_segment_rejects_config_int_past_float_range(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    meta_path = os.path.join(model_dir, "model.json")
    meta = json.load(open(meta_path, encoding="utf-8"))
    meta["config"]["learning_rate"] = 10 ** 400
    json.dump(meta, open(meta_path, "w", encoding="utf-8"))
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "learning_rate" in err


def test_segment_drops_leading_byte_order_mark(tmp_path):
    model_dir = train_into(tmp_path, "m")
    raw = tmp_path / "raw.txt"
    raw.write_text("\ufeff我爱北京\n我爱北京\n", encoding="utf-8")
    out_file = tmp_path / "seg.txt"
    assert main(["segment", "--model", model_dir, "--input", str(raw),
                 "--output", str(out_file)]) == 0
    first, second = out_file.read_text(encoding="utf-8").split("\n")[:2]
    assert first == second
    assert first.replace(" ", "") == "我爱北京"


def test_eval_prints_four_decimals(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("你 好吗\n北京\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("你 好 吗\n北京\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "p=0.5000 r=0.6667 f1=0.5714"


def test_eval_perfect_score(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("你 好吗\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(gold)]) == 0
    assert capsys.readouterr().out.strip() == "p=1.0000 r=1.0000 f1=1.0000"


def test_eval_mismatched_files_fail(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("你 好\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("你 好 吗\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) != 0
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_prediction_of_other_text(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("我们 是\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("你们 去\n", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sentence 1: texts differ at token 1" in captured.err


def test_segment_rejects_model_json_without_config(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    meta_path = os.path.join(model_dir, "model.json")
    meta = json.load(open(meta_path, encoding="utf-8"))
    del meta["config"]
    json.dump(meta, open(meta_path, "w", encoding="utf-8"))
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "model.json" in err and "'config'" in err


def test_gradcheck_passes_and_prints_error(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert re.match(r"^max_rel_err=\d\.\d{6}e[+-]\d{2}$", out.strip())


def test_gradcheck_deterministic(capsys):
    main(["gradcheck", "--seed", "1"])
    first = capsys.readouterr().out
    main(["gradcheck", "--seed", "1"])
    second = capsys.readouterr().out
    assert first == second


def test_gradcheck_corrupt_hook_fails(capsys):
    assert main(["gradcheck", "--seed", "1", "--corrupt"]) == 1
