import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from attnseg import encoder, worker
from attnseg.cli import _build_parser, main
from attnseg.corpus import read_lines
from attnseg.model import Segmenter
from attnseg.train import load_model
from model_files import json_edit, rehashed_edit

TOY = os.path.join(os.path.dirname(__file__), os.pardir,
                   "src", "attnseg", "data", "toy.txt")

FAST = ["--epochs", "2", "--batch-size", "8", "--hidden", "8",
        "--emb-dim", "4", "--dropout", "0.0", "--seed", "42"]


def train_into(tmp_path, name, extra=()):
    out = str(tmp_path / name)
    rc = main(["train", "--train", TOY, "--out", out] + FAST + list(extra))
    assert rc == 0
    return out


def segment_one_char(tmp_path, model_dir, capsys):
    """(exit status, stderr) of `attnseg segment` on the line 我."""
    raw = tmp_path / "raw.txt"
    raw.write_text("我\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["segment", "--model", model_dir, "--input", str(raw)])
    return rc, capsys.readouterr().err


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


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 1.09 TiB for an array with shape "
                 "(150, 1000000001000) and data type float64"),
     "error: Unable to allocate 1.09 TiB"),
    (MemoryError(), "error: out of memory"),
])
def test_train_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch,
                                               exc, message):
    # the allocation is patched to fail, never made: a machine that
    # overcommits memory could accept a real one and then fill it
    def init_params(config, rng):
        raise exc

    monkeypatch.setattr(encoder, "init_params", init_params)
    rc = main(["train", "--train", TOY, "--dev", TOY,
               "--out", str(tmp_path / "m"), "--window", "1000000001"] + FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(message) and err.count("\n") == 1


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


def test_segment_output_scores_with_eval(tmp_path, capsys):
    # segment spells its words as the input does and splits at its
    # whitespace, so eval scores its output against gold of the same text
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("一举两得\n", encoding="utf-8")
    model_dir = train_into(tmp_path, "m", ["--lexicon", str(lexicon)])
    gold_lines = ["我们 用 iPhone 和 2024 年 的", "ＡＢＣ １２３ 中文", "",
                  "他们 一举两得 ｘｙ", "我爱 北京"]
    raw_lines = ["\ufeff我们用iPhone和2024年 的", "ＡＢＣ１２３\u3000中文", "",
                 "他们一举两得ｘｙ", "我爱\u2028北京"]
    gold, raw, pred = (tmp_path / name for name in ("gold.txt", "raw.txt",
                                                    "pred.txt"))
    gold.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    raw.write_text("\n".join(raw_lines) + "\n", encoding="utf-8")
    assert main(["segment", "--model", model_dir, "--input", str(raw),
                 "--output", str(pred)]) == 0
    out_lines = pred.read_text(encoding="utf-8").split("\n")
    assert ["".join(line.split()) for line in out_lines] == \
        ["".join(line.split()) for line in gold_lines] + [""]
    capsys.readouterr()
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    out, err = capsys.readouterr()
    assert re.match(r"^p=\d\.\d{4} r=\d\.\d{4} f1=\d\.\d{4}$", out.strip())
    assert err == ""


def write_vectors(path, dim, tokens="我们北京"):
    """An embeddings file with one row of `dim` values per token."""
    rows = [f"{tok} " + " ".join(f"{0.01 * (i + j):.2f}" for j in range(dim))
            for i, tok in enumerate(tokens)]
    path.write_text("\n".join([f"{len(rows)} {dim}"] + rows) + "\n",
                    encoding="utf-8")


def test_train_from_embeddings_file(tmp_path):
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, 4)
    plain = load_model(train_into(tmp_path, "plain"))
    seeded = load_model(train_into(tmp_path, "seeded",
                                   ["--embeddings", str(vectors)]))
    assert seeded.vocab.id_to_token == plain.vocab.id_to_token
    assert not np.array_equal(seeded.params["emb.uni"], plain.params["emb.uni"])


def test_train_embeddings_of_another_dim_is_one_error(tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, 3)
    capsys.readouterr()
    rc = main(["train", "--train", TOY, "--dev", TOY, "--out",
               str(tmp_path / "m"), "--embeddings", str(vectors)] + FAST)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ", 3)" in err and ", 4)" in err
    assert not (tmp_path / "m").exists()


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

    def third_line_not_utf8(raw):
        lines = raw.split(b"\n")
        lines[2] = b"\xff"
        return b"\n".join(lines)

    rehashed_edit(model_dir, name, third_line_not_utf8)
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert f"error: {bad}: line 3: not valid UTF-8" in err


def test_segment_to_stdout(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    raw = tmp_path / "raw.txt"
    raw.write_text("我爱北京\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["segment", "--model", model_dir, "--input", str(raw)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.strip().replace(" ", "") == "我爱北京"


def test_segment_writes_each_line_once_around_a_forked_decode(tmp_path):
    # the first long line's decode forks the decode worker while earlier
    # lines wait in the output buffer; the worker must never flush its
    # copy of it, to a pipe or to a file, nor when it is stopped at exit
    model_dir = train_into(tmp_path, "m")
    with open(TOY, encoding="utf-8") as fh:
        text = "".join(fh.read().split())
    long_line = text[:worker.FORK_MIN_TOKENS + 10]
    lines = ["我们", long_line, "北京", long_line[:5], long_line]
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = load_model(model_dir)
    want = "".join(" ".join(model.segment(line)) + "\n" for line in lines)
    src = os.path.dirname(os.path.dirname(os.path.abspath(encoder.__file__)))
    command = [sys.executable, "-c",
               "import sys; from attnseg.cli import main; sys.exit(main())",
               "segment", "--model", model_dir, "--input", str(raw)]
    # with PYTHONUNBUFFERED set, nothing would wait in stdout's buffer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    piped = subprocess.run(command, env=env, stdout=subprocess.PIPE, check=True)
    assert piped.stdout.decode("utf-8") == want
    out = tmp_path / "seg.txt"
    written = subprocess.run(command + ["--output", str(out)], env=env,
                             stdout=subprocess.PIPE, check=True)
    assert written.stdout == b""
    assert out.read_text(encoding="utf-8") == want


def test_segment_rejects_unknown_model_version(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    rehashed_edit(model_dir, "model.json", lambda raw: raw.replace(
        b"attnseg-model/2", b"attnseg-model/9"))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc != 0
    assert "format" in err


def test_segment_rejects_incomplete_model(tmp_path, capsys):
    # params.bin without its last tensor, crf.trans: 6 x 6 binary32 values
    model_dir = train_into(tmp_path, "m")
    rehashed_edit(model_dir, "params.bin", lambda raw: raw[:-4 * 36])
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert "error:" in err


def config_edit(name, value):
    """A model.json edit setting config field `name` to `value`."""
    def edit(meta):
        meta["config"][name] = value
        return meta
    return json_edit(edit)


def test_segment_rejects_mistyped_config(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    rehashed_edit(model_dir, "model.json", config_edit("hidden", "4"))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert "error:" in err and "hidden" in err


def test_segment_rejects_config_int_past_float_range(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")
    rehashed_edit(model_dir, "model.json", config_edit("learning_rate", 10 ** 400))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert "error:" in err and "learning_rate" in err


def test_segment_rejects_window_past_any_params_size(tmp_path, capsys):
    # the size check counts in Python ints: an int64 product overflowed
    model_dir = train_into(tmp_path, "m")
    rehashed_edit(model_dir, "model.json", config_edit("window", 10 ** 30 + 1))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert err.startswith("error:") and "params.bin holds" in err


@pytest.mark.parametrize("name", ["model.json", "vocab.txt", "bigrams.txt",
                                  "lexicon.txt", "params.bin"])
def test_segment_names_missing_listed_file(tmp_path, capsys, name):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("一举两得\n", encoding="utf-8")
    model_dir = train_into(tmp_path, "m", ["--bigrams", "--lexicon", str(lexicon)])
    os.remove(os.path.join(model_dir, name))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert err.startswith("error:") and os.path.join(model_dir, name) in err


def test_segment_refuses_format_1_directory(tmp_path, capsys):
    # format 1: model.json names attnseg-model/1 and manifest.json holds
    # per-tensor entries and the sha256 of params.bin only
    model_dir = train_into(tmp_path, "m")
    model = load_model(model_dir)
    rehashed_edit(model_dir, "model.json", lambda raw: raw.replace(
        b"attnseg-model/2", b"attnseg-model/1"))
    entries, offset = [], 0
    for name, p in model.params.items():
        entries.append({"name": name, "shape": list(p.shape), "offset": offset})
        offset += 4 * p.size
    payload = open(os.path.join(model_dir, "params.bin"), "rb").read()
    manifest = {"params": entries, "sha256": hashlib.sha256(payload).hexdigest()}
    with open(os.path.join(model_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "attnseg-model/2" in err


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
    assert "error: sentence 1: texts differ at character 1" in captured.err


@pytest.mark.parametrize("gold_line, pred_line, rc, out, err", [
    # Latin and digit runs are compared character by character
    ("我 爱 Apple 2024 年", "我 爱 Banana 1999 年", 1, "",
     "error: sentence 1: texts differ at character 3: gold 'A', prediction 'B'\n"),
    ("我 ab cd", "我 abc d", 0, "p=0.3333 r=0.3333 f1=0.3333\n", ""),
    # a boundary inside a Latin run, as gold has it and segment does not
    ("我们 去 New York", "我们 去 NewYork", 0,
     "p=0.6667 r=0.5000 f1=0.5714\n", ""),
    # an idiom is its four characters
    ("一举 两得", "一举两得", 0, "p=0.0000 r=0.0000 f1=0.0000\n", ""),
])
def test_eval_matches_words_as_character_spans(tmp_path, capsys, gold_line,
                                               pred_line, rc, out, err):
    gold = tmp_path / "gold.txt"
    gold.write_text(gold_line + "\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text(pred_line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == rc
    assert capsys.readouterr() == (out, err)


def test_eval_takes_only_gold_and_pred(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--lexicon", "x", "--gold", "g", "--pred", "p"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lexicon x" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    flags = re.findall(r"--[a-z-]+", capsys.readouterr().out)
    assert sorted(set(flags)) == ["--gold", "--help", "--pred"]


def test_segment_rejects_model_json_without_config(tmp_path, capsys):
    model_dir = train_into(tmp_path, "m")

    def no_config(meta):
        del meta["config"]
        return meta

    rehashed_edit(model_dir, "model.json", json_edit(no_config))
    rc, err = segment_one_char(tmp_path, model_dir, capsys)
    assert rc == 1
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


def test_gradcheck_corrupt_hook_fails(monkeypatch):
    # one output-bias coordinate of the analytic gradient is off by 0.5
    loss_and_grads = Segmenter.loss_and_grads

    def bent(self, *args, **kwargs):
        loss, grads = loss_and_grads(self, *args, **kwargs)
        grads["out.b"][0] += 0.5
        return loss, grads

    monkeypatch.setattr(Segmenter, "loss_and_grads", bent)
    assert main(["gradcheck", "--seed", "1"]) == 1
