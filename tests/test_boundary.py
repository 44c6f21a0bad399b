"""The command-line boundary: whatever files `attnseg segment` and
`attnseg eval` are given, a run ends with exit status 0 and its output,
or with exit status 1 and exactly one `error:` line on stderr, never
with an exception.

The cases are seeded and random: a small saved model with one file
corrupted (byte flips, truncation, duplicated or deleted bytes, a
deleted file, JSON values of other types, deep nesting), with the
manifest re-hashed half of the time so the checks behind the checksums
see the change; and random text for segment and eval.  Model dimensions
stay tiny and no case asks numpy for a large array.
"""

import json
import os
import random

import pytest

from attnseg.cli import main
from model_files import rehashed_edit

TOY = os.path.join(os.path.dirname(__file__), os.pardir,
                   "src", "attnseg", "data", "toy.txt")

MODEL_FILES = ("model.json", "vocab.txt", "bigrams.txt", "lexicon.txt",
               "params.bin", "manifest.json")

JSON_VALUES = (None, True, False, 0, -1, 2, 10 ** 30 + 1, 10 ** 400, 1e308,
               -0.5, float("nan"), "", "4", "attnseg-model/2", [], [3],
               {}, {"hidden": 8})

TEXT_PIECES = (
    [chr(c) for c in range(0x4E00, 0x4E40)]           # Han
    + list("我们喜欢学习中文北京一举两得")              # Han the toy model knows
    + list("abcXYZ019 .,;'-")                           # ASCII
    + [chr(c) for c in range(0xFF01, 0xFF5F, 7)]       # fullwidth forms
    + ["\x00", "\x01", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x7f",
       "\x85", "\u2028", "\u3000", "\ufeff"]            # controls, separators
    + ["\u0301", "\u0308", "\u20dd"]                    # combining marks
    + ["<ENG>", "<NUM>", "<IDIOM>", "<PAD>", "<UNK>", "\U0001F600"]
)


def check_run(argv, capsys, case, lines=None):
    """Run `attnseg argv` and return its exit status; a successful
    segment run prints `lines` lines."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except Exception as exc:
        pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    out, err = capsys.readouterr()
    if rc == 0:
        assert out and "error:" not in err, case
        if lines is not None:
            assert out.count("\n") == lines, case
    else:
        assert rc == 1, case
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    return rc


def corrupt_bytes(rng, raw):
    """`raw` with a flipped bit, cut short, or a span duplicated or deleted."""
    i, j = sorted(rng.randrange(len(raw) + 1) for _ in range(2))
    kind = rng.choice(("flip", "truncate", "duplicate", "delete"))
    if kind == "flip" and raw:
        at = rng.randrange(len(raw))
        return raw[:at] + bytes([raw[at] ^ 1 << rng.randrange(8)]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:i]
    if kind == "duplicate":
        return raw[:j] + raw[i:j] + raw[j:]
    return raw[:i] + raw[j:]


def retyped_json(rng, raw):
    """The JSON in `raw` with one value, at its top level or in its
    config, replaced by a value of another type, or the file replaced by
    deeply nested brackets."""
    if rng.random() < 0.1:
        return rng.choice((b"[", b'{"a":')) * rng.choice((100, 200000))
    data = json.loads(raw)
    target = data["config"] if "config" in data and rng.random() < 0.7 else data
    target[rng.choice(sorted(target))] = rng.choice(JSON_VALUES)
    return json.dumps(data).encode("utf-8")


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The bytes of each file of a tiny saved model with bigrams and a
    lexicon."""
    tmp = tmp_path_factory.mktemp("boundary")
    lexicon = tmp / "lexicon.txt"
    lexicon.write_text("一举两得\n喜欢学习\n", encoding="utf-8")
    out = str(tmp / "m")
    assert main(["train", "--train", TOY, "--out", out, "--epochs", "1",
                 "--batch-size", "8", "--hidden", "4", "--emb-dim", "2",
                 "--bigrams", "--lexicon", str(lexicon)]) == 0
    files = {}
    for name in MODEL_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_segment_with_corrupted_model_ends_in_output_or_one_error(
        tmp_path, capsys, saved_model):
    rng = random.Random(1601)
    raw_input = tmp_path / "input.txt"
    raw_input.write_text("中国一举两得\n我们喜欢学习abc123\n\n", encoding="utf-8")
    model_dir = tmp_path / "m"
    model_dir.mkdir()
    for case in range(300):
        for name, raw in saved_model.items():
            (model_dir / name).write_bytes(raw)
        name = rng.choice(MODEL_FILES)
        path = model_dir / name
        if rng.random() < 0.05:
            os.remove(path)
        else:
            corrupt = corrupt_bytes
            if name.endswith(".json") and rng.random() < 0.5:
                corrupt = retyped_json
            if name != "manifest.json" and rng.random() < 0.5:
                rehashed_edit(str(model_dir), name, lambda raw: corrupt(rng, raw))
            else:
                path.write_bytes(corrupt(rng, path.read_bytes()))
        check_run(["segment", "--model", str(model_dir), "--input",
                   str(raw_input)], capsys, f"case {case}: {name}", lines=3)


def resplit(rng, line):
    """The characters of `line` but its whitespace, split at random."""
    return "".join(ch + rng.choice(("", " ")) for ch in "".join(line.split()))


def changed_character(rng, lines):
    """`lines` with one character that is not whitespace replaced by
    another."""
    at = [(i, j) for i, line in enumerate(lines)
          for j, ch in enumerate(line) if not ch.isspace()]
    i, j = rng.choice(at)
    other = rng.choice([p for p in TEXT_PIECES if len(p) == 1
                        and not p.isspace() and p != lines[i][j]])
    return lines[:i] + [lines[i][:j] + other + lines[i][j + 1:]] + lines[i + 1:]


def random_text(rng, length):
    return "".join(rng.choice(TEXT_PIECES) for _ in range(length))


def encoded(rng, lines):
    """UTF-8 bytes of the lines, now and then with a byte that is not."""
    raw = "".join(line + "\n" for line in lines).encode("utf-8")
    if rng.random() < 0.05:
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def test_segment_and_eval_on_random_text_end_in_output_or_one_error(
        tmp_path, capsys, saved_model):
    rng = random.Random(1602)
    model_dir = tmp_path / "m"
    model_dir.mkdir()
    for name, raw in saved_model.items():
        (model_dir / name).write_bytes(raw)
    text, gold, pred = (tmp_path / name for name in
                        ("text.txt", "gold.txt", "pred.txt"))
    for case in range(150):
        lines = [random_text(rng, rng.randrange(12))
                 for _ in range(rng.randrange(1, 4))]
        raw = encoded(rng, lines)
        text.write_bytes(raw)
        check_run(["segment", "--model", str(model_dir), "--input", str(text)],
                  capsys, f"segment case {case}: {lines!r}",
                  lines=raw.count(b"\n"))
    for case in range(150):
        words = [[random_text(rng, rng.randrange(1, 4))
                  for _ in range(rng.randrange(1, 5))]
                 for _ in range(rng.randrange(1, 4))]
        gold.write_bytes(encoded(rng, [" ".join(line) for line in words]))
        # the same text split elsewhere, so that scoring is reached, or
        # now and then with one character changed, so that it is refused
        pred_lines = [resplit(rng, " ".join(line)) for line in words]
        changed = rng.random() < 0.3 and any(map(str.split, pred_lines))
        if changed:
            pred_lines = changed_character(rng, pred_lines)
        pred.write_bytes(encoded(rng, pred_lines))
        rc = check_run(["eval", "--gold", str(gold), "--pred", str(pred)],
                       capsys, f"eval case {case}: {words!r} {pred_lines!r}")
        if changed:
            assert rc == 1, (case, words, pred_lines)
