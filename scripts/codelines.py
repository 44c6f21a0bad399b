"""Print the code lines of each src/attnseg/*.py file and their total.

A code line is a physical line that holds part of a token other than a
comment or a docstring, as the tokenize module reads the file.  A
docstring here is any string statement standing alone on its logical
line; blank lines, comment lines and the lines of such strings do not
count.  Run it from anywhere:

    python3 scripts/codelines.py
"""

import glob
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "attnseg")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of the Python file at `path`."""
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline)
                  if tok.type not in SKIP]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        docstring = (tok.type == tokenize.STRING
                     and (i == 0 or tokens[i - 1].type == tokenize.NEWLINE)
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.basename(path)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
