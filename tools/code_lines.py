"""Count the code lines of each src/coulomb1d module: lines that hold a
token other than a comment, not blank and not inside a docstring.

Run from the repository root: ``python tools/code_lines.py [SRC_DIR]``.
A folder that holds no ``*.py`` files, a checkout root say, is refused
with exit status 1, so that two counts are never 0 against 0.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

folder = Path(sys.argv[1] if len(sys.argv) > 1 else "src/coulomb1d")
paths = sorted(folder.glob("*.py"))
if not paths:
    sys.exit(f"{folder} holds no *.py files: give a package folder, such as "
             "CHECKOUT/src/coulomb1d")
total = 0
for path in paths:
    source = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as fh:
        lines = {n for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP
                 for n in range(tok.start[0], tok.end[0] + 1)} - docs
    total += len(lines)
    print(f"{len(lines):6d}  {path.name}")
print(f"{total:6d}  total")
