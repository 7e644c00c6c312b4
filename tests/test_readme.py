"""README.md's examples, run as written.

The Quick start blocks run statement by statement: an expression with a
trailing ``# value`` comment must have that repr, and a ``print`` followed
by comment lines must print exactly those lines.  Each console transcript
of ``$ sullivan ...`` commands with no elided ("...") output is replayed
in a directory holding the shipped documents it names, and its stdout is
compared byte for byte: a command's output runs to the next ``$`` line,
less the one blank line that separates them, or to the end of the block.
"""

import ast
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from test_cli_golden import run_cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def fenced_blocks(text, language=""):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    return [body for lang, body in blocks if lang == language]


def check_quick_start(source):
    """Run source; return the number of commented results it checked."""
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        trailing = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        printed = []
        for line in lines[stmt.end_lineno:]:
            if not line.startswith("# "):
                break
            printed.append(line[2:] + "\n")
        if isinstance(stmt, ast.Expr) and trailing.startswith("# "):
            assert repr(eval(code, namespace)) == trailing[2:], code
            checked += 1
        elif printed:
            with redirect_stdout(io.StringIO()) as out:
                exec(code, namespace)
            assert out.getvalue() == "".join(printed), code
            checked += 1
        else:
            exec(code, namespace)
    return checked


def test_quick_start_blocks_give_their_commented_results():
    section = README.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = fenced_blocks(section, "python")
    assert [check_quick_start(block) for block in blocks] == [1, 3]


def transcripts(text):
    """(command, expected stdout) lists of the replayable console blocks."""
    for block in fenced_blocks(text):
        parts = re.split(r"^\$ (.*)\n", block, flags=re.M)
        commands = parts[1::2]
        if not commands or "..." in block or not all(c.startswith("sullivan ") for c in commands):
            continue
        outputs = parts[2::2]
        for i, out in enumerate(outputs[:-1]):
            if out.endswith("\n\n"):  # the separating blank line
                outputs[i] = out[:-1]
        yield list(zip(commands, outputs))


def test_command_line_transcripts_replay_byte_for_byte(tmp_path):
    replayed = []
    for transcript in transcripts(README):
        for command, expected in transcript:
            argv, _, target = command.partition(" > ")
            code, out, err = run_cli(shlex.split(argv)[1:], tmp_path)
            assert (code, err) == (0, b""), command
            if target:
                (tmp_path / target).write_bytes(out)
                out = b""
            assert out.decode() == expected, command
            replayed.append(command)
    assert replayed == [
        "sullivan cohomology hp2.model --representatives",
        "sullivan cohomology hp2.model --json",
        "sullivan biquotient --config thm34.bq > thm34.model",
        "sullivan reduce thm34.model --log",
    ]
