"""The lines of src/fblab that the benchmark's traffic never runs.

    python3 tests/traffic_lines.py [SEED ...]

For each seed given (default 1) it runs one round of the in-process
`norm`, `oracle` and `sections` workloads (perfbench/workloads.py) and
every `cli` command of the seed through cli.run, in this process, under
sys.settrace.  Then it prints, per function of src/fblab, the lines that
never ran: one line for a function never called, and each line that never
ran in a function that was.  A function's lines are those of the
interpreter's line table (code.co_lines), with its comprehensions and
lambdas folded in, so a branch inside one line, such as one side of a
conditional expression, counts as run when its line runs.  It imports
perfbench's modules and changes none of them.  pytest does not collect
it; seeds 1-3 take about 3 s.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402
from fblab import cli  # noqa: E402

SRC = Path(cli.__file__).parent
IN_PROCESS = ("norm", "oracle", "sections")


def traffic(seeds, outdir) -> list:
    """Run the rounds and the commands; the problems they met."""
    problems = []
    for seed in seeds:
        for name in IN_PROCESS:
            ctx = run.Context(outdir)
            workloads.ROUNDS[name](run.build_inputs(name, seed, outdir), ctx)
            problems += [f"seed {seed} {name}: failed operation: {e}" for e in ctx.errors]
        for cmd in run.build_inputs("cli", seed, outdir):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(list(cmd.argv))
            if code:
                problems.append(f"seed {seed} cli: fblab {cmd.argv[0]} exited {code}")
    return problems


def traced(fn, files):
    """fn's result and the set of (file, line) it ran in the files; a
    call counts as running the function's first line."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        ran.add((code.co_filename, code.co_firstlineno))
        return local

    sys.settrace(call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return result, ran


def functions(path) -> dict:
    """(qualname, first line) -> the lines of every function in the file,
    comprehensions and lambdas folded into the function around them."""
    out = {}

    def walk(code, owner):
        for c in code.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            if owner is not None and c.co_name.startswith("<"):
                key = owner
            elif c.co_flags & inspect.CO_NEWLOCALS:
                key = (c.co_qualname, c.co_firstlineno)
                out[key] = set()
            else:  # a class body
                key = None
            if key is not None:
                out[key] |= {line for _, _, line in c.co_lines() if line is not None}
            walk(c, key)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def report(ran) -> None:
    never_called = missed_lines = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for (qualname, first), lines in sorted(functions(path).items(), key=lambda kv: kv[0][1]):
            name = f"{path.stem}.{qualname}"
            if (str(path), first) not in ran:
                never_called += 1
                print(f"{name}: never called ({len(lines)} lines from line {first})")
                continue
            missed = sorted(ln for ln in lines if (str(path), ln) not in ran)
            missed_lines += len(missed)
            if missed:
                print(f"{name}: {len(missed)} of {len(lines)} lines never ran")
                for ln in missed:
                    print(f"  {path.name}:{ln}  {text[ln - 1].strip()}")
    print(f"{never_called} functions never called; {missed_lines} lines never ran "
          "in the functions that were")


def main() -> int:
    seeds = [int(a) for a in sys.argv[1:]] or [1]
    files = {str(p) for p in SRC.glob("*.py")}
    with tempfile.TemporaryDirectory() as tmp:
        problems, ran = traced(lambda: traffic(seeds, Path(tmp)), files)
    for line in problems:
        print(line)
    report(ran)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
