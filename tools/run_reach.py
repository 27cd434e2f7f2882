"""List the functions under `src/econ/` that no run enters.

With `sys.settrace` and `threading.settrace`, limited to frames whose code
lives under `src/econ/`, it runs:

- `econ train` and `econ eval` at their defaults;
- `econ train --config` on a file written by `save_config`;
- `econ hier --rounds 20`;
- `econ game-lab` on every shipped game with both learners at
  `--steps 200` (a command that exits with an argparse error counts as run);
- the four demos, from a temporary working directory;
- one `perfbench/harness.py` `Session(...).round()` per workload, then
  `harness.save_checkpoints` of the last trained orchestrator.

Then, per module, it prints each function, method, lambda and closure whose
code was never entered, by qualified name and first line. `--lines` adds,
per module, every line that holds a statement and was never executed. A
line the interpreter reaches only on an exception path, such as a
`finally:` header, can be listed although its block ran.

    python3 tools/run_reach.py            # ~1 min on 2 CPUs
    python3 tools/run_reach.py --lines

A run that raises is reported on stderr with its traceback; the others
still run, and the tool exits 1. Every output file goes under a temporary
directory, and no bytecode is written. The script uses only the standard
library and numpy, and imports `econ` from the `src/` directory next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import os
import runpy
import sys
import tempfile
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "econ"
DEMOS = ("bne_oracle", "hierarchy_round", "regret_separation", "train_mock")


class Tracer:
    """Records the code objects entered, and with `lines` the lines
    executed, in frames whose file is under `prefix`."""

    def __init__(self, prefix: str, lines: bool):
        self.prefix = prefix
        self.lines = lines
        self.entered: set = set()
        self.executed: dict = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add(code_key(code))
        if not self.lines:
            return None
        hit = self.executed.setdefault(code.co_filename, set())
        hit.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self)
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def code_key(code) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_name


def functions(code, prefix: str = ""):
    """(qualified name, code) of every function compiled inside `code`:
    functions, methods, lambdas and closures, but not class bodies or
    comprehensions."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)
        name = prefix + const.co_name
        if is_function and (const.co_name == "<lambda>" or not const.co_name.startswith("<")):
            yield name, const
        yield from functions(const, name + (".<locals>." if is_function else "."))


def statement_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= statement_lines(const)
    return lines


def _ranges(lines) -> str:
    spans = []
    for _, run in itertools.groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        spans.append(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}")
    return ", ".join(spans)


def report(sources: dict, entered: set, executed: dict | None = None) -> list:
    """Report lines for modules given as {path: source}. `entered` holds the
    `code_key` of every code object a run entered; `executed`, when given,
    maps a path to the lines a run executed."""
    out = []
    for path in sorted(sources):
        module = compile(sources[path], path, "exec")
        missed = [(code.co_firstlineno, name) for name, code in functions(module)
                  if code_key(code) not in entered]
        missed_lines = set()
        if executed is not None:
            missed_lines = statement_lines(module) - executed.get(path, set())
        if not missed and not missed_lines:
            continue
        out.append(f"{os.path.relpath(path, SRC)}: {len(missed)} never entered")
        out += [f"  {name} (line {line})" for line, name in sorted(missed)]
        if missed_lines:
            out.append(f"  lines never executed: {_ranges(missed_lines)}")
    return out


def runs(tmp: Path):
    """(label, callable) for every run the trace covers."""
    from econ.cli import main as econ
    from econ.config import RunConfig, save_config
    from econ.gamelab.games import shipped_game_names

    def out(name):
        return ["--out", str(tmp / name)]

    def saved_config_train():
        path = tmp / "saved.cfg"
        save_config(RunConfig(seed=1, episodes=2), path)
        return econ(["train", "--config", str(path)] + out("train-config"))

    yield "econ train", lambda: econ(["train"] + out("train"))
    yield "econ eval", lambda: econ(["eval"] + out("eval"))
    yield "econ train --config", saved_config_train
    yield "econ hier --rounds 20", lambda: econ(["hier", "--rounds", "20"] + out("hier"))
    for game in shipped_game_names():
        for learner in ("econ", "debate"):
            argv = ["game-lab", "--game", game, "--learner", learner, "--steps", "200"]
            yield " ".join(["econ"] + argv), lambda argv=argv: econ(argv + out("gamelab"))
    for demo in DEMOS:
        path = str(ROOT / "demos" / f"{demo}.py")
        yield f"demos/{demo}.py", lambda path=path: runpy.run_path(path, run_name="__main__")

    def harness_rounds():
        sys.path.insert(0, str(ROOT / "perfbench"))
        import harness

        for shared in harness.WORKLOADS.values():
            session = harness.Session(shared, 1, harness.Problems())
            session.round()
        harness.save_checkpoints(session.last_train, str(tmp))

    yield "perfbench Session.round per workload", harness_rounds


def trace_runs(tracer: Tracer) -> bool:
    """Runs everything under `tracer` from a temporary working directory;
    False if any run raised."""
    ok = True
    cwd = os.getcwd()
    with (tempfile.TemporaryDirectory(prefix="run_reach_") as tmp,
          open(os.devnull, "w") as quiet, tracer.active()):
        os.chdir(tmp)
        try:
            for label, run in runs(Path(tmp)):
                try:
                    with contextlib.redirect_stdout(quiet):
                        run()
                except SystemExit as exc:
                    print(f"{label}: exit {exc.code}", file=sys.stderr)
                except Exception:  # report and go on, so one crash hides no other run
                    ok = False
                    print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--lines", action="store_true",
                   help="also list every statement line never executed")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    tracer = Tracer(str(PACKAGE) + os.sep, args.lines)
    ok = trace_runs(tracer)
    sources = {str(path): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    print("\n".join(report(sources, tracer.entered, tracer.executed if args.lines else None)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
