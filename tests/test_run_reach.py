import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_reach.py"
spec = importlib.util.spec_from_file_location("run_reach", TOOL)
run_reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_reach)

PATH = str(run_reach.PACKAGE / "synthetic.py")
SOURCE = """\
def used():
    return 1


def unused():
    def inner():
        return 2
    return inner


class K:
    def method(self):
        return [x for x in range(3)]

    square = staticmethod(lambda x: x * x)
"""


def codes_by_name():
    module = compile(SOURCE, PATH, "exec")
    return module, dict(run_reach.functions(module))


def test_report_lists_functions_never_entered():
    module, codes = codes_by_name()
    assert sorted(codes) == ["K.<lambda>", "K.method", "unused",
                             "unused.<locals>.inner", "used"]
    entered = {run_reach.code_key(module)} | {
        run_reach.code_key(codes[name]) for name in ("used", "K.method")}
    assert run_reach.report({PATH: SOURCE}, entered) == [
        "econ/synthetic.py: 3 never entered",
        "  unused (line 5)",
        "  unused.<locals>.inner (line 6)",
        "  K.<lambda> (line 15)",
    ]


def test_report_lines_never_executed():
    module, codes = codes_by_name()
    entered = {run_reach.code_key(code) for code in codes.values()}
    executed = {PATH: run_reach.statement_lines(module) - {6, 7, 8, 13}}
    assert run_reach.report({PATH: SOURCE}, entered, executed) == [
        "econ/synthetic.py: 0 never entered",
        "  lines never executed: 6-8, 13",
    ]


def test_fully_reached_module_is_not_reported():
    module, codes = codes_by_name()
    entered = {run_reach.code_key(code) for code in codes.values()}
    assert run_reach.report({PATH: SOURCE}, entered, {PATH: run_reach.statement_lines(module)}) == []


def test_tracer_records_only_frames_under_the_package():
    module, _ = codes_by_name()
    namespace = {}
    tracer = run_reach.Tracer(str(run_reach.PACKAGE), lines=True)
    with tracer.active():
        exec(module, namespace)
        namespace["used"]()
        namespace["K"]().method()
    report = run_reach.report({PATH: SOURCE}, tracer.entered, tracer.executed)
    assert report == [
        "econ/synthetic.py: 3 never entered",
        "  unused (line 5)",
        "  unused.<locals>.inner (line 6)",
        "  K.<lambda> (line 15)",
        "  lines never executed: 6-8",
    ]
    assert all(filename == PATH for filename, _, _ in tracer.entered)
