"""Every function, method and generator that bench/tracer.py wraps still exists in multinorm.

The tracer looks its targets up with getattr when a traced benchmark run
starts, so a rename in the library would otherwise surface only there.
The target tables are read from the tracer's source as literals; nothing
under bench/ is imported or written.
"""

import ast
from pathlib import Path

import multinorm as mn

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("FUNCTIONS", "METHODS", "GENERATORS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_the_tracer_tables_are_found():
    tables = _tables()
    assert set(tables) == {"FUNCTIONS", "METHODS", "GENERATORS"}
    assert all(tables.values())


def test_every_traced_function_resolves():
    for span, targets in _tables()["FUNCTIONS"].items():
        for module, attr in targets:
            assert callable(getattr(getattr(mn, module), attr, None)), (span, module, attr)


def test_every_traced_generator_resolves():
    for module, attr in _tables()["GENERATORS"]:
        assert callable(getattr(getattr(mn, module), attr, None)), (module, attr)


def test_every_traced_method_is_defined_on_its_class():
    # the tracer patches cls.__dict__[method], so the method must be the class's own, not inherited
    for span, targets in _tables()["METHODS"].items():
        for cls_name, method in targets:
            cls = getattr(mn.spaces, cls_name, None)
            assert cls is not None and callable(cls.__dict__.get(method)), (span, cls_name, method)
