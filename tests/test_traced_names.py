"""The names the benchmark's tracer wraps exist in the library.

`perfbench/tracer.py` lists the library functions that `--trace 1`
wraps by module and attribute; a refactor that renames or removes one
of them makes a traced run crash.  The tracer is loaded by path and
only read, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("traced_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_routines_in_their_home_modules():
    tracer = _load_tracer()
    assert len(tracer.TRACED) == 21
    for module, attr, _ in tracer.TRACED:
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(home, cls_name)).get(meth)
            assert isinstance(fn, classmethod), attr
            fn = fn.__func__
        else:
            fn = getattr(home, attr, None)
        assert inspect.isroutine(fn), f"{module}.{attr}"
        assert fn.__module__ == home.__name__, f"{module}.{attr}"
