"""The untraced sampler's tick handler (``benchmarks/sample_profile.py``)."""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

SAMPLER = Path(__file__).resolve().parents[2] / "benchmarks" / "sample_profile.py"


def _load():
    spec = importlib.util.spec_from_file_location("sample_profile", SAMPLER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _frame(name, lineno, firstlineno, back=None):
    code = SimpleNamespace(
        co_filename="f.py", co_name=name, co_firstlineno=firstlineno
    )
    return SimpleNamespace(f_code=code, f_lineno=lineno, f_back=back)


def test_tick_on_an_instruction_without_a_line_counts_the_def_line():
    """Python 3.11 reports ``f_lineno`` None on RESUME and in generated
    ``__init__``s; stored as a key it crashed ``linecache.getline`` after
    the tables were printed."""
    on_tick = _load().on_tick
    self_n, cum_n, line_n = Counter(), Counter(), Counter()
    caller = _frame("run", 40, 30)
    on_tick(_frame("__init__", None, 2, back=caller), self_n, cum_n, line_n)
    on_tick(_frame("__init__", 3, 2, back=caller), self_n, cum_n, line_n)
    assert line_n == {("f.py", 2): 1, ("f.py", 3): 1}
    assert self_n == {("f.py", "__init__"): 2}
    assert cum_n == {("f.py", "__init__"): 2, ("f.py", "run"): 2}
