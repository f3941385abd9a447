"""The ROADMAP's design aims that `scripts/code_stats.py` measures, held in
the suite: one source protocol, so no module of the package branches on a
source's class.  (The one power-tail rule is held by
`TestTailIntegralTrims` in test_stable_core.py.)"""

import importlib.util
import os

import stablerd

PKG = os.path.dirname(os.path.abspath(stablerd.__file__))
CODE_STATS = os.path.join(os.path.dirname(os.path.dirname(PKG)), "scripts", "code_stats.py")


def _code_stats():
    spec = importlib.util.spec_from_file_location("code_stats", CODE_STATS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_isinstance_check_on_a_source_class():
    code_stats = _code_stats()
    modules = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert "quantizer.py" in modules and "strength.py" in modules
    checks = {name: list(code_stats.source_class_checks(os.path.join(PKG, name)))
              for name in modules}
    assert checks == {name: [] for name in modules}
