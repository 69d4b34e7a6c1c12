"""Every name a driftmon module imports is used in that module, every
module-level UPPER_CASE constant is read somewhere in the package, and
every private function or method is referenced somewhere in the package.

The package ``__init__`` re-exports names, so it is left out of the import
check.
"""

import ast
from pathlib import Path

import pytest

from driftmon.cdm import CdmMonitor, Monitor
from driftmon.ecdd import EcddMonitor

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "driftmon"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "json", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(trees) -> set[str]:
    """Every name loaded, and every attribute accessed, in ``trees``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names that no module of ``sources`` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{name}.{t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper() and t.id not in read]
    return sorted(unread)


def test_detects_an_unread_constant():
    sources = {"a": "LIMIT = 1\nSPARE: int = 2\nlower = 3\nprint(LIMIT)\n",
               "b": "import a\nBLOCK = STEP = 4\nprint(a.BLOCK)\n"}
    assert unread_constants(sources) == ["a.SPARE", "b.STEP"]


def test_package_reads_every_constant():
    assert unread_constants(package_sources()) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Functions and methods named ``_x`` (dunders aside) that no module of
    ``sources`` references by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    return sorted(
        f"{name}.{node.name}" for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in read)


def test_detects_an_unreferenced_private_function():
    sources = {"a": "def _used():\n    pass\n\ndef _spare():\n    pass\n\n"
                    "class C:\n    def __init__(self):\n        self._step()\n\n"
                    "    def _step(self):\n        pass\n\n    def _left(self):\n"
                    "        pass\n",
               "b": "import a\na._used()\n"}
    assert unreferenced_private_functions(sources) == ["a._left", "a._spare"]


def test_package_references_every_private_function():
    assert unreferenced_private_functions(package_sources()) == []


# each detector module's kernels, which no other module may call: the
# batch engine and calibration step a detector through its one loop
ONE_LOOP = {"qt_ewma": {"ewma_step", "fires"},
            "ecdd": {"_fold", "_rate", "_ramp", "ECDD_BLOCK"}}


def one_loop_offenders(sources: dict[str, str]) -> list[str]:
    """Modules that import, call or read a ``ONE_LOOP`` kernel of another module."""
    offenders = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        for owner, kernels in ONE_LOOP.items():
            if name != owner and kernels & (names_read([tree]) | imported):
                offenders.add(name)
    return sorted(offenders)


def test_detects_a_second_qt_ewma_loop():
    sources = {"qt_ewma": "def fires():\n    pass\n\nfires()\n",
               "engine": "from .qt_ewma import ewma_step, fires\n",
               "calibration": "from . import qt_ewma\nqt_ewma.fires\n",
               "ecdd": "def ecdd_fires():\n    pass\n\necdd_fires()\n"}
    assert one_loop_offenders(sources) == ["calibration", "engine"]


def test_detects_a_second_ecdd_loop():
    sources = {"ecdd": "ECDD_BLOCK = 1\n\ndef _fold():\n    pass\n\n_fold()\n",
               "engine": "from .ecdd import ECDD_BLOCK, ecdd_fires\n",
               "calibration": "from . import ecdd\necdd._rate\n",
               "bench": "from .ecdd import ecdd_blocks, ecdd_fires\necdd_blocks()\n",
               "qt_ewma": "def _ramp():\n    pass\n"}
    assert one_loop_offenders(sources) == ["calibration", "engine"]


def test_only_qt_ewma_steps_the_recursion():
    # calibration, replay and the batch engine step QT-EWMA through
    # qt_ewma.lockstep, and ECDD through ecdd.ecdd_blocks
    assert one_loop_offenders(package_sources()) == []


# the per-row calls of a monitor: every monitor derives them from its own
# process_batch through cdm.Monitor, the only class that defines them
ONE_MONITOR = {"process", "process_unlabeled"}


def monitor_interface_offenders(sources: dict[str, str]) -> list[str]:
    """Classes other than ``cdm.Monitor`` that define a ``ONE_MONITOR`` name,
    as a method or a class attribute."""
    offenders = []
    for name, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or (name, cls.name) == ("cdm", "Monitor"):
                continue
            defined = {node.name for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            defined |= {target.id for node in cls.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)}
            if defined & ONE_MONITOR:
                offenders.append(f"{name}.{cls.name}")
    return sorted(offenders)


def test_detects_a_second_monitor_interface():
    sources = {"cdm": "class Monitor:\n    def process(self):\n        pass\n\n"
                      "    def process_unlabeled(self):\n        pass\n\n\n"
                      "class CdmMonitor(Monitor):\n    def process_batch(self):\n"
                      "        pass\n",
               "ecdd": "class EcddMonitor:\n    def process_unlabeled(self):\n        pass\n\n\n"
                       "class Alias:\n    process = print\n",
               "bench": "class Monitor:\n    async def process(self):\n        pass\n"}
    assert monitor_interface_offenders(sources) == [
        "bench.Monitor", "ecdd.Alias", "ecdd.EcddMonitor"]


def test_only_cdm_monitor_defines_the_per_row_calls():
    assert monitor_interface_offenders(package_sources()) == []
    for name in ONE_MONITOR:  # and both monitors inherit them
        assert name in vars(Monitor)
        assert getattr(CdmMonitor, name) is getattr(EcddMonitor, name) is vars(Monitor)[name]
