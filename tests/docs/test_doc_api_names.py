"""Kernel API names quoted in the docs must exist.

Every backticked ``Simulator.x``, ``SimState.x``, ``Component.x`` and
``BatchSimulator.x`` in ``docs/*.md`` has to resolve to an attribute: a
class attribute (method, property, class-level field) or an instance
attribute that ``__init__`` assigns.  The perfbench metric names written
as ``comp.<Class>.<metric>`` are not API references and are skipped.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path
from typing import List, Set, Tuple

import pytest

from repro.sim import BatchSimulator, Component, SimState, Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CLASSES = {cls.__name__: cls for cls in (Simulator, SimState, Component, BatchSimulator)}

_CODE_SPAN = re.compile(r"(`+)(.+?)\1", re.DOTALL)
_REFERENCE = re.compile(r"(?<!\w)(?<!comp\.)(" + "|".join(CLASSES) + r")\.([A-Za-z_]\w*)")


def _init_attributes(cls: type) -> Set[str]:
    """Names ``cls.__init__`` assigns on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def _resolves(cls: type, name: str) -> bool:
    return hasattr(cls, name) or name in _init_attributes(cls)


def stale_references(text: str) -> List[Tuple[str, str]]:
    """``(class, attribute)`` pairs quoted in ``text``'s code spans that do not resolve."""
    stale = []
    for span in _CODE_SPAN.finditer(text):
        for match in _REFERENCE.finditer(span.group(2)):
            class_name, name = match.groups()
            if not _resolves(CLASSES[class_name], name):
                stale.append((class_name, name))
    return stale


def _docs() -> List[Path]:
    return sorted((REPO_ROOT / "docs").glob("*.md"))


class TestDocApiNames:
    def test_docs_exist(self):
        assert _docs(), "no docs/*.md found — repository layout changed?"

    @pytest.mark.parametrize("doc", _docs(), ids=lambda path: path.name)
    def test_every_quoted_kernel_name_resolves(self, doc):
        assert stale_references(doc.read_text(encoding="utf-8")) == []

    def test_resolves_class_and_init_attributes(self):
        text = "`Simulator.step`, `SimState.polling`, `BatchSimulator.rounds`, `Component.sync`"
        assert stale_references(text) == []

    def test_catches_a_deleted_name(self):
        text = "every component runs on one clock domain (`Simulator.default_domain`)"
        assert stale_references(text) == [("Simulator", "default_domain")]

    def test_catches_names_inside_fenced_blocks_and_longer_spans(self):
        text = "```python\nsimulator = Simulator()\nSimState.missing.advance()\n```\n``Component.missing``"
        assert stale_references(text) == [("SimState", "missing"), ("Component", "missing")]

    def test_skips_perfbench_metric_names_and_prose(self):
        text = "`comp.Component.tick_s` and `comp.Simulator.gone`; Simulator.gone outside code"
        assert stale_references(text) == []
