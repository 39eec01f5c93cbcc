"""The README's library example runs and its config example loads as written."""

import json
import re
import shutil

from asmsim.asm_parser import ParserConfig
from asmsim.config import ToolConfig, load_tool_config
from conftest import FIXTURES, REPO_ROOT


def readme_block(heading: str, language: str) -> str:
    """The one ``language`` code block under ``heading``, up to the next
    heading of the README."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    section = re.split(r"^#{2,} ", section, maxsplit=1, flags=re.MULTILINE)[0]
    [code] = re.findall(rf"^```{language}\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    return code


def test_library_example_runs(tmp_path, monkeypatch):
    corpus = FIXTURES / "corpus3x3"
    for source in corpus.glob("*.s"):
        shutil.copy(source, tmp_path)
    shutil.copy(corpus / "ada_fib.s", tmp_path / "a.s")
    shutil.copy(corpus / "ben_fib.s", tmp_path / "b.s")
    shutil.copy(corpus / "manifest.json", tmp_path / "corpus.json")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(readme_block("## Library", "python"), "README.md", "exec"), namespace)
    assert set(namespace["report"].metrics) == set(namespace["MetricKind"])
    assert namespace["name"] == "corpus3x3" and len(namespace["entries"]) == 9
    a, block = namespace["a"], namespace["first_block"]
    assert block and block == list(zip(a.mnemonics, a.operands))[:len(block)]
    count = len(namespace["programs"])
    assert count > 2 and len(namespace["distances"]) == count * (count - 1) // 2
    assert len(namespace["some"]) == 2


def test_config_example_loads_and_names_every_setting(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(readme_block("### Config file", "json"), encoding="utf-8")
    load_tool_config(path, env={})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == set(ToolConfig._fields)
    assert set(doc["parser"]) == set(ParserConfig._fields)
