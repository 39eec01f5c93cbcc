"""The README's library example runs as written."""

import re
import shutil

from conftest import FIXTURES, REPO_ROOT


def library_example() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
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
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert set(namespace["report"].metrics) == set(namespace["MetricKind"])
    count = len(namespace["programs"])
    assert count > 2 and len(namespace["distances"]) == count * (count - 1) // 2
    assert len(namespace["some"]) == 2
