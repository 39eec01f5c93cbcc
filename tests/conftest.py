import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"
GOLDEN = TESTS_DIR / "golden"
REPO_ROOT = TESTS_DIR.parent


def pair_of(kind, a, b):
    """``pair_value`` of two programs given as raw collections: mnemonic sets or
    frequency mappings, or for ``EUCLIDEAN2`` sets of 2-patterns (held, like
    ``extract_ngrams`` holds them, as a tuple of distinct patterns)."""
    # imported here so that this file loads even where asmsim does not import
    from asmsim.features import PatternSet, ProgramFeatures
    from asmsim.metrics import MetricKind, pair_value

    def program(raw):
        if kind is MetricKind.EUCLIDEAN2:
            return ProgramFeatures(Counter(), PatternSet(tuple(raw)), PatternSet(()))
        return ProgramFeatures(Counter(raw), PatternSet(()), PatternSet(()))
    return pair_value(kind, program(a), program(b))


def run_cli(*args, cwd=None, env_extra=None):
    """Run the CLI in a subprocess against the in-repo sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "asmsim", *map(str, args)],
                          capture_output=True, cwd=cwd, env=env)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def corpus_manifest() -> Path:
    return FIXTURES / "corpus3x3" / "manifest.json"
