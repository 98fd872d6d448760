"""Tests for the API-documentation generator."""

import importlib.util
import sys


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", "scripts/gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_api_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_render_covers_key_api():
    gen = _load_generator()
    text = gen.render()
    for anchor in (
        "repro.agreements.marking",
        "repro.joins.distance_join",
        "class AgreementGraph",
        "def distance_join",
        "def spatial_join",
        "class RTree",
        "def knn_join",
        "class AnalyticalCostModel",
    ):
        assert anchor in text, anchor


def test_main_writes_file(tmp_path):
    gen = _load_generator()
    out = tmp_path / "API.md"
    assert gen.main(str(out)) == 0
    content = out.read_text()
    assert content.startswith("# API reference")
    assert content.count("### ") > 100


def test_committed_docs_match_the_generator(tmp_path):
    """``docs/API.md`` is the generator's output byte for byte: a changed
    public signature fails here until the docs are regenerated with
    ``python scripts/gen_api_docs.py docs/API.md``."""
    gen = _load_generator()
    out = tmp_path / "API.md"
    gen.main(str(out))
    with open("docs/API.md") as f:
        committed = f.read()
    assert out.read_text() == committed, "docs/API.md is stale: regenerate it"
