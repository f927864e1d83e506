"""Documentation health: the docs tree exists and its relative links resolve."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(REPO_ROOT, "tools")
sys.path.insert(0, TOOLS) if TOOLS not in sys.path else None

from check_links import broken_links, default_targets, iter_links  # noqa: E402
from pathlib import Path  # noqa: E402


def test_docs_tree_exists():
    for name in ("docs/architecture.md", "docs/serving.md", "docs/dse.md",
                 "README.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, name)), name


def test_readme_links_to_docs():
    readme = Path(REPO_ROOT, "README.md").read_text()
    assert "docs/architecture.md" in readme
    assert "docs/serving.md" in readme
    assert "docs/dse.md" in readme


def test_architecture_links_to_dse_guide():
    architecture = Path(REPO_ROOT, "docs", "architecture.md").read_text()
    assert "dse.md" in architecture


def test_configuration_reference_lists_exactly_the_registered_variables():
    """A variable added to ``repro.config`` but not to the reference table
    (or documented but never registered) fails here."""
    import re

    from repro.config import ENV_VARS

    page = Path(REPO_ROOT, "docs", "configuration.md").read_text()
    table = page.split("## The variables", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(FINESSE_[A-Z_]+)` \|", table, flags=re.MULTILINE)
    assert sorted(documented) == sorted(ENV_VARS)
    assert len(documented) == len(set(documented))
    for name in ("README.md", "docs/architecture.md", "docs/serving.md",
                 "docs/dse.md", "docs/reliability.md"):
        assert "configuration.md" in Path(REPO_ROOT, name).read_text(), name


def test_kernel_spec_knob_table_matches_the_dataclass():
    """The knob table in architecture.md names every ``KernelSpec`` field, in
    order, and opens each default cell with the field's default value."""
    import ast
    import dataclasses
    import re

    from repro.compiler.pipeline import KernelSpec

    page = Path(REPO_ROOT, "docs", "architecture.md").read_text()
    table = page.split("| knob | default | set to a non-default value by |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)`", table.split("\n\n", 1)[0], flags=re.MULTILINE)
    fields = dataclasses.fields(KernelSpec)
    assert [name for name, _ in rows] == [field.name for field in fields]
    assert [ast.literal_eval(default) for _, default in rows] == [field.default for field in fields]



def test_readme_kernel_spec_knob_list_matches_the_dataclass():
    import dataclasses
    import re

    from repro.compiler.pipeline import KernelSpec

    readme = Path(REPO_ROOT, "README.md").read_text()
    listed = re.search(r"`repro\.KernelSpec` \(([^)]*)\)", readme).group(1)
    assert re.findall(r"`(\w+)`", listed) == [field.name for field in dataclasses.fields(KernelSpec)]


def test_package_docstring_kernel_spec_knob_list_matches_the_dataclass():
    import dataclasses
    import re

    import repro
    from repro.compiler.pipeline import KernelSpec

    listed = re.search(r"``KernelSpec`` -- [^(]*\(knobs: ([^)]*)\)", repro.__doc__).group(1)
    assert re.findall(r"``(\w+)``", listed) == [field.name for field in dataclasses.fields(KernelSpec)]


def test_dse_objective_table_matches_the_registry():
    import re

    from repro.dse.objectives import OBJECTIVES

    page = Path(REPO_ROOT, "docs", "dse.md").read_text()
    table = page.split("| objective | score | direction |", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE) == list(OBJECTIVES)

def test_all_relative_links_resolve():
    failures = {}
    for markdown_file in default_targets():
        broken = broken_links(markdown_file)
        if broken:
            failures[str(markdown_file)] = broken
    assert not failures, f"broken documentation links: {failures}"


def test_checker_catches_broken_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "[ok external](https://example.com) "
        "[ok anchor](#section) "
        "[missing](no/such/file.md) "
        "[missing with fragment](also_missing.md#part)\n"
    )
    broken = broken_links(page)
    assert [target for target, _ in broken] == [
        "no/such/file.md", "also_missing.md#part"]


def test_checker_skips_fenced_code_blocks(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("```\n[not a link](missing.md)\n```\n[real](real.md)\n")
    (tmp_path / "real.md").write_text("x")
    assert broken_links(page) == []


def test_checker_handles_images_and_titles(tmp_path):
    page = tmp_path / "page.md"
    (tmp_path / "img.png").write_bytes(b"\x89PNG")
    page.write_text('![shot](img.png "a title") [gone](gone.png)\n')
    assert [target for target, _ in broken_links(page)] == ["gone.png"]


def test_iter_links_extracts_targets():
    text = "See [a](x.md) and ![b](y.png) but not `[c](z.md)` in code? yes it does"
    assert list(iter_links(text)) == ["x.md", "y.png", "z.md"]


@pytest.mark.parametrize("args,expect_ok", [([], True), (["README.md"], True)])
def test_cli_exit_status(args, expect_ok):
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "check_links.py"), *args],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert (result.returncode == 0) is expect_ok, result.stdout + result.stderr


def test_cli_fails_on_missing_file(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("[broken](never/exists.md)\n")
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "check_links.py"), str(bad)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "broken link" in result.stdout
