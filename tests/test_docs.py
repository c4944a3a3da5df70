"""Documentation consistency checks.

Two contracts keep the docs honest without any external tooling:

* **CLI cross-check** — every subcommand and every option string that
  ``repro.cli.build_parser()`` defines must appear verbatim in
  ``docs/cli.md`` (and, conversely, every ``--flag`` token the doc
  mentions must exist in the parser, so renamed flags can't leave stale
  rows behind).
* **Markdown link checker** — every relative link in ``README.md`` and
  ``docs/*.md`` must resolve to a real file, and intra-repo anchor
  links (``page.md#section``) must match a real heading.
"""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
CLI_DOC = DOCS / "cli.md"

#: Markdown inline links: [text](target).  Images excluded via lookbehind.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _subparsers():
    """{command name: its ArgumentParser} from the real CLI parser."""
    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return dict(action.choices)
    raise AssertionError("build_parser() has no subcommands")


def _doc_pages():
    pages = sorted(DOCS.glob("*.md"))
    assert pages, "docs/ has no markdown pages"
    return [REPO / "README.md"] + pages


class TestCliDocCrossCheck:
    @pytest.fixture(scope="class")
    def doc_text(self):
        return CLI_DOC.read_text()

    def test_every_subcommand_documented(self, doc_text):
        for name in _subparsers():
            assert f"## `{name}`" in doc_text, (
                f"subcommand {name!r} has no section in docs/cli.md")

    def test_every_option_string_documented(self, doc_text):
        missing = []
        for name, sub in _subparsers().items():
            for action in sub._actions:
                if action.dest == "help":
                    continue
                for opt in action.option_strings or [action.dest]:
                    if opt not in doc_text:
                        missing.append(f"{name}: {opt}")
        assert not missing, (
            "parser options absent from docs/cli.md: " + ", ".join(missing))

    def test_no_stale_flags_in_doc(self, doc_text):
        """Every --flag token the doc mentions must exist in the parser."""
        known = set()
        for sub in _subparsers().values():
            for action in sub._actions:
                known.update(action.option_strings)
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", doc_text))
        stale = documented - known
        assert not stale, f"docs/cli.md mentions unknown flags: {stale}"


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug (enough for the headings we use)."""
    text = re.sub(r"[`*]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(page: Path):
    return {_slugify(h) for h in _HEADING_RE.findall(page.read_text())}


@pytest.mark.parametrize("page", _doc_pages(),
                         ids=lambda p: p.relative_to(REPO).as_posix())
def test_markdown_links_resolve(page):
    text = page.read_text()
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = (page.parent / path_part).resolve() if path_part else page
        assert dest.exists(), f"{page.name}: broken link {target!r}"
        if anchor and dest.suffix == ".md":
            assert _slugify(anchor) in _anchors(dest), (
                f"{page.name}: link {target!r} points at a missing heading")


def test_index_links_every_docs_page():
    index_text = (DOCS / "index.md").read_text()
    for page in sorted(DOCS.glob("*.md")):
        if page.name == "index.md":
            continue
        assert f"({page.name})" in index_text, (
            f"docs/index.md does not link {page.name}")


def test_readme_links_docs_hub():
    readme = (REPO / "README.md").read_text()
    assert "(docs/index.md)" in readme
    assert "(docs/cli.md)" in readme


def test_engine_doc_covers_every_wire_op():
    """Every analysis op and serve control op must appear (backticked)
    in docs/engine.md, so a new op can't ship undocumented."""
    from repro.engine.requests import OPS
    from repro.engine.serve import CONTROL_OPS

    engine_doc = (DOCS / "engine.md").read_text()
    missing = [op for op in (*OPS, *CONTROL_OPS)
               if f"`{op}`" not in engine_doc]
    assert not missing, (
        "wire ops absent from docs/engine.md: " + ", ".join(missing))


def test_observability_doc_covers_every_store_kind():
    """Every artifact-store kind and every ``cache.*`` event must appear
    (backticked) in docs/observability.md, so a new kind or counter
    can't ship undocumented."""
    from repro.store import EVENTS, KINDS

    doc = (DOCS / "observability.md").read_text()
    names = [f"`{kind}`" for kind in KINDS]
    names += [f"`cache.{event}`" for event in EVENTS]
    missing = [name for name in names if name not in doc]
    assert not missing, (
        "store kinds/events absent from docs/observability.md: "
        + ", ".join(missing))


def _kernel_metric_names():
    """Literal metric names passed to ``obs_metrics.inc`` / ``set_gauge``
    / ``observe`` anywhere under ``src/repro/reliability/``."""
    import ast

    names = set()
    for path in sorted((REPO / "src" / "repro" / "reliability")
                       .glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("inc", "set_gauge", "observe")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs_metrics"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                names.add(node.args[0].value)
    return sorted(names)


def test_observability_doc_covers_kernel_metrics():
    """Every metric the reliability kernels emit must appear (backticked,
    in full) in docs/observability.md, so a new counter or gauge can't
    ship undocumented."""
    names = _kernel_metric_names()
    assert "compiled_pass.groups" in names  # the scan sees the kernels
    doc = (DOCS / "observability.md").read_text()
    missing = [name for name in names if f"`{name}`" not in doc]
    assert not missing, (
        "kernel metrics absent from docs/observability.md: "
        + ", ".join(missing))


#: ``DEFAULT_BDD_NODE_LIMIT`` followed by the value a page states for it,
#: as ``= 131,072`` or ``(131,072``.
_NODE_LIMIT_RE = re.compile(r"`DEFAULT_BDD_NODE_LIMIT`\s*[=(]\s*([\d,]+)")


@pytest.mark.parametrize("page", ["performance.md", "observability.md"])
def test_doc_states_the_bdd_node_limit(page):
    """The auto weight tier's node limit the page states is the one the
    code uses, so a change of the budget can't leave a stale figure."""
    from repro.probability.weights import DEFAULT_BDD_NODE_LIMIT

    stated = [int(value.replace(",", "")) for value in
              _NODE_LIMIT_RE.findall((DOCS / page).read_text())]
    assert stated, f"docs/{page} does not state DEFAULT_BDD_NODE_LIMIT"
    assert set(stated) == {DEFAULT_BDD_NODE_LIMIT}, stated
