"""Reports have one renderer: `quotients.render`.

Each `src/statelab/*.py` is parsed with `ast`. Only `quotients.py` calls
`canonical_json(...)`, from `Report.to_json`, and only the function
`render` in `quotients.py` compares a value with a format name ("json",
"csv", "text"). Every other module hands its reports to `render`, so a
report's forms are chosen in one place and its JSON is its shown fields.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "statelab").glob("*.py"))

FORMATS = {"json", "csv", "text"}


def _named(node: ast.AST) -> str:
    """The name a bare or dotted reference ends in, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _format_names(node: ast.AST) -> bool:
    """Whether `node` is a format name, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_format_names(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in FORMATS


def rendering_outside_render(module: str, source: str) -> list:
    """(line, what) of each `canonical_json(...)` call outside `quotients`
    and of each comparison with a format name outside `quotients.render`."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _named(node.func) == "canonical_json":
            if module != "quotients":
                found.append((node.lineno, "canonical_json(...)"))
        elif isinstance(node, ast.Compare):
            if any(map(_format_names, [node.left, *node.comparators])):
                if (module, function) != ("quotients", "render"):
                    found.append((node.lineno, "format comparison"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_render_chooses_a_report_form(path):
    assert rendering_outside_render(path.stem, path.read_text(encoding="utf-8")) == []


def test_the_check_sees_json_calls_and_format_comparisons():
    source = (
        "def cmd(args, report):\n"
        "    if args.format == 'json':\n"
        "        return canonical_json(report.payload())\n"
        "    if args.format in ('csv', 'tsv'):\n"
        "        return quotients.canonical_json({})\n"
        "    return report.to_text()\n"
        "def render(reports, fmt):\n"
        "    return 'text' != fmt\n"
    )
    assert rendering_outside_render("cli", source) == [
        (2, "format comparison"), (3, "canonical_json(...)"),
        (4, "format comparison"), (5, "canonical_json(...)"), (8, "format comparison"),
    ]
    # the renderer's own module may serialize, and its `render` may compare
    assert rendering_outside_render("quotients", source) == [
        (2, "format comparison"), (4, "format comparison"),
    ]
