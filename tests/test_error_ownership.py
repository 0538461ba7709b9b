"""The command line catches library errors in three places only.

`cli.py` is parsed with `ast`. An `except` clause naming `StatelabError`
or `FormatError` may appear only in `_resolve` (which adds the file name
to a malformed file's message), `bound_class` (which hands argparse its
message) and `main` (which maps errors to exit codes). Bad input is a
`UsageError` where the library finds it, so no subcommand re-wraps one.

No module of the library catches every error: a bare `except:` or one
naming `Exception` or `BaseException` would absorb bad input silently.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).parent.parent / "src" / "statelab"
CLI = LIBRARY / "cli.py"

OWNERS = {"_resolve", "bound_class", "main"}
CAUGHT = {"StatelabError", "FormatError"}
EVERYTHING = {"Exception", "BaseException"}


def stray_catches(source: str) -> list:
    """Line of each `except` naming a caught error outside the OWNERS."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in OWNERS:
            inside.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None or id(node) in inside:
            continue
        named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
        if named & CAUGHT:
            found.append(node.lineno)
    return sorted(found)


def test_the_command_line_catches_library_errors_only_in_its_owners():
    assert stray_catches(CLI.read_text(encoding="utf-8")) == []


def test_the_check_sees_stray_catches():
    source = (
        "def main(argv):\n"
        "    try:\n"
        "        pass\n"
        "    except StatelabError:\n"
        "        pass\n"
        "def cmd_eval(args):\n"
        "    try:\n"
        "        pass\n"
        "    except (OSError, errors.FormatError):\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except StatelabError as exc:\n"
        "    pass\n"
    )
    assert stray_catches(source) == [9, 17]


def broad_catches(source: str) -> list:
    """Line of each bare `except:` and of each `except` naming EVERYTHING."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        named = set() if node.type is None else {
            getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
        if node.type is None or named & EVERYTHING:
            found.append(node.lineno)
    return sorted(found)


def test_no_library_module_catches_every_error():
    modules = sorted(LIBRARY.rglob("*.py"))
    assert CLI in modules
    for path in modules:
        assert broad_catches(path.read_text(encoding="utf-8")) == [], path.name


def test_the_check_sees_broad_catches():
    source = (
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except (KeyError, Exception) as exc:\n"
        "    pass\n"
        "except builtins.BaseException:\n"
        "    pass\n"
        "except StatelabError:\n"
        "    pass\n"
    )
    assert broad_catches(source) == [3, 7, 9]
