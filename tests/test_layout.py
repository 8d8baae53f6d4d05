import ast
import pathlib

import gwreath

PACKAGE = pathlib.Path(gwreath.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # a name that starts with an underscore is private to its module; what
    # two modules share is public in the one that defines it
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "gwreath"):
                private += [f"{path.stem} imports {alias.name} from {node.module}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
