"""Module layering and unused imports, read from the source with ``ast``."""

import ast
from pathlib import Path

import cakelab

PACKAGE = Path(cakelab.__file__).resolve().parent

# Each module may import only modules of a lower rank; the package's entry
# points sit above every layer.
RANK = {
    "words": 0,
    "presentations": 1,
    "smallcancel": 2,
    "artin": 2,
    "diffusion": 3,
    "cake": 4,
    "cli": 5,
    "__init__": 6,
    "__main__": 6,
}


def modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree):
    """(line, module) for every import of a cakelab module, function-local ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.lineno, node.module.split(".")[0]
            elif node.level == 1:  # from . import words
                for alias in node.names:
                    yield node.lineno, alias.name
            elif node.module and node.module.startswith("cakelab."):
                yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cakelab."):
                    yield node.lineno, alias.name.split(".")[1]


def test_every_module_has_a_rank():
    assert set(modules()) == set(RANK)


def test_modules_import_only_lower_layers():
    wrong = [
        f"{name}.py:{line} imports {target}"
        for name, tree in modules().items()
        for line, target in package_imports(tree)
        if RANK[target] >= RANK[name]
    ]
    assert wrong == []


def bound_imports(tree):
    """(line, name) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def assigned(tree, target):
    """The value of the module-level assignment to ``target``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return node.value
    return None


def all_entries(tree):
    """The names a module lists in ``__all__``."""
    value = assigned(tree, "__all__")
    return [elt.value for elt in value.elts] if value else []


def read_names(tree):
    """Names the module reads, including those it lists in ``__all__``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(all_entries(tree))


def test_no_module_binds_an_unread_import():
    unread = [
        f"{name}.py:{line} {bound}"
        for name, tree in modules().items() if name != "__init__"
        for line, bound in bound_imports(tree)
        if bound not in read_names(tree)
    ]
    assert unread == []


def private_definitions(tree):
    """(line, name) for every private module-level function or class and
    every private method; dunder names are not private."""
    for node in tree.body:
        scopes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        for d in scopes:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and d.name.startswith("_") and not d.name.startswith("__"):
                yield d.lineno, d.name


def loaded_names(tree):
    """Every name the module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_definition_is_read_in_the_package():
    trees = modules()
    read = {name for tree in trees.values() for name in loaded_names(tree)}
    unread = [
        f"{name}.py:{line} {private}"
        for name, tree in trees.items()
        for line, private in private_definitions(tree)
        if private not in read
    ]
    assert unread == []


def private(name):
    return name.startswith("_") and not name.startswith("__")


def attribute_uses(node):
    """(name, object) for each attribute ``node`` reads or writes by name:
    ``o.name``, ``getattr``, ``setattr`` and ``object.__setattr__`` with a
    literal name, ``vars(o)["name"]``, and the keywords of
    ``vars(o).update(...)`` and ``o.__dict__.update(...)``."""
    def namespace(n):  # o, for vars(o) or o.__dict__
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "vars" and n.args:
            return n.args[0]
        if isinstance(n, ast.Attribute) and n.attr == "__dict__":
            return n.value
        return None

    if isinstance(node, ast.Attribute):
        yield node.attr, node.value
    elif isinstance(node, ast.Subscript) and namespace(node.value) is not None \
            and isinstance(node.slice, ast.Constant):
        yield node.slice.value, namespace(node.value)
    elif isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "update" and namespace(f.value) is not None:
            yield from ((kw.arg, namespace(f.value)) for kw in node.keywords if kw.arg)
        named = (isinstance(f, ast.Name) and f.id in ("getattr", "setattr")) or (
            isinstance(f, ast.Attribute) and f.attr == "__setattr__")
        if named and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            yield node.args[1].value, node.args[0]


def is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def class_private_attributes(tree):
    """The private attribute names the module's classes define: their
    methods and class-level names, and the names their methods set on self."""
    names = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        names.update(name for node in ast.walk(cls) for name, obj in attribute_uses(node) if is_self(obj))
    return {name for name in names if private(name)}


def test_no_module_reaches_into_another_modules_private_attributes():
    # a private attribute is read and written only by its class's own module;
    # other modules go through the public API
    trees = modules()
    defined = {name: class_private_attributes(tree) for name, tree in trees.items()}
    reached = [
        f"{name}.py:{node.lineno} .{attr}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        for attr, obj in attribute_uses(node)
        if private(attr) and not is_self(obj)
        and any(attr in attrs for other, attrs in defined.items() if other != name)
    ]
    assert reached == []


def test_only_words_cuts_fields():
    # record fields are cut by ``words.fields``; no other module partitions text
    cuts = [
        f"{name}.py:{node.lineno} .{node.func.attr}"
        for name, tree in modules().items() if name != "words"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("partition", "rpartition")
    ]
    assert cuts == []


def test_only_words_spells_letters():
    # a letter's token comes from the alphabet's spelling table: no other
    # module writes "^-1" outside a docstring or cuts a token at "^"
    def docstrings(tree):
        return {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}

    spelled = [
        f"{name}.py:{node.lineno} {ast.unparse(node)}"
        for name, tree in modules().items() if name != "words"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "^-1" in node.value and id(node) not in docstrings(tree))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "partition" and node.args
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "^")
    ]
    assert spelled == []


def test_only_words_names_letters():
    # every other module reads ``Word.codes``; the package entry point only
    # re-exports ``Letter``, the boundary type of ``Word(alphabet, letters)``
    def names(node, module):
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.alias) and module != "__init__":
            return [node.name]
        return []

    named = [
        f"{name}.py:{node.lineno} {ident}"
        for name, tree in modules().items() if name != "words"
        for node in ast.walk(tree)
        for ident in names(node, name)
        if ident in ("Letter", "letters", "free_reduce")
    ]
    assert named == []


def import_time_nodes(tree):
    """Every node that runs when the module is imported: function bodies
    are left out, and class bodies and if, try and with blocks are read."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_hashlib_on_import():
    # hashlib maps OpenSSL's libcrypto, several MiB of RSS; keys hash with
    # the interpreter's built-in sha256, and hashlib is loaded only in a
    # function, where no built-in one exists
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module]
        return []

    found = [
        f"{name}.py:{node.lineno} {module}"
        for name, tree in modules().items()
        for node in import_time_nodes(tree)
        for module in imported(node)
        if module.split(".")[0] in ("hashlib", "_hashlib")
    ]
    assert found == []


ROOT = Path(__file__).resolve().parent.parent

# Exported names that nothing in the package, the demos or the bench reads,
# each kept for the reason given.
UNREAD_EXPORTS = {
    "parse_tree": "reads the tree file of `gen --out-tree`, for the planned `cakelab verify`",
    "parse_history": "reads the history file of `tietze --out`, for the planned `cakelab verify`",
    "parse_witness": "reads the witness file of `wp --witness`, for the planned `cakelab verify`",
    "braid_presentation": "README documents it",
}


def outside_the_tests():
    """(file name, tree) for the package, the demos and the bench."""
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        yield path.name, ast.parse(path.read_text(), str(path))


def test_every_export_is_read_outside_the_tests():
    # a name's own def or class line and its __all__ entry are no reads, and
    # neither is an import: a re-export in __init__ reads nothing
    read = set()
    for name, tree in outside_the_tests():
        read.update(loaded_names(tree))
        if name == "tracing.py":  # WRAPPED names the functions it wraps, per layer
            read.update(key.value for layer in assigned(tree, "WRAPPED").values for key in layer.keys)
    unread = [
        f"{module}.{name}"
        for module, tree in modules().items()
        for name in all_entries(tree)
        if name not in read
    ]
    assert sorted(name.split(".")[1] for name in unread) == sorted(UNREAD_EXPORTS), unread


def public_members(tree):
    """(class, name) for every public method and declared field of the
    module's classes."""
    for cls in tree.body:
        for node in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield cls.name, name


def test_every_public_member_is_read_outside_the_tests():
    # a member is read as an attribute of that name, anywhere outside the tests
    read = {node.attr for _, tree in outside_the_tests() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{module}.{cls}.{name}"
        for module, tree in modules().items()
        for cls, name in public_members(tree)
        if name not in read
    ]
    assert unread == []
