"""Source-level contracts of the package.

Library code keeps the CLI's 0/2/3 exit-code contract: no bare ``assert``.
An ``assert`` vanishes under ``python -O`` and otherwise escapes ``main()``
as an ``AssertionError`` with exit code 1; library checks raise
``ValidationError`` or ``NumericalError`` instead.

``gleak.__all__`` lists each public name the package imports, once, and
every one of them is documented in README "Library use".  Every other
public module-level function or class is reached from other library code:
what only tests call belongs in the tests.

Every predictor is scored through one call, ``core._decide``, which asks it
once per distinct observable and checks its guesses; no other library code
calls ``.predict(``.

No function takes a ``**`` catch-all: each parameter a caller may set is
named in the signature, so a misspelt or unread setting fails at the call.

Distinct rows are taken in one place, ``core._unique_rows``; no other
library code calls ``np.unique(..., axis=...)``, which sorts the rows as a
structured dtype.  Only ``core._count_table`` and ``core._distinct_rows``
call ``_unique_rows``.  No library code calls ``np.lexsort``, and none
accumulates with ``np.add.at``: counts over integer keys are one
``np.bincount``.  Counts of labels against distinct observables are taken
in one place, ``core._count_table``; the data pre-processing expansion
reads them from ``SampleSet.counts`` like the counting learners.

Only the MLP and ``leak preprocess`` build the data pre-processing
expansion; the counting learners train on counts.  ``fit`` builds it at one
call for both methods, and ``data_preprocess`` is the only library code
that constructs a ``WeightedSampleSet``.  The k-NN takes count tables, so
``gleak/knn.py`` imports nothing from the pre-processing module.

The MLP has one forward pass, ``mlp._propagate``: training and prediction
both run it, and no other function computes a log-softmax.

The k-NN's per-dimension L1/L2 accumulation is written once, in
``knn._distances``, whose one caller is the blocked path (``pairwise``).
The lattice search computes no distance: every row of its last shell lies
at the k-th distance.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import gleak

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "gleak"


def test_no_assert_in_library_code():
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths, f"no sources found under {SOURCE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert not found, "bare assert in library code: " + ", ".join(found)


def test_all_matches_package_imports():
    exported = gleak.__all__
    duplicates = sorted(name for name, count in Counter(exported).items() if count > 1)
    assert not duplicates, f"duplicated in __all__: {duplicates}"
    unresolved = sorted(name for name in exported if not hasattr(gleak, name))
    assert not unresolved, f"in __all__ but not defined: {unresolved}"
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    missing = sorted(
        name for name in imported - set(exported) if not name.startswith("_")
    )
    assert not missing, f"imported by gleak but missing from __all__: {missing}"


def _names_used(node: ast.AST) -> set[str]:
    """Every name ``node`` loads, reads as an attribute or imports."""
    used = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            used.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            used.add(inner.attr)
        elif isinstance(inner, ast.ImportFrom):
            used.update(alias.name for alias in inner.names)
    return used


def test_every_public_definition_is_reached():
    """A public module-level def or class that no other library code names
    must be exported; re-exports in ``__init__.py`` do not count as uses."""
    definitions = []  # (file, name) of each public module-level def or class
    uses = []  # (file, enclosing top-level name or None, names used)
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py" and path.parent == SOURCE:
            continue
        where = str(path.relative_to(SOURCE.parent))
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                definitions.append((where, name))
            uses.append((where, name, _names_used(node)))
    unreached = sorted(
        f"{where}:{name}"
        for where, name in definitions
        if name not in gleak.__all__
        and not any(
            name in used and (path, owner) != (where, name) for path, owner, used in uses
        )
    )
    assert not unreached, "public but reached by no library code: " + ", ".join(unreached)


def test_exports_are_documented():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    undocumented = [
        name for name in gleak.__all__ if not re.search(rf"\b{re.escape(name)}\b", section)
    ]
    assert not undocumented, (
        "exported by gleak but not in README 'Library use': " + ", ".join(undocumented)
    )


def _calls(tree: ast.AST, matches, scope: str = "<module>"):
    """(enclosing function, line) of every call node that ``matches``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Call) and matches(node):
            yield scope, node.lineno
        yield from _calls(node, matches, inner)


def _found(matches) -> list[tuple[str, str, int]]:
    """(file, enclosing function, line) of each matching call under ``src/gleak``."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            (str(path.relative_to(SOURCE.parent)), scope, line)
            for scope, line in _calls(tree, matches)
        )
    return found


def _is_predict(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "predict"


def _is_row_unique(call: ast.Call) -> bool:
    """``<expr>.unique(..., axis=...)``: numpy's structured sort of rows."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "unique"
        and any(keyword.arg == "axis" for keyword in call.keywords)
    )


def test_predictors_are_scored_in_one_place():
    found = _found(_is_predict)
    outside = [
        f"{path}:{line} in {scope}"
        for path, scope, line in found
        if (path, scope) != ("gleak/core.py", "_decide")
    ]
    assert not outside, ".predict( called outside core._decide: " + ", ".join(outside)
    assert len(found) == 1, f"core._decide should call .predict( once: {found}"


def test_rows_are_deduplicated_in_one_place():
    outside = [
        f"{path}:{line} in {scope}"
        for path, scope, line in _found(_is_row_unique)
        if (path, scope) != ("gleak/core.py", "_unique_rows")
    ]
    assert not outside, (
        "np.unique(..., axis=...) outside core._unique_rows: " + ", ".join(outside)
    )


def test_no_catch_all_keyword_parameters():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.relative_to(SOURCE.parent)}:{node.lineno} {node.name}(**{node.args.kwarg.arg})"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.args.kwarg is not None
        )
    assert not found, "** parameter in library code: " + ", ".join(found)


def _is_numpy_call(call: ast.Call, *path: str) -> bool:
    """``np.<path>(...)``, e.g. ``np.add.at`` for path ("add", "at")."""
    func = call.func
    for name in reversed(path):
        if not (isinstance(func, ast.Attribute) and func.attr == name):
            return False
        func = func.value
    return isinstance(func, ast.Name) and func.id in ("np", "numpy")


def test_no_add_at_or_lexsort_in_library_code():
    found = [
        f"{path}:{line} in {scope} ({name})"
        for name, parts in (("np.add.at", ("add", "at")), ("np.lexsort", ("lexsort",)))
        for path, scope, line in _found(lambda call: _is_numpy_call(call, *parts))
    ]
    assert not found, "np.add.at or np.lexsort in library code: " + ", ".join(found)


def _is_name_call(name: str):
    return lambda call: isinstance(call.func, ast.Name) and call.func.id == name


def _is_keyed_bincount(call: ast.Call) -> bool:
    """``np.bincount`` over a computed key, e.g. ``inverse * n + labels``."""
    return (
        _is_numpy_call(call, "bincount")
        and bool(call.args)
        and not isinstance(call.args[0], (ast.Name, ast.Attribute))
    )


def test_observable_label_counts_are_taken_in_one_place():
    keyed = sorted((path, scope) for path, scope, _ in _found(_is_keyed_bincount))
    assert keyed == [("gleak/core.py", "_count_table")]
    callers = sorted((path, scope) for path, scope, _ in _found(_is_name_call("_unique_rows")))
    assert callers == [("gleak/core.py", "_count_table"), ("gleak/core.py", "_distinct_rows")]


def test_expansion_is_built_only_for_the_mlp_and_leak_preprocess():
    found = sorted((path, scope) for path, scope, _ in _found(_is_name_call("data_preprocess")))
    assert found == [("gleak/cli.py", "cmd_preprocess"), ("gleak/estimation.py", "fit")]
    tree = ast.parse((SOURCE / "estimation.py").read_text())
    fit = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "fit"
    )
    # the innermost if-branch that expands (ast.walk is breadth-first, so
    # the last found) also trains the MLP, and no k-NN
    branches = [
        branch
        for node in ast.walk(fit)
        if isinstance(node, ast.If)
        for branch in (node.body, node.orelse)
        if any(
            _is_name_call("data_preprocess")(call)
            for stmt in branch
            for call in ast.walk(stmt)
            if isinstance(call, ast.Call)
        )
    ]
    assert branches, "fit calls data_preprocess outside any branch"
    called = {
        call.func.id
        for stmt in branches[-1]
        for call in ast.walk(stmt)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    }
    assert "mlp_train" in called
    assert not called & {"knn_train", "data_knn_train"}


def test_weighted_sets_are_built_only_by_data_preprocess():
    found = [(path, scope) for path, scope, _ in _found(_is_name_call("WeightedSampleSet"))]
    assert found == [("gleak/preprocess.py", "data_preprocess")]


def test_knn_takes_no_preprocessed_input():
    tree = ast.parse((SOURCE / "knn.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not modules & {".preprocess", "gleak.preprocess"}, sorted(modules)


def test_mlp_has_one_forward_pass():
    tree = ast.parse((SOURCE / "mlp.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions if _references_numpy(f, {"log"})] == ["_propagate"]
    callers = sorted(scope for path, scope, _ in _found(_is_name_call("_propagate")))
    assert callers == ["loss_and_grads", "predict_proba"]


def _references_numpy(node: ast.AST, names: set[str]) -> set[str]:
    """Which of ``np.<name>`` ``node`` references, called or not."""
    return {
        inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute)
        and inner.attr in names
        and isinstance(inner.value, ast.Name)
        and inner.value.id in ("np", "numpy")
    }


def test_distances_are_accumulated_in_one_place():
    tree = ast.parse((SOURCE / "knn.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    kernels = [f.name for f in functions if _references_numpy(f, {"subtract", "square"})]
    assert kernels == ["_distances"]
    callers = sorted((path, scope) for path, scope, _ in _found(_is_name_call("_distances")))
    assert callers == [("gleak/knn.py", "pairwise")]
    for f in functions:
        if f.name in ("pairwise", "_lattice_votes"):
            own = _references_numpy(f, {"subtract", "abs", "square", "sqrt"})
            assert not own, f"{f.name} computes distances itself: np.{own}"
    (search,) = [f for f in functions if f.name == "_lattice_votes"]
    called = {n.func.attr for n in ast.walk(search) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)}
    assert "pairwise" not in called, "the lattice search scores distances"
