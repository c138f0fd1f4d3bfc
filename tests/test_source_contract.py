"""Source-level contracts of the package.

Library code keeps the CLI's 0/2/3 exit-code contract: no bare ``assert``.
An ``assert`` vanishes under ``python -O`` and otherwise escapes ``main()``
as an ``AssertionError`` with exit code 1; library checks raise
``ValidationError`` or ``NumericalError`` instead.

``gleak.__all__`` lists each public name the package imports, once, and
every one of them is documented in README "Library use".  Every other
public module-level function or class is reached from other library code,
and so is every public method of a library class, exported or not: what
only tests call belongs in the tests.

Every predictor is scored through one call, ``core._decide``, which asks it
once per distinct observable and checks its guesses; no other library code
calls ``.predict(``.

No function takes a ``**`` catch-all: each parameter a caller may set is
named in the signature, so a misspelt or unread setting fails at the call.
``functools.lru_cache`` and ``functools.cache`` decorate only functions
whose parameters are ints, so no cache that outlives a call holds a prior,
channel, gain, sample set or scenario.

Distinct rows are taken in one place, ``core._unique_rows``; no other
library code calls ``np.unique(..., axis=...)``, which sorts the rows as a
structured dtype.  Only ``core._count_table`` and ``core._distinct_rows``
call ``_unique_rows``.  No library code calls ``np.lexsort``, and none
accumulates with ``np.add.at``: counts over integer keys are one
``np.bincount``.  Counts of labels against distinct observables are taken
in one place, ``core._count_table``; the data pre-processing expansion
reads them from ``SampleSet.counts`` like the counting learners.

The data pre-processing is one table, ``preprocess.data_table``, built
only by ``fit`` and ``leak preprocess``.  No other library function
multiplies a count table by a gain.  ``fit`` assigns one (guess,
observable) table, the data table or the channel method's count table,
and one model from it: the k-NN, the MLP, or the frequentist's decision
table of its row argmaxes, whose data table takes the original gain.  Both
learners take tables, so neither ``gleak/knn.py`` nor ``gleak/mlp.py``
imports the pre-processing module.

The bound calculators each take one ``BoundInputs`` and nothing else, and
check nothing themselves: every ``_require`` of ``gleak/bounds.py`` is in
``BoundInputs.__post_init__``.

The MLP has one forward pass, ``mlp._propagate``: training and prediction
both run it, and no other function computes a log-softmax.

The k-NN's per-dimension L1/L2 accumulation is written once, in
``knn._distances``, whose one caller is the blocked path (``pairwise``).
The lattice search computes no distance: every row of its last shell lies
at the k-th distance.

The k-NN measures one thing, the codec's integer points: ``gleak/knn.py``
never calls ``encode``, never reads a codec's ``scale`` or ``offset``, and
takes no square root (``euclidean`` ranks by squared distances).  Its 1-D
run search holds no loop: the two sorted searches of q -/+ kth are exact.

A ``leak`` process imports only what its command runs: a built-in
scenario's estimate loads no thread pool (``leak scenario --workers`` above
1 does), no file formats (file inputs and ``leak preprocess`` do) and no
other scenario's module.  No estimate or trial matrix loads the bound
calculators, ``gleak.bounds`` (``leak bounds`` does), or ``numpy.ma``:
library code calls no ``np.quantile``, ``np.percentile`` or ``np.median``
and no ``np.unique`` without a ``return_*`` flag, each of which imports
``numpy.ma`` (about 16 ms of a process's start).
"""

import ast
import json
import os
import re
import subprocess
import sys
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
    must be exported, and a public method of a library class must be named
    by library code outside its own body, whether or not its class is
    exported; re-exports in ``__init__.py`` do not count as uses."""
    definitions = []  # (file, scope, name) of each public def, class or method
    uses = []  # (file, scope, names used); a method's scope is (class, method)
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "__init__.py" and path.parent == SOURCE:
            continue
        where = str(path.relative_to(SOURCE.parent))
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                if name not in gleak.__all__:
                    definitions.append((where, (name,), name))
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                scope = (name,)
                if member is not node and isinstance(member, ast.FunctionDef):
                    scope = (name, member.name)
                    if not member.name.startswith("_"):
                        definitions.append((where, scope, member.name))
                uses.append((where, scope, _names_used(member)))
    unreached = sorted(
        f"{where}:{'.'.join(scope)}"
        for where, scope, name in definitions
        if not any(
            name in used and (path, owner[:len(scope)]) != (where, scope)
            for path, owner, used in uses
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


_MEMOIZERS = {"lru_cache", "cache"}


def _is_memoizer(node: ast.expr) -> bool:
    """``functools.lru_cache`` or ``functools.cache``, called or not."""
    func = node.func if isinstance(node, ast.Call) else node
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _MEMOIZERS
        and isinstance(func.value, ast.Name)
        and func.value.id == "functools"
    )


def _memoized(tree: ast.AST) -> dict[str, list[str]]:
    """Each memoized function's parameter annotations, ``*`` / ``**`` marked."""
    found = {}
    for f in _function_defs(tree):
        if any(_is_memoizer(d) for d in f.decorator_list):
            params = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
            found[f.name] = [ast.unparse(p.annotation) if p.annotation else "" for p in params]
            found[f.name] += ["*"] * bool(f.args.vararg) + ["**"] * bool(f.args.kwarg)
    return found


def test_only_functions_of_ints_are_memoized():
    # a cache that outlives a call may hold no Prior, Channel, GainFunction,
    # SampleSet or scenario: only functions of ints are memoized
    example = ast.parse(
        "@functools.lru_cache(maxsize=None)\ndef f(a: int, b: Prior): pass\n"
        "@functools.cache\ndef g(*a): pass\n"
    )
    assert _memoized(example) == {"f": ["int", "Prior"], "g": ["*"]}
    found, uses = {}, 0
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }
        assert not imported & _MEMOIZERS, f"{path.name} imports a cache by name"
        uses += sum(_is_memoizer(n) for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        found.update(
            (f"{path.relative_to(SOURCE.parent)}::{name}", params)
            for name, params in _memoized(tree).items()
        )
    assert uses == len(found), "a cache used other than as a decorator"
    assert found and all(params and set(params) == {"int"} for params in found.values()), found


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


def test_data_table_is_built_only_by_fit_and_leak_preprocess():
    found = sorted((path, scope) for path, scope, _ in _found(_is_name_call("data_table")))
    assert found == [("gleak/cli.py", "cmd_preprocess"), ("gleak/estimation.py", "fit")]


def test_bound_calculators_take_one_checked_bound_inputs():
    tree = ast.parse((SOURCE / "bounds.py").read_text())
    (inputs,) = [node for node in tree.body if getattr(node, "name", None) == "BoundInputs"]
    (post_init,) = [f for f in inputs.body if getattr(f, "name", None) == "__post_init__"]
    checks = list(_calls(tree, _is_name_call("_require")))
    assert checks and checks == list(_calls(post_init, _is_name_call("_require"), "__post_init__"))
    calculators = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    ]
    assert len(calculators) == 5
    for f in calculators:
        params = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
        assert not (f.args.vararg or f.args.kwarg), f.name
        assert [ast.unparse(p.annotation) for p in params] == ["BoundInputs"], f.name


def _fit() -> ast.FunctionDef:
    tree = ast.parse((SOURCE / "estimation.py").read_text())
    (fit,) = [f for f in _function_defs(tree) if f.name == "fit"]
    return fit


def test_both_learners_train_on_one_table():
    fit = _fit()
    assigned = [
        target.id
        for node in ast.walk(fit)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    assert assigned.count("table") == 1 and assigned.count("model") == 1
    # each of the three learners is called once, and every argument it
    # takes from the training data is read off the one table
    for learner in ("knn_train", "mlp_train", "TablePredictor"):
        (call,) = [
            c for c in ast.walk(fit) if isinstance(c, ast.Call) and _is_name_call(learner)(c)
        ]
        names = {n.id for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
        assert "table" in names and not names & {"train", "data", "counts"}, (learner, names)
    called = {c.func.id for c in ast.walk(fit) if isinstance(c, ast.Call)
              and isinstance(c.func, ast.Name)}
    assert "identity_gain" not in called
    # one path for every method: no return but the last statement
    returns = [node for node in ast.walk(fit) if isinstance(node, ast.Return)]
    assert returns == [fit.body[-1]]


def _function_defs(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _reads(node: ast.AST, attr: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))


def _multiplies_counts_by_a_gain(function: ast.FunctionDef) -> bool:
    """A matrix product in ``function`` with a gain's ``.matrix`` on one
    side, in a function that reads a ``.counts`` table."""
    products = [
        node
        for node in ast.walk(function)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Call) and any(
            _is_numpy_call(node, name) for name in ("matmul", "dot", "einsum")
        ))
    ]
    return _reads(function, "counts") and any(_reads(p, "matrix") for p in products)


def test_one_data_preprocessing_table():
    fit = _fit()
    products = sorted(
        (str(path.relative_to(SOURCE.parent)), f.name)
        for path in SOURCE.rglob("*.py")
        for f in _function_defs(ast.parse(path.read_text()))
        if _multiplies_counts_by_a_gain(f)
    )
    assert products == [("gleak/preprocess.py", "data_table")]
    # the frequentist's table takes the gain ``fit`` was given, never rationalized
    (call,) = [
        call for call in ast.walk(fit)
        if isinstance(call, ast.Call) and _is_name_call("data_table")(call)
    ]
    assert ast.unparse(call) == "data_table(train, rational if method == 'data' else gain)"
    assigned = {
        target.id
        for node in ast.walk(fit)
        if isinstance(node, ast.Assign)
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
    }
    assert "gain" not in assigned


def _imports(name: str) -> set[str]:
    tree = ast.parse((SOURCE / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    return modules


def test_knn_takes_no_preprocessed_input():
    modules = _imports("knn.py")
    assert not modules & {".preprocess", "gleak.preprocess"}, sorted(modules)


def test_mlp_takes_no_preprocessed_input():
    modules = _imports("mlp.py")
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


def test_knn_measures_integer_points_one_way():
    tree = ast.parse((SOURCE / "knn.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    float_map = read & {"encode", "scale", "offset"}
    assert not float_map, f"the k-NN reads the codec's float map: {sorted(float_map)}"
    assert not _references_numpy(tree, {"sqrt"}), "the k-NN takes a square root"
    (run,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_run_votes"
    ]
    loops = (ast.For, ast.While, ast.comprehension, ast.FunctionDef, ast.Lambda)
    assert not [node for node in ast.walk(run) if isinstance(node, loops) and node is not run]


def _imports_numpy_ma(call: ast.Call) -> bool:
    """``np.quantile``, ``np.percentile``, ``np.median``, or ``np.unique``
    with no ``return_*`` flag: numpy 2.4 imports ``numpy.ma`` in each."""
    flagged = any((keyword.arg or "").startswith("return_") for keyword in call.keywords)
    return any(_is_numpy_call(call, name) for name in ("quantile", "percentile", "median")) or (
        _is_numpy_call(call, "unique") and not flagged and len(call.args) == 1
    )


def test_no_numpy_call_that_imports_numpy_ma():
    found = [f"{path}:{line} in {scope}" for path, scope, line in _found(_imports_numpy_ma)]
    assert not found, "numpy call that imports numpy.ma: " + ", ".join(found)


_STARTUP = """
import contextlib, io, json, sys
import gleak, gleak.cli, gleak.harness
from gleak.scenarios import build_scenario

build_scenario("dp")
with contextlib.redirect_stdout(io.StringIO()):
    code = gleak.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_after(argv: list[str]) -> set[str]:
    """The modules a fresh process holds after ``leak <argv>`` exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["modules"])


_ESTIMATE = ["estimate", "--scenario", "dp", "--m", "500", "--n", "500"]
_LOADED_ON_DEMAND = {"numpy.ma", "gleak.bounds"}


def test_an_estimate_imports_only_what_it_runs():
    modules = _modules_after([*_ESTIMATE, "--method", "frequentist"])
    unused = {
        "concurrent.futures",
        "csv",
        "gleak.io",
        "gleak.scenarios.location",
        "gleak.scenarios.multi_guess",
        "gleak.scenarios.password",
    }
    assert not unused & modules, sorted(unused & modules)
    assert "gleak.scenarios.dp" in modules


def test_a_data_estimate_loads_neither_numpy_ma_nor_the_bounds():
    loaded = _LOADED_ON_DEMAND & _modules_after([*_ESTIMATE, "--method", "data"])
    assert not loaded, sorted(loaded)


def test_a_trial_matrix_loads_neither_numpy_ma_nor_the_bounds(tmp_path):
    loaded = _LOADED_ON_DEMAND & _modules_after([
        "scenario", "dp", "--methods", "data,frequentist", "--learners", "knn",
        "--sizes", "200", "--train-sets", "1", "--valid-sets", "2", "--valid-size", "200",
        "--out", str(tmp_path / "dp"),
    ])
    assert not loaded, sorted(loaded)
    assert (tmp_path / "dp.boxplot.csv").read_text().count("\n") == 3  # emit_reports ran


def test_leak_bounds_loads_the_bounds():
    assert "gleak.bounds" in _modules_after([
        "bounds", "--m", "10", "--n", "10", "--sigma2", "0.1", "--range", "0", "1",
        "--hypotheses", "1", "--epsilon", "0.1", "--delta", "0.05", "--split", "0.025",
    ])
