"""Checks on the package source: every import is used, every
private module-level function and private method has a caller, every
public function and method is referenced outside its own body, no function
takes a private parameter but the two named below, every parameter with a
default is passed by some call in src/ or perfbench/, every dataclass field
has a reader, every local a function assigns is read, every option of a
subcommand is read by its command, every function the benchmark's tracer
wraps is defined in src/, only IetSpec.__init__ and as_float set
float_mode, neither rauzy nor search imports selfsim, a census run
through the CLI loads neither denjoy nor selfsim, src/ calls os.fork
nowhere, src/ reads numpy.random nowhere and a wandering run does not load
it, the Faddeev-LeVerrier loop runs
in the package under spectral's memo alone, the functools memos are the
six pinned below, RauzyGraph's cached views are nodes, succ and mats,
_Spectrum keeps only what the polynomial decides, the blow-up's orbit
points are sorted in gap_system_build alone, and the census stages after
_class_payload read its class layout, not the graph.  A deletion that
leaves an import, a helper, a field, a local or an option behind, a
parameter that only tests set, or that removes or renames a traced
function, fails here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flipiet"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _reads(tree):
    """Identifiers and attribute names read in a module, and the entries of
    its __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            out.update(ast.literal_eval(node.value))
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":          # the package's imports are its exports
            continue
        reads = _reads(tree)
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in reads]
    assert unused == []


def _defs(body, prefix):
    """(qualified name, node) of each function defined in a module body, of
    each method of the classes defined there, and of the functions nested
    in either."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield qualified, node
            yield from _defs(node.body, qualified)


def test_every_private_function_is_referenced():
    reads = set().union(*map(_reads, MODULES.values()))
    dead = [qualified for name, tree in MODULES.items()
            for qualified, node in _defs(tree.body, name)
            if node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in reads]
    assert dead == []


def _references(tree):
    """(name, line) of each identifier, attribute name and identifier-like
    string constant (a name looked up by getattr or a tracer table) in a
    module, but the entries of its __all__."""
    exported = {id(c) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                for c in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            yield node.value, node.lineno


def test_every_public_function_is_referenced():
    """Every public function or method in src/ is referenced by name outside
    its own body: in src/ (the package's exports in __init__.py do not
    count), in perfbench/ outside its tests, or in the acceptance suite.
    Names match on their own, so a method is referenced by any attribute of
    its name.  The two exempt are the test reference for the fixed-word
    claim in denjoy's docstring and the writer of exchange specs."""
    exempt = {"selfsim.fixed_word", "io.save_iet"}
    callers = {name: tree for name, tree in MODULES.items() if name != "__init__"}
    callers.update({f"perfbench/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
                    for path in sorted((ROOT / "perfbench").glob("*.py"))
                    if not path.name.startswith("test_")})
    callers["test_acceptance"] = ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    where = {}
    for module, tree in callers.items():
        for ref, line in _references(tree):
            where.setdefault(ref, []).append((module, line))
    unreferenced = {
        qualified for name, tree in MODULES.items()
        for qualified, fn in _defs(tree.body, name)
        if not fn.name.startswith("_") and all(
            module == name and fn.lineno <= line <= fn.end_lineno
            for module, line in where.get(fn.name, ()))}
    assert unreferenced == exempt


def test_every_traced_function_resolves():
    # perfbench/layers.py wraps each (module, attribute) of its WRAPPED table
    # by name; the table is read here, not imported, and each name must be a
    # function or method defined in src/, so a rename there fails here
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"])
    names = [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1]))
             for row in table.elts]
    assert len(names) > 20
    defined = {qualified for name, module_tree in MODULES.items()
               for qualified, _node in _defs(module_tree.body, f"flipiet.{name}")}
    missing = [f"{module}.{attr}" for module, attr in names
               if f"{module}.{attr}" not in defined]
    assert missing == []


def test_no_private_parameters():
    # a value the code can work out from its other inputs is no parameter;
    # the two allowed mark a trusted input and a cache the caller holds
    allowed = {"numfield.NumberField.__init__(_trusted)",
               "io.algebraic_from_json(_cache)"}
    found = set()
    for name, tree in MODULES.items():
        for qualified, node in _defs(tree.body, name):
            args = node.args
            every = (args.posonlyargs + args.args + args.kwonlyargs
                     + [a for a in (args.vararg, args.kwarg) if a])
            found.update(f"{qualified}({a.arg})" for a in every
                         if a.arg.startswith("_"))
    assert found == allowed


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, of a function or method in src/, is
    passed by some call in src/ or perfbench/ (outside its tests): by
    keyword, by position, or through * or **.  Calls match by the called
    name, a class name standing for its __init__.  A default that only tests
    override is a setting nobody uses; the value belongs in a constant,
    which a test can monkeypatch."""
    callers = [*MODULES.values()] + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")]
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(called, []).append(node)
    unpassed = []
    for name, tree in MODULES.items():
        for qualified, fn in _defs(tree.body, name):
            args = fn.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]     # a method's own object
            first = len(positional) - len(args.defaults)
            defaulted = [(a, i) for i, a in enumerate(positional) if i >= first]
            defaulted += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            called = (qualified.split(".")[-2] if fn.name == "__init__"
                      else fn.name)
            for arg, index in defaulted:
                if not any(
                        any(k.arg in (arg.arg, None) for k in call.keywords)
                        or (index is not None and (
                            len(call.args) > index
                            or any(isinstance(a, ast.Starred) for a in call.args)))
                        for call in calls.get(called, ())):
                    unpassed.append(f"{qualified}({arg.arg})")
    assert unpassed == []


def test_every_dataclass_field_is_read():
    """Every field of a dataclass in the package is read as an attribute
    somewhere in the package or the tests, but in WanderingCertificate,
    which the CLI writes out whole with dataclasses.asdict.  Fields match by
    name, so a field whose name is read on another class, such as word or
    address, is not caught."""
    dumped = {"WanderingCertificate"}
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("*.py"))]
    reads = {node.attr for tree in [*MODULES.values(), *tests]
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{stmt.target.id}"
              for tree in MODULES.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name not in dumped
              and any(getattr(d, "id", None) == "dataclass"
                      for d in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads]
    assert unread == []


def test_every_local_is_read():
    """Every name a function binds (by =, +=, for, with, := or a
    comprehension) is read in it, nested functions included, other than by
    an assignment that binds it alone: an accumulator that only feeds
    itself fails, and so does an unused loop index.  Names that start with
    _ are exempt; they mark a value unpacked or counted and let go."""
    dead = []
    for name, tree in MODULES.items():
        for qualified, fn in _defs(tree.body, name):
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            own = set()
            for stmt in ast.walk(fn):
                if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (stmt.targets if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                    bound = {n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)}
                    if len(bound) == 1:     # x = f(x) feeds only x
                        own.update(id(n) for n in ast.walk(stmt.value)
                                   if isinstance(n, ast.Name) and n.id in bound)
            read = {n.id for n in names
                    if isinstance(n.ctx, ast.Load) and id(n) not in own}
            dead += sorted({f"{qualified}: {n.id}" for n in names
                            if isinstance(n.ctx, ast.Store)
                            and not n.id.startswith("_") and n.id not in read})
    assert dead == []


def _args_read(fn):
    """Options fn reads off args: args.dest, or getattr(args, "dest", ...)."""
    out = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) == "args"):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and getattr(node.args[0], "id", None) == "args"):
            out.add(ast.literal_eval(node.args[1]))
    return out


def test_every_cli_option_is_read():
    """Every option a subcommand's parser defines is read off args by the
    subcommand's function, or by the helper that handles the option when the
    function calls it: _load_spec for --spec, _emit or _write for --out.
    _config_of copies every option into the report, so it is no reader: an
    option that is parsed and then ignored fails here."""
    from flipiet.cli import build_parser
    handlers = {"spec": {"_load_spec"}, "out": {"_emit", "_write"}}
    cli = {node.name: node for node in MODULES["cli"].body
           if isinstance(node, ast.FunctionDef)}
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    unread = []
    for name, parser in commands.choices.items():
        fn = cli[parser.get_default("fn").__name__]
        called = {getattr(node.func, "id", None) for node in ast.walk(fn)
                  if isinstance(node, ast.Call)}
        for action in parser._actions:
            readers = [fn] + [cli[h] for h in handlers.get(action.dest, ())
                              if h in called]
            if action.dest != "help" and not any(
                    action.dest in _args_read(f) for f in readers):
                unread.append(f"{name} {action.option_strings[0]}")
    assert unread == []


def test_float_mode_is_set_in_two_places():
    """float_mode is assigned in iet.py only: False in IetSpec.__init__ and
    True in IetSpec.as_float, and never by name (setattr), so the float view
    stays the one way into float exchanges."""
    def stores(node):
        return [a for a in ast.walk(node) if isinstance(a, ast.Attribute)
                and a.attr == "float_mode" and isinstance(a.ctx, ast.Store)]

    assert sum(len(stores(tree)) for tree in MODULES.values()) == 2
    assert not [c for tree in MODULES.values() for c in ast.walk(tree)
                if isinstance(c, ast.Constant) and c.value == "float_mode"]
    iet = dict(_defs(MODULES["iet"].body, "iet"))
    placed = [(name, ast.literal_eval(stmt.value))
              for name in ("iet.IetSpec.__init__", "iet.IetSpec.as_float")
              for stmt in ast.walk(iet[name])
              if isinstance(stmt, ast.Assign) and stores(stmt)]
    assert placed == [("iet.IetSpec.__init__", False),
                      ("iet.IetSpec.as_float", True)]


def test_typed_moves_run_no_induction():
    """The Rauzy graph and the Rauzy step take the closed-form typed move:
    neither rauzy nor search imports selfsim or anything from it, whose
    induce is the geometric reference the tests hold the move to."""
    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""
                yield from (f"{node.module or ''}.{alias.name}"
                            for alias in node.names)

    found = [f"{name}: {module}" for name in ("rauzy", "search")
             for module in imported(MODULES[name])
             if module.split(".")[-1] == "selfsim"]
    assert found == []


def test_search_loads_neither_denjoy_nor_selfsim():
    """A fresh interpreter that imports the CLI and runs a census has not
    loaded the blow-up or self-similarity module: only selfsim and
    wandering import them, when they run."""
    code = ("import sys, flipiet.cli\n"
            "assert flipiet.cli.main(['search', '--n', '3', '--max-len', '6']) == 0\n"
            "print(sorted(m for m in ('flipiet.denjoy', 'flipiet.selfsim')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_src_calls_os_fork_nowhere():
    """No module in src/ reads os.fork or os.forkpty, or imports them: the
    gap dump runs in process, and the census's pool spawns its workers."""
    forks = [node for tree in MODULES.values() for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ("fork", "forkpty")
                 and getattr(node.value, "id", None) == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {a.name for a in node.names} & {"fork", "forkpty"})]
    assert forks == []


def test_src_draws_without_numpy_random():
    """No module in src/ reads np.random or numpy.random, or imports it, and
    a wandering run in a fresh interpreter leaves numpy.random unloaded: the
    blow-up's two fixed-seed draws are draws.Pcg64's."""
    found = [f"{name}: {ast.unparse(node)}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "random"
                 and getattr(node.value, "id", None) in ("np", "numpy"))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").startswith("numpy")
                 and ((node.module or "").startswith("numpy.random")
                      or "random" in {a.name for a in node.names}))
             or (isinstance(node, ast.Import)
                 and any(a.name.startswith("numpy.random") for a in node.names))]
    assert found == []
    code = ("import sys, flipiet.cli\n"
            "flipiet.cli.main(['wandering', '--gaps', '1500'])\n"
            "print('numpy.random' in sys.modules, 'flipiet.denjoy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False True"


def _callers(called):
    """The innermost function in src/ around each call of a function or
    method of this name, qualified by module."""
    out = set()
    for name, tree in MODULES.items():
        defs = list(_defs(tree.body, name))
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and called
                    == getattr(call.func, "id", getattr(call.func, "attr", None))):
                out.add(min(((q, fn) for q, fn in defs
                             if fn.lineno <= call.lineno <= fn.end_lineno),
                            key=lambda d: d[1].end_lineno - d[1].lineno)[0])
    return out


def test_faddeev_leverrier_runs_under_the_spectral_memo_alone():
    """polys.faddeev_leverrier, d - 1 integer matrix products, is called by
    spectral's memo and by polys.char_poly, whose one caller, mat_det, has
    none in src/: an inverse or a solve that runs the whole loop again
    fails here."""
    assert _callers("faddeev_leverrier") == {"spectral._faddeev_leverrier",
                                             "polys.char_poly"}
    assert _callers("char_poly") == {"polys.mat_det"}
    assert _callers("mat_det") == set()


def test_probe_blocks_walk_in_orbit_counts_alone():
    """_orbit_counts is the ergodic probe's one block walker: it counts
    each orbit and grows the shared history in the same walk, so a second
    loop around _block, which would walk the history's steps again, fails
    here."""
    assert _callers("_block") == {"denjoy._orbit_counts"}


def test_memos_are_pinned():
    """The functions in src/ under functools.cache or lru_cache, each with
    the parameters its memo is keyed on and its bound (None for cache).
    Each memo hands one result to every caller and holds what it keeps
    until evicted, so a new memo, a new key or a wider bound takes an edit
    here."""
    found = {}
    for name, tree in MODULES.items():
        for qualified, fn in _defs(tree.body, name):
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                called = call.func if call else dec
                kind = getattr(called, "id", getattr(called, "attr", None))
                if kind not in ("cache", "lru_cache"):
                    continue
                bound = None if kind == "cache" else 128    # lru_cache's default
                for arg in (call.args if call else []):
                    bound = ast.literal_eval(arg)
                for kw in (call.keywords if call else []):
                    if kw.arg == "maxsize":
                        bound = ast.literal_eval(kw.value)
                found[qualified] = (tuple(a.arg for a in fn.args.args), bound)
    assert found == {
        "cli.build_parser": ((), None),
        "polys.squarefree_chain": (("p",), 4),
        "rauzy._step_matrix": (("n", "s", "through"), None),
        "rauzy._column_moves": (("m",), None),
        "spectral._faddeev_leverrier": (("rows",), 4),
        "spectral._spectrum": (("cp",), 256),
    }


def _class(module, name):
    return next(node for node in MODULES[module].body
                if isinstance(node, ast.ClassDef) and node.name == name)


def test_rauzy_graph_caches_three_tuple_views():
    """The graph is its arrays; nodes, succ and mats are the tuple views
    that perfbench's spectra pool reads, and no other view is cached on
    it."""
    cached = [fn.name for fn in _class("search", "RauzyGraph").body
              if isinstance(fn, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property"
                      for d in fn.decorator_list)]
    assert cached == ["nodes", "succ", "mats"]


def test_spectrum_keeps_what_the_polynomial_decides():
    """The spectrum memo's entry holds the polynomial, its roots and the
    screen's verdict: nothing that depends on a matrix of the polynomial."""
    slots = [ast.literal_eval(stmt.value)
             for stmt in _class("spectral", "_Spectrum").body
             if isinstance(stmt, ast.Assign)
             and [getattr(t, "id", None) for t in stmt.targets]
             == ["__slots__"]]
    assert slots == [("cp", "_roots", "_verdict")]


def test_orbit_points_are_sorted_in_gap_system_build_alone():
    """gap_system_build lays the gaps out in the order of the orbit points
    and keeps it (GapSystem.order); the other readers take that order.  In
    denjoy only it and _layout, which sorts the probe's own history,
    argsort, and no sort anywhere in src/ reads orbit_points."""
    assert {q for q in _callers("argsort") if q.startswith("denjoy.")} == {
        "denjoy.gap_system_build", "denjoy._layout"}
    sorts = [call for tree in MODULES.values() for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", getattr(call.func, "attr", None))
             in ("argsort", "sort", "sorted", "lexsort")]
    assert not [call.lineno for call in sorts for node in ast.walk(call)
                if getattr(node, "attr", None) == "orbit_points"]


def test_census_stages_read_the_class_payload_alone():
    """_class_payload alone lays the Rauzy classes out.  The stages that
    read its payload, _qualifiable, _cycle_count, _census_worker and
    _Walker, take no graph and read none of RauzyGraph's fields, views or
    methods; the walker's own n, succ and mats share three of those names
    and are read through self or walker.  In search only _class_payload,
    cycle_search (for _rauzy_classes), CycleCandidate.rotate_to and the
    graph's own views read an attribute targets."""
    body = _class("search", "RauzyGraph").body
    graph = ({fn.name for fn in body if isinstance(fn, ast.FunctionDef)}
             | {f.target.id for f in body if isinstance(f, ast.AnnAssign)})
    stages = [node for node in MODULES["search"].body
              if getattr(node, "name", None)
              in ("_qualifiable", "_cycle_count", "_census_worker", "_Walker")]
    assert len(stages) == 4 and {"targets", "succ", "index"} <= graph
    found = [f"{stage.name}: {ast.unparse(node)}"
             for stage in stages for node in ast.walk(stage)
             if (isinstance(node, ast.arg) and node.arg == "graph")
             or (isinstance(node, ast.Name)
                 and node.id in ("graph", "RauzyGraph"))
             or (isinstance(node, ast.Attribute) and node.attr in graph
                 and getattr(node.value, "id", None) not in ("self",
                                                             "walker"))]
    assert found == []
    readers = {q for q, fn in _defs(MODULES["search"].body, "search")
               for node in ast.walk(fn)
               if getattr(node, "attr", None) == "targets"}
    assert readers == {"search._class_payload", "search.cycle_search",
                       "search.CycleCandidate.rotate_to",
                       "search.RauzyGraph.succ", "search.RauzyGraph.mats"}
