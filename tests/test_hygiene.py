"""Source hygiene: no unused imports, no randomness, one source of orbit data.

No linter ships with the toolchain, so this stdlib-`ast` scan is the guard.
No function imports anything, and a module-level import must be used
somewhere in the module.  No module may import `random` anywhere, so
every validator stays deterministic.  Only
`gsets` may call `.stabilizer(` or `.fixed_points(`: every other module
reads orbits, stabilizers and their classes from `GSet.orbit_index`, and
fixed points per subgroup class from `GSet.fixed_orbits`.  The presented box
product has one implementation, the Mackey formula on over-codes: its
functions build no G-maps, G-set products or spans, and its level
relations are sparse columns handed to the column Hermite form, with no
dense block, row list, row sort or dense Hermite form.  Its generators
have one layout, the over-code starts `box` computes and `BoxData` keeps:
no other function lays them out again, and `dress_pairing` takes the
`BoxData` it pairs into.  A Green module is
its level action tables: the functions that build, cover, map and check
modules present no box product and build no map out of one.  Res and tr
along a G-map have one path on the resolution and Tor route, the orbit
blocks of `MackeyFunctor.gmap_blocks`: no function in `homalg`, and
none of `convolution.yoneda_levels`, `convolution.dress_pairing`,
`convolution.internal_hom_rep` and `mackey.identity_element_vector`
builds a span element, a canonical code or a dense span matrix.  The
Yoneda formula of the Dress construction is written once, in
`convolution.yoneda_levels`: `homalg._classifying_mats` and
`dress_pairing` call it with their own pairings, and no dense diagonal
pairing over all of X x G/H is left.  Span composition has one walk over
the double cosets: `compose` hands every basis pair to one helper, which
checks nothing, reads its rows from the fibre table `_fibre_rows` alone
and is the helper `convolution.over_image` calls, which checks nothing
either; `burnside` keeps no second walk and no `Counter`.  A span code
is checked once, where it enters an element: `compose`, `tensor` and `dual` call no `code_subgroup`, and no file in
src or tests but `burnside.py` names the unchecked constructor
`BurnsideElement._of_checked`.  Every canonical span code and over-code
is read from the G-sets' orbit tables by `burnside._least_pair` or, for
an over-code, by the lookup `_least_point` it shares; `_least_pair`
and `_hom_codes`, the basis `hom_basis` copies, read the least points
of S-orbits from the table `burnside._least_under`: the functions that read one minimize over no
group elements themselves, and nothing in src names a `transporters`.  `ktheory` composes no spans and
evaluates none: K0 shares only the structure G-maps with the span-built
Burnside functor it is compared with.  The naturality conditions are
listed once: `MackeyMorphism._check` and `NatSolver` read res, tr and
conjugation only through `mackey._naturality`, and `intmat.kron` is the
one Kronecker product.  A functor given by a rule has one builder,
`mackey_from_gmaps`: besides it only `mackey_from_levels` and the
levelwise constructions call `MackeyFunctor` directly, and no
span-action builder is left in src.  Every public top-level function
of the package is called in it, exported from it, or read by the
benchmark or the demos; helpers only tests read live in tests/support.py.
Memos follow two rules.  What one object derives (a group, a G-set, a
functor, a chain complex or a filtration) is memoized on that owner,
through `groups.owned`, or is a cached property: a functor keeps `weyl`,
its covering steps, res and tr chains and span blocks that way, with no
`_StructureStore`, `structure` or store dict left, and `convolution`
assigns nothing onto a functor.  What is built from a pair is memoized
on one of them, keyed weakly by the other and by nothing else, through
`groups.paired`, with a case in tests/test_memory.py showing the partner
is let go.  No attribute or field whose name ends in `cache` is left,
and the only process-wide caches are the bounded ones of
`builtin_group`, `_spec_group` and `cli.build_parser`.  Free resolutions
have one cover: `module_cover`, `module_resolution` and `tor` take no
`reverse` direction, and the top-down second cover lives in
tests/support.py.  A Tor call
presents no box: `_tor_of_resolution` calls none of `rel_box`, `box` and
`dress_pairing`, which the result's Tor_0 witness calls when first read.
Its differentials read the Yoneda formula orbit by orbit:
`homalg._dress_map` builds no union of orbits and restricts nothing
along a G-map into one.
Every generated subgroup is read off one walk, `groups._walk`:
`FiniteGroup.closure` takes its labels and keeps no loop of its own,
`mackey` defines conjugation along it and no walk of its own, and
`validate_functoriality` reads the walk's tree from it to skip the
homomorphism cells that hold by definition.
The orbit tables of a G-set come from one walk, `gsets._orbit_walk`: the
orbit index, the fixed orbits, the subgroup orbits and
`burnside._least_under` each call it once and iterate its labels nowhere
else, and `_orbits_on` is gone.  `product`, `coproduct` and `pullback`
relabel raw rows that are an action by construction: they build no
`GSet`, call no `canonicalize` and invert no isomorphism.
The readers of the Smith form that want sparse factors, `Solver`,
`kernel` and `snf_diagonal`, read the elimination `intmat._smith`
itself: they call no `smith_normal_form`, whose dense view is the only
one that builds arrays, and read no factor back through
`_column_entries`.  A presented group stores only its minimal
presentation, read off `_smith` too: `abgroups` calls no
`smith_normal_form`, no other module reads a group's presentation
fields (they ask `FinPresAbGroup.minimal_presentation`), and no dense
`_transforms` pair is left.
Coordinates in a sublattice are solved through one type: outside
`intmat`, only `mackey._Coordinates` builds an `intmat.Solver`, one per
class on first use, and `homalg` imports no private name of `mackey`.
A G-map skips the equivariance check only where its proof is: no file
in src or tests but `gsets.py` names `GMap._trusted`, so the maps of the
Dress terms are pairings and composites of proven maps.  A res or tr
matrix along a G-map is its orbit blocks placed: nothing in src passes an
`identity(...)` to `apply_gmap`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mackeykit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def _used_names(scope):
    return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}


def imported_modules(source):
    """(line, top-level module) of every absolute import, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return sorted(out)


def unused_imports(source):
    """(line, name) of every import whose name its scope never reads."""
    tree = ast.parse(source)
    out = []

    def visit(scope):
        used = _used_names(scope)
        for child in ast.iter_child_nodes(scope):
            stack = [child]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(node)
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    out.extend((node.lineno, name)
                               for name in _imported_names(node)
                               if name not in used)
                stack.extend(ast.iter_child_nodes(node))

    visit(tree)
    return sorted(out)


def test_scanner_finds_unused_module_and_local_imports():
    src = ("import os\nfrom x import a, b\n\n"
           "def f():\n    import numpy as np\n    return a\n")
    assert unused_imports(src) == [(1, "os"), (2, "b"), (5, "np")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_imports(source):
    """(function, line) of every import inside a function or method."""
    out = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend((scope.name, node.lineno) for node in ast.walk(scope)
                       if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(set(out))


def test_scanner_finds_imports_in_functions_and_methods():
    src = ("import os\n\ndef f():\n    from . import intmat\n"
           "    return intmat\n\nclass C:\n    def m(self):\n"
           "        if self:\n            import json\n")
    assert function_imports(src) == [("f", 4), ("m", 10)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_imports(path):
    # every dependency of a module is stated once, at its top
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_finds_module_level_and_local_random_imports():
    src = ("import random\nfrom random import Random\n\n"
           "def f():\n    import random as r\n    from . import random_x\n")
    assert [m for m in imported_modules(src) if m[1] == "random"] == \
        [(1, "random"), (2, "random"), (5, "random")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_random_imports(path):
    mods = imported_modules(path.read_text(encoding="utf-8"))
    assert [m for m in mods if m[1] == "random"] == []


ORBIT_METHODS = ("stabilizer", "fixed_points")


def orbit_method_calls(source):
    """Lines of every call of a `.stabilizer(...)` or `.fixed_points(...)`
    attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ORBIT_METHODS)


def test_scanner_finds_stabilizer_calls():
    src = ("def f(X, o):\n    s = X.stabilizer(o[0])\n"
           "    return g(X).stabilizer(0), stabilizer(1), X.stabilizer\n"
           "def h(X, L):\n    return fixed_points(L), X.fixed_points\n"
           "def k(O, L):\n    return [q for q in O.fixed_points(L)]\n")
    assert orbit_method_calls(src) == [2, 3, 7]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gsets.py"],
                         ids=lambda p: p.name)
def test_orbit_data_is_read_from_the_orbit_index(path):
    assert orbit_method_calls(path.read_text(encoding="utf-8")) == []


BOX_FUNCTIONS = ("box", "_box_level_presentation", "over_image")
SPAN_BUILDERS = {"GMap", "compose", "materialize_code", "product",
                 "transfer_element", "restriction_element"}


def named_calls(tree, names):
    """(line, name) of every call of one of `names` under an ast node, by
    bare name or as an attribute."""
    out = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if name in names:
            out.append((call.lineno, name))
    return sorted(out)


def calls_inside(source, functions, names):
    """(function, line, name) of every call of one of `names` inside the
    named top-level functions (nested scopes included), plus the set of
    those functions the source defines."""
    found, out = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.add(node.name)
            out.extend((node.name, line, name)
                       for line, name in named_calls(node, names))
    return sorted(out), found


def test_scanner_finds_span_builders_in_nested_scopes():
    src = ("def box(M):\n    def entry(e):\n        return gsets.product(e)\n"
           "    return GMap(M), compose\n\n"
           "def other():\n    return compose(1)\n")
    calls, found = calls_inside(src, ("box", "over_image"), SPAN_BUILDERS)
    assert calls == [("box", 3, "product"), ("box", 4, "GMap")]
    assert found == {"box"}


def test_box_structure_comes_from_over_codes_only():
    source = (PACKAGE / "convolution.py").read_text(encoding="utf-8")
    calls, found = calls_inside(source, BOX_FUNCTIONS, SPAN_BUILDERS)
    assert found == set(BOX_FUNCTIONS)
    assert calls == []


DENSE_RELATIONS = {"intmat", "zeros", "tolist", "sorted",
                   "hermite_normal_form"}

# The box level presentation, abridged, as it read when every relation was
# a dense row as wide as the level's generator count.
DENSE_BOX_LEVEL = '''
def _box_level_presentation(M, N, X, starts, gens):
    rows = set()

    def add(*pieces):
        block = intmat.zeros(gens, pieces[0][1].shape[1])
        rows.update(r for r in map(tuple, block.T.tolist()) if any(r))

    return FinPresAbGroup(gens, intmat.intmat(sorted(rows), gens))

def _box_level_hermite(rows, gens):
    return hermite_normal_form(intmat.intmat(rows, gens).T)
'''


def test_scanner_finds_dense_relation_rows():
    calls, found = calls_inside(DENSE_BOX_LEVEL, ("_box_level_presentation",
                                                  "_box_level_hermite"),
                                DENSE_RELATIONS)
    assert found == {"_box_level_presentation", "_box_level_hermite"}
    assert calls == [("_box_level_hermite", 12, "hermite_normal_form"),
                     ("_box_level_hermite", 12, "intmat"),
                     ("_box_level_presentation", 6, "zeros"),
                     ("_box_level_presentation", 7, "tolist"),
                     ("_box_level_presentation", 9, "intmat"),
                     ("_box_level_presentation", 9, "sorted")]


def test_box_relations_are_sparse_columns():
    # each box relation is a sparse column that goes straight to the
    # column Hermite form: no dense block or row, no list conversion, no
    # sort of rows and no dense Hermite form
    source = (PACKAGE / "convolution.py").read_text(encoding="utf-8")
    calls, found = calls_inside(source, ("_box_level_presentation",),
                                DENSE_RELATIONS)
    assert found == {"_box_level_presentation"}
    assert calls == []
    calls, _ = calls_inside(source, ("_box_level_presentation",),
                            {"hermite_normal_form_of_columns"})
    assert len(calls) == 1


LAYOUT_FUNCTIONS = {"_block_starts", "over_codes"}


def box_layout_report(source):
    """(top-level function or class, line, name) of every call of
    `_block_starts` or `over_codes` outside `box`; the fields `BoxData`
    declares; and (name, annotation) of `dress_pairing`'s first
    parameter."""
    calls, fields, first = [], [], None
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        if name != "box":
            calls.extend((name, line, called) for line, called
                         in named_calls(node, LAYOUT_FUNCTIONS))
        if isinstance(node, ast.ClassDef) and name == "BoxData":
            fields = [n.target.id for n in node.body
                      if isinstance(n, ast.AnnAssign)]
        if isinstance(node, ast.FunctionDef) and name == "dress_pairing":
            arg = node.args.args[0]
            first = (arg.arg, arg.annotation and ast.unparse(arg.annotation))
    return sorted(calls), fields, first


# The box layout, abridged, as it read when `BoxData` stored the over-codes
# and a dict per generator beside the starts `box` computed, and the
# pairing and `rel_box` computed the starts again.
BOX_LAYOUT_TWICE = '''
@dataclass
class BoxData:
    left: MackeyFunctor
    right: MackeyFunctor
    codes: tuple
    layout: tuple
    functor: MackeyFunctor = None

def box(M, N):
    codes = tuple(over_codes(X) for X in orbits)
    blocks = [_block_starts(M, N, cs) for cs in codes]

def _diagonal_pairing(M, N, Z, n_vec):
    starts, gens = _block_starts(M, N, over_codes(standard_orbit(group, L)))

def dress_pairing(M: MackeyFunctor, N, boxed, X, n_vec):
    pair = _diagonal_pairing(M, N, P.gset, n_res)

def rel_box(M, N):
    for code, s in _block_starts(Mk, Nk, data.codes[c])[0].items():
        pass
'''


def test_scanner_finds_a_box_layout_computed_twice():
    assert box_layout_report(BOX_LAYOUT_TWICE) == (
        [("_diagonal_pairing", 15, "_block_starts"),
         ("_diagonal_pairing", 15, "over_codes"),
         ("rel_box", 21, "_block_starts")],
        ["left", "right", "codes", "layout", "functor"],
        ("M", "MackeyFunctor"))


def test_box_generators_have_one_layout():
    # `box` lays out the generators once, as the over-code starts
    # `BoxData` keeps; no other function in src computes them again, and
    # the pairing reads them from the `BoxData` it pairs into
    for path in MODULES:
        calls, fields, first = box_layout_report(
            path.read_text(encoding="utf-8"))
        assert calls == [], path.name
        if path.name == "convolution.py":
            assert "starts" in fields
            assert not {"codes", "layout"} & set(fields)
            assert first == ("data", "BoxData")


MODULE_FUNCTIONS = {
    "homalg.py": ("canonical_module", "free_module", "module_kernel",
                  "module_cover", "classifying_morphism"),
    "convolution.py": ("validate_module", "green_from_levelwise",
                       "burnside_green", "validate_green"),
    "ktheory.py": ("k0_green",),
}
BOX_PRODUCT_CALLS = {"box", "box_map", "box_unit_eval", "box_unit_iso",
                     "action_from_tables"}

# The module constructions, abridged, as they read when a module stored its
# action as a map out of a box product that presented no relations.
BOXED_MODULES = '''
def canonical_module(G, M):
    data = box(G.unit_rep, M)
    return GreenModule(G, M, box_unit_eval(M, data), data)

def free_module(R, X):
    data = box(Rk, F)
    return FreeModule(R, X, GreenModule(R, F, action_from_tables(data, F, t),
                                        data))

def module_kernel(M, f):
    data_RK = box(M.ring.underlying, K)
    act = lift_through_inclusion(incl, compose_morphisms(
        act_M, box_map(identity_morphism(R), incl)))
'''


def test_scanner_finds_box_products_in_boxed_module_code():
    calls, found = calls_inside(BOXED_MODULES, MODULE_FUNCTIONS["homalg.py"],
                                BOX_PRODUCT_CALLS)
    assert found == {"canonical_module", "free_module", "module_kernel"}
    assert calls == [("canonical_module", 3, "box"),
                     ("canonical_module", 4, "box_unit_eval"),
                     ("free_module", 7, "box"),
                     ("free_module", 8, "action_from_tables"),
                     ("module_kernel", 12, "box"),
                     ("module_kernel", 14, "box_map")]


@pytest.mark.parametrize("name", sorted(MODULE_FUNCTIONS))
def test_modules_are_level_tables_built_without_box_products(name):
    # modules and Green functors are their level tables: building,
    # covering, checking and mapping them presents no box product and no
    # map out of one
    source = (PACKAGE / name).read_text(encoding="utf-8")
    calls, found = calls_inside(source, MODULE_FUNCTIONS[name], BOX_PRODUCT_CALLS)
    assert found == set(MODULE_FUNCTIONS[name])
    assert calls == []


SPAN_EVALUATION = {"eval_span", "restriction_element", "transfer_element",
                   "transitive_code"}

# The resolution and Tor path, abridged, as it read when a structure map
# along a G-map went through a span element, its canonical codes and a
# dense span matrix.
SPAN_ROUTE = '''
def _classifying_mats(M, X, m_vec):
    m_res = Mk.eval_span(restriction_element(P.left)) @ m_vec
    push = Mk.eval_span(transfer_element(P.right))

class Cover:
    def code(self, O, W, rep, o):
        return transitive_code(O, W, rep, o, 0)

def dress_pairing(M, N, boxed, X, n_vec):
    return boxed.eval_span(transfer_element(P.right)) @ pair
'''


def test_scanner_finds_span_evaluation_in_functions_and_methods():
    assert named_calls(ast.parse(SPAN_ROUTE), SPAN_EVALUATION) == [
        (3, "eval_span"), (3, "restriction_element"), (4, "eval_span"),
        (4, "transfer_element"), (8, "transitive_code"), (11, "eval_span"),
        (11, "transfer_element")]
    calls, found = calls_inside(SPAN_ROUTE, ("dress_pairing",),
                                SPAN_EVALUATION)
    assert found == {"dress_pairing"}
    assert calls == [("dress_pairing", 11, "eval_span"),
                     ("dress_pairing", 11, "transfer_element")]


# The span route the Tor terms and the identity class took, abridged: a
# term's res/tr along f was M on the span id_X (x) e, and [id_X] was read
# off the restriction span along each orbit embedding.
TERM_SPAN_ROUTE = '''
def internal_hom_rep(X, M):
    idX = identity_element(X)
    return mackey_from_span_action(
        group, levels, lambda e: M.eval_span(tensor(idX, e)))

def identity_element_vector(X):
    for emb, c in zip(X.orbit_embeddings, classes):
        for code, v in restriction_element(emb).coeffs.items():
            vec[lo + bases[c].index(code)] += v
'''
TOR_TERMS = {"convolution.py": ("yoneda_levels", "dress_pairing",
                               "internal_hom_rep"),
             "mackey.py": ("identity_element_vector",)}
SPAN_ROUTE_NAMES = SPAN_EVALUATION | {"tensor", "identity_element"}


def test_scanner_finds_the_span_route_of_the_tor_terms():
    calls, found = calls_inside(TERM_SPAN_ROUTE, TOR_TERMS["convolution.py"]
                                + TOR_TERMS["mackey.py"], SPAN_ROUTE_NAMES)
    assert found == {"internal_hom_rep", "identity_element_vector"}
    assert calls == [("identity_element_vector", 9, "restriction_element"),
                     ("internal_hom_rep", 3, "identity_element"),
                     ("internal_hom_rep", 5, "eval_span"),
                     ("internal_hom_rep", 5, "tensor")]


def test_tor_path_reads_structure_maps_orbit_by_orbit():
    # res and tr along a G-map on the resolution and Tor path come from
    # `MackeyFunctor.gmap_blocks`, the one path: no span element, no
    # canonical code and no dense span matrix, in `homalg`, in the Tor
    # terms M(X x -) and their pairing, or in the identity class [id_X]
    homalg = (PACKAGE / "homalg.py").read_text(encoding="utf-8")
    assert named_calls(ast.parse(homalg), SPAN_ROUTE_NAMES) == []
    for name, functions in TOR_TERMS.items():
        source = (PACKAGE / name).read_text(encoding="utf-8")
        calls, found = calls_inside(source, functions, SPAN_ROUTE_NAMES)
        assert found == set(functions)
        assert calls == []


YONEDA_PAIRINGS = ("_classifying_mats", "dress_pairing")


def yoneda_report(source):
    """(function, line) of every `yoneda_levels` call inside the Yoneda
    pairings, the pairings the source defines, and the line of every
    `_diagonal_pairing` it defines."""
    calls, found = calls_inside(source, YONEDA_PAIRINGS, {"yoneda_levels"})
    dense = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)
             and node.name == "_diagonal_pairing"]
    return [(f, line) for f, line, _ in calls], found, dense


# The two Yoneda pairings, abridged, as they read when each wrote the
# formula itself and the box pairing built a dense matrix over all of
# X x G/H before its transfer.
YONEDA_TWICE = '''
def _classifying_mats(M, X, m_vec):
    for c in range(len(group.subgroup_classes())):
        m_res = Mk.apply_gmap(P.left, m_vec)
        mats.append(intmat.hstack(
            [block @ (m_res[offsets[b]:offsets[b] + block.shape[1]]
                      @ M.tables[classes[b]]).T
             for b, _, block in Mk.gmap_blocks(P.right, transfer=True)]))

def _diagonal_pairing(data, Z, n_vec):
    out = intmat.zeros(bgrp.generator_count, mgrp.generator_count)
    for b, L in enumerate(classes):
        out[lo + i * nN + j, moff[b] + i] += x

def dress_pairing(data, X, n_vec):
    for c in range(len(group.subgroup_classes())):
        pair = _diagonal_pairing(data, P.gset,
                                 data.right.apply_gmap(P.left, n_vec))
        mats.append(data.functor.apply_gmap(P.right, pair, transfer=True))
'''


def test_scanner_finds_the_yoneda_formula_written_twice():
    assert yoneda_report(YONEDA_TWICE) == (
        [], {"_classifying_mats", "dress_pairing"}, [10])
    shared = ("def dress_pairing(data, X, n_vec):\n"
              "    return yoneda_levels(data.functor, data.right, X, n_vec,"
              " pair)\n")
    assert yoneda_report(shared) == ([("dress_pairing", 2)],
                                     {"dress_pairing"}, [])


def test_yoneda_pairings_share_one_formula():
    # the classifying maps of free modules and the box pairing of the Tor_0
    # witness both call `convolution.yoneda_levels`, which is a Tor term,
    # so it builds no span element, canonical code or dense span matrix;
    # no dense diagonal pairing is left
    callers, found, dense = set(), set(), []
    for path in MODULES:
        calls, defined, lines = yoneda_report(path.read_text(encoding="utf-8"))
        callers |= {f for f, _ in calls}
        found |= defined
        dense += [(path.name, line) for line in lines]
    assert callers == found == set(YONEDA_PAIRINGS)
    assert dense == []
    assert "yoneda_levels" in TOR_TERMS["convolution.py"]


def functor_constructions(source):
    """(top-level function or class, line) of every direct `MackeyFunctor`
    call, nested scopes included, and the top-level functions the source
    defines."""
    out, defined = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        name = getattr(node, "name", "<module>")
        out.extend((name, line)
                   for line, _ in named_calls(node, {"MackeyFunctor"}))
    return sorted(out), defined


# Two functors given by rules, abridged, as they read when the fixed-point
# functor built its structure maps by hand and spans were fed to the one
# builder through a helper of their own, and a method building a functor.
HAND_BUILT_FUNCTORS = '''
def mackey_from_span_action(group, levels, action):
    return mackey_from_gmaps(group, levels, lambda f, transfer: action(f))

def fixed_point_mackey(group, V, action):
    conj = [{s: on_fixed(act[s]) for s in gens} for cls in classes]
    return mackey.MackeyFunctor(group, levels, res, tr, conj)

class Box:
    def functor(self):
        return MackeyFunctor(*self.data)
'''
# every other functor given by a rule goes through `mackey_from_gmaps`
FUNCTOR_CONSTRUCTORS = {
    "mackey.py": {"mackey_from_gmaps", "mackey_from_levels", "direct_sum",
                  "cokernel", "_carried"},
    "homalg.py": {"rel_box"}}


def test_scanner_finds_direct_functor_constructions():
    calls, defined = functor_constructions(HAND_BUILT_FUNCTORS)
    assert calls == [("Box", 11), ("fixed_point_mackey", 7)]
    assert defined == {"mackey_from_span_action", "fixed_point_mackey"}


def test_functors_given_by_rules_are_built_along_g_maps():
    # fixed-point functors, representables, box products, K0 and the Dress
    # terms are all built by `mackey_from_gmaps`; only it, the
    # user-facing constructor and the levelwise constructions call
    # `MackeyFunctor` directly, and no span-action builder is left in src
    for path in MODULES:
        calls, defined = functor_constructions(
            path.read_text(encoding="utf-8"))
        assert {name for name, _ in calls} == \
            FUNCTOR_CONSTRUCTORS.get(path.name, set()), path.name
        assert "mackey_from_span_action" not in defined, path.name


RETIRED_WALKS = {"Counter", "_compose_codes", "_double_coset_codes",
                 "_tensor_codes"}


def one_walk_report(burnside, convolution):
    """(names of RETIRED_WALKS that `burnside` defines, imports or reads;
    the burnside functions other than `code_subgroup` that `compose`
    calls; those of them `convolution.over_image` calls too; the
    `code_subgroup` calls in compose, in those shared helpers and in
    over_image)."""
    tree = ast.parse(burnside)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    names = set(functions) | _used_names(tree) | {
        name for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_names(node)}
    called = {name for _, name in named_calls(functions["compose"],
                                               set(functions))}
    called.discard("code_subgroup")
    shared, _ = calls_inside(convolution, ("over_image",), called)
    shared = {name for _, _, name in shared}

    def checks(node):
        return len(named_calls(node, {"code_subgroup"}))

    over_image = next(n for n in ast.parse(convolution).body
                      if isinstance(n, ast.FunctionDef)
                      and n.name == "over_image")
    return (names & RETIRED_WALKS, called, shared,
            (checks(functions["compose"]),
             sum(checks(functions[name]) for name in shared),
             checks(over_image)))


# Composition as it read with a per-pair walk of its own, abridged.
PER_PAIR_WALK = '''
from collections import Counter

def _compose_codes(X, Y, Z, c1, c2):
    code_subgroup(X, Y, c1)
    code_subgroup(Y, Z, c2)
    return Counter(_double_coset_codes(c1, c2))

def compose(s2, s1):
    for c1 in s1:
        for c2 in s2:
            out.update(_compose_codes(X, Y, Z, c1, c2))
'''
OVER_IMAGE = '''
def over_image(S, T, ecode, code):
    terms = _compose_codes(standard_orbit(group, cw), S, T, code, ecode)
'''


def test_scanner_finds_a_per_pair_walk_and_its_checks():
    assert one_walk_report(PER_PAIR_WALK, OVER_IMAGE) == (
        {"Counter", "_compose_codes", "_double_coset_codes"},
        {"_compose_codes"}, {"_compose_codes"}, (0, 2, 0))


def test_compose_and_over_image_share_one_walk():
    burnside = (PACKAGE / "burnside.py").read_text(encoding="utf-8")
    convolution = (PACKAGE / "convolution.py").read_text(encoding="utf-8")
    retired, called, shared, checks = one_walk_report(burnside, convolution)
    assert retired == set()
    assert len(called) == 1 and shared == called
    # compose, the walk and over_image check nothing: an element's codes
    # were checked where they entered, and over_image's callers build
    # theirs valid
    assert checks == (0, 0, 0)


def fibre_row_report(source):
    """(the number of `_fibre_rows` calls in `_add_composite`, and
    (line, name) of every `standard_orbit` call and `subgroup_orbits`
    read in it)."""
    walk = next(n for n in ast.parse(source).body
                if isinstance(n, ast.FunctionDef)
                and n.name == "_add_composite")
    read = [(node.lineno, node.attr) for node in ast.walk(walk)
            if isinstance(node, ast.Attribute)
            and node.attr == "subgroup_orbits"]
    return (len(named_calls(walk, {"_fibre_rows"})),
            sorted(read + named_calls(walk, {"standard_orbit"})))


# The composition walk, abridged, as it read when it filtered the rows of
# G/M by the fibre condition on every call.
ROWS_FILTERED_PER_CALL = '''
def _add_composite(out, a, X, Y, Z, c1, c2):
    for b, k, t in standard_orbit(X.group, m).subgroup_orbits[c]:
        if ya[b][yp] == y:
            codes.append((k, *_least_pair(X, Z, k, t, x, za[b][z])[:2]))
'''


def test_scanner_finds_fibre_rows_filtered_per_call():
    assert fibre_row_report(ROWS_FILTERED_PER_CALL) == (
        0, [(3, "standard_orbit"), (3, "subgroup_orbits")])


def test_composition_reads_its_rows_from_the_fibre_table():
    # the rows over a fibre are filtered and sorted once per middle G-set
    # and key, by `_fibre_rows`; the walk reads them from there alone
    source = (PACKAGE / "burnside.py").read_text(encoding="utf-8")
    assert fibre_row_report(source) == (1, [])


def test_elements_are_not_checked_again():
    # an element's codes were checked where they entered, so the
    # operations on elements check none
    calls, found = calls_inside((PACKAGE / "burnside.py").read_text(
        encoding="utf-8"), ("compose", "tensor", "dual"), {"code_subgroup"})
    assert calls == [] and found == {"compose", "tensor", "dual"}


def trusted_constructions(source, name="_of_checked"):
    """Lines of every name or attribute `name` in a source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if name in (getattr(node, "id", None),
                              getattr(node, "attr", None)))


def test_scanner_finds_trusted_constructions():
    source = ("from mackeykit.burnside import BurnsideElement as B\n"
              "e = B._of_checked(X, Y, {bad: 1})\n"
              "make = getattr(B, '_of_checked')\n"
              "f = _of_checked\n")
    assert trusted_constructions(source) == [2, 4]


def test_only_burnside_builds_unchecked_elements():
    # no element reaches compose, tensor or dual past the constructor's
    # check: only burnside's own constructions skip it
    tests = pathlib.Path(__file__).resolve().parent
    for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py")):
        if path.name != "burnside.py":
            assert trusted_constructions(
                path.read_text(encoding="utf-8")) == [], path.name


def test_scanner_finds_unchecked_gmaps():
    source = ("from mackeykit.gsets import GMap\n"
              "f = GMap._trusted(X, Y, (0, 1))\n"
              "make = getattr(GMap, '_trusted')\n"
              "g = _trusted(X, X, ())\n")
    assert trusted_constructions(source, "_trusted") == [2, 4]


def test_only_gsets_builds_unchecked_gmaps():
    # a G-map skips the equivariance check only inside `gsets`, where each
    # constructor that skips it carries its proof: every other module
    # builds its maps from those constructors or through the check
    tests = pathlib.Path(__file__).resolve().parent
    for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py")):
        if path.name != "gsets.py":
            assert trusted_constructions(path.read_text(encoding="utf-8"),
                                         "_trusted") == [], path.name


def identity_into_apply_gmap(source):
    """Lines of every call of `apply_gmap` with an `identity(...)` call in
    one of its arguments."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "apply_gmap" in (getattr(node.func, "id", None),
                             getattr(node.func, "attr", None))
        and any(isinstance(sub, ast.Call) and "identity" in (
                    getattr(sub.func, "id", None),
                    getattr(sub.func, "attr", None))
                for arg in node.args + [k.value for k in node.keywords]
                for sub in ast.walk(arg)))


# `internal_hom_rep`'s structure maps, abridged, as they read when each
# was an object product of M's orbit blocks with an identity.
IDENTITY_ROUTE = '''
def internal_hom_rep(X, M):
    def along(f, transfer):
        P, Q = product(X, f.source), product(X, f.target)
        g = GMap(P.gset, Q.gset, [Q.of_pair(x, f.mapping[o]) for x, o in
                                  zip(P.left.mapping, P.right.mapping)])
        n = M.offsets(g.source if transfer else g.target)[-1]
        return M.apply_gmap(g, intmat.identity(n), transfer)
    keep = M.apply_gmap(g, v=identity(3)), apply_gmap(g, eye, transfer=True)
'''


def test_scanner_finds_identities_applied_along_gmaps():
    assert identity_into_apply_gmap(IDENTITY_ROUTE) == [8, 9]


def test_no_identity_is_applied_along_a_gmap():
    # a res or tr matrix along a G-map is its orbit blocks placed
    # (`MackeyFunctor.gmap_matrix`), not a product with an identity
    for path in MODULES:
        assert identity_into_apply_gmap(
            path.read_text(encoding="utf-8")) == [], path.name


# The functions that read a canonical span code or over-code, by module,
# each with the helper that reads it from the orbit tables: `_least_pair`
# for a span code, and for an over-code, which has one foot, the lookup
# `_least_point` that `_least_pair` reads its first entry through.
# `_least_pair` reads its second entry, and `_hom_codes` (the basis
# `hom_basis` copies) filters Y^R,
# through the table of S-orbit least points `_least_under`.
CODE_READERS = {"burnside.py": {"transitive_code": "_least_pair",
                                "_add_composite": "_least_pair",
                                "tensor": "_least_pair",
                                "_hom_codes": "_least_under",
                                "_least_pair": "_least_under",
                                "canonical_code": "_least_pair",
                                "dual": "_least_pair"},
                "convolution.py": {"over_image": "_least_point"}}
CODE_HELPERS = {"_least_pair", "_least_point", "_least_under"}


def canonicalizer_report(sources):
    """For {module file name: source}: (the code readers that do not call
    their helper in CODE_READERS, the code readers that call `min` or
    `transporters` themselves, and (module, line) of every line that
    defines, reads or calls a `transporters`)."""
    missing, brute, movers = set(), set(), set()
    for module, source in sources.items():
        readers = CODE_READERS.get(module, {})
        calls, _ = calls_inside(source, readers,
                                CODE_HELPERS | {"min", "transporters"})
        helped = {f for f, _, name in calls if name == readers[f]}
        missing |= {(module, f) for f in readers.keys() - helped}
        brute |= {(module, f) for f, _, name in calls
                  if name not in CODE_HELPERS}
        movers |= {(module, node.lineno)
                   for node in ast.walk(ast.parse(source))
                   if "transporters" in (getattr(node, "id", None),
                                         getattr(node, "attr", None),
                                         getattr(node, "name", None))}
    return missing, brute, sorted(movers)


# The code readers, abridged, as they read when each minimized over the
# transporters, the normalizer or the stabilizer S itself, or walked the
# S-orbits with a seen set.
BRUTE_FORCE_CODES = {"burnside.py": '''
def transitive_code(X, Y, L, x, y):
    cidx, movers = X.group.transporters(L)
    best = min([(xa[g][x], ya[g][y]) for g in movers])
    return (cidx, best[0], best[1])

def _add_composite(out, a, X, Y, Z, c1, c2):
    transporters = X.group.transporters
    for p, K in O.subgroup_orbits[c]:
        cidx, movers = transporters(K)
        codes.append((cidx, *min([(xa[g][x], za[g][zb]) for g in movers])))

def tensor(s, t):
    transporters = s.group.transporters
    for p, K in O.subgroup_orbits[c]:
        cidx, movers = transporters(K)
        code = (cidx, *min([(sa[g][u], ta[g][v]) for g in movers]))

def _least_pair(X, Y, c, t, x, y):
    x0, n = _least_point(X, c, X.action[t][x])
    y1 = ya[n][ya[t][y]]
    return x0, min([ya[s][y1] for s in X.fixed_orbits[c].orbits[x0]]), n

def _hom_codes(X, Y):
    for c, (fx, fy) in enumerate(zip(X.fixed_orbits, Y.fixed_orbits)):
        for x0, S in fx.orbits.items():
            rows = [ya[s] for s in S]
            seen = set()
            for y in fy.points:
                if y not in seen:
                    out.append((c, x0, y))
                    seen.update(row[y] for row in rows)

def canonical_code(X, Y, code):
    c, x, y = code
    normalizer = X.group.subgroup_classes()[c].normalizer
    return (c, *min((X.action[n][x], Y.action[n][y]) for n in normalizer))

def dual(s):
    for (c, x, y), a in s.coeffs.items():
        normalizer = s.group.subgroup_classes()[c].normalizer
        out[(c, *min((ya[n][y], xa[n][x]) for n in normalizer))] = a
''', "convolution.py": '''
def over_image(S, T, ecode, code):
    for (cwp, o, y), mult in terms.items():
        normalizer = S.group.subgroup_classes()[cwp].normalizer
        zstar, u = min((T.action[n][y], n) for n in normalizer)
'''}


def test_scanner_finds_code_readers_that_minimize_themselves():
    missing, brute, movers = canonicalizer_report(BRUTE_FORCE_CODES)
    every = {(m, f) for m, readers in CODE_READERS.items() for f in readers}
    # the seen-set walk calls no `min`, but not its helper either
    assert missing == every
    assert brute == every - {("burnside.py", "_hom_codes")}
    assert movers == [("burnside.py", line) for line in (3, 8, 10, 14, 16)]


def test_span_codes_have_one_canonicalizer():
    # transitive_code, canonical_code, dual, the composition and tensor
    # walks and the over-codes of the box product read each canonical code from the G-sets' orbit
    # tables, through `_least_pair` or its lookup `_least_point`, and
    # `_least_pair` and `_hom_codes` read S-orbit least points from
    # `_least_under`; none minimizes over group elements itself, and no
    # transporter list is left to minimize over
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in MODULES}
    assert canonicalizer_report(sources) == (set(), set(), [])
    calls, found = calls_inside(sources["burnside.py"], ("_least_pair",),
                                {"_least_point"})
    assert found == {"_least_pair"} and len(calls) == 1


SPAN_COMPOSITION = {"compose", "tensor", "eval_span", "restriction_element",
                    "transfer_element", "res_element", "tr_element",
                    "weyl_element"}


def test_k0_is_computed_without_span_composition():
    # K0 comes from pullback and postcomposition of G-sets over orbits; it
    # shares only the structure G-maps with the span-built Burnside functor,
    # so the BPQ comparison does not test span composition against itself
    ktheory = (PACKAGE / "ktheory.py").read_text(encoding="utf-8")
    assert named_calls(ast.parse(ktheory), SPAN_COMPOSITION) == []


def _read_names(node):
    """Every name read under an ast node: bare names, attributes and the
    names a `from` import brings in."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def uncalled_functions(modules, exported, outside):
    """(module, name) of every public top-level function of `modules`
    ({module: source}) that no module reads outside the function's own
    body, that the package source `exported` does not import, and that no
    source in `outside` reads."""
    defined, read = [], _read_names(ast.parse(exported))
    for source in outside:
        read |= _read_names(ast.parse(source))
    for module, source in modules.items():
        for node in ast.parse(source).body:
            names = _read_names(node)
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append((module, node.name))
            read |= names
    return sorted((m, name) for m, name in defined if name not in read)


def test_scanner_finds_functions_nothing_calls():
    modules = {
        "a.py": ("def used():\n    return 1\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "def _private():\n    return used()\n\n"
                 "def exported():\n    pass\n\n"
                 "def benched():\n    pass\n\n"
                 "def handler(args):\n    pass\n\n"
                 "class C:\n    def method(self):\n        pass\n"),
        "b.py": ("from .a import handler\n\n"
                 "def main():\n    parser.set_defaults(func=handler)\n\n"
                 "if __name__ == '__main__':\n    main()\n"),
    }
    exported = "from .a import exported\n"
    outside = ["from mackeykit import a\n\nprint(a.benched())\n"]
    assert uncalled_functions(modules, exported, outside) == [
        ("a.py", "recursive")]


def test_every_public_function_has_a_caller():
    # a public function is called in the package, exported from it, or
    # read by the benchmark or the demos; test-only helpers live in
    # tests/support.py
    root = PACKAGE.parents[1]
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    exported = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    outside = [p.read_text(encoding="utf-8")
               for d in ("perfbench", "demos")
               for p in sorted((root / d).glob("*.py"))]
    assert uncalled_functions(modules, exported, outside) == []


STRUCTURE_READS = {"canonical_covers", "normalizer_generators", "res", "tr",
                   "conj"}
# the methods that read the naturality conditions; None: every method
NATURALITY_READERS = {"MackeyMorphism": ("_check",), "NatSolver": None}


def structure_reads(source, readers):
    """(method, line, name) of every attribute of STRUCTURE_READS read in
    the named methods of the named top-level classes, and the set of those
    methods that call `_naturality`."""
    out, callers = [], set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name not in readers:
            continue
        wanted = readers[node.name]
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or \
                    (wanted is not None and method.name not in wanted):
                continue
            where = f"{node.name}.{method.name}"
            out.extend((where, a.lineno, a.attr) for a in ast.walk(method)
                       if isinstance(a, ast.Attribute)
                       and a.attr in STRUCTURE_READS)
            if named_calls(method, {"_naturality"}):
                callers.add(where)
    return sorted(out), callers


def kronecker_products(source):
    """(line, what) of every function named like a Kronecker product, every
    `np.kron` and every broadcast outer product (an index tuple of three or
    more entries holding `None`)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and "kron" in node.name.lower():
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr == "kron" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            out.append((node.lineno, "np.kron"))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Tuple) \
                and len(node.slice.elts) >= 3 \
                and any(isinstance(e, ast.Constant) and e.value is None
                        for e in node.slice.elts):
            out.append((node.lineno, "broadcast"))
    return sorted(out)


# The morphism check, the hom solver and the box product, abridged, as they
# read when the check and the solver each listed the naturality conditions
# and the box product kept its own Kronecker product.
CONDITIONS_LISTED_TWICE = '''
class MackeyMorphism:
    def _check(self):
        for (A, B) in group.canonical_covers:
            check(self.source.res[(A, B)], self.target.tr[(A, B)])
        for n in cls.normalizer_generators:
            check(self.source.conj[c][n])

    def at_gset(self, X):
        return self.source.res

class NatSolver:
    def _add_structure(self):
        for c_src, c_tgt, m_src, m_tgt, _ in _naturality(self.M, self.N):
            self.add_commuting(cb, ca, self.M.res[(A, B)], self.N.res[(A, B)])

def _kron(A, B):
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * r, q * s)

def box(M, N):
    return np.kron(M, N)
'''


def test_scanner_finds_naturality_conditions_and_kronecker_products():
    reads, callers = structure_reads(CONDITIONS_LISTED_TWICE,
                                     NATURALITY_READERS)
    assert reads == [
        ("MackeyMorphism._check", 4, "canonical_covers"),
        ("MackeyMorphism._check", 5, "res"), ("MackeyMorphism._check", 5, "tr"),
        ("MackeyMorphism._check", 6, "normalizer_generators"),
        ("MackeyMorphism._check", 7, "conj"),
        ("NatSolver._add_structure", 15, "res"),
        ("NatSolver._add_structure", 15, "res")]
    assert callers == {"NatSolver._add_structure"}
    assert kronecker_products(CONDITIONS_LISTED_TWICE) == [
        (17, "_kron"), (18, "broadcast"), (18, "broadcast"), (21, "np.kron")]


def test_naturality_is_listed_once_and_kronecker_products_live_in_intmat():
    # the morphism check and the hom solver read res, tr and conjugation
    # only through `mackey._naturality`, and `intmat.kron` is the one
    # Kronecker product
    mackey = (PACKAGE / "mackey.py").read_text(encoding="utf-8")
    reads, callers = structure_reads(mackey, NATURALITY_READERS)
    assert reads == []
    assert callers == {"MackeyMorphism._check", "NatSolver.__init__"}
    for path in MODULES:
        found = kronecker_products(path.read_text(encoding="utf-8"))
        if path.name == "intmat.py":
            assert [what for _, what in found] == ["kron", "broadcast",
                                                   "broadcast"]
        else:
            assert found == [], path.name


STORE_NAMES = {"_eval_code", "_covers", "_chains", "_blocks", "_values",
               "_boxes", "_StructureStore", "structure"}


def structure_store_report(source):
    """(scope, line, base) of every `_cache` attribute, scope the enclosing
    top-level function or class; (line, name) of every name, attribute,
    function or class in STORE_NAMES; and (function, line, target) of
    every assignment to an attribute or item of a parameter annotated as a
    functor."""
    caches, names, writes = [], [], []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                caches.append((scope, node.lineno, ast.unparse(node.value)))
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, (ast.FunctionDef,
                                               ast.ClassDef)) else None
            if name in STORE_NAMES:
                names.append((node.lineno, name))
        if not isinstance(top, ast.FunctionDef):
            continue
        functors = {a.arg for a in top.args.args
                    if a.annotation is not None
                    and "Functor" in ast.unparse(a.annotation)}
        for node in ast.walk(top):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AugAssign) else []
            for t in targets:
                base = t
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if base is not t and isinstance(base, ast.Name) \
                        and base.id in functors:
                    writes.append((scope, t.lineno, ast.unparse(t)))
    return sorted(caches), sorted(names), sorted(writes)


# The functor's memo and the box memo, abridged, as they read when every
# derived structure map sat in `MackeyFunctor._cache` under a tag tuple
# and `box` kept its result there, keyed by the partner's `id`.
TAGGED_CACHE = '''
class MackeyFunctor:
    def __init__(self, group, levels):
        self._cache = {}

    def value_at(self, X):
        key = ("value", X.orbit_index.classes)
        if key not in self._cache:
            self._cache[key] = direct_sum_groups(levels)
        return self._cache[key]

def _block(F: MackeyFunctor, S, T, code):
    return F._eval_code(S.orbit_index, T.orbit_index, code)[0]

def box(M: MackeyFunctor, N: MackeyFunctor):
    key = ("box", id(N))
    if key in M._cache:
        return M._cache[key]
    M._cache[key] = data

def burnside_green(group, check=True):
    if key not in group._cache:
        group._cache[key] = GreenFunctor(group)
'''


def test_scanner_finds_a_tagged_functor_cache():
    caches, names, writes = structure_store_report(TAGGED_CACHE)
    assert caches == [
        ("MackeyFunctor", 4, "self"), ("MackeyFunctor", 8, "self"),
        ("MackeyFunctor", 9, "self"), ("MackeyFunctor", 10, "self"),
        ("box", 17, "M"), ("box", 18, "M"), ("box", 19, "M"),
        ("burnside_green", 22, "group"), ("burnside_green", 23, "group")]
    assert names == [(13, "_eval_code")]
    assert writes == [("box", 19, "M._cache[key]")]


# The structure store, abridged, as it read when a functor kept what it
# derives in a second object with one dict per kind.
STRUCTURE_STORE = '''
class MackeyFunctor:
    @cached_property
    def structure(self):
        return _StructureStore(self)

    def cover_mats(self, A, B):
        return self.structure.cover(A, B)

class _StructureStore:
    def __init__(self, M):
        self._covers, self._chains, self._blocks = {}, {}, {}

def _block(F: MackeyFunctor, S, T, code):
    return F.structure.block(S.orbit_index, T.orbit_index, code)[0]
'''


def test_scanner_finds_the_structure_store():
    caches, names, writes = structure_store_report(STRUCTURE_STORE)
    assert caches == writes == []
    assert names == [(4, "structure"), (5, "_StructureStore"),
                     (8, "structure"), (10, "_StructureStore"),
                     (12, "_blocks"), (12, "_chains"), (12, "_covers"),
                     (15, "structure")]


def test_functors_keep_derived_maps_in_one_owned_store():
    # a functor's derived structure maps are kept on the functor itself,
    # `weyl` as a cached property and the rest through `groups.owned`:
    # no `_StructureStore`, `structure` or store dict is left, no `_cache`
    # either, and `convolution` writes nothing onto a functor
    for path in MODULES:
        caches, names, writes = structure_store_report(
            path.read_text(encoding="utf-8"))
        assert caches == [], path.name
        assert names == [], path.name
        if path.name == "convolution.py":
            assert writes == []


def test_cover_resolution_and_tor_take_no_direction():
    # the second cover is a test oracle, not a flag on the library's cover
    tree = ast.parse((PACKAGE / "homalg.py").read_text(encoding="utf-8"))
    params = {node.name: [a.arg for a in node.args.args + node.args.kwonlyargs]
              for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("module_cover", "module_resolution", "tor"):
        assert params[name] and "reverse" not in params[name], name


TOR_WITNESS_CALLS = {"rel_box", "box", "dress_pairing"}

# `_tor_of_resolution`, abridged, as it read when every Tor call presented
# M box_R N for the Tor_0 witness, read or not.
EAGER_WITNESS = '''
def _tor_of_resolution(M, res, p_max):
    C = ChainComplex(R.group, terms, diffs)
    target = rel_box(M, N)
    n0 = res.augmentation.at_gset(X0) @ free_unit_vector(free[0])
    aug = dress_pairing(target.box, X0, n0)
    return TorResult(R, M, N, res, C, tor_list, wit, target)
'''


def test_scanner_finds_the_witness_built_inside_a_tor_call():
    calls, found = calls_inside(EAGER_WITNESS, ("_tor_of_resolution",),
                                TOR_WITNESS_CALLS)
    assert found == {"_tor_of_resolution"}
    assert calls == [("_tor_of_resolution", 4, "rel_box"),
                     ("_tor_of_resolution", 6, "dress_pairing")]


def test_tor_call_leaves_the_witness_to_its_first_read():
    source = (PACKAGE / "homalg.py").read_text(encoding="utf-8")
    calls, found = calls_inside(source, ("_tor_of_resolution",),
                                TOR_WITNESS_CALLS)
    assert found == {"_tor_of_resolution"}
    assert calls == []


SUPPORT_UNIONS = {"disjoint_union_of_orbits", "apply_gmap"}

# `_dress_map`, abridged, as it read when each differential block built a
# support G-set S_b, the union of the orbits f_b is nonzero on, and
# restricted f_b to it.
SUPPORT_ROUTE = '''
def _dress_map(M, d, src, tgt, source, target):
    for b, (emb, cb) in enumerate(zip(Z.orbit_embeddings, Z.orbit_index.classes)):
        S = disjoint_union_of_orbits(group, tuple(pix.classes[k]
                                                  for k in support))
        inc = GMap(S, P.gset, tuple(pembs[k](o) for k in support))
        blocks.append((S, xs, zs, Rk.apply_gmap(inc, f)))
'''


def test_scanner_finds_the_support_unions_of_a_differential():
    calls, found = calls_inside(SUPPORT_ROUTE, ("_dress_map",),
                                SUPPORT_UNIONS)
    assert found == {"_dress_map"}
    assert calls == [("_dress_map", 4, "disjoint_union_of_orbits"),
                     ("_dress_map", 7, "apply_gmap")]


def test_tor_differentials_read_orbit_by_orbit():
    # each block of d_p is read on a standard orbit of X x O_b, so the
    # group's memo gains no union of the orbits f_b is supported on
    source = (PACKAGE / "homalg.py").read_text(encoding="utf-8")
    calls, found = calls_inside(source, ("_dress_map",), SUPPORT_UNIONS)
    assert found == {"_dress_map"}
    assert calls == []


def _scoped(tree):
    """(scope, node) for every node of the tree, scope the dotted names of
    the functions and classes that enclose it ("" at module level)."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def memo_report(source):
    """Where a module memoizes: (scope, line) of every attribute and every
    annotated field whose name ends in `cache`, decorators aside, and of
    every `_memo` attribute; and (function, decorator, arity) of every
    function under `lru_cache`, `cache`, `owned` or `paired`, bare, called
    or read off a module, arity its count of positional parameters, or
    None when it takes variadic, keyword-only or default ones."""
    caches, memos, decorated = [], [], []
    tree = ast.parse(source)
    decorators = {id(dec.func if isinstance(dec, ast.Call) else dec)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  for dec in node.decorator_list}
    for scope, node in _scoped(tree):
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node.target, "id", None) \
            if isinstance(node, ast.AnnAssign) else None
        if name and name.endswith("cache") and id(node) not in decorators:
            caches.append((scope, node.lineno))
        if name == "_memo" and isinstance(node, ast.Attribute):
            memos.append((scope, node.lineno))
        if isinstance(node, ast.FunctionDef):
            a = node.args
            arity = None if a.vararg or a.kwarg or a.kwonlyargs or \
                a.defaults else len(a.posonlyargs + a.args)
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else \
                    getattr(dec, "id", None)
                if name in ("lru_cache", "cache", "owned", "paired"):
                    qual = f"{scope}.{node.name}" if scope else node.name
                    decorated.append((qual, name, arity))
    return sorted(caches), sorted(memos), sorted(decorated)


# The memos, abridged, as they read when `gsets` kept module-level
# `lru_cache`s keyed by table equality and the group a dict of string
# keys written from other modules.
PROCESS_MEMOS = '''
import functools
from functools import lru_cache

class FiniteGroup:
    def __init__(self, table):
        self._cache = {}

@lru_cache(maxsize=None)
def standard_orbit(group, class_index):
    return GSet(group, action)

@functools.cache
def product(X, Y):
    return ProductData(canon, left, right, pair)

def burnside_mackey(group):
    if "burnside_mackey" not in group._cache:
        group._cache["burnside_mackey"] = representable(point_gset(group))
    return group._cache["burnside_mackey"]

class Reader:
    @owned
    def zero(self):
        return self._memo

@groups.paired
def codes(X, Y):
    return ()
'''


def test_scanner_finds_process_wide_memos():
    caches, memos, decorated = memo_report(PROCESS_MEMOS)
    assert caches == [("FiniteGroup.__init__", 7), ("burnside_mackey", 18),
                      ("burnside_mackey", 19), ("burnside_mackey", 20)]
    assert memos == [("Reader.zero", 25)]
    assert decorated == [("Reader.zero", "owned", 1), ("codes", "paired", 2),
                         ("product", "cache", 2),
                         ("standard_orbit", "lru_cache", 2)]


# The homology and quotient caches and the pair memo, abridged, as they
# read when a complex kept its homology in a dict field of its own, a
# filtration its quotients, and `paired` an args layer under each partner.
FIELD_CACHES = '''
@dataclass
class ChainComplex:
    terms: dict
    _hcache: dict = field(default_factory=dict, repr=False)

    def homology_data(self, n):
        if n not in self._hcache:
            self._hcache[n] = homology_at(self.diff(n + 1), self.diff(n))
        return self._hcache[n]

def quotient_complex(filt, a, b):
    if (a, b) in filt._qcache:
        return filt._qcache[a, b]

@paired
def box(M, N, *args):
    return BoxData(M)

@paired
def hom_codes(X, Y, check=True):
    return ()
'''


def test_scanner_finds_field_caches_and_pair_memos_with_args():
    caches, memos, decorated = memo_report(FIELD_CACHES)
    assert caches == [("ChainComplex", 5), ("ChainComplex.homology_data", 8),
                      ("ChainComplex.homology_data", 9),
                      ("ChainComplex.homology_data", 10),
                      ("quotient_complex", 13), ("quotient_complex", 14)]
    assert memos == []
    assert decorated == [("box", "paired", None),
                         ("hom_codes", "paired", None)]


# The process-wide caches `src` keeps, each bounded: the nine built-in
# names, 64 described groups, and one argument parser.
PROCESS_CACHES = {("groups.py", "builtin_group"),
                  ("groups.py", "_spec_group"), ("cli.py", "build_parser")}
OWNED = {("gsets.py", "standard_orbit"),
         ("gsets.py", "disjoint_union_of_orbits"), ("gsets.py", "_product"),
         ("burnside.py", "_least_under"), ("burnside.py", "_identity_codes"),
         ("burnside.py", "_fibre_rows"), ("burnside.py", "_hom_codes"),
         ("mackey.py", "burnside_mackey"), ("mackey.py", "zero_mackey"),
         ("mackey.py", "MackeyFunctor._step"),
         ("mackey.py", "MackeyFunctor._chain"),
         ("mackey.py", "MackeyFunctor._block"),
         ("mackey.py", "_Coordinates._solver"),
         ("convolution.py", "_burnside_green"), ("convolution.py", "box"),
         ("homalg.py", "ChainComplex.homology_data"),
         ("homalg.py", "FilteredComplex._empty_complex"),
         ("homalg.py", "_quotient")}
# `owned` and `paired` read the memo, and the owners' constructors make it
MEMO_SCOPES = {("groups.py", "owned.memo"), ("groups.py", "paired.memo"),
               ("groups.py", "FiniteGroup.__init__"),
               ("gsets.py", "GSet.__init__"),
               ("mackey.py", "MackeyFunctor.__init__"),
               ("mackey.py", "_Coordinates.__init__")}


def partner_release_report(source):
    """The `PARTNER_RELEASES` registry a test module declares, and the
    names of the test functions it defines."""
    registry, tests = {}, set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == \
                ["PARTNER_RELEASES"]:
            registry = ast.literal_eval(node.value)
        if isinstance(node, ast.FunctionDef) and \
                node.name.startswith("test_"):
            tests.add(node.name)
    return registry, tests


# A registry, abridged, and the tests beside it.
RELEASES = '''
PARTNER_RELEASES = {("gsets.py", "_product"): "test_right_factor_goes"}

def test_right_factor_goes():
    pass

def helper():
    pass
'''


def test_scanner_finds_the_partner_release_registry():
    assert partner_release_report(RELEASES) == (
        {("gsets.py", "_product"): "test_right_factor_goes"},
        {"test_right_factor_goes"})


def test_memos_live_on_their_owner():
    # what is built from a group, a G-set, a functor, a complex, a
    # filtration or a morphism's coordinates (its solvers) is memoized
    # through `groups.owned`, on that owner, or,
    # for a pair, through `groups.paired` on one of them, keyed weakly by
    # the other, with no argument but the pair; no attribute or field
    # named like a cache is left, and the only process-wide caches are the
    # three bounded ones above.  Every paired memo names a test in
    # test_memory.py that shows its partner is collected.
    cached, owned, paired, memo_scopes = set(), set(), set(), set()
    for path in MODULES:
        caches, memos, decorated = memo_report(
            path.read_text(encoding="utf-8"))
        assert caches == [], path.name
        memo_scopes |= {(path.name, scope) for scope, _ in memos}
        for function, decorator, arity in decorated:
            (owned if decorator in ("owned", "paired") else cached).add(
                (path.name, function))
            if decorator == "paired":
                assert arity == 2, (path.name, function)
                paired.add((path.name, function))
    assert cached == PROCESS_CACHES
    assert owned == OWNED
    assert memo_scopes == MEMO_SCOPES
    registry, tests = partner_release_report(
        (pathlib.Path(__file__).parent / "test_memory.py").read_text(
            encoding="utf-8"))
    assert set(registry) == paired
    assert set(registry.values()) <= tests


def walk_report(source):
    """(scope, line) of every graph walk, a `for` loop over a list the loop
    appends to or a `while` loop that pops a list it appends to, and the
    scopes that call `_walk`."""
    walks, callers = [], set()
    for scope, node in _scoped(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "_walk":
            callers.add(scope)
        if not isinstance(node, (ast.For, ast.While)):
            continue
        grown, popped = set(), set()
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and \
                    isinstance(call.func, ast.Attribute):
                owner = ast.unparse(call.func.value)
                if call.func.attr in ("append", "extend"):
                    grown.add(owner)
                elif call.func.attr == "pop":
                    popped.add(owner)
        if isinstance(node, ast.For) and ast.unparse(node.iter) in grown \
                or isinstance(node, ast.While) and grown & popped:
            walks.append((scope, node.lineno))
    return sorted(walks), callers


# The walk that defines conjugation and the validator, abridged, as they
# would read with the walk's tree rebuilt by a second walk of its own.
COPIED_WALK = '''
def _walk(group, gens):
    reached, walk, edges = {0}, [0], []
    for a in walk:
        for s in gens:
            b = group.mul(a, s)
            if b not in reached:
                reached.add(b)
                walk.append(b)
                edges.append((a, s, b))
    return edges

def _generated_action(group, gens, identity):
    for a, s, b in _walk(group, tuple(gens)):
        out[b] = out[a] @ gens[s]

class MackeyFunctor:
    def validate_functoriality(self):
        for cls in group.subgroup_classes():
            tree, seen, stack = set(), {0}, [0]
            while stack:
                a = stack.pop()
                for s in self.conj[cls.index]:
                    if group.mul(a, s) not in seen:
                        seen.add(group.mul(a, s))
                        stack.append(group.mul(a, s))
                        tree.add((a, s))
'''


def test_scanner_finds_a_copied_walk():
    assert walk_report(COPIED_WALK) == (
        [("MackeyFunctor.validate_functoriality", 21), ("_walk", 4)],
        {"_generated_action"})


def loop_report(source, function):
    """Line of every `for` or `while` statement in `function`, given by its
    dotted name, or in a scope it encloses."""
    return sorted(node.lineno for scope, node in _scoped(ast.parse(source))
                  if isinstance(node, (ast.For, ast.While))
                  and (scope == function or scope.startswith(function + ".")))


# `FiniteGroup.closure` as it read before it took its labels off `_walk`:
# a two-sided frontier loop of its own.
FRONTIER_CLOSURE = '''
class FiniteGroup:
    def closure(self, seed):
        got = {0}
        frontier = set(seed) | {0}
        got |= frontier
        while frontier:
            new = set()
            for a in got:
                for b in frontier:
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in got:
                            new.add(c)
            for b in frontier:
                c = self.inverse[b]
                if c not in got:
                    new.add(c)
            got |= new
            frontier = new
        return tuple(sorted(got))
'''


def test_scanner_finds_a_frontier_loop_in_closure():
    assert loop_report(FRONTIER_CLOSURE, "FiniteGroup.closure") == [
        7, 9, 10, 11, 14]
    assert walk_report(FRONTIER_CLOSURE) == ([], set())


def test_homomorphism_cells_come_from_the_one_walk():
    # every generated subgroup is read off one walk, `groups._walk`:
    # `closure` takes its labels, conjugation by every element is defined
    # along it, and the validator reads the walk's tree from it to skip the
    # cells that hold by definition
    groups = (PACKAGE / "groups.py").read_text(encoding="utf-8")
    mackey = (PACKAGE / "mackey.py").read_text(encoding="utf-8")
    walks, callers = walk_report(groups)
    # `_double_coset_reps` walks the orbits of H on the cosets of K, not a
    # generated subgroup
    assert [scope for scope, _ in walks] == [
        "FiniteGroup._double_coset_reps", "_walk"]
    assert callers == {"FiniteGroup.closure"}
    assert loop_report(groups, "FiniteGroup.closure") == []
    walks, callers = walk_report(mackey)
    assert walks == []
    assert "_walk" not in {node.name for node in ast.walk(ast.parse(mackey))
                           if isinstance(node, ast.FunctionDef)}
    assert callers == {"_generated_action",
                       "MackeyFunctor.validate_functoriality"}


# The readers of `gsets._orbit_walk`, by module and qualified name, each
# with the iterable of the labels its walk reads the rows of: all of G
# for the orbit index, N(R) for the fixed orbits, the representative L
# for the subgroup orbits and S for the S-orbit least points.
WALK_READERS = {"gsets.py": {"_orbit_index": "enumerate(action)",
                             "GSet.fixed_orbits": "cls.normalizer",
                             "GSet.subgroup_orbits": "cls.representative"},
                "burnside.py": {"_least_under": "S"}}


def walk_reader_report(source, readers):
    """{reader: (lines where it calls `_orbit_walk`, (line, what) of every
    loop over its walk's labels outside that call and every `.stabilizer(`
    call)} for the readers the source defines; `readers` maps qualified
    names to the unparsed iterable of the walk's labels."""
    out = {}
    for scope, node in _scoped(ast.parse(source)):
        qual = f"{scope}.{getattr(node, 'name', '')}".lstrip(".")
        if not isinstance(node, ast.FunctionDef) or qual not in readers:
            continue
        walks, inside, stray = [], set(), []
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and \
                    getattr(call.func, "id", None) == "_orbit_walk":
                walks.append(call.lineno)
                inside |= {id(n) for n in ast.walk(call)}
        for n in ast.walk(node):
            if id(n) in inside:
                continue
            if isinstance(n, (ast.For, ast.comprehension)) and \
                    ast.unparse(n.iter) == readers[qual]:
                stray.append((n.iter.lineno, readers[qual]))
            if isinstance(n, ast.Call) and \
                    getattr(n.func, "attr", None) == "stabilizer":
                stray.append((n.lineno, "stabilizer"))
        out[qual] = (walks, sorted(stray))
    return out


# The readers, abridged, as they read with a walk each: the orbit index
# inline in `GSet.orbit_index` with its stabilizers rescanned, the fixed
# orbits walking N(R) twice per point, the subgroup orbits through
# `_orbits_on`, and the S-orbit least points in a loop of their own.
OWN_WALKS = '''
def _orbit_index(group, action, size):
    for base in range(size):
        for g, row in enumerate(action):
            x = row[base]
        stab = self.stabilizer(base)

class GSet:
    def fixed_orbits(self):
        for x0 in points:
            if lead[x0] is None:
                orbits[x0] = tuple(n for n in cls.normalizer
                                   if action[n][x0] == x0)
                for n in cls.normalizer:
                    x1 = action[inverse[n]][x0]

    def subgroup_orbits(self):
        return tuple(tuple(reach[p] for p, K in _orbits_on(
            self.action, cls.representative, range(self.size)))
            for cls in group.subgroup_classes())

def _least_under(Y, S):
    least, _, _ = _orbit_walk(Y.size, ((s, Y.action[s]) for s in S),
                              range(Y.size))
    rows = [Y.action[s] for s in S]
'''


def test_scanner_finds_orbit_walks_outside_the_one_walk():
    readers = {**WALK_READERS["gsets.py"], **WALK_READERS["burnside.py"]}
    assert walk_reader_report(OWN_WALKS, readers) == {
        "_orbit_index": ([], [(4, "enumerate(action)"), (6, "stabilizer")]),
        "GSet.fixed_orbits": ([], [(12, "cls.normalizer"),
                                   (14, "cls.normalizer")]),
        "GSet.subgroup_orbits": ([], []),
        "_least_under": ([23], [(25, "S")])}


def test_orbit_tables_come_from_one_walk():
    # the orbit index, the fixed orbits, the subgroup orbits and the
    # S-orbit least points each call `_orbit_walk` once and iterate the
    # labels it walks nowhere else, and `_orbits_on` is gone
    for module, readers in WALK_READERS.items():
        source = (PACKAGE / module).read_text(encoding="utf-8")
        report = walk_reader_report(source, readers)
        assert report == {qual: (report[qual][0], []) for qual in readers}
        assert all(len(walks) == 1 for walks, _ in report.values())
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "_orbits_on" not in {getattr(n, "id", getattr(n, "name", None))
                                    for n in ast.walk(tree)}, path.name


# `product` reads its legs from `_product`, which relabels the raw rows
RAW_LIMITS = ("product", "_product", "coproduct", "pullback")
CHECKED_ROUTE = {"GSet", "canonicalize", "inverse"}

# `product`, abridged, as it read when its raw rows were proven as a G-set
# and relabelled through a checked isomorphism and its inverse.
CHECKED_PRODUCT = '''
def product(X, Y):
    raw = GSet(group, [[gx * Y.size + gy for gx in row_x for gy in row_y]
                       for row_x, row_y in zip(X.action, Y.action)])
    canon, iso = canonicalize(raw)
    inv = iso.inverse()
    left = GMap(canon, X, tuple(inv(p) // Y.size for p in range(n)))
'''


def test_scanner_finds_the_checked_route_of_a_limit():
    calls, found = calls_inside(CHECKED_PRODUCT, RAW_LIMITS, CHECKED_ROUTE)
    assert found == {"product"}
    assert calls == [("product", 3, "GSet"), ("product", 5, "canonicalize"),
                     ("product", 6, "inverse")]


def test_limits_relabel_their_raw_rows_in_place():
    # the raw rows of a product, coproduct or pullback are an action by
    # construction: they become no G-set and no isomorphism, and only the
    # returned legs are checked G-maps
    source = (PACKAGE / "gsets.py").read_text(encoding="utf-8")
    calls, found = calls_inside(source, RAW_LIMITS, CHECKED_ROUTE)
    assert found == set(RAW_LIMITS)
    assert calls == []


# The readers of the Smith form that want sparse factors, and the calls
# that would build its dense view or read a dense factor back into columns.
SPARSE_SMITH_READERS = ("Solver.__init__", "kernel", "snf_diagonal")
DENSE_SMITH = {"smith_normal_form", "_column_entries"}


def dense_smith_reads(source, readers):
    """{reader: (line, name) of every call of `smith_normal_form` or
    `_column_entries` in it} for the readers the source defines, by
    qualified name."""
    out = {}
    for scope, node in _scoped(ast.parse(source)):
        qual = f"{scope}.{getattr(node, 'name', '')}".lstrip(".")
        if isinstance(node, ast.FunctionDef) and qual in readers:
            out[qual] = named_calls(node, DENSE_SMITH)
    return out


# The readers, abridged, as they read when each took the dense Smith form
# and `Solver` turned Sinv and Tinv back into sparse lists.
DENSE_ROUND_TRIP = '''
def snf_diagonal(A):
    _, D, _, _ = smith_normal_form(A)
    return [int(D[i, i]) for i in range(min(D.shape))]

def kernel(A):
    _, D, _, Tinv = smith_normal_form(A)
    return Tinv[:, free]

class Solver:
    def __init__(self, A):
        _, D, Sinv, Tinv = smith_normal_form(A)
        self._sinv_rows = _column_entries(Sinv.T)
        self._tinv_cols = _column_entries(Tinv)
'''


def test_scanner_finds_the_dense_smith_round_trip():
    assert dense_smith_reads(DENSE_ROUND_TRIP, SPARSE_SMITH_READERS) == {
        "snf_diagonal": [(3, "smith_normal_form")],
        "kernel": [(7, "smith_normal_form")],
        "Solver.__init__": [(12, "smith_normal_form"),
                            (13, "_column_entries"), (14, "_column_entries")]}


def test_sparse_smith_readers_build_no_dense_factor():
    # Solver, kernel and snf_diagonal read the elimination's own rows and
    # columns; only `smith_normal_form` scatters them into arrays
    source = (PACKAGE / "intmat.py").read_text(encoding="utf-8")
    assert dense_smith_reads(source, SPARSE_SMITH_READERS) == {
        reader: [] for reader in SPARSE_SMITH_READERS}


# A presented group's minimal presentation, and the dense pair of
# transforms it replaced.  `intmat.Solver` keeps a `self._diag` of its own.
PRESENTATION_FIELDS = {"_diag", "_proj", "_sect", "_transforms"}


def presentation_reads(source):
    """(line, field) of every PRESENTATION_FIELDS attribute read on
    anything but `self`."""
    return sorted((n.lineno, n.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute)
                  and n.attr in PRESENTATION_FIELDS
                  and not (isinstance(n.value, ast.Name)
                           and n.value.id == "self"))


# `mackey.minimize_presentation`, abridged, as it read when it sliced each
# level's dense transforms itself.
SLICED_TRANSFORMS = '''
def minimize_presentation(M):
    for lvl in M.levels:
        if lvl._transforms is None:
            continue
        U, Uinv = lvl._transforms
        keep = [i for i, d in enumerate(lvl._diag) if d != 1]
        levels.append(FinPresAbGroup.from_invariants(
            [lvl._diag[i] for i in keep]))
        projs.append(U[keep, :])
'''


def test_scanner_finds_presentation_fields_read_outside_their_group():
    assert presentation_reads(SLICED_TRANSFORMS) == [
        (4, "_transforms"), (6, "_transforms"), (7, "_diag"), (9, "_diag")]


def test_only_abgroups_reads_a_group_presentation():
    # every other module asks `minimal_presentation`; the group reads the
    # sparse elimination, not its dense view, and keeps no dense transforms
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        assert "_transforms" not in _read_names(ast.parse(source)), path.name
        if path.name != "abgroups.py":
            assert presentation_reads(source) == [], path.name
    source = (PACKAGE / "abgroups.py").read_text(encoding="utf-8")
    assert named_calls(ast.parse(source), {"smith_normal_form"}) == []


def coordinate_report(source):
    """The underscore names the source imports from `.mackey`, as (line,
    name), and the scopes, by qualified name, that call `Solver`."""
    private, builders = [], set()
    for scope, node in _scoped(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "mackey" \
                and node.level == 1:
            private += [(a.lineno, a.name) for a in node.names
                        if a.name.startswith("_")]
        if isinstance(node, ast.Call) and "Solver" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            builders.add(scope)
    return sorted(private), builders


# `homalg._connecting` and `mackey._coordinates`, abridged, as they read
# when each lift built a fresh solver for the pair it solved in and
# `homalg` imported that private builder.
SOLVER_PER_CALL = '''
from .mackey import (
    MackeyMorphism,
    _coordinates,
    lift_through_inclusion,
)

def _connecting(filt, r, p, n):
    for c in range(len(HC.levels)):
        lift = _coordinates(iota.mats[c], B.term(n - 1).levels[c],
                            "connecting morphism failed to solve")
        cycle = _coordinates(inclA.mats[c], A.term(n - 1).levels[c],
                             "connecting image is not a cycle")

def _coordinates(basis, amb, error):
    solver = intmat.Solver(intmat.hstack([basis, rel]) if rel.shape[1]
                           else basis)
'''


def test_scanner_finds_private_lift_imports_and_solver_builders():
    assert coordinate_report(SOLVER_PER_CALL) == (
        [(4, "_coordinates")], {"_coordinates"})


def test_one_coordinate_type_builds_every_solver():
    # outside `intmat`, every solver is built, one per class on first use,
    # by `mackey._Coordinates`, which the lifts in `mackey` and `homalg`
    # read through a morphism's `coordinates`; `homalg` imports no
    # private name of `mackey`
    for path in MODULES:
        private, builders = coordinate_report(
            path.read_text(encoding="utf-8"))
        if path.name == "homalg.py":
            assert private == []
        if path.name != "intmat.py":
            assert builders == ({"_Coordinates._solver"}
                                if path.name == "mackey.py" else set()), \
                path.name
