"""Every public function, class, method or property of the package has a caller that is not a test.

A module-level name in ``src/blobflow`` counts as used when its name is
read (as a name or an attribute) in ``src/`` outside ``__init__.py`` and
outside its own definition, or in ``perfbench/``.  A string passed to
``getattr`` and a method the benchmark tracer wraps (its ``METHODS``) are
reads too.  Imports and ``__init__`` re-exports do not count, so a helper
only the tests call fails here.  The exceptions are the names a README
sentence promises; each is listed with that sentence's phrase, which must
still be in the README.

A public method or property ``C.m`` of a public class counts as used when
an attribute read reaches it.  A read ``x.m`` whose receiver's class is
known statically reaches the ``m`` that class defines or inherits, and
each override of it in a subclass.  The receiver's class is known for
``self`` and ``cls``, a class named directly, an annotated parameter or
field, and a name bound only to a constructor call or to what an
annotated function, method or property returns.  A read on any other
receiver reaches every method of its name.  When that is all that reaches
``C.m`` and another package class has an attribute of the same name, the
guard cannot tell which one is used: such unresolved collisions are
listed in ``UNRESOLVED``, which may only shrink.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blobflow"
TRACER = ROOT / "perfbench" / "tracing.py"

KEEP = {
    "w1_1d": "exact 1d sorted-order W1/W2",
    "stability_bound": "the induced stability envelope",
}

# methods that only reads on receivers of unknown class reach, while another package class has an attribute of the name
UNRESOLVED = {
    # particles.initial_sampler reads them with getattr on a density of whichever class the config builds
    "BarenblattProfile.support",
    "GaussianDensity.cdf_inverse",
    "UniformDensity.cdf_inverse",
    "UniformDensity.support",
}

DEFS = (ast.FunctionDef, ast.ClassDef)
SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _benchmark():
    return sorted((ROOT / "perfbench").glob("*.py"))


class Classes:
    """The classes of some modules: each one's bases, methods, and the package classes its attributes are annotated with."""

    def __init__(self, trees):
        self.defs = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
        self.bases = {name: [b.id for b in node.bases if isinstance(b, ast.Name) and b.id in self.defs]
                      for name, node in self.defs.items()}
        self.methods = {name: {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)} for name, node in self.defs.items()}
        self.fields = {name: {f.target.id: f.annotation for f in node.body
                              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
                       for name, node in self.defs.items()}
        self.functions = {}  # module-level function name -> its return annotation, None where two modules differ
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    seen = self.functions.get(node.name, node.returns)
                    same = seen is not None and node.returns is not None and ast.dump(seen) == ast.dump(node.returns)
                    self.functions[node.name] = node.returns if same or node.name not in self.functions else None

    def named(self, node):
        """The class an annotation names, when it names exactly one (``X | None`` names X)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = {self.named(node.left), self.named(node.right)} - {None}
            return sides.pop() if len(sides) == 1 else None
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        return name if name in self.defs else None

    def mro(self, cls):
        """cls, then its bases among these classes, depth first."""
        out = [cls]
        for base in self.bases.get(cls, []):
            out += [c for c in self.mro(base) if c not in out]
        return out

    def owner(self, cls, attr):
        """The class whose method attr a read on cls reaches first, or None."""
        return next((c for c in self.mro(cls) if attr in self.methods[c]), None)

    def attribute(self, cls, attr):
        """The class of attribute attr of a cls instance: a field's annotation, or a property's or method's return."""
        for c in self.mro(cls):
            if attr in self.fields[c]:
                return self.named(self.fields[c][attr])
            if attr in self.methods[c]:
                return self.named(self.methods[c][attr].returns) if self.methods[c][attr].returns is not None else None
        return None

    def subclasses(self, cls):
        return {c for c in self.defs if c != cls and cls in self.mro(c)}


class Reads(ast.NodeVisitor):
    """Every name and attribute read in some modules, each attribute read resolved to its receiver's class where known."""

    def __init__(self, classes: Classes):
        self.classes = classes
        self.names = set()  # names and attributes read outside the definition of that name
        self.resolved = set()  # (class, attr) read on a receiver of that class, outside the method itself
        self.loose = set()  # attrs read on receivers of unknown class, outside a definition of that name
        self.env = {}  # name -> its class (None: unknown) in the scope being read
        self.modules = set()  # names bound to modules in the file being read
        self.own = ()  # enclosing (class or None, definition name) pairs

    def read_module(self, tree):
        self.modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        package = {p.stem for p in _modules()} | {p.stem for p in _benchmark()}
        self.modules |= {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                         for a in node.names if a.name in package}
        self.env = self._bind({}, tree.body)
        self.generic_visit(tree)

    # -- the class of an expression ------------------------------------------

    def kind(self, node):
        c = self.classes
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return node.id if node.id in c.defs else None
        if isinstance(node, ast.Attribute):
            if self._is_module(node.value):
                return node.attr if node.attr in c.defs else None
            recv = self.kind(node.value)
            return c.attribute(recv, node.attr) if recv else None
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id not in self.env:
                if f.id in c.defs:
                    return f.id
                returns = c.functions.get(f.id)
                return c.named(returns) if returns is not None else None
            if isinstance(f, ast.Attribute):
                if self._is_module(f.value):
                    returns = c.functions.get(f.attr)
                    return f.attr if f.attr in c.defs else c.named(returns) if returns is not None else None
                recv = self.kind(f.value)
                return c.attribute(recv, f.attr) if recv else None
        return None

    def _is_module(self, node):
        return isinstance(node, ast.Name) and node.id in self.modules and node.id not in self.env

    def _bind(self, env, body, args=None, cls=None, method=False):
        """env extended by a scope: its parameters, then every name it binds, known only when each binding agrees.

        A binding is a class name or None, or an expression whose class is taken in the extended env.
        """
        bound = {}
        if args is not None:
            params = args.posonlyargs + args.args + args.kwonlyargs
            for i, a in enumerate(params):
                bound[a.arg] = [cls if method and i == 0 else self.classes.named(a.annotation) if a.annotation else None]
            for a in (args.vararg, args.kwarg):
                if a is not None:
                    bound[a.arg] = [None]
        for node in _scope_nodes(body):
            if isinstance(node, (ast.Assign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            bound.setdefault(n.id, []).append(node.value if t is n else None)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound.setdefault(node.target.id, []).append(self.classes.named(node.annotation))
            elif isinstance(node, (ast.For, ast.With, ast.AugAssign, ast.ExceptHandler, ast.FunctionDef, ast.ClassDef)):
                for n in _bound_names(node):
                    bound.setdefault(n, []).append(None)
        saved, self.env = self.env, {**env, **dict.fromkeys(bound)}
        for _ in range(2):  # the second pass resolves names bound from names bound further down
            for name, values in bound.items():
                kinds = {self.kind(v) if isinstance(v, ast.AST) else v for v in values}
                self.env[name] = kinds.pop() if len(kinds) == 1 else None
        env, self.env = self.env, saved
        return env

    # -- reads --------------------------------------------------------------

    def _scope(self, node, body, args=None, cls=None, method=False):
        saved = self.env
        self.env = self._bind(self.env, body, args, cls, method)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.env = saved

    def visit_ClassDef(self, node):
        saved = self.own
        self.own = self.own + ((None, node.name),)
        for child in node.body:
            if isinstance(child, ast.FunctionDef):
                self._method(child, node.name)
            else:
                self.visit(child)
        for dec in node.decorator_list + node.bases:
            self.visit(dec)
        self.own = saved

    def _method(self, node, cls):
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        saved = self.own
        self.own = self.own + ((cls, node.name),)
        self._scope(node, node.body, node.args, cls, method=not static)
        self.own = saved

    def visit_FunctionDef(self, node):
        saved = self.own
        self.own = self.own + ((None, node.name),)
        self._scope(node, node.body, node.args)
        self.own = saved

    def visit_Lambda(self, node):
        self._scope(node, [node.body], node.args)

    def _comprehension(self, node):
        saved = self.env
        self.env = {**self.env, **{n: None for g in node.generators for n in _names(g.target)}}
        self.generic_visit(node)
        self.env = saved

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension

    def visit_Name(self, node):
        self._name(node.id)

    def _name(self, name):
        if name not in {d for _, d in self.own}:
            self.names.add(name)

    def visit_Attribute(self, node):
        self._attribute(node.value, node.attr)
        self.visit(node.value)

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Name) and f.id == "getattr" and len(node.args) > 1:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self._attribute(node.args[0], arg.value)
        self.generic_visit(node)

    def _attribute(self, recv, attr):
        self._name(attr)
        if self._is_module(recv):
            return
        cls = self.kind(recv)
        if cls is None:
            if attr not in {d for _, d in self.own}:
                self.loose.add(attr)
        elif not any((c, attr) in self.own for c in self.classes.mro(cls)):
            self.resolved.add((cls, attr))


def _names(target):
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _bound_names(node):
    if isinstance(node, ast.For):
        return _names(node.target)
    if isinstance(node, ast.With):
        return [n for item in node.items if item.optional_vars is not None for n in _names(item.optional_vars)]
    if isinstance(node, ast.AugAssign):
        return _names(node.target)
    if isinstance(node, ast.ExceptHandler):
        return [node.name] if node.name else []
    return [node.name]


def _scope_nodes(body):
    """The statements and expressions of one scope's body, not those of the scopes nested in it."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _traced_methods() -> set:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return {(cls, meth) for _, cls, meth in ast.literal_eval(node.value)}
    raise AssertionError("METHODS not found in perfbench/tracing.py")


def surface(package: list, others: list, traced: set = frozenset()):
    """(public names no read reaches, unresolved collisions) of the package modules' trees, read in them and others.

    Methods are named ``Class.method``; traced holds (class, method) pairs read from outside the source.
    """
    classes = Classes(package + others)
    reads = Reads(classes)
    for tree in package + others:
        reads.read_module(tree)
    reached = set()  # (class, method) pairs a resolved read reaches: the method it finds, and each override below it
    for cls, attr in set(traced) | reads.resolved:
        reached |= {(c, attr) for c in classes.subclasses(cls) if attr in classes.methods[c]} | {(classes.owner(cls, attr), attr)}
    public = [n for tree in package for n in tree.body if isinstance(n, DEFS) and not n.name.startswith("_")]
    attrs = {}  # attribute name -> the package classes that have it
    for node in public:
        for name in list(classes.methods.get(node.name, {})) + list(classes.fields.get(node.name, {})):
            attrs.setdefault(name, set()).add(node.name)
    unused, collisions = set(), set()
    for node in public:
        if node.name not in reads.names:
            unused.add(node.name)
        for meth in classes.methods.get(node.name, {}):
            if meth.startswith("_") or (node.name, meth) in reached:
                continue
            if meth not in reads.loose:
                unused.add(f"{node.name}.{meth}")
            elif len(attrs[meth]) > 1:
                collisions.add(f"{node.name}.{meth}")
    return unused, collisions


def _parse(paths):
    return [ast.parse(p.read_text()) for p in paths]


def test_every_public_name_has_a_non_test_caller():
    unused, _ = surface(_parse(_modules()), _parse(_benchmark()), _traced_methods())
    assert unused == set(KEEP), f"public names only tests use: {sorted(unused - set(KEEP))}"


def test_the_unresolved_collisions_are_the_listed_ones():
    _, collisions = surface(_parse(_modules()), _parse(_benchmark()), _traced_methods())
    assert collisions == UNRESOLVED, f"new: {sorted(collisions - UNRESOLVED)}; resolved or gone: {sorted(UNRESOLVED - collisions)}"


def test_kept_names_are_promised_by_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert {name for name, phrase in KEEP.items() if phrase not in readme} == set()


def test_a_dead_method_that_shares_its_name_with_a_used_one_is_found():
    # Uniform.density shares its name with a used method and a field, which a guard on bare names could not tell apart
    package = ast.parse(
        "class Profile:\n"
        "    def density(self, x):\n"
        "        return x\n"
        "    def scaled(self, x) -> 'Profile':\n"
        "        return self\n"
        "class Uniform:\n"
        "    def density(self, x):\n"
        "        return x\n"
        "class Box:\n"
        "    density: float\n"
        "    def area(self):\n"
        "        return 1.0\n"
        "class Square(Box):\n"
        "    def area(self):\n"
        "        return 2.0\n"
        "def run(p: Profile, box: Box, items):\n"
        "    q = p.scaled(2.0)\n"
        "    return q.density(1.0) + box.density + box.area() + [u for u in items][0].gone\n"
    )
    assert surface([package], []) == ({"Uniform", "Square", "run", "Uniform.density"}, set())
    # a read on a receiver of unknown class could be any density: Uniform.density is then an unresolved collision
    loose = ast.parse("def other(thing):\n    return thing.density(0.0)\n")
    assert surface([package], [loose]) == ({"Uniform", "Square", "run"}, {"Uniform.density"})
