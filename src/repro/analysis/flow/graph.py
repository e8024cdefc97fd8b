"""Project symbol table and call graph for whole-program rules.

The per-module engine sees one file at a time; the invariants the
``RPX`` family protects (seed provenance, thread ownership, event
contracts) span modules.  This module builds the shared substrate those
rules run on:

* a **symbol table** — every module, class and function discovered under
  the scanned paths, keyed by dotted qualified name
  (``repro.core.bo.BOEngine._fold_in``);
* an **import map** per module — local name → dotted target, with
  relative imports resolved against the module's package;
* a **call resolver** — best-effort static resolution of a call
  expression inside a function to a project symbol (local functions,
  imported names, ``self.``/``cls.`` methods including project-resolvable
  base classes, ``module.attr`` chains).

Resolution is deliberately conservative: a call that cannot be resolved
to a project symbol yields ``None`` and simply grows no graph edge, so
whole-program rules under-approximate reachability rather than invent
it.  The graph is a pure function of the scanned files' contents, which
is what makes the flow-phase result cache sound (keyed by the tree
hash — see :mod:`repro.analysis.cache`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterator

from ..context import ModuleContext, repro_subpath

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "ProjectGraph",
           "build_project", "module_name_for", "render_graph"]

#: Recursion guard for base-class method lookup.
_MRO_DEPTH = 8


def module_name_for(display: str) -> str:
    """Dotted module name for a display path.

    Files under a ``src/repro/`` layout (anywhere in the path, so tmpdir
    fixtures resolve identically to in-repo files) become ``repro.*``
    names; everything else gets a path-derived dotted name that is
    unique within the scan but never collides with the ``repro``
    namespace.
    """
    sub = repro_subpath(display)
    if sub is not None and sub.endswith(".py"):
        dotted = sub[:-3].replace("/", ".")
        if dotted == "__init__" or not dotted:
            return "repro"
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        return f"repro.{dotted}"
    parts = PurePosixPath(display.replace("\\", "/")).parts
    cleaned = [p for p in parts if p not in ("/", "\\")]
    stem = ".".join(cleaned)
    if stem.endswith(".py"):
        stem = stem[:-3]
    return stem.replace(":", "")


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qname: str
    name: str
    cls: str | None
    module: str
    display: str
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        names.extend(a.arg for a in args.kwonlyargs)
        return names


@dataclass
class ClassInfo:
    """One class definition: its methods and (raw) base names."""

    qname: str
    name: str
    module: str
    bases: tuple[str, ...]          # dotted source text of each base
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qname
    lineno: int = 0


@dataclass
class ModuleInfo:
    """One parsed module plus its scope tables."""

    name: str
    ctx: ModuleContext = field(repr=False)
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def display(self) -> str:
        return self.ctx.display

    @property
    def package(self) -> str:
        """The package this module resolves relative imports against."""
        if self.display.replace("\\", "/").endswith("/__init__.py"):
            return self.name
        if "." in self.name:
            return self.name.rsplit(".", 1)[0]
        return self.name


def _dotted(expr: ast.expr) -> str | None:
    """Source-text dotted name of ``a.b.c`` expressions (else ``None``)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def attr_chain(expr: ast.expr) -> list[str]:
    """``a.b.c`` → ``["a", "b", "c"]`` (empty for non-name chains)."""
    dotted = _dotted(expr)
    return dotted.split(".") if dotted else []


def _collect_imports(module: ModuleInfo) -> None:
    """Fill ``module.imports`` with local-name → dotted-target entries.

    Function-local imports are folded into the module-wide table: the
    resolver over-approximates visibility slightly rather than modelling
    per-scope import tables.
    """
    pkg_parts = module.package.split(".")
    for node in ast.walk(module.ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(anchor)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = (f"{base}.{alias.name}"
                                         if base else alias.name)


def _collect_defs(module: ModuleInfo) -> None:
    """Record module-level functions, classes, and class methods.

    Functions nested inside other functions are *not* symbols — they
    belong to their enclosing function's body and are analysed there.
    """
    def visit(body: list[ast.stmt], cls: ClassInfo | None,
              prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(qname=qname, name=stmt.name,
                                    cls=cls.name if cls else None,
                                    module=module.name,
                                    display=module.display, node=stmt)
                local = f"{cls.name}.{stmt.name}" if cls else stmt.name
                module.functions[local] = info
                if cls is not None:
                    cls.methods[stmt.name] = qname
            elif isinstance(stmt, ast.ClassDef):
                cqname = f"{prefix}.{stmt.name}"
                bases = tuple(b for b in (_dotted(base) for base in stmt.bases)
                              if b is not None)
                cinfo = ClassInfo(qname=cqname, name=stmt.name,
                                  module=module.name, bases=bases,
                                  lineno=stmt.lineno)
                module.classes[stmt.name] = cinfo
                visit(stmt.body, cinfo, cqname)

    visit(module.ctx.tree.body, None, module.name)


class ProjectGraph:
    """The whole-program view: symbols, imports, and call resolution."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.by_display: dict[str, ModuleInfo] = {
            m.display: m for m in modules}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for mod in modules:
            for fn in mod.functions.values():
                self.functions[fn.qname] = fn
            for cls in mod.classes.values():
                self.classes[cls.qname] = cls

    # -- lookup ---------------------------------------------------------------
    def class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.cls is None:
            return None
        mod = self.modules.get(fn.module)
        return mod.classes.get(fn.cls) if mod else None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]

    # -- resolution -----------------------------------------------------------
    def resolve_class(self, dotted: str, module: ModuleInfo) -> ClassInfo | None:
        """Resolve a dotted base-class/receiver name inside *module*."""
        if dotted in module.classes:
            return module.classes[dotted]
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            return None
        qname = f"{target}.{rest}" if rest else target
        return self.classes.get(qname)

    def _method_on(self, cls: ClassInfo, name: str,
                   depth: int = 0) -> str | None:
        if name in cls.methods:
            return cls.methods[name]
        if depth >= _MRO_DEPTH:
            return None
        mod = self.modules.get(cls.module)
        if mod is None:
            return None
        for base in cls.bases:
            base_cls = self.resolve_class(base, mod)
            if base_cls is not None:
                found = self._method_on(base_cls, name, depth + 1)
                if found is not None:
                    return found
        return None

    def resolve_call(self, func: ast.expr,
                     scope: FunctionInfo) -> str | None:
        """Best-effort qname of the project function a call targets."""
        module = self.modules.get(scope.module)
        if module is None:
            return None
        chain = attr_chain(func)
        if not chain:
            return None
        if len(chain) == 1:
            name = chain[0]
            info = module.functions.get(name)
            if info is not None:
                return info.qname
            target = module.imports.get(name)
            if target is not None and target in self.functions:
                return target
            return None
        if chain[0] in ("self", "cls") and scope.cls is not None:
            cls = self.class_of(scope)
            if cls is not None and len(chain) == 2:
                return self._method_on(cls, chain[1])
            return None
        # ClassName.method inside the defining module.
        if chain[0] in module.classes and len(chain) == 2:
            return self._method_on(module.classes[chain[0]], chain[1])
        target = module.imports.get(chain[0])
        if target is not None:
            qname = ".".join([target, *chain[1:]])
            if qname in self.functions:
                return qname
            # Imported class: Class.method references.
            cls_qname = ".".join([target, *chain[1:-1]])
            cls = self.classes.get(cls_qname)
            if cls is not None:
                return self._method_on(cls, chain[-1])
        return None


def build_project(ctxs: list[ModuleContext]) -> ProjectGraph:
    """Build the project graph from parsed module contexts."""
    modules: list[ModuleInfo] = []
    seen: set[str] = set()
    for ctx in ctxs:
        name = module_name_for(ctx.display)
        if name in seen:     # duplicate dotted name: keep display-unique
            name = f"{name}@{len(seen)}"
        seen.add(name)
        module = ModuleInfo(name=name, ctx=ctx)
        _collect_imports(module)
        _collect_defs(module)
        modules.append(module)
    return ProjectGraph(modules)


def render_graph(project: ProjectGraph,
                 summaries: dict[str, "object"] | None = None) -> str:
    """Human-readable dump of the graph (the CLI's ``--graph`` output)."""
    lines: list[str] = []
    n_fns = len(project.functions)
    n_classes = len(project.classes)
    lines.append(f"project graph: {len(project.modules)} modules, "
                 f"{n_classes} classes, {n_fns} functions")
    for name in sorted(project.modules):
        mod = project.modules[name]
        lines.append(f"module {name} [{mod.display}]")
        for cls_name in sorted(mod.classes):
            cls = mod.classes[cls_name]
            bases = f"({', '.join(cls.bases)})" if cls.bases else ""
            lines.append(f"  class {cls.name}{bases}")
        for local in sorted(mod.functions):
            fn = mod.functions[local]
            lines.append(f"  def {local}  [line {fn.lineno}]")
            if summaries is not None:
                summary = summaries.get(fn.qname)
                callees = sorted(getattr(summary, "resolved_callees", ()))
                for callee in callees:
                    lines.append(f"    -> {callee}")
    return "\n".join(lines)
