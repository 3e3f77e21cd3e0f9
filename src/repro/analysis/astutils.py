"""AST plumbing shared by the rule modules.

The central job here is mapping a parsed module to the Table 1
template vocabulary: which classes are operators, which template
family they instantiate (stateless / keyed-unordered / keyed-ordered /
sliding), and — for each overridden template callback — which
parameter plays which role (key, value, state, emit).  Rules then
speak in roles, not positions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# Template families.
STATELESS = "stateless"
KEYED_UNORDERED = "keyed_unordered"
KEYED_ORDERED = "keyed_ordered"
SLIDING = "sliding"
GENERIC = "operator"  # raw Operator subclass: only snapshot rules apply

#: Known base-class names -> template family.  Covers the Table 1
#: templates plus the library/app subclasses built on them, so that
#: second-level subclasses (e.g. ``PersistingCount(RunningAggregate)``)
#: classify without cross-module resolution.
TEMPLATE_BASES: Dict[str, str] = {
    # templates
    "OpStateless": STATELESS,
    "StatelessFn": STATELESS,
    "OpKeyedUnordered": KEYED_UNORDERED,
    "OpKeyedOrdered": KEYED_ORDERED,
    # library subclasses that keep the template callback signatures
    "MapPairsFn": STATELESS,
    "TableJoin": STATELESS,
    "TumblingAggregate": KEYED_UNORDERED,
    "RunningAggregate": KEYED_UNORDERED,
    "SlidingAggregate": SLIDING,
    "MaxOfAvgPerKey": KEYED_UNORDERED,
    "BlockJoin": KEYED_UNORDERED,
    "TopK": KEYED_UNORDERED,
    "DistinctCount": KEYED_UNORDERED,
    "Sessionize": KEYED_ORDERED,
    "KeyedSequenceOp": KEYED_ORDERED,
    # generic operators: no template callbacks, but snapshot rules apply
    "Operator": GENERIC,
    "SortOp": GENERIC,
}

#: Methods holding checkpoint state, scanned by the DT4xx rules on any
#: class that defines them (position of the state-like parameter).
SNAPSHOT_METHODS: Dict[str, int] = {
    "snapshot_state": 1,  # snapshot_state(self, state)
    "copy_state": 1,
    "restore_state": 1,  # restore_state(self, snapshot)
}

#: Calls whose result does not expose the iteration/argument order of
#: its operands — crossing one of these launders order taint.
SANITIZERS: Set[str] = {
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset", "Counter", "collections.Counter",
}

#: Method names that mutate their receiver in place.
MUTATING_METHODS: Set[str] = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "popleft", "rotate", "sort", "reverse", "write",
}


@dataclass(frozen=True)
class Callback:
    """One overridden template callback (or snapshot method) in a class."""

    cls_name: str
    kind: str  # template family of the class
    node: ast.FunctionDef
    role: str  # "emitting" | "pure" | "snapshot"
    key: Optional[str] = None
    value: Optional[str] = None
    state: Optional[str] = None
    emit: Optional[str] = None
    params: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def symbol(self) -> str:
        return f"{self.cls_name}.{self.node.name}"


@dataclass
class ScannedClass:
    """A classified operator class and its recognized callbacks."""

    node: ast.ClassDef
    kind: str
    callbacks: List[Callback] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name


# role spec per family: method -> (role, {param role: position}).
# Positions count self as 0; missing positions fall back to None.
_SPECS: Dict[str, Dict[str, Tuple[str, Dict[str, int]]]] = {
    STATELESS: {
        "on_item": ("emitting", {"key": 1, "value": 2, "emit": 3}),
        "on_marker": ("emitting", {"emit": 2}),
    },
    KEYED_UNORDERED: {
        # fold_in(self, key, value); update_state(self, old_state, agg);
        # on_item(self, last_state, key, value, emit);
        # on_marker(self, new_state, key, m, emit).
        "fold_in": ("pure", {"key": 1, "value": 2}),
        "identity": ("pure", {}),
        "combine": ("pure", {}),
        "init": ("pure", {}),
        "update_state": ("pure", {"state": 1, "value": 2}),
        "on_item": ("emitting", {"state": 1, "key": 2, "value": 3, "emit": 4}),
        "on_marker": ("emitting", {"state": 1, "key": 2, "emit": 4}),
    },
    KEYED_ORDERED: {
        # on_item(self, state, key, value, emit);
        # on_marker(self, state, key, m, emit).
        "init": ("pure", {}),
        "on_item": ("emitting", {"state": 1, "key": 2, "value": 3, "emit": 4}),
        "on_marker": ("emitting", {"state": 1, "key": 2, "emit": 4}),
    },
    SLIDING: {
        # fold_in(self, key, value); finish(self, key, agg, timestamp).
        "fold_in": ("pure", {"key": 1, "value": 2}),
        "identity": ("pure", {}),
        "combine": ("pure", {}),
        "finish": ("pure", {"key": 1, "state": 2}),
    },
    GENERIC: {},
}


def base_names(node: ast.ClassDef) -> List[str]:
    """Plain names of a class's bases (``pkg.Base`` -> ``Base``)."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _classify(node: ast.ClassDef, local_kinds: Dict[str, str]) -> Optional[str]:
    for base in base_names(node):
        if base in local_kinds:
            return local_kinds[base]
        if base in TEMPLATE_BASES:
            return TEMPLATE_BASES[base]
    return None


def _param_names(fn: ast.FunctionDef) -> Tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


def _make_callback(cls: ScannedClass, fn: ast.FunctionDef) -> Optional[Callback]:
    spec = _SPECS.get(cls.kind, {}).get(fn.name)
    params = _param_names(fn)
    if fn.name in SNAPSHOT_METHODS:
        pos = SNAPSHOT_METHODS[fn.name]
        state = params[pos] if pos and len(params) > pos else None
        return Callback(
            cls_name=cls.name, kind=cls.kind, node=fn, role="snapshot",
            state=state, params=params,
        )
    if spec is None:
        return None
    role, positions = spec

    def at(role_name: str) -> Optional[str]:
        pos = positions.get(role_name)
        if pos is not None and len(params) > pos:
            return params[pos]
        return None

    key, value, state, emit = at("key"), at("value"), at("state"), at("emit")
    # The emit parameter is positional in every template; as a fallback
    # (e.g. extra defaulted params) take a parameter literally named emit.
    if role == "emitting" and emit is None and "emit" in params:
        emit = "emit"
    return Callback(
        cls_name=cls.name, kind=cls.kind, node=fn, role=role,
        key=key, value=value, state=state, emit=emit, params=params,
    )


def scan_module(tree: ast.Module) -> List[ScannedClass]:
    """Classify every operator class in a module (nested ones included).

    Classification is by base-class *name*: the known template names
    plus any class classified earlier in the same module (handles
    local subclass chains in source order).
    """
    local_kinds: Dict[str, str] = {}
    out: List[ScannedClass] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        kind = _classify(node, local_kinds)
        if kind is None:
            continue
        local_kinds[node.name] = kind
        scanned = ScannedClass(node=node, kind=kind)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cb = _make_callback(scanned, item)
                if cb is not None:
                    scanned.callbacks.append(cb)
        out.append(scanned)
    return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[str]:
    return dotted_name(call.func)


def is_sanitizer_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    return name in SANITIZERS if name else False


def names_in(node: ast.AST, *, through_sanitizers: bool = False) -> Set[str]:
    """Names referenced in an expression.

    With ``through_sanitizers=False`` (the default for taint checks),
    subtrees under a sanitizer call — ``sorted(xs)``, ``len(s)`` — are
    not descended into: their order content is laundered.
    """
    found: Set[str] = set()

    def visit(n: ast.AST) -> None:
        if not through_sanitizers and is_sanitizer_call(n):
            return
        if isinstance(n, ast.Name):
            found.add(n.id)
        for child in ast.iter_child_nodes(n):
            visit(child)

    visit(node)
    return found


def local_names(fn: ast.FunctionDef) -> Set[str]:
    """Parameters plus every name bound anywhere inside ``fn``.

    Deliberately coarse (it includes names bound in nested functions and
    comprehensions): the purity rules use this set to decide that a name
    is *not* local, so over-approximating locals only loses findings,
    never invents them.
    """
    bound: Set[str] = set(_param_names(fn))
    args = fn.args
    for a in (args.vararg, args.kwarg):
        if a is not None:
            bound.add(a.arg)
    for a in args.kwonlyargs:
        bound.add(a.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                bound.add(node.name)
            for a in node.args.args + node.args.posonlyargs + node.args.kwonlyargs:
                bound.add(a.arg)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def subscript_base(node: ast.AST) -> ast.AST:
    """Peel subscripts: ``a[i][j]`` -> the ``a`` node."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def is_self_attribute(node: ast.AST, self_name: str) -> bool:
    """True for ``self.x`` (or deeper: ``self.x.y``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == self_name


def self_param(fn: ast.FunctionDef) -> Optional[str]:
    params = _param_names(fn)
    return params[0] if params else None


def infer_aggregate_kind(cls: ScannedClass) -> Optional[str]:
    """Guess the monoid aggregate's container kind from ``identity``.

    ``identity`` returning ``{}``/``dict(...)`` -> "dict"; ``set()``/
    set literals -> "set".  Used by the DT203 taint walk to treat the
    aggregate parameters of combine/update_state as unordered sources.
    """
    for cb in cls.callbacks:
        if cb.name != "identity":
            continue
        for node in ast.walk(cb.node):
            if isinstance(node, ast.Return) and node.value is not None:
                kind = container_kind(node.value)
                if kind:
                    return kind
    return None


def container_kind(expr: ast.AST) -> Optional[str]:
    """"dict" / "set" / "list" when the expression clearly builds one."""
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("dict", "collections.defaultdict", "defaultdict"):
            return "dict"
        if name in ("set", "frozenset"):
            return "set"
        if name == "list":
            return "list"
    return None
