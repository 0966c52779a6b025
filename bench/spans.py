"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, from outside, the public functions and methods of every
``ddrm`` module; the program itself is not edited. Each call records one
span: name, parent span, start, end (``perf_counter_ns``) and whether it
raised a ``DdrmError`` (a protocol denial). Spans stay in memory until the
pass ends; ``write_csv`` then dumps them and ``Aggregate`` derives calls,
total time and self time (duration minus the time its child spans cover)
per span name.

The run is single-threaded, so a plain stack gives each span its parent and
child spans never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import time
import types

# Sub-microsecond accessors and pure helpers called on nearly every
# operation. A span would cost more than their body, so they stay unwrapped
# and their time counts toward the caller's self time.
UNWRAPPED = {
    "ledger": {"ether", "format_ether", "Ledger.exists", "Ledger.balance", "Ledger.gas_cost",
               "RandomBeacon.randint", "RandomBeacon.chance"},
    "identity": {"card_fingerprint", "IdentityRegistry.get", "IdentityRegistry.get_active",
                 "IdentityRegistry.has_role", "IdentityRegistry.grant_role",
                 "IdentityRegistry.revoke_role", "IdentityRegistry.resolve_address"},
    "tokens": {"TokenBook.dret_count", "TokenBook.srat_for_purchase", "TokenBook.srat_usable"},
    "marketplace": {"Marketplace.get_service"},
    "endorsement": {"text_digest", "ReviewBoard.fraudulent_badge_count"},
    "adversary": {"rating_band", "band_matches", "expected_badge"},
}


def ddrm_modules(package) -> dict[str, types.ModuleType]:
    """Every submodule of the package, keyed by short name (``ledger``...)."""
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return modules


class Tracer:
    def __init__(self, denial_type: type):
        self.denial_type = denial_type
        self.names: list[str] = []
        # (name index, parent span index or -1, start ns, end ns, denied)
        self.spans: list = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self, package) -> None:
        modules = ddrm_modules(package)
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            skip = UNWRAPPED.get(short, set())
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType) and attr not in skip:
                    wrapped = self._wrap(f"{short}.{attr}", value)
                    # `from .x import f` copies the reference, so patch every alias.
                    for ns in namespaces:
                        for alias, obj in list(vars(ns).items()):
                            if obj is value:
                                self._patch(ns, alias, wrapped)
                elif isinstance(value, type) and not issubclass(value, BaseException):
                    self._install_class(short, value, skip)

    def _install_class(self, short: str, cls: type, skip: set[str]) -> None:
        for attr, value in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if qual in skip:
                continue
            if attr == "__init__":
                # Dataclass constructors only store fields; keep the real ones.
                if dataclasses.is_dataclass(cls):
                    continue
                span = f"{short}.{cls.__name__}.init"
            elif attr.startswith("_"):
                continue
            else:
                span = f"{short}.{qual}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._wrap(span, value))
            elif isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(span, value.__func__)))

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        denial = self.denial_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            denied = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except denial:
                denied = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, parent, start, end, denied)

        return traced

    # -- output --

    def write_csv(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns,denied\n")
            for sid, (index, parent, start, end, denied) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{names[index]},{start},{end},{int(denied)}\n")


@dataclasses.dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    denied: int = 0


class Aggregate:
    """Per-name call counts, total and self time over one traced pass."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.spans = tracer.spans
        child_ns = [0] * len(self.spans)
        for index, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.by_name: dict[str, NameStats] = {}
        for sid, (index, _parent, start, end, denied) in enumerate(self.spans):
            stats = self.by_name.setdefault(self.names[index], NameStats())
            stats.calls += 1
            stats.total_ns += end - start
            stats.self_ns += end - start - child_ns[sid]
            stats.denied += denied

    def get(self, name: str) -> NameStats:
        return self.by_name.get(name, NameStats())

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        names, spans = self.names, self.spans
        count = 0
        for index, parent, *_ in spans:
            if names[index] != name:
                continue
            while parent >= 0:
                p_index, parent = spans[parent][0], spans[parent][1]
                if names[p_index] == ancestor:
                    count += 1
                    break
        return count

    def children_ns(self, parent_name: str, child_name: str) -> int:
        """Total time of `child_name` spans whose direct parent is `parent_name`."""
        names, spans = self.names, self.spans
        total = 0
        for index, parent, start, end, _ in spans:
            if parent >= 0 and names[index] == child_name and names[spans[parent][0]] == parent_name:
                total += end - start
        return total
