"""In-memory call tracing around the public functions of ``displacement``.

The tracer replaces each traced function by a wrapper that counts calls
and accumulates total and self time.  Self time is a span's duration
minus the time covered by traced spans it caused.  Generators are
traced per ``next()``, and their yields are counted; for a recursive
generator only the yields of the outermost call count, so
``enumerate_level`` counts candidates of the searched level, not of the
levels below it.

A function imported by name into several modules (``commutator``,
``enumerate_subgroup``, ``subgroups_commute``, ``parse_scenario``, ...)
is patched in every loaded ``displacement`` module that binds it, so no
call path escapes.  Methods are patched on their class.  Nothing is
written while tracing; ``Tracer.stats`` is read once, at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

PACKAGE = "displacement"

# metric prefix -> (module, attribute or Class.method, is_generator)
TARGETS: Dict[str, Tuple[str, str, bool]] = {
    "hnn.iter_reduced_words": ("hnn", "iter_reduced_words", True),
    "hnn.word_mul": ("hnn", "word_mul", False),
    "hnn.word_inv": ("hnn", "word_inv", False),
    "hnn.britton_reduce": ("hnn", "britton_reduce", False),
    "hnn.presentation_build": ("hnn", "FiniteHnnPresentation.__init__", False),
    "hnn.normal_form": ("hnn", "normal_form", False),
    "hnn.tree_ball": ("hnn", "tree_ball", False),
    "hnn.fixes_vertex": ("hnn", "fixes_vertex", False),
    "wreath.mul": ("wreath", "WreathElement.__mul__", False),
    "wreath.enumerate_level": ("wreath", "enumerate_level", True),
    "perms.mul": ("perms", "Permutation.__mul__", False),
    "perms.construct": ("perms", "Permutation.__init__", False),
    "matrices.rref": ("matrices", "rref", False),
    "matrices.mul": ("matrices", "RationalMatrix.__mul__", False),
    "matrices.inverse": ("matrices", "RationalMatrix.inverse", False),
    "plmaps.compose": ("plmaps", "pl_compose", False),
    "plmaps.inverse": ("plmaps", "PLHomeo.inverse", False),
    "plmaps.evaluate": ("plmaps", "PLHomeo.__call__", False),
    "core.commutator": ("core", "commutator", False),
    "core.enumerate_subgroup": ("core", "enumerate_subgroup", False),
    "core.subgroups_commute": ("core", "subgroups_commute", False),
    "checkers.check_cc": ("checkers", "check_cc", False),
    "checkers.check_cznc": ("checkers", "check_cznc", False),
    "checkers.check_czc": ("checkers", "check_czc", False),
    "checkers.check_ccc": ("checkers", "check_ccc", False),
    "checkers.check_binate": ("checkers", "check_binate", False),
    "checkers.check_mitotic": ("checkers", "check_mitotic", False),
    "checkers.check_dissipator": ("checkers", "check_dissipator", False),
    "checkers.check_M": ("checkers", "check_M", False),
    "checkers.verify_certificate": ("checkers", "verify_certificate", False),
    "serialize.parse_scenario": ("serialize", "parse_scenario", False),
    "serialize.dump_report": ("serialize", "dump_report", False),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "yields")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.yields = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "yields": self.yields}


class Tracer:
    """Wraps functions, keeps counts and times in memory, and restores
    the originals on ``uninstall``."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self._children: List[float] = []  # child time of each open span
        self._active: Dict[str, int] = {}  # open next() calls per generator
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- wrappers ------------------------------------------------------

    def _close(self, stat: Stat, start: float) -> None:
        dt = time.perf_counter() - start
        stat.total_s += dt
        stat.self_s += dt - self._children.pop()
        if self._children:
            self._children[-1] += dt

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        children = self._children
        close = self._close
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            children.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, start)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        children = self._children
        active = self._active
        active.setdefault(name, 0)
        close = self._close
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                outermost = active[name] == 0
                active[name] += 1
                children.append(0.0)
                start = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    active[name] -= 1
                    close(stat, start)
                if outermost:
                    stat.yields += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        is_dict = isinstance(owner, dict)
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every target in every loaded module of the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, (module, attr, is_gen) in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            wrap = self.wrap_generator if is_gen else self.wrap
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, wrap(name, vars(cls)[meth]))
                continue
            original = getattr(mod, attr)
            wrapped = wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def install_check_types(self) -> None:
        """Time every check type through the suite registry, one span
        per check; cheap enough to leave on in an untraced run."""
        suites = importlib.import_module(f"{PACKAGE}.suites")
        for ctype, fn in list(suites.CHECK_TYPES.items()):
            self._patch(suites.CHECK_TYPES, ctype, self.wrap(f"suites.{ctype}", fn))

    def uninstall(self) -> None:
        for owner, attr, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def snapshot(self) -> Dict[str, dict]:
        return {name: st.as_dict() for name, st in sorted(self.stats.items())}
