"""Per-function counters for the traced pass, installed from outside the
package by rebinding its public functions.

Several modules import names from others (``insertion`` holds ``is_ssyt``
and ``as_tableau``; ``zeta``, ``crystal`` and ``acceptance`` hold
``cached_ssyt``), so a wrapper replaces the original in every loaded
``schurzeta`` module that holds it; otherwise those calls would skip the
counters.  Only aggregates are kept per function: calls, and for timed
functions their self time (duration minus the time spent in nested timed
calls).  Hot leaves such as ``row_insert`` stay cheap to record that way.
"""

import functools
import importlib
import sys
import time

PACKAGE = "schurzeta"

# (module.function, "count" | "timed").  Counted-only functions are the
# hottest leaves; their time stays in the caller's self time.
TARGETS = (
    ("partitions.as_partition", "count"),
    ("tableaux.as_tableau", "timed"),
    ("tableaux.is_ssyt", "timed"),
    ("tableaux.cached_ssyt", "timed"),
    ("tableaux.lr_coefficient", "timed"),
    ("insertion.row_insert", "timed"),
    ("insertion.column_insert", "timed"),
    ("crystal.e", "count"),
    ("crystal.f", "count"),
    ("crystal.decompose_product", "timed"),
    ("crystal.verify_crystal_axioms", "timed"),
    ("zeta.sym_sum", "timed"),
    ("zeta.verify_pieri_h", "timed"),
    ("zeta.verify_pieri_e", "timed"),
    ("zeta.verify_lr", "timed"),
    ("zeta.eval_zeta_limit", "timed"),
    ("zeta.eval_zeta_truncated", "timed"),
    ("zeta.verify_insertion_term", "timed"),
)


def _sym_sum_extra(stats, fn, args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[1]
    stats["max_k"] = max(stats["max_k"], len(spec.symmetrized))
    return fn(*args, **kwargs)


def _cached_ssyt_extra(stats, fn, args, kwargs):
    before = fn.cache_info().misses
    result = fn(*args, **kwargs)
    if fn.cache_info().misses > before:
        stats["misses"] += 1
        stats["tableaux"] += len(result)
    return result


def _limit_extra(stats, fn, args, kwargs):
    result = fn(*args, **kwargs)
    stats["levels"] += result.levels
    return result


# Extra statistics per function; each hook makes the call itself.
EXTRAS = {
    "zeta.sym_sum": (_sym_sum_extra, ("max_k",)),
    "tableaux.cached_ssyt": (_cached_ssyt_extra, ("misses", "tableaux")),
    "zeta.eval_zeta_limit": (_limit_extra, ("levels",)),
}


class Tracer:
    """Counters for one traced pass.  ``install`` rebinds the targets;
    ``stats`` maps "module.function" to its counters."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def _counted(self, key, fn):
        stats = self.stats[key]

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        hook = EXTRAS[key][0] if key in EXTRAS else None

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(stats, fn, args, kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self, targets=TARGETS):
        for key, kind in targets:
            module_name, name = key.rsplit(".", 1)
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, name)
            self.stats[key] = {"calls": 0}
            if kind == "timed":
                self.stats[key]["self_s"] = 0.0
                for extra in EXTRAS.get(key, (None, ()))[1]:
                    self.stats[key][extra] = 0
                wrapper = self._timed(key, original)
            else:
                wrapper = self._counted(key, original)
            functools.update_wrapper(wrapper, original)
            for attr in ("cache_info", "cache_clear"):
                if hasattr(original, attr):
                    setattr(wrapper, attr, getattr(original, attr))
            self._rebind(original, wrapper)

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
