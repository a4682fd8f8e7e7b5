"""Per-layer instrumentation for the traced run, and the scaling sweep.

``Tracer.installed()`` wraps the public functions of each privcalc
module in every module that binds them (``engine`` and ``cli`` import
``normal_form``, ``pulse`` and the others by name, so patching the
defining module alone would miss their calls), plus
``Arrangement.__post_init__`` and ``evaluate`` on every ``Condition``
subclass. Each wrapper records a span into running totals: calls,
outermost inclusive time per group, and self time (the span minus its
wrapped children) per group. Nothing is recorded while it is not
installed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import time
import types
from collections import Counter

import privcalc
from privcalc import algebra, cli, engine, facts, pal, privilege

LAYERS = {
    "algebra": algebra,
    "facts": facts,
    "privilege": privilege,
    "pal": pal,
    "engine": engine,
    "cli": cli,
}
BINDERS = (privcalc, *LAYERS.values())
# Functions reported together under one metric name.
GROUPS = {
    "pal.parse_text": "pal.parse",
    "pal.parse": "pal.parse",
    "pal.parse_expression": "pal.parse",
    "pal.format_expr": "pal.format",
    "pal.format_node": "pal.format",
    "pal.format_program": "pal.format",
    "engine.load_rbac": "engine.rbac",
    "engine.import_rbac": "engine.rbac",
    "engine.arrangement_from_text": "engine.arrangement",
    "engine.load_arrangement": "engine.arrangement",
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.outer: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.nf_pairs: set = set()
        self._arrangements: dict = {}
        self._depth: Counter = Counter()
        self._stack = [0.0]

    def _wrap(self, fn, group, on_result=None):
        perf = time.perf_counter
        depth, calls, outer, self_s = self._depth, self.calls, self.outer, self.self_s
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(stack)
            stack.append(0.0)
            depth[group] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack[mark]
                del stack[mark:]
                stack[-1] += dt
                self_s[group] += dt - child
                calls[group] += 1
                depth[group] -= 1
                if not depth[group]:
                    outer[group] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # counters taken from arguments and results
    def _on_merge(self, args, result):
        if not result.is_empty:
            self.counts["merge_hits"] += 1

    def _on_normal_form(self, args, result):
        arrangement = args[1]
        self._arrangements[id(arrangement)] = arrangement  # keeps ids unique
        self.nf_pairs.add((args[0], id(arrangement)))

    def _on_tokenize(self, args, result):
        self.counts["tokens"] += len(result)

    def _on_close_family(self, args, result):
        self.counts["family_size"] = max(self.counts["family_size"], len(result))

    def _on_arrangement(self, args, result):
        self.counts["basis_size"] = max(self.counts["basis_size"], len(args[0].basis))

    @contextlib.contextmanager
    def installed(self):
        hooks = {
            "algebra.merge_employment": self._on_merge,
            "privilege.normal_form": self._on_normal_form,
            "pal.tokenize": self._on_tokenize,
            "facts.close_family": self._on_close_family,
        }
        undo = []
        try:
            for layer, module in LAYERS.items():
                for name, fn in list(_public_functions(module)):
                    key = f"{layer}.{name}"
                    wrapper = self._wrap(fn, GROUPS.get(key, key), hooks.get(key))
                    for binder in BINDERS:
                        for attr, value in list(vars(binder).items()):
                            if value is fn:
                                undo.append((binder, attr, fn))
                                setattr(binder, attr, wrapper)
            methods = [(privilege.Arrangement, "__post_init__", "privilege.arrangement_check",
                        self._on_arrangement)]
            pending = [facts.Condition]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if "evaluate" in vars(cls):
                    methods.append((cls, "evaluate", f"facts.{cls.__name__}.evaluate", None))
            for cls, attr, group, hook in methods:
                fn = vars(cls)[attr]
                undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, group, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, o, s = self.calls, self.outer, self.self_s
        merges = c["algebra.merge_employment"]
        nf_calls = c["privilege.normal_form"]
        cond_evals = sum(v for k, v in c.items() if k.endswith(".evaluate"))
        out = {
            "algebra.merge_employment_calls": (merges, "count"),
            "algebra.merge_employment_hit_ratio": (
                self.counts["merge_hits"] / merges if merges else 0.0, "ratio"),
            "privilege.arrangement_check_s": (o["privilege.arrangement_check"], "s"),
            "privilege.basis_size": (self.counts["basis_size"], "count"),
            "privilege.normal_form_calls": (nf_calls, "count"),
            "privilege.normal_form_s": (o["privilege.normal_form"], "s"),
            "privilege.normal_form_repeat_ratio": (
                nf_calls / len(self.nf_pairs) if self.nf_pairs else 0.0, "ratio"),
        }
        for fn in ("merge", "pulse", "trace", "compliant", "structural_eq"):
            out[f"privilege.{fn}_s"] = (o[f"privilege.{fn}"], "s")
        out.update({
            "facts.close_family_s": (o["facts.close_family"], "s"),
            "facts.family_size": (self.counts["family_size"], "count"),
            "facts.condition_evals": (cond_evals, "count"),
            "facts.guard_evals": (c["facts.HighOrderCondition.evaluate"], "count"),
            "pal.tokenize_s": (o["pal.tokenize"], "s"),
            "pal.tokens": (self.counts["tokens"], "count"),
            "pal.parse_s": (s["pal.parse"], "s"),
            "pal.format_s": (o["pal.format"], "s"),
            "engine.load_program_s": (o["engine.load_program"], "s"),
            "engine.eval_text_s": (o["engine.eval_text"], "s"),
            "engine.rbac_s": (o["engine.rbac"], "s"),
            "engine.arrangement_s": (o["engine.arrangement"], "s"),
            "cli.main_s": (o["cli.main"], "s"),
        })
        for layer in LAYERS:
            total = sum(v for k, v in s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}_self_s"] = (total, "s")
        return out


# --- scaling sweep ------------------------------------------------------


def _best(fn, repeats: int):
    """Fastest of ``repeats`` calls, and the last call's result."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def fitted_exponent(sizes: list[float], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scaling_sweep(seed: int) -> dict[str, tuple[float, str]]:
    """Arrangement check and normal form at 456, 900 and 1,800 atomic
    elements (the privilege has one atom per nine elements), and
    close_family from 6, 8 and 10 singleton generators. The largest
    sizes are the ones the roadmap's probes used. Run untraced."""
    rng = random.Random(f"sweep/{seed}")
    functions = [algebra.FunctionSymbol(f"f{i:02d}") for i in range(12)]
    sizes, check_t, nf_t = [], [], []
    for n_entities in (38, 75, 150):
        entities = [algebra.Entity(f"e{i:04d}") for i in range(n_entities)]
        basis = tuple(
            algebra.Employment(f, algebra.EntitySet.finite([e]))
            for f in functions for e in entities
        )
        t, arrangement = _best(lambda: privilege.Arrangement(basis), 1 if n_entities == 150 else 3)
        check_t.append(t)
        atoms = rng.sample(basis, len(basis) // 9)
        p = privilege.Privilege(frozenset(privilege.PrivilegeAtom(a) for a in atoms))
        nf_t.append(_best(lambda: privilege.normal_form(p, arrangement), 3)[0])
        sizes.append(len(basis))
    fam_sizes, fam_t = [], []
    for k in (6, 8, 10):
        statements = [facts.Statement(f"s{i}") for i in range(k)]
        gens = [facts.Fact(f"g{i}", frozenset([s])) for i, s in enumerate(statements)]
        fam_t.append(_best(lambda: facts.close_family(statements, gens), 1 if k == 10 else 3)[0])
        fam_sizes.append(2 ** k)
    return {
        "privilege.arrangement_check_exponent": (fitted_exponent(sizes, check_t), "exp"),
        "privilege.normal_form_exponent": (fitted_exponent(sizes, nf_t), "exp"),
        "facts.close_family_exponent": (fitted_exponent(fam_sizes, fam_t), "exp"),
    }
