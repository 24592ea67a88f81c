"""In-memory spans around the public functions of each ceresa layer.

`install` replaces every function in `LAYER_FUNCTIONS` by a recording
wrapper in each `ceresa.*` module that binds it, matched by identity: a
module that did `from .arith import det_bareiss` holds its own reference,
so patching only the defining module would miss those calls.
`sympy.factor_list` is patched on the `sympy` package, where
`picard._factor_over_q` looks it up at call time.

A span is `[function index, start, end, parent span, item id, exception
name, arguments]`; `aggregate` turns the spans of one pass into per-function
call counts, busy time and self time (busy time minus the time covered by
wrapped child calls).
"""

from __future__ import annotations

import functools
import importlib
import sys
from fractions import Fraction
from time import perf_counter

# (module, function) pairs, named in metrics as "<module>.<function>" with
# the "ceresa." prefix dropped
LAYER_FUNCTIONS = (
    ("ceresa.cli", "main"),
    ("ceresa.picard", "canonical_model"),
    ("ceresa.picard", "decide_ceresa"),
    ("ceresa.picard", "enumerate_torsion_locus"),
    ("ceresa.heights", "canonical_height"),
    ("ceresa.elliptic", "torsion_points"),
    ("ceresa.elliptic", "mul"),
    ("ceresa.elliptic", "division_poly"),
    ("ceresa.elliptic", "order_fp"),
    ("ceresa.elliptic", "group_order_fp"),
    ("ceresa.ffcert", "certify_infinite"),
    ("ceresa.ffcert", "lift_sum"),
    ("ceresa.ffcert", "frobenius_det"),
    ("ceresa.ffcert", "lpoly"),
    ("ceresa.ffcert", "count_curve"),
    ("ceresa.arith", "det_bareiss"),
    ("ceresa.arith", "factorize"),
    ("sympy", "factor_list"),
)

NAMES = tuple(f"{mod.removeprefix('ceresa.')}.{fn}" for mod, fn in LAYER_FUNCTIONS)
_LPOLY = NAMES.index("ffcert.lpoly")
_CERTIFY = NAMES.index("ffcert.certify_infinite")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.item = None
        self._stack: list[int] = []

    def _wrap(self, idx: int, fn):
        keep_args = idx == _LPOLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.item, None,
                   [str(a) for a in args] if keep_args else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                rec[5] = type(e).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Patch every binding of every layer function; call after the
        ceresa modules and sympy are imported."""
        binders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ceresa" or name.startswith("ceresa."))]
        for idx, (modname, fn) in enumerate(LAYER_FUNCTIONS):
            home = importlib.import_module(modname)
            orig = getattr(home, fn)
            wrapper = self._wrap(idx, orig)
            for mod in {id(m): m for m in binders + [home]}.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)


def _lpoly_key(args: list[str]) -> tuple:
    """(a mod p, b mod p, p): the data an L-polynomial over F_p depends on."""
    a, b, p = (Fraction(x) for x in args[:3])
    p = int(p)
    return tuple(x.numerator * pow(x.denominator, -1, p) % p for x in (a, b)) + (p,)


def aggregate(spans: list[list]) -> dict:
    """Per-function `calls`, `busy_s` (outermost calls only, so recursion is
    not counted twice) and `self_s`, plus the raw facts the ratio metrics
    need: the lpoly keys in call order and the exhausted certify calls."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls = [0] * len(NAMES)
    busy = [0.0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    for i, rec in enumerate(spans):
        idx, dur = rec[0], rec[2] - rec[1]
        calls[idx] += 1
        self_s[idx] += dur - child[i]
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != idx:
            parent = spans[parent][3]
        if parent < 0:
            busy[idx] += dur
    return {
        "functions": {name: {"calls": calls[i], "busy_s": busy[i], "self_s": self_s[i]}
                      for i, name in enumerate(NAMES)},
        "lpoly_keys": [_lpoly_key(rec[6]) for rec in spans
                       if rec[0] == _LPOLY and rec[5] is None],
        "exhausted": sum(1 for rec in spans
                         if rec[0] == _CERTIFY and rec[5] == "NoCertificateFound"),
    }


def span_lines(spans: list[list], t0: float):
    """The spans as JSON-ready dicts, times in seconds from `t0`."""
    for i, rec in enumerate(spans):
        yield {"id": i, "name": NAMES[rec[0]], "start": rec[1] - t0, "end": rec[2] - t0,
               "parent": rec[3], "item": rec[4], "error": rec[5]}
