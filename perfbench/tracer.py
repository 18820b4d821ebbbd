"""Outside-in tracing of qmock: wrap its entry points in place, restore them.

Each wrapped function records a span (calls, total and self time, and the
edge to the span that called it) plus, for some, work counts.  Wrappers
replace every binding of the original that the package holds, including
names imported into other modules (``appell.jacobi_theta``,
``catalog.appell_m``, ...), methods on ``QSeries`` and the generators stored
in ``catalog.CATALOG``, so no call escapes its span.

Per-stanza state travels with the report: ``cli._verify_payload`` is wrapped
so each stanza is traced into fresh state that is attached to the returned
report.  That works in the calling process and in forked pool workers alike;
the caller merges the states with ``merge_reports``.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
import time

_perf = time.perf_counter


def new_state():
    return {
        "spans": {},      # name -> [calls, total_s, self_s]
        "edges": {},      # "parent>name" -> [calls, total_s]
        "groups": {},     # group -> total_s of outermost calls in the group
        "counts": {},     # counter name -> int
        "distinct": {},   # counter name -> set of argument keys
    }


def merge(into, part):
    for key in ("spans", "edges"):
        for name, rec in part[key].items():
            cur = into[key].setdefault(name, [0] * len(rec))
            for i, v in enumerate(rec):
                cur[i] += v
    for key in ("groups", "counts"):
        for name, v in part[key].items():
            into[key][name] = into[key].get(name, 0) + v
    for name, keys in part["distinct"].items():
        into["distinct"].setdefault(name, set()).update(keys)


def _grid_dense(terms):
    """True when the terms fill at least half of their exponent grid (the
    points from the least to the greatest exponent spaced by the gcd of
    the exponent differences)."""
    if len(terms) < 2:
        return False
    exps = list(terms)
    lcm = 1
    for e in exps:
        lcm = lcm * e.denominator // math.gcd(lcm, e.denominator)
    ints = [int(e * lcm) for e in exps]
    lo = min(ints)
    step = 0
    for v in ints:
        step = math.gcd(step, v - lo)
    return 2 * len(ints) >= (max(ints) - lo) // step + 1


class Tracer:
    def __init__(self):
        self.state = new_state()
        self._stack = []          # frames [name, child_s]
        self._depth = {}          # span name, or (group, 0) -> active calls
        self._eval_depth = 0
        self._patches = []        # (owner, attribute, original, wrapper)

    # -- recording ------------------------------------------------------------

    def _count(self, name, n=1):
        counts = self.state["counts"]
        counts[name] = counts.get(name, 0) + n

    def _span(self, name, group, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack, depth = tracer._stack, tracer._depth
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            depth[group, 0] = depth.get((group, 0), 0) + 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - start
                stack.pop()
                depth[name] -= 1
                depth[group, 0] -= 1
                if stack:
                    stack[-1][1] += dt
                st = tracer.state
                rec = st["spans"].setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[2] += dt - frame[1]
                if depth[name] == 0:
                    rec[1] += dt
                if depth[group, 0] == 0:
                    st["groups"][group] = st["groups"].get(group, 0.0) + dt
                edge = st["edges"].setdefault(f"{parent}>{name}", [0, 0.0])
                edge[0] += 1
                edge[1] += dt

        return wrapper

    # -- hooks computing work counts -----------------------------------------

    def _mul_work(self, args, kwargs):
        a, b = args[0], args[1]
        if isinstance(b, type(a)):
            pairs = self._term_pairs(a, b)
            self._count("series.mul.term_pairs", pairs)
            if _grid_dense(a.terms) and _grid_dense(b.terms):
                self._count("series.mul.dense_pairs", pairs)
        return args, kwargs

    @staticmethod
    def _term_pairs(a, b):
        """Pairs of terms whose exponent sum lies below the product's
        precision, the bound ``QSeries.__mul__`` truncates at."""
        la, lb = a.low_degree(), b.low_degree()
        p = None
        if a.precision is not None and lb is not None:
            p = a.precision + lb
        if b.precision is not None and la is not None:
            q = b.precision + la
            p = q if p is None else min(p, q)
        if p is None:
            return len(a.terms) * len(b.terms)
        small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
        exps = sorted(big)
        return sum(bisect.bisect_left(exps, p - e) for e in small)

    def _appell_m_key(self, args, kwargs):
        self.state["distinct"].setdefault("appell.appell_m", set()).add(
            repr(args) + repr(sorted(kwargs.items())))
        return args, kwargs

    def _count_build_passes(self, args, kwargs):
        build = args[0]
        tracer = self

        def counted(work):
            tracer._count("appell.eval_with_retry.passes")
            return build(work)

        return (counted,) + tuple(args[1:]), kwargs

    def _eval_pass_counter(self, fn):
        """dsl._eval recurses through its module global; only the outermost
        call of each nest is one evaluation pass."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._eval_depth == 0:
                tracer._count("dsl.evaluate.passes")
            tracer._eval_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._eval_depth -= 1

        return wrapper

    def _per_stanza(self, fn):
        tracer = self
        inner = self._span("cli.verify", "cli.verify", fn)

        @functools.wraps(fn)
        def wrapper(payload):
            saved = tracer.state
            tracer.state = new_state()
            try:
                report = inner(payload)
                report.trace = tracer.state
            finally:
                tracer.state = saved
            return report

        return wrapper

    # -- installation ----------------------------------------------------------

    def targets(self):
        """(module, attribute, wrapper factory) for every traced entry point."""
        span = self._span
        catalog_generators = ("psi3", "nu3", "phi3", "psibar0", "psibar1", "phibar0", "phibar1")
        blocks = ("g_abc", "h_abc", "theta_np", "theta_abc", "msplit_rhs")
        out = [
            ("qmock.series", "QSeries.__mul__", lambda f: span("series.mul", "series.mul", f, self._mul_work)),
            ("qmock.series", "QSeries.invert", lambda f: span("series.invert", "series.invert", f)),
            ("qmock.dsl", "parse", lambda f: span("dsl.parse", "dsl.parse", f)),
            ("qmock.dsl", "evaluate", lambda f: span("dsl.evaluate", "dsl.evaluate", f)),
            ("qmock.dsl", "_eval", self._eval_pass_counter),
            ("qmock.appell", "eval_with_retry",
             lambda f: span("appell.eval_with_retry", "appell.eval_with_retry", f, self._count_build_passes)),
            ("qmock.appell", "appell_m", lambda f: span("appell.appell_m", "appell.appell_m", f, self._appell_m_key)),
            ("qmock.appell", "universal_g_eulerian",
             lambda f: span("appell.universal_g_eulerian", "appell.universal_g_eulerian", f)),
            ("qmock.theta", "jacobi_theta", lambda f: span("theta.jacobi_theta", "theta.jacobi_theta", f)),
            ("qmock.theta", "pochhammer_finite", lambda f: span("theta.pochhammer_finite", "theta.pochhammer", f)),
            ("qmock.theta", "pochhammer_infinite", lambda f: span("theta.pochhammer_infinite", "theta.pochhammer", f)),
            ("qmock.hecke", "f_abc", lambda f: span("hecke.f_abc", "hecke.f_abc", f)),
            ("qmock.cli", "run_corpus", lambda f: span("cli.run_corpus", "cli.run_corpus", f)),
            ("qmock.cli", "_verify_payload", self._per_stanza),
        ]
        out += [("qmock.appell", b, lambda f, b=b: span(f"appell.{b}", "appell.blocks", f)) for b in blocks]
        out += [("qmock.catalog", g, lambda f, g=g: span(f"catalog.{g}", "catalog.eulerian", f))
                for g in catalog_generators]
        return out

    def install(self):
        """Find every binding of each target inside the qmock package and
        replace it by its wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "qmock" or n.startswith("qmock.")) and m is not None]
        from qmock.catalog import CATALOG
        from qmock.series import QSeries
        for module_name, attr, factory in self.targets():
            owner = sys.modules[module_name]
            for part in attr.split("."):
                owner = getattr(owner, part)
            original = owner
            wrapper = factory(original)
            for obj in modules + [QSeries] + list(CATALOG.values()):
                for name, value in list(vars(obj).items()):
                    if value is original:
                        self._patches.append((obj, name, original, wrapper))
        self.enable()

    def enable(self):
        for obj, name, _, wrapper in self._patches:
            setattr(obj, name, wrapper)

    def disable(self):
        """Restore the originals; ``enable`` puts the wrappers back."""
        for obj, name, original, _ in self._patches:
            setattr(obj, name, original)

    def check_bindings(self, installed):
        """Raise unless the bindings qmock imports by name are (un)wrapped."""
        import qmock.appell as appell
        import qmock.catalog as catalog
        import qmock.cli as cli
        import qmock.dsl as dsl
        from qmock.series import QSeries
        probes = {
            "appell.jacobi_theta": appell.jacobi_theta,
            "catalog.appell_m": catalog.appell_m,
            "catalog.eval_with_retry": catalog.eval_with_retry,
            "catalog.universal_g_eulerian": catalog.universal_g_eulerian,
            "catalog.CATALOG['psi'].eulerian": catalog.CATALOG["psi"].eulerian,
            "cli.parse": cli.parse,
            "dsl.parse": dsl.parse,
            "QSeries.__mul__": QSeries.__dict__["__mul__"],
            "QSeries.__rmul__": QSeries.__dict__["__rmul__"],
            "QSeries.invert": QSeries.__dict__["invert"],
        }
        for name, fn in probes.items():
            if hasattr(fn, "__wrapped__") != installed:
                state = "unwrapped" if installed else "still wrapped"
                raise AssertionError(f"tracer: {name} is {state}")


def merge_reports(tracer, reports):
    """Fold the per-stanza states carried by reports into the tracer's.

    Raises when a report carries none: its worker did not inherit the
    wrappers (a pool start method other than fork)."""
    for r in reports:
        part = r.__dict__.pop("trace", None)
        if part is None:
            raise RuntimeError(f"report {r.id!r} was made outside the tracer")
        merge(tracer.state, part)
