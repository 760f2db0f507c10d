"""Per-layer spans and work counters, installed from outside the program.

``Tracer.install()`` replaces the public functions of each ``bohrad``
module with timing wrappers, on the defining module and on every module
that imported the name (``radii.phi_term``, ``bloch.majorant``, the
package namespace, the CLI dispatch table).  Each call records a span:
name, start, end, parent span and operation id.  A layer's self time is
the time its spans cover minus the time their child spans cover.

``CoeffSeries.norm`` and ``HyperbolicDensity.on_circle`` are counted
but not timed: they run tens of thousands of times per operation, so a
span each would cost more than the call; their time stays in the caller.
The program is single-threaded and never waits on a queue or a lock, so
no wait time is recorded.
"""

from __future__ import annotations

import gzip
import inspect
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

from bohrad import bloch, cli, functionals, optimize, phi, polynomials, radii, roots, series
from bohrad.errors import NonConvergenceError, NoRootError

LAYERS = ("roots", "phi", "radii", "series", "functionals", "bloch",
          "optimize", "polynomials", "cli")

# public functions per layer, timed as spans
SPANNED = {
    roots: ("min_positive_root", "count_sign_changes"),
    phi: ("phi_term", "phi_tail", "refined_sum", "_truncated_tail"),
    radii: ("radius_refined", "radius_rogosinski", "reproduce_table", "reproduce_all_tables",
            "rp_bounds", "rp_lower", "rp_upper", "non_improvable", "closed_form_radius"),
    series: ("mobius_gamma_coeffs", "diag_blend_coeffs", "s_r", "check_coeff_bound",
             "point_eval_bound", "schwarz_composed_bound", "operator_norm"),
    functionals: ("majorant", "bohr_area_functional", "bohr_beta_functional",
                  "bohr_energy_functional", "refined_functional", "rogosinski_functional",
                  "classical_functional", "mobius_partial_modulus", "per_function_radius",
                  "sharpness_probe", "problem_functional"),
    bloch: ("m_integral", "bloch_radius", "bloch_radius_gamma", "bloch_refined_radius",
            "gamma_equation_value", "derivative_majorant", "bloch_majorant_check"),
    optimize: ("golden_max", "grid_then_golden_max", "grid_then_golden_min",
               "refine_by_derivative_sign", "central_diff"),
    polynomials: ("peak_weight", "peak_point", "calibrate_area_poly", "calibration_residual",
                  "area_poly_coeffs", "area_scale", "monotonicity_check"),
    cli: ("main",),
}
SPANNED_METHODS = (
    (series, series.CoeffSeries, ("shifted", "truncated_from")),
    (bloch, bloch.HyperbolicDensity, ("min_on_circle",)),
)
SUMS = {"majorant", "s_r", "refined_sum"}
COUNTERS = (
    "roots.solves", "roots.f_evals", "roots.scan_frac", "roots.no_root",
    "phi.term_calls", "phi.tail_calls", "phi.truncated_tails", "phi.nonconvergence",
    "radii.calls",
    "series.norm_calls", "series.extended_frac", "series.coeff_builds",
    "functionals.calls", "functionals.terms_per_sum",
    "bloch.m_integral_calls", "bloch.quad_nodes", "bloch.nodes_per_integral",
    "optimize.f_evals", "polynomials.peak_weight_calls",
)


def _scan_points(step, upper):
    """Evaluations the scan makes on (0, upper) when it finds no sign change."""
    k = 1
    while k * step < upper:
        k += 1
    return k - 1


class Tracer:
    """Spans and counters for one traced pass at a time.

    Call ``begin_pass(record)`` before a pass and ``end_pass()`` after;
    ``set_op(i)`` tags the spans of operation i.  With ``record`` true
    every span is kept for ``write_spans``.
    """

    def __init__(self):
        self._patches = []
        self.names = []
        self.name_layer = []
        self.recorded = None
        self.begin_pass(False)

    # ------------------------------------------------------------ passes

    def begin_pass(self, record: bool):
        self.raw = Counter()
        self.self_s = defaultdict(float)
        self.frames = []
        self.next_id = 0
        self.op = -1
        self.sum_depth = 0
        self.optimize_depth = 0
        self.quad_stack = []
        # columns: id, name, start, end, parent, op
        self.spans = tuple(array(t) for t in "qiddqi") if record else None

    def set_op(self, op: int):
        self.op = op

    def end_pass(self) -> dict:
        """Derived per-layer counters of the pass just run."""
        if self.spans is not None:
            self.recorded, self.spans = self.spans, None
        c = self.raw
        evals = c["roots.f_evals"]
        sums = c["sum_calls"]
        quad = c["bloch.quad_integrals"]
        out = {
            "roots.solves": c["roots.solves"],
            "roots.f_evals": evals,
            "roots.scan_frac": c["roots.scan_evals"] / evals if evals else 0.0,
            "roots.no_root": c["roots.no_root"],
            "phi.term_calls": c["phi.term_calls"],
            "phi.tail_calls": c["phi.tail_calls"],
            "phi.truncated_tails": c["phi.truncated_tails"],
            "phi.nonconvergence": c["phi.nonconvergence"],
            "radii.calls": c["radii.calls"],
            "series.norm_calls": c["series.norm_calls"],
            "series.extended_frac": (c["series.extended"] / c["series.norm_calls"]
                                     if c["series.norm_calls"] else 0.0),
            "series.coeff_builds": c["series.coeff_builds"],
            "functionals.calls": c["functionals.calls"],
            "functionals.terms_per_sum": c["sum_norms"] / sums if sums else 0.0,
            "bloch.m_integral_calls": c["bloch.m_integral_calls"],
            "bloch.quad_nodes": c["bloch.quad_nodes"],
            "bloch.nodes_per_integral": c["bloch.quad_nodes"] / quad if quad else 0.0,
            "optimize.f_evals": c["optimize.f_evals"],
            "polynomials.peak_weight_calls": c["polynomials.peak_weight_calls"],
        }
        assert set(out) == set(COUNTERS)
        return out

    # ------------------------------------------------------- installation

    def install(self):
        for module, names in SPANNED.items():
            layer = module.__name__.split(".")[-1]
            for name in names:
                orig = getattr(module, name)
                self._replace(orig, self._span(layer, name, orig))
        for module, cls, names in SPANNED_METHODS:
            layer = module.__name__.split(".")[-1]
            for name in names:
                orig = cls.__dict__[name]
                self._set(cls, name, self._span(layer, f"{cls.__name__}.{name}", orig))
        self._set(series.CoeffSeries, "norm", self._norm(series.CoeffSeries.norm))
        self._set(bloch.HyperbolicDensity, "on_circle",
                  self._on_circle(bloch.HyperbolicDensity.on_circle))
        # the CLI dispatches through a dict; command bodies are their own layer
        for name, fn in list(cli._COMMANDS.items()):
            wrapped = self._span("cli.command", fn.__name__, fn)
            self._patches.append((cli._COMMANDS, name, fn))
            cli._COMMANDS[name] = wrapped

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace(self, orig, wrapped):
        """Patch every bohrad module that holds ``orig`` under any name."""
        for modname, module in list(sys.modules.items()):
            if modname != "bohrad" and not modname.startswith("bohrad."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapped)

    # ----------------------------------------------------------- wrappers

    def _span(self, layer, name, fn):
        tracer, clock = self, time.perf_counter
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        enter, after, on_error = self._hooks(layer, name, fn)

        def wrapper(*args, **kwargs):
            if enter is not None:
                args = enter(args)
            frames = tracer.frames
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = frames[-1][0] if frames else -1
            frame = [sid, 0.0]
            frames.append(frame)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # re-raised below, after the span closes
                error = exc
            t1 = clock()
            frames.pop()
            duration = t1 - t0
            tracer.self_s[layer] += duration - frame[1]
            if frames:
                frames[-1][1] += duration
            spans = tracer.spans
            if spans is not None:
                for column, v in zip(spans, (sid, name_id, t0, t1, parent, tracer.op)):
                    column.append(v)
            if error is not None:
                if on_error is not None:
                    on_error(error, args, kwargs)
                raise error
            if after is not None:
                after(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, layer, name, fn):
        """(enter, after, on_error) callbacks that keep the work counters."""
        enter = after = on_error = None
        counters = {"radii": "radii.calls", "functionals": "functionals.calls"}

        def count(key):
            def bump(args):
                self.raw[key] += 1
                return args
            return bump

        if layer in counters:
            enter = count(counters[layer])
        if name == "phi_term":
            enter = count("phi.term_calls")
        elif name == "phi_tail":
            enter = count("phi.tail_calls")
        elif name == "_truncated_tail":
            enter = count("phi.truncated_tails")
        elif name == "peak_weight":
            enter = count("polynomials.peak_weight_calls")
        elif name in ("mobius_gamma_coeffs", "diag_blend_coeffs"):
            enter = count("series.coeff_builds")
        if layer == "phi":
            def on_error(exc, args, kwargs):
                if isinstance(exc, NonConvergenceError) and not getattr(exc, "_counted", False):
                    exc._counted = True
                    self.raw["phi.nonconvergence"] += 1
        if name == "min_positive_root":
            signature = inspect.signature(fn)

            def enter(args):
                self.raw["roots.solves"] += 1
                return args

            def after(res):
                c = self.raw
                c["roots.f_evals"] += res.iterations
                c["roots.scan_evals"] += math.floor(res.value / res.scan_step) + 1

            def on_error(exc, args, kwargs):
                if isinstance(exc, NoRootError):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    n = _scan_points(bound.arguments["scan_step"], bound.arguments["upper"])
                    c = self.raw
                    c["roots.no_root"] += 1
                    c["roots.f_evals"] += n
                    c["roots.scan_evals"] += n
        elif name == "count_sign_changes":
            signature = inspect.signature(fn)

            def enter(args):
                bound = signature.bind(*args)
                bound.apply_defaults()
                n = _scan_points(bound.arguments["scan_step"], bound.arguments["upper"])
                c = self.raw
                c["roots.f_evals"] += n
                c["roots.scan_evals"] += n
                return args
        if name in SUMS:
            base_enter = enter

            def enter(args):
                self.raw["sum_calls"] += 1
                self.sum_depth += 1
                return base_enter(args) if base_enter else args
            after = self._leave_sum(after)
            on_error = self._leave_sum_error(on_error)
        if name == "m_integral":
            def enter(args):
                self.raw["bloch.m_integral_calls"] += 1
                self.quad_stack.append(0)
                return args

            def leave():
                nodes = self.quad_stack.pop()
                if nodes:
                    self.raw["bloch.quad_integrals"] += 1
                    self.raw["bloch.quad_nodes"] += nodes
            after = lambda res: leave()
            on_error = lambda exc, args, kwargs: leave()
        if layer == "optimize":
            def enter(args):
                depth = self.optimize_depth
                self.optimize_depth = depth + 1
                if depth == 0:
                    args = (self._counted_objective(args[0]),) + tuple(args[1:])
                return args

            def leave(*_):
                self.optimize_depth -= 1
            after, on_error = leave, leave
        return enter, after, on_error

    def _leave_sum(self, after):
        def leave(res):
            self.sum_depth -= 1
            if after:
                after(res)
        return leave

    def _leave_sum_error(self, on_error):
        def leave(exc, args, kwargs):
            self.sum_depth -= 1
            if on_error:
                on_error(exc, args, kwargs)
        return leave

    def _counted_objective(self, f):
        def counted(x):
            self.raw["optimize.f_evals"] += 1
            return f(x)
        return counted

    def _norm(self, orig):
        def norm(coeffs, n):
            c = self.raw
            c["series.norm_calls"] += 1
            if n > len(coeffs.norms) - 1:
                c["series.extended"] += 1
            if self.sum_depth:
                c["sum_norms"] += 1
            return orig(coeffs, n)
        return norm

    def _on_circle(self, orig):
        def on_circle(density, r, thetas):
            if self.quad_stack:
                self.quad_stack[-1] += len(thetas)
            return orig(density, r, thetas)
        return on_circle

    # ------------------------------------------------------------ output

    def layer_self_s(self) -> dict:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS + ("cli.command",)}

    def write_spans(self, path):
        """Write the recorded spans as gzip CSV: one line per call."""
        if self.recorded is None:
            return 0
        ids, names, t0, t1, parents, ops = self.recorded
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,layer,start_s,end_s,parent,op\n")
            for i in range(len(ids)):
                n = names[i]
                out.write(f"{ids[i]},{self.names[n]},{self.name_layer[n]},"
                          f"{t0[i]!r},{t1[i]!r},{parents[i]},{ops[i]}\n")
        return len(ids)
