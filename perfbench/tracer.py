"""Outside-in tracing of soficlab for the benchmark's traced run.

The tracer wraps public functions and methods of the package from the
outside: each call records a span ``(id, name, start, end, parent,
job_id)`` and the counts named in ``WRAPS``.  A function is rebound in
every soficlab module that imported it by name (``sofic`` holds its own
``h_position_perm`` and ``d_hamming``, the CLI its own ``build_sigma``),
and a method is replaced on its class.  ``uninstall`` restores every
binding, so untraced rounds of a traced run execute the original code.

Self time is a span's duration minus the time its child spans cover.
Spans stay in memory until the run ends.  ``PSL2Element.__mul__`` is too
hot to wrap (about 900k calls per job); closure work shows up as
``groups.closure.elements`` instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = ("algebra", "f3vectors", "words", "groups", "perms", "sofic",
          "spectral", "partitions", "smallgroups", "report", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# -- what each wrapped call counts -----------------------------------------------

def _calls(c, base, args, kwargs, result):
    c[base + ".calls"] += 1


def _codec_rows(c, base, args, kwargs, result):
    c[base + ".rows"] += len(result)


def _closure_elements(c, base, args, kwargs, result):
    c[base + ".elements"] += result if isinstance(result, int) else len(result)


def _compose(c, base, args, kwargs, result):
    if base == "perms.compose.exact":
        c[base + ".calls"] += 1
        # gather 8 B per point through an 8 B index, write 8 B per point
        c[base + ".bytes_computed"] += 24 * len(result.images)


def _d_hamming(c, base, args, kwargs, result):
    if result.mode == "sampled":
        c[base + ".samples"] += result.samples
    elif type(args[0]).__name__ != "ProductPerm":
        # product operands recurse into their factors, which count themselves
        c[base + ".points"] += args[0].size


def _write_perm(c, base, args, kwargs, result):
    c[base + ".bytes"] += 16 + 8 * args[1].size


def _four_conditions(c, base, args, kwargs, result):
    c[base + ".words_searched"] += result["cond3_words_searched"]
    c[base + ".exact_defects"] += len(result["cond3_tested"])


def _matvec(c, base, args, kwargs, result):
    graph = args[0]
    c[base + ".calls"] += 1
    n = graph.size
    total = 16 * n                      # zero the output, scale it by 1/degree
    for step in graph._steps:
        index = sum(len(f.images) for f in getattr(step, "factors", (step,)))
        total += 8 * index + 24 * n     # read the index, gather, accumulate
    c[base + ".bytes_computed"] += total


def _lambda2(c, base, args, kwargs, result):
    c[base + ".calls"] += 1
    c[base + ".iterations"] += result.iterations
    c[base + ".converged"] += int(bool(result.converged))
    c[base + ".residual"] = max(c[base + ".residual"], result.residual)


# -- how a call is named ------------------------------------------------------------

def _compose_name(args, kwargs, result):
    kind = "exact" if type(args[1]).__name__ == "ExactPerm" else "implicit"
    return "perms.compose." + kind


def _d_hamming_name(args, kwargs, result):
    return "perms.d_hamming." + _arg(args, kwargs, 2, "mode", "exact")


def _build_sigma_name(args, kwargs, result):
    mode = getattr(result, "mode", None) or _arg(args, kwargs, 4, "mode") or "unknown"
    return "sofic.build_sigma." + mode


@dataclass(frozen=True)
class Wrap:
    module: str                   # soficlab submodule that defines the target
    target: str                   # "function" or "Class.method"
    name: object                  # span name, or callable(args, kwargs, result)
    count: Callable = None


WRAPS = (
    Wrap("algebra", "psl2_table", "algebra.psl2_table"),
    Wrap("algebra", "PSL2Table.mul_table", "algebra.mul_table", _calls),
    Wrap("algebra", "PSL2Table.left_mul_perm", "algebra.mul_perm", _calls),
    Wrap("algebra", "PSL2Table.right_mul_perm", "algebra.mul_perm", _calls),
    Wrap("algebra", "centralizer_fraction_max", "algebra.centralizer_fraction_max"),
    Wrap("f3vectors", "h_position_perm", "f3vectors.h_position_perm", _calls),
    Wrap("f3vectors", "decode_indices", "f3vectors.codec", _codec_rows),
    Wrap("f3vectors", "encode_coords", "f3vectors.codec", _codec_rows),
    Wrap("f3vectors", "shift_overlap_counts", "f3vectors.shift_overlap_counts"),
    Wrap("f3vectors", "invariant_closure_dim", "f3vectors.invariant_closure_dim"),
    Wrap("words", "random_reduced_word", "words.random_reduced_word", _calls),
    Wrap("groups", "build_hom_specs", "groups.build_hom_specs"),
    Wrap("groups", "bfs_closure_order", "groups.closure", _closure_elements),
    Wrap("groups", "bfs_closure_with_words", "groups.closure", _closure_elements),
    Wrap("groups", "verify_surjectivity", "groups.verify_surjectivity"),
    Wrap("groups", "hom_eval", "groups.hom_eval", _calls),
    Wrap("perms", "ExactPerm.__init__", "perms.exact_perm_init"),
    Wrap("perms", "ExactPerm.compose", _compose_name, _compose),
    Wrap("perms", "d_hamming", _d_hamming_name, _d_hamming),
    Wrap("perms", "write_perm", "perms.write_perm", _write_perm),
    Wrap("sofic", "build_sigma", _build_sigma_name),
    Wrap("sofic", "build_tilde_sigma", "sofic.build_tilde_sigma"),
    Wrap("sofic", "ExactGpContext.right_mult_inv", "sofic.right_mult_inv.exact", _calls),
    Wrap("sofic", "AsymptoticHom.eval", "sofic.eval", _calls),
    Wrap("sofic", "four_condition_report", "sofic.four_condition_report",
         _four_conditions),
    Wrap("sofic", "lift_branched_cover", "sofic.lift_branched_cover"),
    Wrap("sofic", "InducedHom.eval", "sofic.induced_eval"),
    Wrap("spectral", "tau_family_graph", "spectral.tau_family_graph"),
    Wrap("spectral", "CayleyGraph.matvec", "spectral.matvec", _matvec),
    Wrap("spectral", "lambda2_estimate", "spectral.lambda2", _lambda2),
    Wrap("spectral", "kazhdan_bounds", "spectral.kazhdan_bounds"),
    Wrap("spectral", "boundary_ratio_slab", "spectral.boundary_ratio_slab"),
    Wrap("partitions", "classify_candidates", "partitions.classify_candidates"),
    Wrap("partitions", "relabel_noise", "partitions.relabel_noise"),
    Wrap("partitions", "coset_fit", "partitions.coset_fit"),
    Wrap("smallgroups", "all_subgroups", "smallgroups.all_subgroups"),
    Wrap("report", "RunReport.to_json", "report.serialize"),
    Wrap("report", "sha256_file", "report.serialize"),
)

# Jobs of every workload; each becomes a root span "cli.<job>".
JOBS = ("four_conditions", "soficity", "build", "certificates", "small_suites",
        "defect_table", "boundary_table", "spectra_table")

_COUNT_SUFFIXES = (".calls", ".rows", ".elements", ".points", ".samples",
                   ".iterations", ".words_searched", ".exact_defects",
                   ".converged", ".failed", ".bytes", ".bytes_computed")


def _per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    seconds = [
        "algebra.psl2_table", "algebra.mul_table", "algebra.mul_perm",
        "algebra.centralizer_fraction_max",
        "f3vectors.h_position_perm", "f3vectors.codec",
        "f3vectors.shift_overlap_counts", "f3vectors.invariant_closure_dim",
        "groups.build_hom_specs", "groups.closure", "groups.verify_surjectivity",
        "perms.compose.exact", "perms.exact_perm_init", "perms.d_hamming.exact",
        "perms.d_hamming.sampled", "perms.write_perm",
        "sofic.build_sigma.exact", "sofic.build_sigma.implicit",
        "sofic.build_tilde_sigma", "sofic.right_mult_inv.exact", "sofic.eval",
        "sofic.four_condition_report", "sofic.lift_branched_cover",
        "sofic.induced_eval",
        "spectral.tau_family_graph", "spectral.matvec", "spectral.kazhdan_bounds",
        "spectral.boundary_ratio_slab",
        "partitions.classify_candidates", "partitions.relabel_noise",
        "partitions.coset_fit", "smallgroups.all_subgroups", "report.serialize",
    ]
    counts = [
        ("algebra.mul_table.calls", "lower"), ("algebra.mul_perm.calls", "lower"),
        ("f3vectors.h_position_perm.calls", "lower"), ("f3vectors.codec.rows", "lower"),
        ("words.random_reduced_word.calls", "lower"),
        ("groups.closure.elements", "lower"), ("groups.hom_eval.calls", "lower"),
        ("perms.compose.exact.calls", "lower"), ("perms.d_hamming.exact.points", "lower"),
        ("perms.d_hamming.sampled.samples", "higher"),
        ("sofic.right_mult_inv.exact.calls", "lower"), ("sofic.eval.calls", "lower"),
        ("sofic.four_condition_report.words_searched", "lower"),
        ("sofic.four_condition_report.exact_defects", "lower"),
        ("spectral.matvec.calls", "lower"), ("spectral.lambda2.calls", "lower"),
        ("spectral.lambda2.iterations", "lower"),
        ("spectral.lambda2.converged", "higher"),
    ]
    out = [(name + ".s", "s", "lower") for name in seconds]
    out += [(name, "count", better) for name, better in counts]
    out += [
        ("perms.compose.exact.bytes_computed", "B", "lower"),
        ("perms.write_perm.bytes", "B", "lower"),
        ("spectral.matvec.bytes_computed", "B", "lower"),
        ("perms.d_hamming.sampled.samples_per_s", "1/s", "higher"),
        ("spectral.lambda2.residual", "1", "lower"),
    ]
    for job in JOBS:
        out += [(f"cli.{job}.s", "s", "lower"), (f"cli.{job}.wall_s", "s", "lower")]
    out += [(layer + ".failed", "count", "lower") for layer in LAYERS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


PER_LAYER = _per_layer_metrics()


def is_count(metric: str) -> bool:
    return metric.endswith(_COUNT_SUFFIXES)


class Tracer:
    """Span and count recorder; one bucket of totals per traced phase."""

    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent, job_id)
        self.job_id = None
        self.bucket = defaultdict(float)
        self._stack = []                # [span id, time covered by children]
        self._next_id = 0
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.bucket[name + ".s"] += duration - frame[1]
        self.spans.append((frame[0], name, start, end, parent, self.job_id))
        return duration

    def call(self, wrap: Wrap, fn, args, kwargs):
        frame, parent = self._open()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.bucket[wrap.module + ".failed"] += 1
            self._close(frame, parent, self._name(wrap, args, kwargs, None), start)
            raise
        name = self._name(wrap, args, kwargs, result)
        self._close(frame, parent, name, start)
        if wrap.count is not None:
            wrap.count(self.bucket, name, args, kwargs, result)
        return result

    @staticmethod
    def _name(wrap, args, kwargs, result):
        return wrap.name if isinstance(wrap.name, str) else wrap.name(args, kwargs, result)

    def job(self, job_id: str, name: str, fn, *args):
        """Run one benchmark job as a root span "cli.<name>"."""
        self.job_id = job_id
        frame, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.bucket["cli.failed"] += 1
            raise
        finally:
            wall = self._close(frame, parent, "cli." + name, start)
            self.bucket[f"cli.{name}.wall_s"] += wall
            self.job_id = None

    def new_bucket(self) -> dict:
        """Start a fresh set of totals and return the finished one."""
        done, self.bucket = self.bucket, defaultdict(float)
        return dict(done)

    # -- binding -----------------------------------------------------------------

    def _wrapper(self, wrap: Wrap, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(wrap, fn, args, kwargs)

        return traced

    def install(self):
        # The CLI imports every module a job reaches; import it first so
        # that its by-name bindings exist before they are rebound.
        importlib.import_module("soficlab.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "soficlab" or n.startswith("soficlab.")]
        for wrap in WRAPS:
            owner = importlib.import_module("soficlab." + wrap.module)
            if "." in wrap.target:
                cls_name, attr = wrap.target.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrapper(wrap, original))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, wrap.target)
            traced = self._wrapper(wrap, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def per_layer_values(setup: dict, rounds: list) -> tuple:
    """Per-layer metrics: set-up totals plus the mean over traced rounds.

    Every traced round runs the same inputs, so a count must read the
    same in each; counts that do not are returned as the second value.
    """
    values, unsteady = {}, []
    keys = set(setup).union(*rounds) if rounds else set(setup)
    for key in keys:
        per_round = [r.get(key, 0.0) for r in rounds] or [0.0]
        if is_count(key) and len(set(per_round)) > 1:
            unsteady.append(key)
        values[key] = setup.get(key, 0.0) + sum(per_round) / len(per_round)
    samples = values.get("perms.d_hamming.sampled.samples", 0.0)
    busy = values.get("perms.d_hamming.sampled.s", 0.0)
    values["perms.d_hamming.sampled.samples_per_s"] = samples / busy if busy else 0.0
    for key in values:
        if is_count(key):
            values[key] = int(round(values[key]))
    return values, sorted(unsteady)
