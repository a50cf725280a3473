"""The benchmark tracer must find every function and method it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every soficlab module's globals and every class's attributes, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "soficlab" or name.startswith("soficlab."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def _target(wrap):
    owner = importlib.import_module("soficlab." + wrap.module)
    if "." in wrap.target:
        cls_name, attr = wrap.target.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, wrap.target)


def test_tracer_wraps_resolve_and_uninstall_restores():
    tracer_module = _load_tracer()
    importlib.import_module("soficlab.cli")
    originals = {wrap: _target(wrap) for wrap in tracer_module.WRAPS}
    before = _bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for wrap, original in originals.items():
            assert _target(wrap) is not original, wrap.target
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_defect_table_names_its_modes():
    # the tracer names d_hamming calls by their mode keyword and
    # build_sigma calls by the mode of the model built
    from soficlab import sofic
    from soficlab.groups import build_hom_specs
    from soficlab.words import ProductWord, ReducedWord

    u = ProductWord(ReducedWord(), ReducedWord.gen("b3"))
    v = ProductWord(ReducedWord.gen("t"), ReducedWord())
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        sigma = sofic.build_sigma(build_hom_specs(7, 5, 3))
        sofic.hom_defect(sigma, u, v)
        sofic.hom_defect(sigma, u, v, samples=2000, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.bucket["perms.d_hamming.sampled.samples"] == 2000
    assert tracer.bucket["perms.d_hamming.exact.points"] == 367_416
    assert "sofic.build_sigma.exact.s" in tracer.bucket
