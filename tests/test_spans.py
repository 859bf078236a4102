"""The benchmark's spans wrap angk0 functions by name, so renaming or
deleting one breaks every traced benchmark run.  Catch that here, in the
test suite, before a benchmark is run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    spans = load_spans()
    missing = []
    for module_name, path, _ in spans.TARGETS:
        module = importlib.import_module(f"angk0.{module_name}")
        if "." in path:
            # a method must live on its class, as the tracer rebinds it there
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"angk0.{module_name}.{path}")
    assert missing == []


def test_must_fire_names_are_targets():
    spans = load_spans()
    names = {name for _, _, name in spans.TARGETS}
    for workload, required in spans.MUST_FIRE.items():
        assert set(required) <= names, workload
