"""The benchmark's spans wrap angk0 functions by name, so renaming or
deleting one breaks every traced benchmark run.  Catch that here, in the
test suite, before a benchmark is run."""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import angk0.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    spans = load("spans")
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
    spans = load("spans")
    names = {name for _, _, name in spans.TARGETS}
    for workload, required in spans.MUST_FIRE.items():
        assert set(required) <= names, workload


@pytest.mark.parametrize("workload", ["k0-wide", "classify-enum", "desk-mix"])
def test_must_fire_names_fire(workload, tmp_path):
    # One traced pass over the corpus, as a --trace 1 run makes: a span
    # that records no calls there stops the run with "spans recorded no
    # calls", and a layer metric built on it would read 0.
    spans, corpus = load("spans"), load("corpus")
    data = corpus.build(workload, 1)
    for name, doc in data["files"].items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for case in data["cases"]:
            argv = [str(tmp_path / a) if a in data["files"] else a for a in case["argv"]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                angk0.cli.main(argv)
    finally:
        tracer.uninstall()
    assert [name for name in spans.MUST_FIRE[workload] if not tracer.calls(name)] == []
