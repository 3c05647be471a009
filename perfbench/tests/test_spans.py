import scipy.linalg

from spans import PATCHES, Tracer


def test_install_records_and_uninstall_restores():
    original = scipy.linalg.expm
    tracer = Tracer()
    tracer.install()
    try:
        assert scipy.linalg.expm is not original
        scipy.linalg.expm([[0.0]])
        layer, drill = tracer.take()
        assert [name for name, _, _ in drill] == ["num.expm"]
        assert layer == []
    finally:
        tracer.uninstall()
    assert scipy.linalg.expm is original


def test_same_layer_calls_fold_into_the_outer_span():
    from repro.jobs import JobSpec, JobStore
    from repro import e10000_model
    from repro.spec import model_to_spec

    store = JobStore(":memory:")
    tracer = Tracer()
    tracer.install()
    try:
        record, _ = store.submit(JobSpec(
            kind="sweep", spec=model_to_spec(e10000_model()),
            params={"block": "E10000 Server/Boot Disk", "field": "mtbf_hours",
                    "values": [1e5]},
        ))
        tracer.take()
        store.cancel_requested(record.id)  # reads through JobStore.get
        layer, _ = tracer.take()
    finally:
        tracer.uninstall()
        store.close()
    assert [name for name, _, _ in layer] == ["store.cancel_check"]


def test_every_patch_target_exists():
    import importlib

    for module_name, path, *_ in PATCHES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), path
