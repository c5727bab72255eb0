"""The benchmark's tracer (``perfbench/tracer.py``) replaces functions by
name, each in the module or class that calls it (``PATCHES``), and its
counter hooks read what those functions take and return.  A name missing
from its owner's ``__dict__``, or a result a hook cannot read, makes every
traced benchmark run fail; these tests make a refactor that breaks either
fail here instead."""

import importlib.util
from pathlib import Path

from transship import cli, serialize_instance
from transship.instances import dump_document
from conftest import instance_b_network, instance_b_supply

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patched_name_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracer.PATCHES
               if attr not in owner.__dict__]
    assert missing == []


def test_hooks_read_what_the_program_returns(tmp_path, capsys):
    """Run every hook on one solve and one extract of instance B: segment
    lengths, ``ProfileCache.profile``'s subset, the expansion's size and
    scale.  No count is pinned, only that each layer saw work."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    net = instance_b_network()
    path = tmp_path / "b.json"
    path.write_text(dump_document(serialize_instance(net, instance_b_supply(net))))
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in module.PATCHES]
    tracer = module.Tracer()
    with tracer:
        for op, argv in enumerate((["solve", "--json", "--input", str(path)],
                                   ["extract", "--theta", "5/2",
                                    "--input", str(path)])):
            tracer.op = op
            assert cli.main(argv) == 0
    capsys.readouterr()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    metrics = module.layer_metrics(tracer, 2, 2)
    assert set(module.DETERMINISTIC) <= set(metrics)
    for name in ("ssp.profiles_built", "sfm.subsets_per_envelope",
                 "solver.iterations", "expansion.nodes", "expansion.scale_q"):
        assert metrics[name] > 0, name
