"""``tools/ledger_counts.py``: a record passes when every workload counts what
the committed baseline counts, and fails on any difference."""

import importlib.util
import json
import os

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ledger_counts.py")
_spec = importlib.util.spec_from_file_location("ledger_counts", _TOOL)
ledger_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_counts)


def _write(path, record):
    with open(path, "w") as handle:
        json.dump(record, handle)


def test_baseline_counts_pass_and_a_moved_count_fails(tmp_path, capsys):
    record = ledger_counts.load_records(ledger_counts.BASELINE)[0]
    assert record["workloads"]["compile_bls12_381"]["counts"] == {
        "model_cycles": 122139, "model_imem_kbits": 3692.32}
    _write(tmp_path / "ledger-abc-seed1.json", record)
    assert ledger_counts.main([str(tmp_path)]) == 0

    record["workloads"]["compile_bls12_381"]["counts"]["model_cycles"] += 1
    _write(tmp_path / "ledger-abc-seed1.json", record)
    assert ledger_counts.main([str(tmp_path)]) == 1
    assert "compile_bls12_381: counts" in capsys.readouterr().out

    del record["workloads"]["dse_warm_toy_bn42"]
    record["workloads"]["compile_bls12_381"]["counts"]["model_cycles"] -= 1
    _write(tmp_path / "ledger-abc-seed1.json", record)
    assert ledger_counts.main([str(tmp_path)]) == 1


def test_an_empty_directory_fails(tmp_path):
    assert ledger_counts.main([str(tmp_path)]) == 1
