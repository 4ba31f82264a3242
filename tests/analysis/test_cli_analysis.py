"""The ``repro analyze`` and ``repro lint`` subcommands end to end."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE_DIR = REPO_ROOT / "benchmarks" / "instances" / "smoke"


@pytest.fixture(scope="module")
def convnet_onnx(tmp_path_factory):
    from repro.interchange import export_onnx
    from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

    model = Sequential(
        [Conv2D(2, 3, stride=1, padding=1), ReLU(), Flatten(), Dense(2)],
        input_shape=(1, 6, 6),
        seed=3,
    )
    path = tmp_path_factory.mktemp("analyze") / "convnet.onnx"
    return str(export_onnx(model, path))


class TestAnalyze:
    def test_audit_alone_passes(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "registry audit" in out
        assert "0 error(s)" in out

    def test_smoke_audit(self, capsys):
        assert main(["analyze", "--smoke"]) == 0
        assert "smoke check(s)" in capsys.readouterr().out

    def test_clean_onnx_target(self, convnet_onnx, capsys):
        assert main(["analyze", "--no-audit", "--onnx", convnet_onnx]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_domain_gap_rejects_target(self, convnet_onnx, capsys):
        code = main(
            ["analyze", "--no-audit", "--onnx", convnet_onnx,
             "--domain", "symbolic"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "IR006" in out and "ConvOp" in out

    def test_smoke_instances_are_analyzer_clean(self, capsys):
        assert main(
            ["analyze", "--no-audit", "--instances", str(SMOKE_DIR)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_payload(self, convnet_onnx, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(
            ["analyze", "--onnx", convnet_onnx, "--json", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text())
        assert payload["audit"]["ok"] is True
        assert payload["reports"][0]["ok"] is True
        assert payload["reports"][0]["facts"]


class TestLint:
    def test_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def work(x):\n    return x + 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "verification" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("flag = x == 1.5\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL003" in out and "1 finding(s)" in out

    def test_select_filters(self, tmp_path, capsys):
        bad = tmp_path / "verification" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("flag = x == 1.5\n")
        assert main(
            ["lint", str(tmp_path), "--select", "unseeded-rng"]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out

    def test_src_gate(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "clean" in capsys.readouterr().out
