"""The CI pipeline definitions must match the documented invocations.

Tier-1, lint and mypy are documented in CONTRIBUTING.md and asserted
here as exact command strings, so the workflows, the docs and the local
developer commands cannot drift apart silently.  Assertions are
text-based (a YAML parser is only used for structure when available) so
this test runs in environments without PyYAML.
"""

import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.ci

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"
NIGHTLY = ROOT / ".github" / "workflows" / "nightly.yml"

#: The documented tier-1 / gate commands (ROADMAP.md, CONTRIBUTING.md).
TIER1_CMD = "PYTHONPATH=src python -m pytest -x -q"
LINT_CMD = "PYTHONPATH=src python -m repro lint"
MYPY_CMD = "mypy --config-file pyproject.toml"
PERF_SMOKE_CMD = "PYTHONPATH=src python -m pytest -q -m perf_smoke"
DRIFT_CMD = "python scripts/check_bench_drift.py"
FLOW_BENCH_CMD = "python -m repro.lint.flow.bench_flow"
LINT_BENCH_CMD = (
    "PYTHONPATH=src python -m repro lint --bench-json fresh/BENCH_lint.json"
)
KERNEL_SUITE_CMD = "PYTHONPATH=src python -m pytest -q -m kernel"
KERNEL_EQUIV_CMD = (
    "PYTHONPATH=src python -m repro.perf.bench_kernel_batch "
    "--equivalence-only --samples 25 --seed 0"
)
KERNEL_BENCH_CMD = (
    "PYTHONPATH=src python -m repro.perf.bench_kernel_batch "
    "--samples 100 --repeats 5 --seed 0 "
    "--out fresh/BENCH_kernel_batch.json"
)

E2E_TESTS_CMD = "python3 -m pytest e2ebench/tests -q"
E2E_GATE_CMD = (
    "python3 e2ebench/run.py --workload sweep-e3 --seed 1 --seconds 2 "
    "--trace 0"
)
E2E_CHURN_GATE_CMD = (
    "python3 e2ebench/run.py --workload churn-journal --seed 1 --seconds 2 "
    "--trace 0"
)


def test_workflow_files_exist():
    assert CI.is_file(), "missing .github/workflows/ci.yml"
    assert NIGHTLY.is_file(), "missing .github/workflows/nightly.yml"


def test_ci_runs_the_documented_tier1_commands():
    text = CI.read_text()
    assert TIER1_CMD in text
    assert LINT_CMD in text
    assert MYPY_CMD in text


def test_ci_matrix_covers_supported_pythons_with_pip_cache():
    text = CI.read_text()
    for version in ('"3.10"', '"3.11"', '"3.12"'):
        assert version in text, f"CI matrix missing {version}"
    assert "cache: pip" in text
    assert "actions/checkout@v4" in text
    assert "actions/setup-python@v5" in text
    assert "pip install -e .[test]" in text


def test_ci_triggers_on_push_and_pull_request():
    text = CI.read_text()
    assert "pull_request" in text
    assert "push" in text


def test_ci_flow_job_gates_and_uploads_sarif():
    text = CI.read_text()
    assert "flow:" in text, "CI must have a dedicated flow-analysis job"
    for code in ("R9", "R10", "R11", "R12", "R13"):
        assert f"--select {code}" in text
    assert "--format sarif" in text
    assert "actions/upload-artifact@v4" in text
    assert "flow.sarif" in text


def test_ci_kernel_matrix_covers_backends_and_numpy_generations():
    text = CI.read_text()
    assert "kernel-matrix:" in text, "CI must have a kernel-matrix job"
    assert KERNEL_SUITE_CMD in text
    assert KERNEL_EQUIV_CMD in text
    # Old and new numpy generations; 1.21 has no 3.12 wheels, so the
    # matrix uses explicit includes instead of a full product.
    assert '"1.21.*"' in text
    assert '"1.26.*"' in text
    assert '"2.*"' in text
    assert 'pip install "numpy==${{ matrix.numpy-version }}"' in text
    # One leg must prove the no-compiler fallback path.
    assert "REPRO_KERNEL_NATIVE" in text


def test_ci_guards_against_committed_bytecode():
    text = CI.read_text()
    assert "git ls-files -- src tests" in text
    assert "__pycache__" in text


def test_nightly_regenerates_lint_and_flow_benchmarks():
    text = NIGHTLY.read_text()
    assert LINT_BENCH_CMD in text
    assert FLOW_BENCH_CMD in text
    assert "--out fresh/BENCH_flow.json" in text


def test_nightly_flow_params_match_committed_flow_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_flow.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_flow.json")
    config = json.loads(artifact.read_text())["config"]
    flow_line = next(
        line for line in NIGHTLY.read_text().splitlines()
        if FLOW_BENCH_CMD in line
    )
    assert f"--repeats {config['repeats']}" in flow_line


def test_committed_flow_benchmark_meets_the_speedup_contract():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_flow.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_flow.json")
    payload = json.loads(artifact.read_text())
    assert payload["warm_speedup_ok"] is True
    assert payload["config"]["min_speedup"] >= 5.0
    assert payload["warm"]["cache_misses"] == 0


def test_nightly_regenerates_benchmarks_with_baseline_parameters():
    text = NIGHTLY.read_text()
    assert PERF_SMOKE_CMD in text
    # committed BENCH_sweep.json config: samples=100, jobs=4, repeats=3
    assert ("python -m repro.perf.bench_sweep "
            "--samples 100 --jobs 4 --repeats 3 --seed 0") in text
    # committed BENCH_store.json uses the module defaults
    assert "python -m repro.store.bench_store" in text
    assert "python -m repro.service.loadgen" in text
    # committed BENCH_churn.json config: processors=4, horizon=60, jobs=2
    assert ("python -m repro.cluster.bench_churn "
            "--processors 4 --horizon 60 --seed 0 --jobs 2") in text


def test_nightly_regenerates_search_benchmark():
    text = NIGHTLY.read_text()
    assert ("python -m repro.search.bench_search "
            "--seed 0 --jobs 2 --out fresh/BENCH_search.json") in text


def test_nightly_search_params_match_committed_search_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_search.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_search.json")
    config = json.loads(artifact.read_text())["config"]
    search_line = next(
        line for line in NIGHTLY.read_text().splitlines()
        if "repro.search.bench_search" in line
    )
    assert f"--seed {config['seed']}" in search_line
    assert f"--jobs {config['jobs']}" in search_line


def test_committed_search_benchmark_meets_the_efficiency_contract():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_search.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_search.json")
    payload = json.loads(artifact.read_text())
    efficiency = payload["efficiency"]
    assert efficiency["min_required"] >= 3.0
    assert efficiency["speedup_vs_grid"] >= efficiency["min_required"]
    assert payload["frontier"]["interval_half_width"] <= 0.02
    determinism = payload["determinism"]
    assert determinism["jobs_invariant"] is True
    assert determinism["resume"]["result_identical"] is True
    assert determinism["witness_replay_confirmed"] is True


def test_nightly_regenerates_kernel_batch_benchmark():
    text = NIGHTLY.read_text()
    assert KERNEL_BENCH_CMD in text


def test_nightly_kernel_params_match_committed_kernel_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_kernel_batch.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_kernel_batch.json")
    config = json.loads(artifact.read_text())["config"]
    kernel_line = next(
        line for line in NIGHTLY.read_text().splitlines()
        if "repro.perf.bench_kernel_batch" in line
    )
    assert f"--samples {config['samples']}" in kernel_line
    assert f"--repeats {config['repeats']}" in kernel_line
    assert f"--seed {config['seed']}" in kernel_line


def test_committed_kernel_benchmark_meets_the_speedup_contract():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_kernel_batch.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_kernel_batch.json")
    payload = json.loads(artifact.read_text())
    contract = payload["contract"]
    assert contract["speedup_ok"] is True
    assert contract["min_speedup"] >= 10.0
    assert contract["backend"] == "kernel-numpy"
    equivalence = payload["equivalence"]
    assert equivalence["verdicts_identical"] is True
    assert equivalence["counters_identical"] is True
    # The committed artifact must match the committed sweep shape.
    config = payload["config"]
    assert (config["processors"], config["n"]) == (8, 24)
    assert config["u_grid_points"] == 19


def test_nightly_gates_on_bench_drift_and_uploads_artifacts():
    text = NIGHTLY.read_text()
    assert DRIFT_CMD in text
    assert "--baseline benchmarks/results" in text
    assert "python -m repro store verify --artifacts benchmarks/results" in text
    assert "actions/upload-artifact@v4" in text
    assert "workflow_dispatch" in text
    assert "schedule" in text


def test_nightly_exercises_the_observability_layer():
    text = NIGHTLY.read_text()
    assert "python -m repro sweep" in text and "--profile" in text
    assert "python -m repro obs summarize" in text


def test_nightly_sweep_params_match_committed_sweep_config():
    # The regeneration command must keep matching the committed artifact's
    # recorded config, else the drift gate compares apples to oranges.
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_sweep.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_sweep.json")
    config = json.loads(artifact.read_text())["config"]
    text = NIGHTLY.read_text()
    assert f"--samples {config['samples']}" in text
    assert f"--jobs {config['jobs']}" in text
    assert f"--repeats {config['repeats']}" in text
    assert f"--seed {config['seed']}" in text


def test_nightly_churn_params_match_committed_churn_config():
    import json

    artifact = ROOT / "benchmarks" / "results" / "BENCH_churn.json"
    if not artifact.is_file():
        pytest.skip("no committed BENCH_churn.json")
    config = json.loads(artifact.read_text())["config"]
    text = NIGHTLY.read_text()
    churn_line = next(
        line for line in text.splitlines()
        if "repro.cluster.bench_churn" in line
    )
    assert f"--processors {config['processors']}" in churn_line
    assert f"--horizon {config['horizon']}" in churn_line
    assert f"--seed {config['seed']}" in churn_line
    assert f"--jobs {config['jobs']}" in churn_line


def test_workflows_parse_as_yaml_when_parser_available():
    yaml = pytest.importorskip("yaml")
    for path in (CI, NIGHTLY):
        doc = yaml.safe_load(path.read_text())
        assert isinstance(doc, dict)
        assert "jobs" in doc
        for job in doc["jobs"].values():
            assert job.get("runs-on") == "ubuntu-latest"
            assert isinstance(job.get("steps"), list)


def test_contributing_documents_the_same_commands():
    contributing = ROOT / "CONTRIBUTING.md"
    assert contributing.is_file(), "missing CONTRIBUTING.md"
    text = contributing.read_text()
    for cmd in (TIER1_CMD, LINT_CMD, MYPY_CMD, KERNEL_SUITE_CMD):
        assert cmd in text, f"CONTRIBUTING.md must document: {cmd}"


def test_scripts_wrapper_is_what_nightly_invokes():
    script = ROOT / "scripts" / "check_bench_drift.py"
    assert script.is_file()
    assert os.access(script, os.R_OK)
    assert DRIFT_CMD in NIGHTLY.read_text()


def test_ci_runs_the_e2ebench_gate_as_documented():
    """The end-to-end benchmark's self-tests and its sweep and churn
    reference gates run in CI exactly as CONTRIBUTING.md documents
    them."""
    text = CI.read_text()
    assert "e2ebench:" in text, "CI must have an e2ebench job"
    docs = (ROOT / "CONTRIBUTING.md").read_text()
    for cmd in (E2E_TESTS_CMD, E2E_GATE_CMD, E2E_CHURN_GATE_CMD):
        assert cmd in text, f"ci.yml missing: {cmd}"
        assert cmd in docs, f"CONTRIBUTING.md missing: {cmd}"
