"""Every request of the benchmark's cli workload gives the bytes of its reference.

perfbench/reference.json records, for each argv of `generate.cli_space()`, the
exit code and the digests of stdout and of the `--out` file.  Each argv runs
in-process here against a fresh cache, with the plot inputs the workload
writes in its set-up.  The perfbench modules are loaded by path and used as
they are.
"""

import json
import os

import pytest

import gcsdiag.cli as cli
from cli_runner import CliRunner
from conftest import PERFBENCH, load_perfbench

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture(scope="module")
def perfbench():
    generate, workloads = load_perfbench("generate"), load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        return generate, workloads, json.load(fh)["cli"]


def test_cli_requests_match_their_reference_digests(perfbench, tmp_path, monkeypatch):
    generate, workloads, ref = perfbench
    tmp = str(tmp_path)
    workloads.write_plot_inputs(tmp)
    monkeypatch.setenv("GCSDIAG_CACHE", os.path.join(tmp, "cache"))
    monkeypatch.chdir(ROOT)  # the requests name seeds/*.seed
    runner = CliRunner()
    space = generate.cli_space()
    assert sorted(map(workloads.cli_key, space)) == sorted(ref)
    bad = []
    for argv in space:
        res = runner.invoke(cli.main, [a.replace("{tmp}", tmp) for a in argv])
        want = ref[workloads.cli_key(argv)]
        got = {"rc": res.exit_code, "stdout": workloads.digest(res.output), "out": None}
        if "--out" in argv:
            path = argv[argv.index("--out") + 1].replace("{tmp}", tmp)
            with open(path, "rb") as fh:
                got["out"] = workloads.digest(fh.read())
            os.remove(path)
        if got != want:
            bad.append((workloads.cli_key(argv), got, want))
    assert not bad, bad[:3]
