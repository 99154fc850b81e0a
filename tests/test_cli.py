import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcsdiag.cli as cli
from cli_runner import CliRunner
from gcsdiag import (
    canonical_string,
    complete_rank2,
    initial_diagram,
    parse_seed_file,
    theta_via_path,
)

SEED_DIR = os.path.join(os.path.dirname(__file__), "..", "seeds")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
G31 = os.path.join(SEED_DIR, "g31.seed")
A2 = os.path.join(SEED_DIR, "a2.seed")
KRONECKER = os.path.join(SEED_DIR, "kronecker22.seed")

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    cdir = tmp_path / "cache"
    monkeypatch.setenv("GCSDIAG_CACHE", str(cdir))
    return cdir


# ---------------------------------------------------------------------------
# mutate


def test_mutate_word_output(runner):
    res = runner.invoke(cli.main, ["mutate", G31, "--word", "2"])
    assert res.exit_code == 0
    assert res.output == (
        "rank 2\nunfrozen 1 2\nd 1 1\nr 3 1\nB 0 1 -1 0\n"
        "a.1 1 a a 1\na.2 1 1\n"
        "epsilon 0 -1 1 0\n"
        "c 1 1 0 -1\n"
        "g 1 0 1 -1\n"
        "x.1 x1\n"
        "x.2 (x1 + 1)/x2\n")


def test_mutate_empty_word_is_initial(runner):
    res = runner.invoke(cli.main, ["mutate", G31])
    assert res.exit_code == 0
    assert "c 1 0 0 1\ng 1 0 0 1\nx.1 x1\nx.2 x2\n" in res.output


def test_mutate_out_file(runner, tmp_path):
    out = tmp_path / "mut.txt"
    res = runner.invoke(cli.main, ["mutate", G31, "--word", "2", "--out", str(out)])
    assert res.exit_code == 0 and res.output == ""
    assert out.read_text().startswith("rank 2\n")


# ---------------------------------------------------------------------------
# complete


G31_ORDER4_DUMP = (
    "order 4\nvariant A\n"
    "rank 2\nunfrozen 1 2\nd 1 1\nr 3 1\nB 0 1 -1 0\n"
    "a.1 1 a a 1\na.2 1 1\n"
    "walls:\n"
    "line direction=(1,0) normal=(0,1) f=1 + z^(-1,0)\n"
    "line direction=(0,1) normal=(1,0) f=1 + a*z^(0,1) + a*z^(0,2) + z^(0,3)\n"
    "ray direction=(1,-3) normal=(3,1) f=1 + z^(-1,3)\n"
    "ray direction=(1,-2) normal=(2,1) f=1 + a*z^(-1,2)\n"
    "ray direction=(1,-1) normal=(1,1) f=1 + a*z^(-2,2) + a*z^(-1,1)\n")


def test_complete_dump(runner):
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--no-cache"])
    assert res.exit_code == 0
    assert res.output == G31_ORDER4_DUMP


def test_complete_variants_run(runner):
    for variant in ("Aprin", "X", "left", "right"):
        res = runner.invoke(cli.main, ["complete", G31, "--order", "4",
                                       "--variant", variant, "--no-cache"])
        assert res.exit_code == 0, variant
        assert "variant %s\n" % variant in res.output


def test_complete_unknown_variant_exit_2(runner):
    res = runner.invoke(cli.main, ["complete", G31, "--variant", "bogus", "--no-cache"])
    assert res.exit_code == 2
    assert "--variant" in res.output


@pytest.mark.parametrize("unfrozen", ["1 2", "1 3"])
def test_complete_variant_X_with_frozen_direction_exit_3(runner, tmp_path, unfrozen):
    seed = tmp_path / "frozen.seed"
    seed.write_text("rank 3\nunfrozen %s\nd 1 1 1\nr 1 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
                    "a.1 1 1\na.2 1 1\na.3 1 1\n" % unfrozen)
    res = runner.invoke(cli.main, ["complete", str(seed), "--order", "3", "--variant", "X",
                                   "--no-cache"])
    assert res.exit_code == 3, res.output
    assert res.output == ("Error: variant X needs a seed without frozen directions: "
                          "its walls are drawn in the plane of N\n")
    res = runner.invoke(cli.main, ["complete", str(seed), "--order", "3", "--no-cache"])
    assert res.exit_code == 0, res.output


def test_complete_cache_hit_is_byte_identical(runner, cache_env):
    first = runner.invoke(cli.main, ["complete", G31, "--order", "6"])
    assert first.exit_code == 0
    assert len(os.listdir(cache_env)) == 1
    second = runner.invoke(cli.main, ["complete", G31, "--order", "6"])
    assert second.output == first.output
    fresh = runner.invoke(cli.main, ["complete", G31, "--order", "6", "--no-cache"])
    assert fresh.output == first.output
    assert len(os.listdir(cache_env)) == 1


def test_complete_cache_keys_distinguish_order(runner, cache_env):
    runner.invoke(cli.main, ["complete", G31, "--order", "4"])
    runner.invoke(cli.main, ["complete", G31, "--order", "5"])
    assert len(os.listdir(cache_env)) == 2


def test_cache_key_covers_the_code(cache_env, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "_code_digest", lambda: "older code")
        assert cli._cached_text(["k"], lambda: "stale\n", False, None) == "stale\n"
    assert cli._cached_text(["k"], lambda: "fresh\n", False, None) == "fresh\n"
    assert cli._cached_text(["k"], lambda: "unused\n", False, None) == "fresh\n"
    assert len(os.listdir(cache_env)) == 2


def test_undecodable_cache_entry_is_a_miss_and_is_rewritten(runner, cache_env):
    fresh = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--no-cache"]).output
    runner.invoke(cli.main, ["complete", G31, "--order", "4"])
    (entry,) = cache_env.iterdir()
    entry.write_bytes(b"\xff\xfe not utf-8\n")
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4"])
    assert (res.exit_code, res.output) == (0, fresh)
    assert entry.read_text(encoding="utf-8") == fresh


def test_cache_that_cannot_be_written_is_skipped(runner, tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n")
    monkeypatch.setenv("GCSDIAG_CACHE", str(blocker))
    fresh = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--no-cache"]).output
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4"])
    assert (res.exit_code, res.output) == (0, fresh)
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(runner, cache_env, tmp_path, umask, mode):
    # as a shell redirect would create them, although each is written to a temporary file first
    out = tmp_path / "dump.txt"
    old = os.umask(umask)
    try:
        for _ in range(2):  # a new file, then one written over
            res = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--out", str(out)])
            assert res.exit_code == 0, res.output
            (entry,) = cache_env.iterdir()
            assert [os.stat(p).st_mode & 0o777 for p in (out, entry)] == [mode, mode]
    finally:
        os.umask(old)


def test_writes_never_touch_the_process_umask(runner, cache_env, tmp_path, monkeypatch):
    # the kernel applies the umask when the file is created: nothing sets it to read it
    def umask(mask):
        raise AssertionError("os.umask(0o%o) called" % mask)

    out = tmp_path / "dump.txt"
    monkeypatch.setattr(os, "umask", umask)
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--out", str(out)])
    assert (res.exit_code, res.exception) == (0, None), res.output
    (entry,) = cache_env.iterdir()
    assert entry.read_text(encoding="utf-8") == out.read_text(encoding="utf-8")
    assert sorted(os.listdir(tmp_path)) == ["cache", "dump.txt"]  # no temporary file is left


def test_a_taken_temporary_name_is_not_followed(runner, tmp_path, monkeypatch):
    # the temporary file is created exclusively, so a symlink at its name is refused
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    victim, out = tmp_path / "victim.txt", tmp_path / "dump.txt"
    victim.write_text("keep\n")
    os.symlink(victim, tmp_path / (".gcsdiag-" + "00" * 8))
    res = runner.invoke(cli.main, ["complete", G31, "--order", "3", "--no-cache", "--out", str(out)])
    assert res.exit_code == 2 and "File exists" in res.output, res.output
    assert victim.read_text() == "keep\n" and not out.exists()


def test_cache_goes_beside_out_or_in_the_working_directory(runner, tmp_path, monkeypatch):
    # with GCSDIAG_CACHE unset
    monkeypatch.delenv("GCSDIAG_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run").mkdir()
    for args in ([], ["--out", "run/dump.txt"]):
        res = runner.invoke(cli.main, ["complete", G31, "--order", "4"] + args)
        assert res.exit_code == 0, res.output
    assert [len(os.listdir(tmp_path / d / ".gcsdiag-cache")) for d in (".", "run")] == [1, 1]


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_out_that_cannot_be_written_exit_2(runner, tmp_path, target):
    # a missing directory, or a directory in place of the file
    out = tmp_path / "run" / target
    (tmp_path / "run").mkdir()
    res = runner.invoke(cli.main, ["complete", G31, "--order", "3", "--no-cache",
                                   "--out", str(out)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: cannot write %s: " % out) and res.output.count("\n") == 1
    assert os.listdir(tmp_path / "run") == []  # no temporary file is left behind


# ---------------------------------------------------------------------------
# theta


def test_theta_report(runner):
    res = runner.invoke(cli.main, ["theta", G31, "--order", "8",
                                   "--m0", "0,-1", "--q", "3/2,1", "--no-cache"])
    assert res.exit_code == 0
    assert res.output.startswith("theta m0=(0,-1) Q=(3/2,1) order=8\n")
    assert ("value: z^(-1,-1) + a*z^(-1,0) + a*z^(-1,1) + z^(-1,2) + z^(0,-1)\n"
            in res.output)
    assert res.output.count("\nline ") == 5


def test_theta_perturbs_endpoint_on_support(runner):
    res = runner.invoke(cli.main, ["theta", G31, "--order", "6",
                                   "--m0", "0,-1", "--q", "1,0", "--no-cache"])
    assert res.exit_code == 0
    assert res.output.startswith(
        "note: endpoint perturbed off the support to (98/97,1/9409)\n")
    assert "value: z^(-1,-1) + a*z^(-1,0) + a*z^(-1,1) + z^(-1,2) + z^(0,-1)\n" in res.output


def test_theta_perturbs_non_generic_endpoint(runner, g31):
    res = runner.invoke(cli.main, ["theta", G31, "--order", "6",
                                   "--m0", "2,-3", "--q", "1,2", "--no-cache"])
    assert res.exit_code == 0
    q = (Fraction(98, 97), Fraction(18819, 9409))
    assert res.output.startswith(
        "note: endpoint perturbed to a generic point (98/97,18819/9409)\n")
    fixed, seed = g31
    diag = complete_rank2(initial_diagram(fixed, seed, 6))
    expected = canonical_string(theta_via_path(diag, q, (2, -3)))
    assert "\nvalue: %s\n" % expected in res.output


@pytest.mark.parametrize("seed_file,name", [(A2, "a2"), (G31, "g31")])
def test_theta_skips_a_non_generic_candidate(runner, request, seed_file, name):
    # Q lies on the ray -m0, the first candidate (49/9409,49/9409) on the ray
    # -(-1,-1) of another final exponent; the 1/101 candidate is generic
    res = runner.invoke(cli.main, ["theta", seed_file, "--order", "4", "--m0", "1,-1",
                                   "--q=-48/9409,48/9409", "--no-cache"])
    assert res.exit_code == 0, res.output
    q = (Fraction(-48, 9409) + Fraction(1, 101), Fraction(48, 9409) + Fraction(1, 101 ** 2))
    assert res.output.startswith(
        "note: endpoint perturbed to a generic point (4561/950309,499057/95981209)\n")
    fixed, seed = request.getfixturevalue(name)
    diag = complete_rank2(initial_diagram(fixed, seed, 4))
    expected = canonical_string(theta_via_path(diag, q, (1, -1)))
    assert "\nvalue: %s\n" % expected in res.output


# requests with option values that begin with "-", as separate tokens and
# joined with "=", and their reports
DASH_VALUES = [
    (["theta", G31, "--order", "8", "--m0", "-2,-2", "--Q", "-409/309,-21215/31827",
      "--no-cache"],
     "theta m0=(-2,-2) Q=(-409/309,-21215/31827) order=8\n"
     "value: z^(-2,-2)\n"
     "line bends=0 rays= points=- trail=z^(-2,-2)\n"),
    (["theta", A2, "--order", "4", "--m0", "1,-1", "--q=-48/9409,48/9409", "--no-cache"],
     "note: endpoint perturbed to a generic point (4561/950309,499057/95981209)\n"
     "theta m0=(1,-1) Q=(4561/950309,499057/95981209) order=4\n"
     "value: z^(0,-1) + z^(1,-1)\n"
     "line bends=0 rays= points=- trail=z^(1,-1)\n"
     "line bends=1 rays=(1,0) points=(4561/950309,0) trail=z^(1,-1) -> z^(0,-1)\n"),
    # every token after "--" is positional: the seed file, after the options
    (["complete", "--order", "4", "--no-cache", "--", G31], G31_ORDER4_DUMP),
]


@pytest.mark.parametrize("args,report", DASH_VALUES, ids=["separate", "joined", "double-dash"])
def test_option_values_that_begin_with_a_dash(runner, tmp_path, args, report):
    res = runner.invoke(cli.main, args)
    assert (res.exit_code, res.output) == (0, report)
    res = _run_cli(["-m", "gcsdiag.cli"], args, tmp_path / "cache")
    assert (res.returncode, res.stdout, res.stderr) == (0, report, "")


@pytest.mark.parametrize("m0", ["1/2,0", "1,0,0"])
def test_theta_bad_m0_exit_2(runner, m0):
    res = runner.invoke(cli.main, ["theta", G31, "--m0", m0, "--q", "3/2,1", "--no-cache"])
    assert res.exit_code == 2
    assert "--m0 must be 2 integers" in res.output


# ---------------------------------------------------------------------------
# plot


def _svg_children(text):
    root = ET.fromstring(text)
    assert root.tag == SVG_NS + "svg"
    return list(root)


def test_plot_dump_svg(runner, tmp_path):
    dump = tmp_path / "g31.dump"
    runner.invoke(cli.main, ["complete", G31, "--order", "6", "--no-cache",
                             "--out", str(dump)])
    res = runner.invoke(cli.main, ["plot", str(dump)])
    assert res.exit_code == 0
    kids = _svg_children(res.output)
    walls = [e for e in kids if e.tag == SVG_NS + "line" and e.get("stroke") == "black"]
    labels = [e for e in kids if e.tag == SVG_NS + "text"]
    assert len(walls) == 6 and len(labels) == 6
    again = runner.invoke(cli.main, ["plot", str(dump)])
    assert again.output == res.output


def test_plot_theta_svg(runner, tmp_path):
    rep = tmp_path / "theta.txt"
    runner.invoke(cli.main, ["theta", G31, "--order", "8", "--m0", "0,-1",
                             "--q", "3/2,1", "--no-cache", "--out", str(rep)])
    res = runner.invoke(cli.main, ["plot", str(rep)])
    assert res.exit_code == 0
    kids = _svg_children(res.output)
    polys = [e for e in kids if e.tag == SVG_NS + "polyline"]
    assert len(polys) == 5


def test_plot_accepts_perturbation_notice(runner, tmp_path):
    rep = tmp_path / "theta.txt"
    runner.invoke(cli.main, ["theta", G31, "--order", "6", "--m0", "0,-1",
                             "--q", "1,0", "--no-cache", "--out", str(rep)])
    res = runner.invoke(cli.main, ["plot", str(rep)])
    assert res.exit_code == 0
    _svg_children(res.output)


def test_plot_rejects_garbage(runner, tmp_path):
    bad = tmp_path / "junk.txt"
    for text in ("not a dump\n",
                 "order 4\nline direction=(1) f=1\n",
                 "theta m0=(1,0)\nline bends=0 rays= points=- trail=z^(1,0)\n",
                 "theta m0=(1,0) Q=(1,1)\nline bends=0 rays= points=- trail=z^(1)\n",
                 "order 4\nray direction=(0,0) f=1\n",
                 "note: x"):
        bad.write_text(text)
        res = runner.invoke(cli.main, ["plot", str(bad)])
        assert res.exit_code == 2, text


def test_plot_rejects_numbers_outside_float_range(runner, tmp_path):
    huge = "1" + "0" * 400  # float() of it raises OverflowError
    bad = tmp_path / "huge.txt"
    for text in ("order 4\nline direction=(%s,1) normal=(0,1) f=1\n" % huge,
                 "theta m0=(1,0) Q=(%s,1) order=4\nvalue: z^(1,0)\n"
                 "line bends=0 rays= points=- trail=z^(1,0)\n" % huge):
        bad.write_text(text)
        res = runner.invoke(cli.main, ["plot", str(bad)])
        assert res.exit_code == 2, text
        assert res.output.startswith("Error: malformed "), res.output


# ---------------------------------------------------------------------------
# check


@pytest.mark.parametrize("order", ["5", "2"])
def test_check_g31_passes(runner, order):
    res = runner.invoke(cli.main, ["check", G31, "--order", order, "--depth", "3"])
    assert res.exit_code == 0
    assert res.output == (
        "consistency: pass\n"
        "mutation-equivalence k=1: pass\n"
        "mutation-equivalence k=2: pass\n"
        "sign-coherence depth=3: pass\n"
        "laurent: pass\n")


def test_check_kronecker22_order2_passes(runner):
    res = runner.invoke(cli.main, ["check", KRONECKER, "--order", "2", "--depth", "3"])
    assert res.exit_code == 0
    assert all(line.endswith(": pass") for line in res.output.splitlines())


def test_check_a2_passes(runner):
    res = runner.invoke(cli.main, ["check", A2, "--order", "6", "--depth", "4"])
    assert res.exit_code == 0
    assert "FAIL" not in res.output


@pytest.mark.parametrize("seed_file", [G31, KRONECKER], ids=["g31", "kronecker22"])
def test_unfrozen_order_does_not_change_the_diagram(runner, tmp_path, seed_file):
    with open(seed_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    swapped = tmp_path / "swapped.seed"
    swapped.write_text(text.replace("unfrozen 1 2", "unfrozen 2 1"))
    outputs = []
    for path in (seed_file, str(swapped)):
        res = runner.invoke(cli.main, ["check", path, "--order", "2", "--depth", "1"])
        assert res.exit_code == 0, res.output
        outputs.append(sorted(res.output.splitlines()))
    assert outputs[0] == outputs[1]
    walls = []
    for path in (seed_file, str(swapped)):
        res = runner.invoke(cli.main, ["complete", path, "--order", "6", "--no-cache"])
        assert res.exit_code == 0
        walls.append(res.output.split("walls:\n", 1)[1])
    assert walls[0] == walls[1]


def test_check_reports_failure_with_exit_4(runner, monkeypatch):
    monkeypatch.setattr(cli, "check_consistency", lambda diag: (False, (0, 1)))
    res = runner.invoke(cli.main, ["check", G31, "--order", "4", "--depth", "2"])
    assert res.exit_code == 4
    assert "consistency: FAIL at z^(0,1)\n" in res.output


def test_check_reports_the_first_non_laurent_word(runner, monkeypatch):
    mutate_cluster = cli.mutate_cluster
    calls = []

    def fail_fourth_step(state, k):
        calls.append(k)
        if len(calls) == 4:  # the words in walk order: 1, 2, 1,2, 2,1
            raise ValueError("non-Laurent cluster variable")
        return mutate_cluster(state, k)

    monkeypatch.setattr(cli, "mutate_cluster", fail_fourth_step)
    res = runner.invoke(cli.main, ["check", A2, "--order", "2", "--depth", "3"])
    assert res.exit_code == 4
    assert res.output.endswith("laurent: FAIL at word 2,1\nError: verification failed\n")


def test_check_seed_with_frozen_direction_exit_3(runner, tmp_path):
    seed = tmp_path / "frozen.seed"
    for text in ("rank 3\nunfrozen 1 2\nd 1 1 1\nr 1 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
                 "a.1 1 1\na.2 1 1\na.3 1 1\n",
                 "rank 2\nunfrozen 1\nd 1 1\nr 3 1\nB 0 1 -1 0\na.1 1 a a 1\n"):
        seed.write_text(text)
        res = runner.invoke(cli.main, ["check", str(seed), "--order", "2"])
        assert res.exit_code == 3, res.output
        assert res.output == ("Error: check needs a rank-2 seed without frozen directions: "
                              "T_k needs plane exponents\n")


@pytest.mark.parametrize("args", [
    ["check", "--order", "3"],
    ["theta", "--order", "3", "--m0", "1,0", "--q", "3/2,1", "--no-cache"],
] + [["complete", "--order", "3", "--variant", v, "--no-cache"]
     for v in ("A", "Aprin", "X", "left", "right")],
    ids=["check", "theta", "complete-A", "complete-Aprin", "complete-X", "complete-left",
         "complete-right"])
def test_seed_whose_p_star_is_not_injective_exit_3(runner, tmp_path, args):
    # B = 0 sends both v_i to 0; every command and variant grades by their projections
    # onto the unfrozen A-coordinates, so each refuses the seed with one message
    seed = tmp_path / "degenerate.seed"
    seed.write_text("rank 2\nunfrozen 1 2\nd 1 1\nr 1 1\nB 0 0 0 0\na.1 1 1\na.2 1 1\n")
    res = runner.invoke(cli.main, args[:1] + [str(seed)] + args[1:])
    assert (res.exit_code, res.output) == (3, "Error: p* is not injective on the unfrozen span\n")


@pytest.mark.parametrize("q", ["1,0", "3/2,1"])
def test_theta_on_a_seed_with_frozen_direction_exit_3(runner, tmp_path, q):
    # on the support or off it, the endpoint is not perturbed in vain first
    seed = tmp_path / "frozen.seed"
    seed.write_text("rank 3\nunfrozen 1 2\nd 1 1 1\nr 2 1 1\nB 0 1 1 -1 0 1 -1 -1 0\n"
                    "a.1 1 a 1\na.2 1 1\n")
    res = runner.invoke(cli.main, ["theta", str(seed), "--order", "3", "--m0", "1,0,0",
                                   "--q", q, "--no-cache"])
    assert (res.exit_code, res.output) == (3, "Error: broken lines need plane exponents\n")


def test_check_two_symbol_seed_passes(runner, tmp_path):
    # two exchange symbols on infinite type: the cluster variables grow fast
    seed = tmp_path / "r32.seed"
    seed.write_text("rank 2\nunfrozen 1 2\nd 1 1\nr 3 2\nB 0 1 -1 0\na.1 1 a a 1\na.2 1 b 1\n")
    res = runner.invoke(cli.main, ["check", str(seed), "--order", "3"])
    assert res.exit_code == 0, res.output
    assert res.output.endswith("sign-coherence depth=5: pass\nlaurent: pass\n")


def test_stalled_completion_exit_4(runner, monkeypatch):
    def stall(diag):
        raise RuntimeError("completion failed to make progress at degree 2")

    monkeypatch.setattr(cli, "complete_rank2", stall)
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--no-cache"])
    assert res.exit_code == 4
    assert isinstance(res.exception, SystemExit)
    assert res.output == "Error: completion failed to make progress at degree 2\n"


# ---------------------------------------------------------------------------
# companions


def test_companions_output(runner):
    res = runner.invoke(cli.main, ["companions", G31])
    assert res.exit_code == 0
    assert res.output == (
        "left:\n"
        "rank 2\nunfrozen 1 2\nd 3 1\nr 1 1\nB 0 1 -3 0\na.1 1 1\na.2 1 1\n"
        "right:\n"
        "rank 2\nunfrozen 1 2\nd 1/3 1\nr 1 1\nB 0 3 -1 0\na.1 1 1\na.2 1 1\n"
        "langlands:\n"
        "rank 2\nunfrozen 1 2\nd 1 1\nr 1 3\nB 0 1 -1 0\n"
        "a.1 1 1\na.2 1 a_{2,1} a_{2,1} 1\n")


def test_companions_without_integral_d_have_no_langlands_dual(runner, tmp_path):
    seed = tmp_path / "right.seed"
    seed.write_text("rank 2\nunfrozen 1 2\nd 1/3 1\nr 1 1\nB 0 3 -1 0\na.1 1 1\na.2 1 1\n")
    res = runner.invoke(cli.main, ["companions", str(seed)])
    assert res.exit_code == 0, res.output
    assert res.output.endswith("\nlanglands: unavailable (Langlands dual requires integral d)\n")


# ---------------------------------------------------------------------------
# error paths


def test_missing_seed_file_exit_2(runner):
    res = runner.invoke(cli.main, ["complete", "no-such.seed", "--no-cache"])
    assert res.exit_code == 2
    assert res.output == "Error: cannot read no-such.seed: No such file or directory\n"


def test_malformed_seed_file_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.seed"
    cases = [("1 2", a1, "a.1 ") for a1 in ("1 a 1", "1 2 2 1", "1 1/2 1/2 1")]
    cases += [(unfrozen, "1 a a 1", "unfrozen") for unfrozen in ("1 3", "1 1")]
    for unfrozen, a1, message in cases:
        bad.write_text("rank 2\nunfrozen %s\nd 1 1\nr 3 1\nB 0 1 -1 0\na.1 %s\na.2 1 1\n"
                       % (unfrozen, a1))
        res = runner.invoke(cli.main, ["mutate", str(bad)])
        assert res.exit_code == 2 and message in res.output, (unfrozen, a1, res.output)


def test_seed_file_comments_and_blank_lines_are_skipped(runner, tmp_path):
    with open(G31, encoding="utf-8") as fh:
        text = fh.read()
    commented = tmp_path / "commented.seed"
    commented.write_text("# the G31 seed\n\n" + text.replace("\nB ", "\n  # row-major\nB "))
    assert parse_seed_file(commented.read_text()) == parse_seed_file(text)
    plain = runner.invoke(cli.main, ["mutate", G31, "--word", "1,2"])
    assert runner.invoke(cli.main, ["mutate", str(commented), "--word", "1,2"]) == plain


@pytest.mark.parametrize("field", ["rank", "unfrozen", "d", "r", "B", "a.1"])
def test_seed_field_with_no_value_exit_2(runner, tmp_path, field):
    with open(G31, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    seed = tmp_path / "empty.seed"
    seed.write_text("\n".join(field if line.split()[0] == field else line for line in lines))
    res = runner.invoke(cli.main, ["mutate", str(seed)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "field %s has no value" % field in res.output


STRICT_SEED_FAULTS = [
    ("rank 2\n", "rank 2 7\n", "field rank takes one value"),
    ("a.1 1 a a 1\n", "a.1 1 a a 1\na.1 1 b b 1\n", "field a.1 is repeated"),
    ("a.2 1 1\n", "a.2 1 1\nfoo 3\n", "unknown field foo"),
    ("a.2 1 1\n", "a.2 1 1\na.3 1 1\n", "field a.3 names a direction outside 1..2"),
    ("a.1 1 a a 1\n", "a.1 1 a b 1\n", "coefficient tuple for direction 1 is not reciprocal"),
]


@pytest.mark.parametrize("line,bad,message", STRICT_SEED_FAULTS,
                         ids=["rank-extra", "repeated", "unknown", "a-index", "not-reciprocal"])
def test_seed_file_fault_exit_2(runner, tmp_path, line, bad, message):
    with open(G31, encoding="utf-8") as fh:
        text = fh.read()
    assert line in text
    with pytest.raises(ValueError, match=message):
        parse_seed_file(text.replace(line, bad))
    seed = tmp_path / "bad.seed"
    seed.write_text(text.replace(line, bad))
    res = runner.invoke(cli.main, ["mutate", str(seed)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and message in res.output


FROZEN_SEED = ("rank 3\nunfrozen 1 2\nd 1 1 1\nr 1 1 %d\nB 0 1 1 -1 0 1 -1 -1 0\n"
               "a.1 1 1\na.2 1 1\na.3 %s\n")


@pytest.mark.parametrize("r3,a3,message", [
    (1, "1 1", None),
    (2, "1 c 1", None),
    (1, "1 foo bar baz 1", "a.3 must be a monic tuple of length r+1"),
    (2, "1 1", "a.3 must be a monic tuple of length r+1"),
    (2, "1 c 2", "a.3 must be a monic tuple of length r+1"),
    (2, "1 2 1", "a.3 entry '2' is neither 1 nor a symbol name"),
    (2, "1 x3 1", "a.3 entry 'x3' is the name of a cluster variable"),
], ids=["valid", "valid-symbol", "long", "short", "not-monic", "number", "cluster-name"])
def test_frozen_a_line_is_checked_like_the_others(runner, tmp_path, r3, a3, message):
    # a frozen direction's a.i line takes the unfrozen lines' checks; a valid one is dropped
    text = FROZEN_SEED % (r3, a3)
    seed = tmp_path / "frozen.seed"
    seed.write_text(text)
    res = runner.invoke(cli.main, ["companions", str(seed)])
    if message is None:
        assert parse_seed_file(text) == parse_seed_file(text.replace("a.3 %s\n" % a3, ""))
        assert res.exit_code == 0, res.output
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_seed_file(text)
    assert res.exit_code == 2 and message in res.output, res.output


@pytest.mark.parametrize("args", [
    ["complete", "--no-cache"],
    ["mutate"],
    ["theta", "--m0", "0,-1", "--q", "3/2,1", "--no-cache"],
    ["check", "--order", "3"],
    ["companions"],
    ["plot"],
], ids=lambda args: args[0])
def test_input_that_is_not_utf8_exit_2(runner, tmp_path, args):
    bad = tmp_path / "bad.seed"
    with open(G31, "rb") as fh:
        bad.write_bytes(fh.read().replace(b"a a", b"a \xff"))
    res = runner.invoke(cli.main, args[:1] + [str(bad)] + args[1:])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: cannot read %s: 'utf-8' codec can't decode" % bad)


SYMBOL_SEED = "rank 2\nunfrozen 1 2\nd 1 1\nr 2 1\nB 0 1 -1 0\na.1 1 %s 1\na.2 1 1\n"


@pytest.mark.parametrize("args", [
    ["mutate", "--word", "1"],
    ["complete", "--order", "3", "--no-cache"],
    ["theta", "--order", "4", "--m0", "1,1", "--q", "3/2,1", "--no-cache"],
], ids=["mutate", "complete", "theta"])
@pytest.mark.parametrize("name", ["x2", "x1", "x10"])
def test_symbol_named_like_a_cluster_variable_exit_2(runner, tmp_path, args, name):
    # a symbol x2 would be merged with the cluster variable x2 in mutate's text
    seed = tmp_path / "x.seed"
    seed.write_text(SYMBOL_SEED % name)
    res = runner.invoke(cli.main, args[:1] + [str(seed)] + args[1:])
    assert res.exit_code == 2, res.output
    assert "is the name of a cluster variable" in res.output


@pytest.mark.parametrize("name,x1,x2", [
    ("x", "(x*x2 + x2**2 + 1)/x1", "(x*x2 + x1 + x2**2 + 1)/(x1*x2)"),
    ("z", "(x2**2 + x2*z + 1)/x1", "(x1 + x2**2 + x2*z + 1)/(x1*x2)"),
])
def test_symbol_named_x_or_z_parses_and_prints(runner, tmp_path, name, x1, x2):
    seed = tmp_path / "s.seed"
    seed.write_text(SYMBOL_SEED % name)
    res = runner.invoke(cli.main, ["mutate", str(seed), "--word", "1,2"])
    assert res.exit_code == 0, res.output
    assert res.output.endswith("x.1 %s\nx.2 %s\n" % (x1, x2))


@st.composite
def seed_texts(draw):
    """Seed files of rank 2 or 3, well-formed or with one fault a user makes."""
    n = draw(st.integers(2, 3))
    r = [draw(st.integers(1, 4)) for _ in range(n)]
    B = draw(st.sampled_from({2: [[0, 1, -1, 0], [0, 2, -2, 0], [0, 3, -3, 0]],
                              3: [[0, 1, 0, -1, 0, 1, 0, -1, 0],
                                  [0, 1, 1, -1, 0, 1, -1, -1, 0]]}[n]))
    d = ["1"] * n
    fault = draw(st.sampled_from([None, None, None, "d", "B", "skew", "name", "tuple", "drop",
                                  "empty", "rank", "repeat", "unknown", "index"]))
    if fault == "d":
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["0", "-1", "1/0", "a"]))
    elif fault == "B":
        B = B[:-1]
    elif fault == "skew":
        B = [abs(x) for x in B]
    names = ["1", "a", "b", "z", "x", "a_{1,1}"]
    if fault == "name":
        names = ["x1", "x2", "x12", "2", "1/2"]
        r[0] = 3
    fields = {"rank": str(n), "unfrozen": " ".join(str(i + 1) for i in range(n)),
              "d": " ".join(d), "r": " ".join(map(str, r)), "B": " ".join(map(str, B))}
    for i in range(n):
        half = [draw(st.sampled_from(names)) for _ in range((r[i] - 1) // 2)]
        mid = [draw(st.sampled_from(names))] if r[i] % 2 == 0 else []
        extra = ["a"] if fault == "tuple" else []
        fields["a.%d" % (i + 1)] = " ".join(["1"] + half + mid + half[::-1] + extra + ["1"])
    if fault in ("drop", "empty"):  # a field left out, or a key with no value
        key = draw(st.sampled_from(sorted(fields)))
        fields[key] = None if fault == "drop" else ""
    elif fault == "rank":
        fields["rank"] += " %d" % draw(st.integers(0, 9))
    text = "".join(("%s %s" % kv).rstrip() + "\n" for kv in fields.items() if kv[1] is not None)
    if fault == "repeat":  # a field given twice
        key = draw(st.sampled_from(sorted(fields)))
        text += "%s %s\n" % (key, fields[key])
    elif fault in ("unknown", "index"):  # a key the format does not have
        key = "foo" if fault == "unknown" else "a.%d" % (n + 1)
        text += "%s 1 1\n" % key
    return text


@given(seed_texts())
@example("rank 2\nunfrozen 1 2\nd 1/0 1\nr 1 1\nB 0 1 -1 0\na.1 1 1\na.2 1 1\n")
@settings(max_examples=60, deadline=None)
def test_generated_seed_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        seed = os.path.join(tmp, "fuzz.seed")
        with open(seed, "w", encoding="utf-8") as fh:
            fh.write(text)
        for args in (["mutate", seed, "--word", "1,2"], ["companions", seed]):
            res = CliRunner().invoke(cli.main, args)
            assert res.exit_code in (0, 2, 3, 4), (text, args, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), text


@pytest.mark.parametrize("args,culprit", [
    (["bogus", G31], "'bogus'"),
    ([], "COMMAND"),
    (["theta", G31, "--q", "3/2,1"], "--m0"),
    (["complete", "--order", "3"], "SEED_FILE"),
    (["complete", G31, "--order", "x"], "--order"),
    (["complete", G31, "--variant", "bogus"], "--variant"),
    (["complete", G31, "--bogus"], "--bogus"),
    (["complete", G31, "--out"], "--out"),
], ids=["unknown-command", "no-command", "no-m0", "no-seed-file", "order-x", "variant-bogus",
        "unknown-option", "no-value"])
def test_usage_error_exit_2(tmp_path, args, culprit):
    res = _run_cli(["-m", "gcsdiag.cli"], args, tmp_path / "cache")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("usage: ") and "Traceback" not in res.stderr
    assert culprit in res.stderr.splitlines()[-1]


@pytest.mark.parametrize("command", ["", "mutate", "complete", "theta", "plot", "check",
                                     "companions"])
def test_help_exit_0(runner, command):
    res = runner.invoke(cli.main, command.split() + ["--help"])
    assert res.exit_code == 0 and res.exception is None
    assert res.output.startswith("usage: gcsdiag %s" % command)


def test_closed_stdout_exit_1_without_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        res = subprocess.run([sys.executable, "-m", "gcsdiag.cli", "companions", G31],
                             stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
                             env=dict(os.environ, PYTHONPATH=SRC_DIR))
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, "")


def test_interrupt_exit_1(runner, monkeypatch):
    def interrupt(diag):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "complete_rank2", interrupt)
    res = runner.invoke(cli.main, ["complete", G31, "--order", "4", "--no-cache"])
    assert (res.exit_code, res.output) == (1, "\nAborted!\n")


def test_bad_word_exit_2(runner):
    res = runner.invoke(cli.main, ["mutate", G31, "--word", "x"])
    assert res.exit_code == 2


def test_out_of_range_index_exit_3(runner):
    res = runner.invoke(cli.main, ["mutate", G31, "--word", "3"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["complete", G31, "--order", "0", "--no-cache"],
    ["theta", G31, "--order", "0", "--m0", "0,-1", "--q", "3/2,1", "--no-cache"],
    ["theta", G31, "--order", "-2", "--m0", "0,-1", "--q", "3/2,1", "--no-cache"],
    ["check", G31, "--order", "0"],
    ["check", G31, "--order", "4", "--depth", "-1"],
], ids=["complete-order0", "theta-order0", "theta-order-2", "check-order0", "check-depth-1"])
def test_nonpositive_order_exit_3(runner, args):
    res = runner.invoke(cli.main, args)
    assert res.exit_code == 3, res.output
    assert "must be >= " in res.output


@pytest.mark.parametrize("args", [
    ["complete", G31, "--no-cache"],
    ["theta", G31, "--m0", "0,-1", "--q", "3/2,1", "--no-cache"],
    ["check", G31],
], ids=["complete", "theta", "check"])
def test_huge_order_exit_3(runner, args):
    # a wall's coefficient list of that length cannot be allocated: the list is
    # refused before any memory is taken, so only this order is safe to test
    res = runner.invoke(cli.main, args + ["--order", str(10 ** 20)])
    assert res.exit_code == 3, res.output
    assert re.fullmatch(r"Error: order \d+ is too large\n", res.output), res.output


@pytest.mark.parametrize("q", ["bad", "3/2,1,5", "3"])
def test_bad_endpoint_exit_2(runner, q):
    res = runner.invoke(cli.main, ["theta", G31, "--m0", "0,-1", "--q", q,
                                   "--no-cache"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# no command imports sympy, and the CLI imports no third-party module


def _run_cli(python_args, args, cache):
    env = dict(os.environ, GCSDIAG_CACHE=str(cache),
               PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable] + python_args + args,
                          capture_output=True, text=True, env=env, check=False)


def _imports_sympy(importtime_stderr):
    # -X importtime names each module in the last column of its line
    return any(line.rsplit("|", 1)[-1].strip().split(".")[0] == "sympy"
               for line in importtime_stderr.splitlines() if line.startswith("import time:"))


def _every_command(dump):
    return [
        ["complete", G31, "--order", "3", "--out", str(dump)],
        ["theta", G31, "--order", "4", "--m0", "0,-1", "--q", "3/2,1"],
        ["check", A2, "--order", "2", "--depth", "2"],
        ["companions", G31],
        ["plot", str(dump)],
        ["mutate", G31, "--word", "1,2"],
    ]


def test_package_import_leaves_sympy_out():
    res = subprocess.run([sys.executable, "-c",
                          "import sys, gcsdiag, gcsdiag.cli; print('sympy' in sys.modules)"],
                         capture_output=True, text=True, check=False,
                         env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_no_command_imports_sympy(tmp_path):
    for args in _every_command(tmp_path / "dump.txt"):
        res = _run_cli(["-X", "importtime", "-m", "gcsdiag.cli"], args, tmp_path / "cache")
        assert res.returncode == 0, (args, res.stderr[-500:])
        assert not _imports_sympy(res.stderr), args
    assert res.stdout.endswith("x.1 (a*x2**2 + a*x2 + x2**3 + 1)/x1\n"
                               "x.2 (a*x2**2 + a*x2 + x1 + x2**3 + 1)/(x1*x2)\n")


# `import sympy` raises ImportError once sys.modules maps it to None
SYMPY_ABSENT = "import sys; sys.modules['sympy'] = None; import gcsdiag.cli; gcsdiag.cli.main()"


def test_every_command_runs_with_sympy_absent(tmp_path):
    outputs = {}
    for name, python_args in (("normal", ["-m", "gcsdiag.cli"]), ("absent", ["-c", SYMPY_ABSENT])):
        dump = tmp_path / ("%s.txt" % name)
        runs = [_run_cli(python_args, args, tmp_path / name) for args in _every_command(dump)]
        assert [res.returncode for res in runs] == [0] * len(runs), [r.stderr[-500:] for r in runs]
        outputs[name] = [res.stdout for res in runs] + [dump.read_text()]
    assert outputs["absent"] == outputs["normal"]


# `import click` and `import sympy` raise ImportError once sys.modules maps them to None
STDLIB_ONLY = ("import sys; sys.modules['click'] = sys.modules['sympy'] = None; "
               "import gcsdiag.cli; gcsdiag.cli.main()")


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    requests = DASH_VALUES[:1] + [(["complete", G31, "--order", "4", "--no-cache"],
                                   G31_ORDER4_DUMP)]
    for args, expected in requests:
        res = _run_cli(["-c", STDLIB_ONLY], args, tmp_path / "cache")
        assert (res.returncode, res.stdout, res.stderr) == (0, expected, ""), args
