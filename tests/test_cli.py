import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import covrad
from covrad import _sweeps, cli, dist
from covrad.cli import build_code, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_import_starts_no_process_pool_machinery():
    # ProcessPoolExecutor is imported by the first sweep that starts a
    # pool: a fresh `import covrad` loads no multiprocessing, socket or
    # logging
    src = str(Path(covrad.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, covrad; print(sorted(m for m in ("
         "'concurrent.futures.process', 'multiprocessing', 'socket', "
         "'logging') if m in sys.modules))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={"PYTHONPATH": src, "PATH": ""})
    assert out.stdout.strip() == "[]"


def test_code_prs_summary(capsys):
    rc, out, _ = run_cli(capsys, "code", "--code", "prs:q=5,k=4")
    assert rc == 0
    data = json.loads(out)
    assert data["label"] == "PRS(6,4)/F_5"
    assert data["n"] == 6 and data["k"] == 4
    assert data["generator"][0] == "1,1,1,1,1,0"


def test_code_rs_with_evalset(capsys):
    rc, out, _ = run_cli(capsys, "code", "--code", "rs:q=5,k=1,eval=1+2+3")
    assert rc == 0
    assert json.loads(out)["n"] == 3


def test_code_glynn_default_parameter(capsys):
    rc, out, _ = run_cli(capsys, "code", "--code", "glynn:")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 10 and data["k"] == 5 and data["field"] == "3^2"


def test_code_glynn_invalid_parameter(capsys):
    rc, _, err = run_cli(capsys, "code", "--code", "glynn:w=1")
    assert rc == 2
    assert "w^4" in err


def test_export_and_reparse_round_trip(tmp_path, capsys):
    path = tmp_path / "prs64.code"
    rc, _, _ = run_cli(capsys, "code", "--code", "prs:q=5,k=4",
                       "--out", str(path))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "code", "--code", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 6 and data["k"] == 4
    from covrad.code import codes_equal, prs_code
    from covrad.gf import field_create
    assert codes_equal(build_code(str(path)), prs_code(field_create(5), 4))


def test_from_file_bad_row_diagnoses_line(tmp_path, capsys):
    path = tmp_path / "bad.code"
    path.write_text("5^1\n1,2,3\n1,7,3\n")
    rc, _, err = run_cli(capsys, "code", "--code", str(path))
    assert rc == 2
    assert "line 3" in err


@pytest.mark.parametrize("argv", [
    ("code", "rs", "--q", "5", "--k", "2"),
    ("code", "prs", "--q", "5", "--k", "2"),
    ("code", "glynn"),
    ("code", "from-file", "prs64.code"),
    ("code", "export", "--code", "prs:q=5,k=4", "--out", "prs64.code"),
])
def test_removed_code_subcommands_are_usage_errors(tmp_path, monkeypatch,
                                                   argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ("code", "--code", "prs:q=5,k=2"),
    ("analyze", "radius", "--code", "prs:q=5,k=2"),
    ("ssp", "--q", "7", "--k", "3", "--target", "2"),
])
def test_csv_outside_verify_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_analyze_radius_json(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "radius", "--code", "prs:q=5,k=4")
    assert rc == 0
    data = json.loads(out)
    assert data["rho"] == 1
    assert data["algorithm"] == "syndrome-bfs"


def test_analyze_radius_sweep(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "radius", "--code", "prs:q=5,k=4",
                         "--algo", "sweep")
    assert rc == 0
    assert json.loads(out)["rho"] == 1


def test_analyze_deep_holes(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                         "rs:q=5,k=2")
    assert rc == 0
    data = json.loads(out)
    assert data["deep_hole_count"] == 4
    assert data["matches_degree_k_family"] is True
    assert data["deep_holes"][0] == {"tail": "0,0,1"}
    for algo, name in (("sweep", "rep-sweep"), ("syndrome", "syndrome-bfs")):
        rc, out, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                             "rs:q=5,k=2", "--algo", algo)
        assert rc == 0
        data = json.loads(out)
        assert data["algorithm"] == name and data["deep_hole_count"] == 4


# sha1 of each listing's output with its elapsed_ms line dropped, recorded
# before the report kept its rows as arrays: the JSON and table output must
# stay byte-identical
LISTING_SHA1 = [
    ("prs:q=5,k=2", "auto", "json", "4105d7301cdb46ee796995313959de04f578375a"),
    ("rs:q=7,k=3", "auto", "json", "54a744a749f49a6f14c27dba686bde921931e07e"),
    ("prs:q=5,k=5", "auto", "json", "d913b3ff9b40e660aa4aea23438c28c2598df9e4"),
    ("prs:q=9,k=5", "syndrome", "json",
     "c6a09c34c1103a19fb2a1857071e73fc924c6b00"),
    ("glynn:", "syndrome", "json", "83dc3136afb00c4bc36910c018f945657eb142b3"),
    ("prs:q=5,k=2", "auto", "table", "a2ebebdaf4de25e804b95c2aaefd069d73d7571b"),
    ("prs:q=5,k=3", "syndrome", "table",
     "df2ba83d3a5dd76d240257a9601d74a692c6bee5"),
]


@pytest.mark.parametrize("selector, algo, fmt, sha1", LISTING_SHA1)
def test_deep_hole_listing_output_is_pinned(capsys, selector, algo, fmt, sha1):
    rc, out, _ = run_cli(capsys, "analyze", "deep-holes", "--code", selector,
                         "--algo", algo, "--format", fmt)
    assert rc == 0
    text = "".join(line for line in out.splitlines(True)
                   if "elapsed_ms" not in line)
    assert hashlib.sha1(text.encode()).hexdigest() == sha1


def test_deep_holes_over_the_candidate_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(_sweeps, "DEEP_CANDIDATE_CAP", 10)
    rc, out, err = run_cli(capsys, "analyze", "deep-holes", "--code",
                           "prs:q=5,k=2")
    assert rc == 2 and not out
    assert "more than 10 deep-hole candidates" in err


def test_memory_error_exit_2(capsys, monkeypatch):
    def exhausted(code):
        raise MemoryError("Unable to allocate 20.5 GiB")
    monkeypatch.setattr(cli, "is_mds", exhausted)
    rc, out, err = run_cli(capsys, "analyze", "mds-check", "--code",
                           "prs:q=5,k=2")
    assert rc == 2 and not out
    assert "Unable to allocate 20.5 GiB" in err


def test_analyze_distance(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "distance", "--code", "rs:q=5,k=2",
                         "--word", "1,0,0,0,0")
    assert rc == 0
    data = json.loads(out)
    assert data["distance"] == 1
    assert data["nearest"] == "0,0,0,0,0"


@pytest.mark.parametrize("algo", ["mds", "brute"])
@pytest.mark.parametrize("word", ["9,0,0,0,0,0,0,0,0", "-1,0,0,0,0,0,0,0,0"])
def test_analyze_distance_rejects_entries_outside_the_field(capsys, algo, word):
    rc, out, err = run_cli(capsys, "analyze", "distance", "--code",
                           "rs:q=9,k=2", f"--word={word}", "--algo", algo)
    assert rc == 2 and out == ""
    assert "word entries must lie in [0, 9)" in err


def test_analyze_min_distance_and_mds(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "min-distance", "--code",
                         "prs:q=5,k=4")
    assert rc == 0
    assert json.loads(out) == {"code": "PRS(6,4)/F_5", "d": 3, "mds": True}
    rc, out, _ = run_cli(capsys, "analyze", "mds-check", "--code", "glynn:w=4")
    assert rc == 0
    assert json.loads(out)["mds"] is True


def test_analyze_nested_max(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "nested-max", "--code",
                         "rs:q=5,k=2", "--code2", "rs:q=5,k=3")
    assert rc == 0
    assert json.loads(out)["max_distance"] == 3


def test_ssp_command(capsys):
    rc, out, _ = run_cli(capsys, "ssp", "--q", "7", "--k", "3", "--target", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["valid"] is True and len(data["subset"]) == 3


def test_ssp_unsolvable_exit_2(capsys):
    rc, _, err = run_cli(capsys, "ssp", "--q", "5", "--k", "5", "--target", "1")
    assert rc == 2
    assert "unsolvable" in err


@pytest.mark.parametrize("target", ["7", "-1"])
def test_ssp_target_outside_the_field_exit_2(capsys, target):
    rc, _, err = run_cli(capsys, "ssp", "--q", "5", "--k", "2",
                         "--target", target)
    assert rc == 2
    assert f"got {target}" in err


@pytest.mark.parametrize("selector, key", [
    ("rs:q=5", "'k'"),
    ("rs:k=2", "'q'"),
    ("prs:k=2", "'q'"),
    ("prs:q=5", "'k'"),
    ("rs:q=5,k=2,evl=1+2+3", "'evl'"),
    ("prs:q=5,k=2,eval=1+2+3", "'eval'"),
    ("glynn:w=1,q=9", "'q'"),
])
def test_selector_with_a_missing_or_unknown_key_exit_2(capsys, selector, key):
    rc, _, err = run_cli(capsys, "analyze", "mds-check", "--code", selector)
    assert rc == 2
    assert key in err and "selector" in err


@pytest.mark.parametrize("selector", ["glynn", "rss:q=5,k=2"])
def test_selector_neither_a_kind_nor_a_file_names_the_grammar(capsys,
                                                             selector):
    rc, _, err = run_cli(capsys, "code", "--code", selector)
    assert rc == 2
    assert cli.SELECTOR in err and "No such file" not in err


def test_eval_written_with_commas_says_plus(capsys):
    rc, _, err = run_cli(capsys, "code", "--code", "rs:q=5,k=1,eval=1,2,3")
    assert rc == 2
    assert "eval takes '+'-separated points, e.g. eval=1+2+3" in err


def test_verify_boundary_exit_zero(capsys):
    rc, out, _ = run_cli(capsys, "verify", "boundary", "--format", "table")
    assert rc == 0
    assert "summary:" in out and " fail" in out


def test_verify_conj3_reports_failures_exit_one(capsys):
    rc, out, _ = run_cli(capsys, "verify", "conj3", "--q", "5", "--format",
                         "csv")
    assert rc == 1
    lines = out.strip().splitlines()
    assert lines[0] == "claim_id,q,k,expected,computed,status"
    eq = [ln for ln in lines if "conj3-equality" in ln]
    assert eq and all(ln.endswith("fail") for ln in eq)
    rad = [ln for ln in lines if "conj3-radius" in ln]
    assert rad and all(ln.endswith("pass") for ln in rad)


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("analyze", "mds-check", "--code", "prs:q=5,k=4", "--threads", "2"),
    ("verify", "boundary", "--mem-budget", "5"),
    ("analyze", "deep-holes", "--code", "prs:q=5,k=2", "--rho", "3"),
])
def test_options_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ("analyze", "radius", "--code", "prs:q=5,k=2"),
    ("analyze", "deep-holes", "--code", "prs:q=5,k=2"),
    ("verify", "boundary"),
])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_usage_errors(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", threads])
    assert exc.value.code == 2
    assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err


def test_json_output_deterministic(capsys):
    def strip_time(text):
        return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": 0', text)

    rc1, out1, _ = run_cli(capsys, "verify", "glynn")
    rc2, out2, _ = run_cli(capsys, "verify", "glynn")
    assert rc1 == rc2
    assert strip_time(out1) == strip_time(out2)
    rc1, out1, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                           "prs:q=5,k=3")
    rc2, out2, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                           "prs:q=5,k=3")
    assert strip_time(out1) == strip_time(out2)


def test_table_format(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "radius", "--code", "rs:q=5,k=2",
                         "--format", "table")
    assert rc == 0
    assert "rho" in out and "{" not in out


@pytest.mark.parametrize("selector, algo", [
    ("prs:q=5,k=2", "sweep"),     # extras and v values
    ("rs:q=5,k=2", "sweep"),      # no extras, no v
    ("prs:q=5,k=5", "sweep"),     # no family
    ("prs:q=5,k=3", "syndrome"),  # witness words
])
def test_listing_json_is_the_indented_dump(selector, algo):
    # the fixed-text listing writer against json.dumps(indent=2) of the
    # same report, here with notes that need escapes and nesting
    rep = dist.deep_holes(cli.build_code(selector), algo=algo)
    rep.notes = ['a "quoted"\nnote', {"nested": [1, [2]]}, []]
    assert ("".join(cli._listing_json(rep.to_json(records=False)))
            == json.dumps(rep.to_json(), indent=2))


@pytest.mark.parametrize("chunk", [1, 7, 360, 361])
def test_listing_json_in_chunks_is_the_same_text(capsys, monkeypatch, chunk):
    # PRS(6,2)/F_5 lists 360 deep holes: one record a chunk, a last short
    # chunk, exactly one chunk and one chunk with room to spare
    strip = re.compile(r'"elapsed_ms": [0-9.]+').sub
    rc, whole, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                           "prs:q=5,k=2")
    monkeypatch.setattr(cli, "LISTING_CHUNK", chunk)
    rc2, out, _ = run_cli(capsys, "analyze", "deep-holes", "--code",
                          "prs:q=5,k=2")
    assert rc == rc2 == 0
    assert strip("", out) == strip("", whole)
    cols = dist.deep_holes(cli.build_code("prs:q=5,k=2")).to_json(
        records=False)["deep_holes"]
    assert len(list(cli._records_json(cols))) == -(-360 // chunk) + 1
