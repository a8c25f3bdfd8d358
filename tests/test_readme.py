"""The README against the code and the committed bench files.

Every command of the CLI block runs and exits with the code the README
gives it, the CLI notes state the limits the code has, and every number
in "Performance" is read from the ``BENCH_*.json`` file it names, unless
its sentence says "not in a bench file".
"""

import io
import json
import re
import shlex
from pathlib import Path

from wblinks.classify import DEFAULT_BOUNDS, MAX_BOUNDS, SCAN_TABLES_BUDGET
from wblinks.cli import CLOSED_STDOUT, MAX_INDEX, MAX_WEIGHTS, main
from conftest import assert_no_process_left

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PINNED_P4 = ROOT / "tests" / "data" / "p4_bound39.csv"
NOT_IN_A_BENCH_FILE = "not in a bench file"


def section(name):
    """The text under ``## name``, up to the next second-level heading."""
    return README.split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def flat(text):
    return " ".join(text.split())


def bench(name):
    return json.loads((ROOT / name).read_text())


def named_file(key):
    """The bench file that "Performance" names in front of one of its keys."""
    return re.search(rf"`(BENCH_\w+\.json)` `{key}`", PERFORMANCE).group(1)


def kb_range(values):
    return f"{min(values):,}–{max(values):,} kB"


# --- CLI -----------------------------------------------------------------


def readme_cli_lines():
    """Each command of the README's CLI block with the exit code the README gives it.

    A command exits 0 unless its line ends in a comment ``# exit N``.
    """
    block = section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert all(line.startswith("wblinks ") for line in lines), lines
    return [
        (line, int(m.group(1)) if (m := re.search(r"# exit (\d+)", line)) else 0)
        for line in lines
    ]


def test_every_readme_cli_example_exits_as_documented(two_cpus, monkeypatch, tmp_path):
    """Each command, in a fresh directory, since one writes ``--out dim4.csv``."""
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_lines()
    assert len(examples) == 10
    assert "exit codes: 0 success, 2 invalid input, 3 only when `--expect`" in flat(section("CLI"))
    assert {code for _, code in examples} == {0, 2, 3}
    for line, documented in examples:
        assert main(shlex.split(line, comments=True)[1:], out=io.StringIO()) == documented, line
    assert_no_process_left()
    assert (tmp_path / "dim4.csv").read_bytes() == PINNED_P4.read_bytes()


def test_cli_notes_state_the_codes_limits():
    notes = flat(section("CLI"))
    for phrase in (
        f"take at most {MAX_WEIGHTS} weights",
        f"an index of at most {MAX_INDEX:,}",
        f"a bound of at most {MAX_BOUNDS[3]} in dimension 3 and {MAX_BOUNDS[4]} in dimension 4,"
        f" and at most {MAX_BOUNDS[3] // 2} and {MAX_BOUNDS[4] // 2} with `--stabilize`",
        f"{DEFAULT_BOUNDS[3]} for dimension 3",
        f"{DEFAULT_BOUNDS[4]} for dimension 4",
        f"and {CLOSED_STDOUT} when stdout or stderr is a pipe whose reader has gone",
        f"would pass a {SCAN_TABLES_BUDGET // 2**20} MiB budget",
    ):
        assert phrase in notes, phrase


# --- Performance ---------------------------------------------------------

PERFORMANCE = section("Performance")
PROSE = "\n".join(line for line in PERFORMANCE.splitlines() if not line.startswith("|"))
BENCH_FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
HEADER = re.compile(r"`(BENCH_\w+\.json)`, (\w{7}) → (\w{7})")
CELL = re.compile(r"(\d+\.\d{3}) → (\d+\.\d{3}) s \((\d+)\)")
NUMBER = re.compile(r"\d+(?:[.,]\d+)+")
STABILIZE_CSV = "classify --dim 4 --bound 16 --stabilize --format csv"


def tables():
    """Each Markdown table of "Performance" by its first header cell: (header, body rows)."""
    found, rows = {}, []
    for line in PERFORMANCE.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            header, _, *body = rows
            found[header[0]] = (header, body)
            rows = []
    return found


def bench_columns():
    """(file, parent, change) of each column of the bench table, from its header."""
    header, _ = tables()["workload"]
    return [HEADER.fullmatch(cell).groups() for cell in header[1:]]


def test_bench_table_has_a_column_for_every_bench_file():
    names = [name for name, _, _ in bench_columns()]
    assert sorted(names) == BENCH_FILES


def test_bench_table_headers_name_each_files_commits():
    """Each file holds whole hashes; CI checks out no history, so only their form is checked."""
    for name, parent, change in bench_columns():
        commits = bench(name)["commits"]
        assert sorted(commits) == ["change", "parent"], name
        assert all(re.fullmatch(r"[0-9a-f]{40}", commits[side]) for side in commits), name
        assert commits["parent"].startswith(parent), name
        assert commits["change"].startswith(change), name


def test_bench_table_cells_are_the_files_medians_and_pairs():
    _, body = tables()["workload"]
    workloads = [re.search(r"\(`(\w+)`\)$", row[0]).group(1) for row in body]
    for column, (name, _, _) in enumerate(bench_columns(), 1):
        summary = bench(name)["summary"]
        assert sorted(summary) == sorted(workloads), name
        for workload, row in zip(workloads, body):
            wall_s = summary[workload]["metrics"]["wall_s"]
            expected = (
                f"{wall_s['parent']['median']:.3f}",
                f"{wall_s['change']['median']:.3f}",
                str(summary[workload]["pairs"]),
            )
            assert CELL.fullmatch(row[column]).groups() == expected, (name, workload)


def test_cap_check_table_is_the_files_cap_check():
    name = named_file("cap_check")
    doc = bench(name)
    rows = doc["cap_check"]["rows"]
    assert {(r["code"], r["total"], r["stabilized"], r["result_sha"]) for r in rows} == {
        (0, 421, True, rows[0]["result_sha"])
    }
    header, body = tables()["cap check"]
    sides = {"parent": header[1], "change": header[2]}
    for side, short in sides.items():
        assert doc["commits"][side].startswith(short), side
    for row in body:
        jobs = int(re.fullmatch(r"`--jobs (\d)`", row[0]).group(1))
        for column, side in enumerate(sides, 1):
            runs = sorted((r for r in rows if r["side"] == side and r["jobs"] == jobs),
                          key=lambda r: r["round"])
            assert row[column] == " and ".join(f"{r['wall_s']:.1f}" for r in runs) + " s"


def bench_phrases():
    """The sentences of "Performance" that quote a bench file, as the files give them."""
    names = [name for name, _, _ in bench_columns()]
    machines = {json.dumps(bench(name)["machine"], sort_keys=True) for name in names}
    assert len(machines) == 1
    machine = json.loads(machines.pop())
    assert all("--seconds 30 " in bench(name)["command"] for name in names)

    imports = bench(named_file("import_time"))["import_time"]["import_pickle_cumulative_us"]

    cap_doc = bench(named_file("cap_check"))
    cap = cap_doc["cap_check"]["rows"]
    children = [r["children_maxrss_kb"] for r in cap if r["children_maxrss_kb"]]

    mem_doc = bench(named_file("memory_bound_40"))
    mem = mem_doc["memory_bound_40"]["rows"]
    short = {side: mem_doc["commits"][side][:7] for side in ("parent", "change")}

    def per_side(key):
        return " and ".join(
            kb_range([r[key] for r in mem if r["side"] == side and r[key]]) + f" at {commit}"
            for side, commit in short.items()
        )

    drift = bench(named_file("runs"))

    def spread(side):
        walls = [r["info"]["unscaled_wall_s"] for r in drift["runs"]
                 if r["workload"] == "p4_stabilize_csv" and r["side"] == side]
        return f"{min(walls):.3f}–{max(walls):.3f} s at {drift['commits'][side][:7]}"

    teardown = bench(named_file("teardown"))["teardown"]
    rounds = teardown["rounds"]
    site, bare = (teardown["median_ms"][STABILIZE_CSV][key] for key in ("site", "-S"))

    return [
        "30-second runs of the benchmark in `perfbench/`",
        f"{machine['vcpus']} vCPUs, Python {machine['python']}, "
        f"{'with' if machine['numba'] else 'no'} numba",
        f"whose import took {min(imports) / 1000:.1f}–{max(imports) / 1000:.1f} ms",
        f"`classify --dim 4 --bound {MAX_BOUNDS[4] // 2} --stabilize --expect {cap[0]['total']}` "
        f"is one scan at B = {MAX_BOUNDS[4]}, the dimension-4 cap",
        f"every run accepts the same {cap[0]['total']} quadruples",
        f"The command's own process peaked at {kb_range([r['self_maxrss_kb'] for r in cap])} "
        f"(`ru_maxrss`) on both sides and at both `--jobs` values, and the forked scan "
        f"process at {kb_range(children)}.",
        f"is {per_side('vmhwm_kb')}, with `--jobs 1` or 2; "
        f"the forked scan process peaks at {per_side('children_maxrss_kb')}.",
        f"spans {spread('parent')} and {spread('change')}, so only the two sides",
        f"From the last Python line of a `{STABILIZE_CSV}` process to its reaping took "
        f"{site['teardown']:.1f} ms with the interpreter's teardown and {site['os._exit']:.1f} ms "
        f"without it (medians of {rounds} fresh processes each",
        f"the same took {bare['teardown']:.1f} and {bare['os._exit']:.1f} ms: "
        f"{bare['saved']:.1f} ms is the saving on a clean interpreter.",
    ]


def test_every_named_bench_key_exists():
    for name, key in re.findall(r"`(BENCH_\w+\.json)` `(\w+)`", PERFORMANCE):
        assert key in bench(name), (name, key)


def test_performance_quotes_the_bench_files():
    text = flat(PERFORMANCE)
    for phrase in bench_phrases():
        assert phrase in text, phrase


def test_every_number_in_performance_is_checked():
    """Tables are checked cell by cell above; in the prose a number is quoted or marked."""
    checked = set(NUMBER.findall(" ".join(bench_phrases())))
    for sentence in re.split(r"(?<=\.)\s+", flat(PROSE)):
        if NOT_IN_A_BENCH_FILE not in sentence:
            assert set(NUMBER.findall(sentence)) <= checked, sentence
