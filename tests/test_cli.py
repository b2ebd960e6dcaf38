import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from corehooks import _abacus, cli, verify
from corehooks.cli import main
from corehooks.generate import partitions_of
from corehooks.partition import hook_lengths_of

from conftest import walker_cores_of

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
WORKLOADS = REFERENCE.with_name("workloads.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_single_value(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "count", "--t", "4", "--k", "1", "--n", "4")
    assert code == 0
    assert out == "1\n"
    # --out gets the bytes stdout would have
    target = tmp_path / "count.csv"
    code, out, _ = run_cli(capsys, "count", "--t", "4", "--k", "1", "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "1\n"


def test_count_rejects_negative_n(capsys):
    code, _, err = run_cli(capsys, "count", "--t", "9", "--k", "1", "--n", "-3")
    assert code == 2
    assert "error" in err


def test_count_range_csv(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--t", "4", "--k", "1,3", "--n", "3..4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,t,k,value"
    # hand enumeration: 4-cores of 3 are (3), (2,1), (1,1,1) with hook
    # multisets {3,2,1}, {3,1,1}, {3,2,1}; the 4-core of 4 is (2,2)
    assert lines[1:] == ["3,4,1,4", "3,4,3,3", "4,4,1,1", "4,4,3,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["conj-scan", "--t", "5", "--ks", "1,0,-3", "--n-max", "12", "--format", "csv"],
        ["conj-scan", "--ks", "1,0", "--relations", ">=", "--n-max", "12"],
        ["count", "--t", "4", "--k", "0", "--n", "3"],
        ["count", "--t", "4", "--k", "1,-2", "--n", "3..4"],
    ],
)
def test_nonpositive_hook_length_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "corehooks: error: hook lengths must be positive\n"


# The usage-error contract: each invocation exits 2 with nothing on
# stdout and exactly this line on stderr.  Where several checks could
# fire, the message shows which comes first.
ERROR_CONTRACT = [
    ("count --t 1 --k 1 --n 3", "t must be at least 2, got 1"),
    ("count --t 1 --k 1,2 --n 3..5", "t must be at least 2, got 1"),
    ("count --t 3 --k 1 --n 5..3", "invalid n range '5..3'"),
    ("count --t 3 --k x --n 3", "k must be an integer, got 'x'"),
    ("count --t 3 --k , --n 3", "k must not be empty"),
    ("count --t 3 --k 1 --n 3 --exclude 0", "excluded part values must be positive"),
    ("count --t 3 --k 1 --n 3 --min-part 0", "min-part must be positive, got 0"),
    ("count --t 1 --k 1 --n 3 --min-part 0", "min-part must be positive, got 0"),
    ("series --t 1", "t must be at least 2, got 1"),
    ("series --t 3 --order -1", "order must be non-negative, got -1"),
    ("series --t 1 --order -1", "t must be at least 2, got 1"),
    ("enum --n 3..4", "enum takes a single n"),
    ("enum --n 5 --t 1", "t must be 0 or at least 2, got 1"),
    ("quadform --h-max 1", "h-max must be at least 2, got 1"),
    ("verify --check thm13 --n-max 0", "n-max must be positive, got 0"),
    ("conj-scan --n-max -1", "n-max must be non-negative, got -1"),
    ("conj-scan --n-max 5 --t 1", "t must be at least 2, got 1"),
    ("conj-scan --n-max 5 --ks 1,2,3 --relations >=", "need 2 relations for 3 hook lengths"),
    ("conj-scan --n-max 5 --ks 1,3 --relations >>", "unknown relation '>>'; use >=, <= or ="),
    ("conj-scan --n-max 5 --t 1 --ks 1,3 --relations >>", "t must be at least 2, got 1"),
    ("conj-scan --n-max 5 --exclude 0", "excluded part values must be positive"),
    ("conj-scan --n-max 5 --min-part 0", "min-part must be positive, got 0"),
    ("enum --n 5 --exclude 0", "excluded part values must be positive"),
    # integers are ASCII decimal digits only; int() alone takes each of these
    ("count --t 3 --k 1_0 --n 3", "k must be an integer, got '1_0'"),
    ("count --t 3 --k 1 --n ３", "n must be an integer, got '３'"),
    ("count --t 3 --k 1 --n 0_3", "n must be an integer, got '0_3'"),
    ("count --t 3 --k 1 --n 1_0..1_2", "n range start must be an integer, got '1_0'"),
    ("count --t 3 --k 1 --n 10..1_2", "n range end must be an integer, got '1_2'"),
    ("enum --n 5 --exclude ３", "exclude must be an integer, got '３'"),
    ("conj-scan --n-max 5 --ks 1,0_3", "ks must be an integer, got '0_3'"),
    # a csv table has no place for the dump, and the scan is not run
    ("conj-scan --t 5 --ks 1,3,6 --n-max 100 --format csv --seed-dump",
     "--seed-dump needs --format text or json, not csv"),
]


@pytest.mark.parametrize("argv,message", ERROR_CONTRACT, ids=[a for a, _ in ERROR_CONTRACT])
def test_usage_error_contract(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"corehooks: error: {message}\n")


@pytest.mark.parametrize(
    "argv,option,value",
    [
        ("verify --check thm14 --n-max 1_000", "--n-max", "1_000"),
        ("count --t ５ --k 1 --n ４", "--t", "５"),
        ("count --t 3 --k 1 --n 4 --min-part 0_3", "--min-part", "0_3"),
        ("enum --n 5 --t ３", "--t", "３"),
        ("series --t 3 --order 1_0", "--order", "1_0"),
        ("conj-scan --n-max 1_0", "--n-max", "1_0"),
        ("conj-scan --n-max 10 --t ５", "--t", "５"),
        ("quadform --h-max +30", "--h-max", "+30"),
    ],
)
def test_integer_options_take_ascii_decimal_only(capsys, argv, option, value):
    # argparse reads these options with the parser of _parse_int, and its
    # message names the option
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    sub = argv.split()[0]
    assert err.endswith(
        f"corehooks {sub}: error: argument {option}: must be an integer, got {value!r}\n"
    )


def test_integers_may_have_leading_zeros(capsys):
    assert run_cli(capsys, "count", "--t", "05", "--k", "01,3", "--n", "03..004") == run_cli(
        capsys, "count", "--t", "5", "--k", "1,3", "--n", "3..4"
    )


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    # the allocation failure is staged: nothing large is allocated
    def exhausted(t, order):
        raise MemoryError

    monkeypatch.setattr(cli, "core_count_series", exhausted)
    code, out, err = run_cli(capsys, "series", "--t", "4", "--order", "10")
    assert (code, out, err) == (2, "", "corehooks: error: out of memory\n")


def test_conj_scan_defaults_are_the_conj15_row():
    # conj-scan restates the conjectured chain as its defaults; they must
    # stay the conj15 row that verify checks
    args = cli._build_parser().parse_args(["conj-scan", "--n-max", "5"])
    _, chains, relations, f = verify._CHAINS["conj15"]
    ks = cli._parse_hook_lengths(args.ks, "ks")
    assert [[(args.t, k) for k in ks]] == chains
    assert args.relations.split(",") == relations
    assert cli._parse_filter(args.exclude, args.min_part) == f


def _walker_hooks(n, t):
    """Hook-length totals over the t-cores of n from the part-by-part
    walker of conftest, which shares nothing with the abacus."""
    return Counter(h for parts in walker_cores_of(n, t) for h in hook_lengths_of(parts))


@pytest.mark.parametrize("t", [60, 2000])
def test_count_with_t_above_n_matches_walker(capsys, t):
    code, out, _ = run_cli(capsys, "count", "--t", str(t), "--k", "1", "--n", "30")
    assert code == 0
    assert out == f"{_walker_hooks(30, t)[1]}\n" == "23025\n"
    code, out, _ = run_cli(capsys, "count", "--t", str(t), "--k", "2,7,30", "--n", "27..29")
    assert code == 0
    want = []
    for n in range(27, 30):
        hooks = _walker_hooks(n, t)
        want += [f"{n},{t},{k},{hooks[k]}" for k in (2, 7, 30)]
    assert out.splitlines() == ["n,t,k,value"] + want


def test_count_makes_one_walk_per_window(capsys, monkeypatch):
    # t > n: one walk over the window 27..29 on hi + 1 = 30 runners
    calls = []
    real = _abacus.core_runs

    def counted(t, m, lo, hi, paired=False):
        calls.append((t, m, lo, hi))
        return real(t, m, lo, hi, paired)

    monkeypatch.setattr(_abacus, "core_runs", counted)
    code, _, _ = run_cli(capsys, "count", "--t", "60", "--k", "2,7,30", "--n", "27..29")
    assert code == 0
    assert calls == [(30, 1, 27, 29)]


def test_restricted_count_makes_one_walk(capsys, monkeypatch):
    # a filter with no part below 3 walks N^(t-3) once for the window,
    # never the lattice of every core
    calls = []
    real = _abacus.core_runs

    def counted(t, m, lo, hi, paired=False):
        calls.append((t, m, lo, hi))
        return real(t, m, lo, hi, paired)

    monkeypatch.setattr(_abacus, "core_runs", counted)
    code, _, _ = run_cli(
        capsys, "count", "--t", "5", "--k", "1,3", "--n", "27..29", "--exclude", "1,2"
    )
    assert code == 0
    assert calls == [(5, 3, 27, 29)]


def test_conj_scan_with_t_above_n(capsys):
    code, out, err = run_cli(
        capsys, "conj-scan", "--t", "2000", "--ks", "1,2", "--relations", ">=",
        "--n-max", "20", "--format", "csv",
    )
    assert code == 0 and err == ""
    rows = [[int(v) for v in line.split(",")[2:]] for line in out.splitlines()[1:]]
    hooks = [_walker_hooks(n, 2000) for n in range(21)]
    assert rows == [[h[1], h[2]] for h in hooks]


def _pins():
    """Every tiny pin of bench/reference.json, and the full pins of the
    sweep and nocore workloads (their invocations are listed in
    bench/workloads.json)."""
    pins = json.loads(REFERENCE.read_text())["pins"]
    workloads = json.loads(WORKLOADS.read_text())
    full = {
        " ".join(spec["argv"]) for name in ("sweep", "nocore") for spec in workloads[name]["full"]
    }
    return sorted(pins["tiny"].items()) + sorted(
        (k, v) for k, v in pins["full"].items() if k in full
    )


@pytest.mark.parametrize("invocation,pin", _pins(), ids=[k for k, _ in _pins()])
def test_output_matches_benchmark_pin(capsys, tmp_path, monkeypatch, invocation, pin):
    # the benchmark pins exit code and stdout of these invocations; a change
    # in the CLI's bytes fails here before it fails the benchmark
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *invocation.split())
    assert code == pin["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


def test_count_json_and_restriction(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "--t", "4", "--k", "1", "--n", "9..9",
        "--exclude", "1,2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"n": 9, "t": 4, "k": 1, "value": 2}]


def test_enum_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "6", "--t", "4")
    assert code == 0
    assert out.splitlines() == ["[4,1,1]", "[3,2,1]", "[3,1,1,1]"]
    # each line parses as JSON
    assert [json.loads(line) for line in out.splitlines()]


def test_seed_dump_with_csv_is_refused_before_the_scan(capsys, monkeypatch):
    def scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "bias_table", scan)
    code, out, err = run_cli(capsys, "conj-scan", "--n-max", "10", "--format", "csv", "--seed-dump")
    assert (code, out, err) == (2, "", "corehooks: error: --seed-dump needs --format text or json, not csv\n")


def test_enum_takes_no_format(capsys):
    # enum prints one partition per line whatever is asked; --format is
    # not one of its options
    code, out, err = run_cli(capsys, "enum", "--n", "3", "--format", "jsonl")
    assert (code, out) == (2, "")
    assert err.endswith("corehooks: error: unrecognized arguments: --format jsonl\n")


def test_enum_all_partitions(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]


@pytest.mark.parametrize(
    "argv,expect",
    [
        (["enum", "--n", "3", "--min-part", "5"], ""),
        (["enum", "--n", "20", "--min-part", "21"], ""),
        (["enum", "--n", "0", "--min-part", "3"], "[]\n"),
    ],
)
def test_enum_with_no_partition_prints_nothing(capsys, argv, expect):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expect, "")


def test_filtered_enum_costs_its_output(capsys):
    # every partition of 400 into parts >= 150 has at most two parts; the
    # walk never goes through the other p(400) ~ 6.7e18 partitions
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "enum", "--n", "400", "--min-part", "150")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines() == ["[400]"] + [f"[{a},{400 - a}]" for a in range(250, 199, -1)]
    assert len(out.splitlines()) == 52
    assert elapsed < 1.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_enum_peak_memory_is_bounded():
    # p(60) = 966,467 lines, about 30 MB of text: neither the output nor
    # the suffix table may be held whole.  The child reads its own VmHWM;
    # ru_maxrss would carry the high-water RSS of pytest across exec.
    child = (
        "from corehooks.cli import main\n"
        "code = main(['enum', '--n', '60', '--out', '/dev/null'])\n"
        "print(code, [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0])"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    code, _, kib, unit = proc.stdout.split()
    assert (code, unit, proc.stderr) == ("0", "kB", "")
    assert int(kib) < 40 * 1024


def test_enum_of_large_n_streams_into_closed_pipe():
    # p(2000) has 45 digits: only a streaming enum can print its first lines
    proc = subprocess.Popen(
        [sys.executable, "-m", "corehooks", "enum", "--n", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[2000]\n"
    assert proc.stdout.readline() == b"[1999,1]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# stdout SHA-256 recorded before enum --n wrote its text from a suffix table
# and before the t-core series divided by the pentagonal series; the
# benchmark pins cover only unfiltered enum and t = 9.  The json verdict
# reports, failing ones with --seed-dump among them, were recorded while
# BiasRecord still had a witness field; they pin each row's "witness": null.
RECORDED_SHA256 = [
    ("enum --n 40 --exclude 1,3", 0, "cb96f1d2eb648ce68aec9ffbad58f2a9402ed8e4f1fabf037fa8d59ee02a09ce"),
    ("enum --n 40 --min-part 4", 0, "18ebaefafd45845f0a2cbe0458d3029a3a63687dfc89c128c5f3506387098a7e"),
    ("series --t 2 --order 3000 --format json", 0, "3a09b0022bc96ea01928afcf274c07592d0526393e3462f1415e1efbfea5a333"),
    ("series --t 4 --order 3000 --format json", 0, "418823c13887815233bdbb47727f0f427c0f6b9c7c50642fbfa8a59e386a6f1a"),
    ("series --t 13 --order 3000 --format json", 0, "e8c70227b5c894a8755fc7e0c8648ccf371afeb49a9c0087f2843c093b2c5f09"),
    ("conj-scan --t 5 --ks 1,3,6 --n-max 100 --format json --seed-dump", 1, "d4015614d8d20f35a43f67ecc478085935c071af981929972d5254b097331cb0"),
    ("verify --check conj15 --n-max 100 --format json --seed-dump", 1, "2c5493448b8870bb69a93be0bd6c1a866da7d553b11dc9fc8f04c4087b1e75bd"),
    ("verify --check thm19 --n-max 60 --format json", 0, "b0dd9d82fac4778a084c730034f5c8f3ad202f0a21433eac639be9af8594c40a"),
    ("conj-scan --t 3 --ks 2,1 --relations >= --n-max 6 --format json", 1, "ba7d1ef4729546fa1aebce29d369549f21bae6ce999015150c235503e7d3ff09"),
    ("verify --check thm16 --n-max 1000 --format json", 0, "8483aa3bcd09473b3625572191943f4177190ea0857a56b9192db5c50cb769a4"),
    ("verify --check thm19 --n-max 400 --format json", 0, "6efe2c6e32f7de00ab379bf61f113524566ab08c4922e6ea6d7f47bada6ec0ad"),
    # recorded while every core with part 1 still came from a charge-vector
    # walk of its own: ordered streams at t = 6 and 7, a point query at
    # n = 20000, a paired range at t = 6 and a restricted point query
    ("enum --t 6 --n 60", 0, "f46fa95cbacfef651052088afa6b302f246e38b6351b2ec51d00a06bace74d40"),
    ("enum --t 7 --n 50 --exclude 2", 0, "72c30ecde7a49df4e285a2758ed8ef31225eee87a81b362171a56aff31dd4779"),
    ("count --t 5 --k 1,3,6 --n 20000 --format json", 0, "c8f476d3265a934be3e765297c199a7e27afd997690ad5bf71f6d7bc6ef91adf"),
    ("count --t 6 --k 1,5 --n 150..160 --format json", 0, "e0f7ed35bb76d8d3c49a936dfeedaf843ac660855054db3e125394855d7a9d3d"),
    ("count --t 5 --k 1,3 --n 2000 --min-part 3 --format json", 0, "58b1c9095df0b147b3510c4c2901ff094d9776342bda435fb69129b9e575dc7d"),
    # recorded while count --n lo..hi still made one walk per n and the
    # region scan built every diagram while samples were pending
    ("count --t 5 --k 1,3,6 --n 0..150 --format json", 0, "a62d6a38f976bb2a5cbd851de4cb2c7151325564ff5d34cb506fa265d3bc7068"),
    ("count --t 4 --k 1,3 --n 95..100 --exclude 1,2", 0, "999ff30e656bb5257666176eace0f13f8699c1f8a1d009079dda065705130fd3"),
    ("count --t 60 --k 2,7,30 --n 27..29 --format json", 0, "1dc35c2fc5a35d9b3f6a81116056ec978598d4f0ff07b5b88d5ead7400afb484"),
    ("verify --check region --n-max 14 --format json", 0, "9ce6bb261f767cfd1837e0dcaa7e285cc7c9cc8affcfa797a0ff05aeabbc7c18"),
    # recorded while every remainder up to 14 was finished from the suffix
    # table and partitions_of still walked every partition of n; each of
    # these reaches remainders beyond 14
    ("enum --n 46", 0, "c883fc674d28098fc1921b34a4d4e9be40416947cb17b596919b99ea84562940"),
    ("enum --n 60 --min-part 4", 0, "dede49d6fed2e17d90f20ed81d7206dbf87e5441d9d771c1c3790024c8eb5b33"),
    ("enum --n 90 --min-part 7", 0, "b942d2962c4ce8b6bd71fc9185cdfb2b57f8a23227a4892f324cbf2de7341922"),
    ("enum --n 70 --exclude 1,3,5", 0, "c3616a569930d210bc7367378e8c73c57d7904fe80967d9eb223480dc23fdad8"),
    ("verify --check region --n-max 25 --format json", 0, "f6ab64f6d42ae6cf251494bb187c42d900b896a231f9063f3d384bcbaeeef247"),
    # recorded while the paired walk kept the core of each conjugate pair
    # with x_0 + x_{t-1} >= 0: a paired range at t = 7 and 9, an ordered
    # stream holding the pair (5,5,2,2,1), (5,4,2,2,2) with largest part
    # equal to length, and prop21's paired tables
    ("conj-scan --t 7 --ks 1,6 --relations >= --n-max 80 --format csv", 0, "624cfa7cd35fec4e7a237e5f59598dca542e81d9f2fde6a3d33108cdae58d58b"),
    ("count --t 9 --k 1,8,10 --n 0..45 --format json", 0, "844e9aba57b2152855e682d430f2dfcdb7a3cbf8ce468b8b78d9b206bbfa9d3a"),
    ("enum --t 5 --n 15", 0, "e2a960dc84ffb2eef8608169a63da05674c900e0dbe0c5e3d8c8dfeae1da42ce"),
    ("verify --check prop21 --n-max 300 --format json", 0, "558f48fe814685043af42ba9cc88d075eac54f515e7382703103c16ad0150368"),
    # recorded while core_count_series made each c_n in its own sum and a
    # csv line joined str() of each value: the nocore series, t > order
    # across several blocks of sizes, order 0, named-tuple rows and a count
    # range
    ("series --t 9 --order 2000", 0, "154ee4ad95b424508cf26005a935b7ca6705b8717d408eb1b8013f0766144f39"),
    ("series --t 40 --order 300", 0, "1fdc17cf9d72ed6f2c2857dde37e0b77cdff84cbde942f7fea0114f37c8c7db4"),
    ("series --t 2 --order 0", 0, "57c5e1f94a70328b102d0adfa0ee3d7181e8c7fcf88122a199f866a8782a0dd6"),
    ("quadform --h-max 60 --format csv", 0, "8aa6b5b60223c9fc58791368a913912b082ad16c46e587566eee5b337aa56451"),
    ("count --t 5 --k 1,3,6 --n 0..300", 0, "d801d7cb1da30e3caa94b5ad7451a0af5f0bbeb6271b3fe8a8ead971f09c8f4d"),
    # recorded while core_count_series added its near pentagonal terms
    # through two maps per size, the region scan shifted 1 for each beta
    # and the odd-representation screen stopped at the primes below 50:
    # each beyond the benchmark's sizes
    ("quadform --h-max 3000 --format csv", 0, "a4f3e5ce924b6664de040d1832fc79f804fdea09fa4e7c2303d81c447f97417a"),
    ("series --t 5 --order 5000", 0, "be342415934297ae561e1bf735b563573982da0e72a348f110ac3231dc86fddb"),
    ("verify --check region --n-max 27 --format json", 0, "61b7639bfd443693dd4c3f4ea466a6a1fa3c0b85ca1cbe0bcd3afdb2ee234d4b"),
]


@pytest.mark.parametrize(
    "argv,code,sha256", RECORDED_SHA256, ids=[f"{a}-{h}" for a, _, h in RECORDED_SHA256]
)
def test_output_matches_recorded_sha256(capsys, argv, code, sha256):
    rc, out, _ = run_cli(capsys, *argv.split())
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# text-format verdicts that fail, each run in an empty directory: stdout
# SHA-256 and the one report file it leaves, as recorded before verify and
# conj-scan wrote their reports through one writer
RECORDED_REPORTS = [
    ("verify --check conj15 --n-max 100",
     "41dc5b06ab104311d6b46353295deddca7b32991d037c14f428418cf9bd9ae5b",
     "corehooks-conj15-report.json",
     "b348bff37b37b5f7952e423f374dbad5c687b0653617951e0a8064425104f46d"),
    ("verify --check conj15 --n-max 100 --seed-dump",
     "41dc5b06ab104311d6b46353295deddca7b32991d037c14f428418cf9bd9ae5b",
     "corehooks-conj15-report.json",
     "472b9accebfeeea2b408030cbc80f8736d56093ffadaaff5a3055c170302e740"),
    ("verify --check conj15 --n-max 100 --out r2.json",
     "4f6b4a34a8dcfc84e69ba1763384aad3eea4eb6196c25bd0826a0ec20a3c0093",
     "r2.json",
     "b348bff37b37b5f7952e423f374dbad5c687b0653617951e0a8064425104f46d"),
    ("conj-scan --n-max 100",
     "7aa4663ca461e4fad208c302af56052a0475f268bac0df895b0bf091637c5a2b",
     "corehooks-scan-t5-report.json",
     "8b0faaafc80afd33fa7a2645dde19cd18789398be8148b392d2d8e06769b1de9"),
    ("conj-scan --n-max 100 --seed-dump",
     "7aa4663ca461e4fad208c302af56052a0475f268bac0df895b0bf091637c5a2b",
     "corehooks-scan-t5-report.json",
     "cbe82d6c15f1866248591d7b8451d6bc5354393abf107fad2b54c9e4a33b81db"),
    ("conj-scan --n-max 100 --out r3.json",
     "3fb17b91e5fa0ce3b162e2c87534315ba3e5e4c70ef2034c1d7750be7bbf316f",
     "r3.json",
     "8b0faaafc80afd33fa7a2645dde19cd18789398be8148b392d2d8e06769b1de9"),
]


@pytest.mark.parametrize(
    "argv,stdout_sha,report,report_sha", RECORDED_REPORTS, ids=[r[0] for r in RECORDED_REPORTS]
)
def test_failing_verdict_writes_recorded_report(
    capsys, tmp_path, monkeypatch, argv, stdout_sha, report, report_sha
):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert [p.name for p in tmp_path.iterdir()] == [report]
    assert hashlib.sha256((tmp_path / report).read_bytes()).hexdigest() == report_sha


@pytest.mark.parametrize(
    "restriction,suffix",
    [
        (["--min-part", "2"], ",min_part=2"),
        (["--exclude", "1"], ",exclude=1"),
        (["--exclude", "3", "--min-part", "2"], ",exclude=3,min_part=2"),
    ],
)
def test_seed_dump_keys_name_the_filter(capsys, restriction, suffix):
    # no part 1 and parts of at least 2 are the same restriction; the keys
    # name it either way, so "t=4,n=2" never labels only some 4-cores of 2
    code, out, _ = run_cli(
        capsys, "conj-scan", "--t", "4", "--ks", "3,1", "--relations", ">=",
        "--n-max", "12", "--format", "json", "--seed-dump", *restriction,
    )
    assert code == 1
    assert json.loads(out)["seed_dump"] == {
        f"t=4,n=2{suffix}": ["[2]"],
        f"t=4,n=7{suffix}": ["[5,2]"],
        f"t=4,n=8{suffix}": ["[4,2,2]"],
    }


class WriteRecorder:
    """A stdout stand-in with only write and flush."""

    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)

    def flush(self):
        pass


def test_enum_streams_in_chunks(monkeypatch):
    rec = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", rec)
    assert main(["enum", "--n", "30"]) == 0
    expect = "".join(f"{p}\n" for p in partitions_of(30))
    assert expect.count("\n") == 5604
    assert "".join(rec.writes) == expect
    assert len(rec.writes) > 1


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "--t", "2", "--order", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    ones = [int(l.split(",")[0]) for l in lines[1:] if l.endswith(",1")]
    assert ones == [0, 1, 3, 6, 10]


def test_series_rejects_bad_t(capsys):
    code, _, err = run_cli(capsys, "series", "--t", "1", "--order", "10")
    assert code == 2 and "error" in err


def test_verify_holds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "thm14", "--n-max", "60")
    assert code == 0
    assert "HOLDS" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "region", "--n-max", "10", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["failures"] == []
    assert report["witness_samples"]


# witness_samples of `verify --check region --n-max 25 --format json`, as
# recorded from the earlier scan that built a reach grid for every cell
REGION_25_SAMPLES = [
    ("[2]", [1, 1], 2, 1, [1, 2]),
    ("[1,1]", [1, 1], 2, 1, [2, 1]),
    ("[3]", [1, 1], 3, 1, [1, 3]),
    ("[4]", [1, 1], 4, 2, [1, 3]),
    ("[3,1]", [1, 1], 4, 2, [1, 2]),
    ("[2,1,1]", [1, 1], 4, 2, [2, 1]),
    ("[6]", [1, 1], 6, 3, [1, 4]),
    ("[5,1]", [1, 1], 6, 3, [1, 3]),
    ("[4,1,1]", [1, 1], 6, 3, [1, 2]),
    ("[8]", [1, 1], 8, 4, [1, 5]),
    ("[7,1]", [1, 1], 8, 4, [1, 4]),
    ("[6,1,1]", [1, 1], 8, 4, [1, 3]),
    ("[10]", [1, 1], 10, 5, [1, 6]),
    ("[9,1]", [1, 1], 10, 5, [1, 5]),
    ("[8,1,1]", [1, 1], 10, 5, [1, 4]),
    ("[12]", [1, 1], 12, 6, [1, 7]),
    ("[11,1]", [1, 1], 12, 6, [1, 6]),
    ("[10,1,1]", [1, 1], 12, 6, [1, 5]),
    ("[14]", [1, 1], 14, 7, [1, 8]),
    ("[13,1]", [1, 1], 14, 7, [1, 7]),
    ("[12,1,1]", [1, 1], 14, 7, [1, 6]),
]


def test_verify_region_witness_samples_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "region", "--n-max", "25", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    keys = ("partition", "hook_cell", "hook_len", "t", "witness_cell")
    assert report["witness_samples"] == [dict(zip(keys, s)) for s in REGION_25_SAMPLES]


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "bogus", "--n-max", "10")
    assert code == 2


def test_conj_scan_holds(capsys):
    code, out, _ = run_cli(capsys, "conj-scan", "--n-max", "40")
    assert code == 0
    assert "holds" in out


def test_conj_scan_counterexample_writes_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys,
        "conj-scan", "--n-max", "5", "--t", "3", "--ks", "2,1",
        "--relations", ">=", "--seed-dump",
    )
    assert code == 1
    path = tmp_path / "corehooks-scan-t3-report.json"
    assert path.exists()
    report = json.loads(path.read_text())
    assert report["holds"] is False
    assert [f["n"] for f in report["failures"]] == [1, 4]
    assert report["seed_dump"]["t=3,n=4"] == ["[3,1]", "[2,1,1]"]


def test_conj_scan_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "conj-scan", "--n-max", "7", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,verdict,5.1,5.3,5.6"
    assert len(lines) == 9
    # totals over the 5-cores of 7, fixed by hand from the six cores
    assert lines[-1].startswith("7,HOLDS,")


def test_conj_scan_json_mirrors_table(capsys):
    code, out, _ = run_cli(
        capsys, "conj-scan", "--n-max", "4", "--format", "json",
        "--t", "3", "--ks", "1,2", "--relations", ">=",
    )
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    recs = report["records"]
    assert [r["n"] for r in recs] == [0, 1, 2, 3, 4]
    assert recs[4]["values"] == {"3.1": 4, "3.2": 2}
    assert recs[3]["verdict"] == "NOT-APPLICABLE"


def test_quadform_json(capsys):
    code, out, _ = run_cli(capsys, "quadform", "--h-max", "3", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    assert recs[0] == {"h": 2, "x": 3, "y": 1, "z": 3, "m": 1, "r": 0, "s": 1}
    for r in recs:
        assert r["x"] ** 2 + 2 * r["y"] ** 2 + 2 * r["z"] ** 2 == (2 * r["h"] + 1) ** 2 + 4


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--t", "3", "--k", "1,2", "--n", "0..12"],
        ["series", "--t", "4", "--order", "0"],
        ["series", "--t", "4", "--order", "300"],
        ["quadform", "--h-max", "2"],
        ["quadform", "--h-max", "1200"],
    ],
    ids=["count", "series0", "series300", "quadform2", "quadform1200"],
)
def test_json_table_has_the_bytes_of_json_dumps(capsys, argv):
    # the expected text comes from the csv table through the json module
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = csv_out.splitlines()
    rows = [map(int, line.split(",")) for line in lines]
    expected = json.dumps([dict(zip(header.split(","), row)) for row in rows], indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == expected


def test_json_table_edge_cases(capsys):
    from argparse import Namespace

    from corehooks.cli import _write_table

    args = Namespace(format="json", out=None)
    _write_table(args, ("n", "value"), [])
    assert capsys.readouterr().out == "[]\n"
    with pytest.raises(TypeError):
        _write_table(args, ("n", "value"), [(1, "2")])
    assert capsys.readouterr().out == ""


def test_output_file(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(
        capsys, "series", "--t", "3", "--order", "5", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,coefficient\n")
    # the temp file was renamed onto the target, not left beside it
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]


def test_output_file_through_symlink_keeps_mode(capsys, tmp_path):
    target = tmp_path / "series.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(
        capsys, "series", "--t", "3", "--order", "5", "--out", str(link)
    )
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("n,coefficient\n")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "series.csv"]


def test_output_to_devnull(capsys):
    # a target that is not a regular file is written in place, not replaced
    code, out, err = run_cli(
        capsys, "series", "--t", "3", "--order", "5", "--out", os.devnull
    )
    assert code == 0 and out == "" and err == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--t", "3", "--order", "5"],
        # text-mode reports of a failing check and a failing scan
        ["verify", "--check", "conj15", "--n-max", "93"],
        ["conj-scan", "--n-max", "5", "--t", "3", "--ks", "2,1", "--relations", ">="],
    ],
    ids=["out", "verify-report", "conj-scan-report"],
)
@pytest.mark.parametrize("target_is_dir", [False, True], ids=["missing-dir", "dir"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, target_is_dir):
    # a missing directory fails on the temp file; a target that is a
    # directory is not a regular file, so it fails on the open in place
    target = tmp_path / "target"
    if target_is_dir:
        target.mkdir()
    else:
        target = target / "report"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert err.startswith("corehooks: error: ") and str(target) in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == (["target"] if target_is_dir else [])


@pytest.mark.parametrize(
    "argv, name",
    [
        (["count", "--t", "3", "--k", "1,2", "--n", "0..3"], "nodir"),
        (["count", "--t", "3", "--k", "1,2", "--n", "0..3"], "f"),
        (["verify", "--check", "conj15", "--n-max", "93"], "nodir"),
    ],
    ids=["missing", "existing-file", "verify-report"],
)
def test_output_path_ending_in_separator_exits_2(capsys, tmp_path, argv, name):
    # a trailing separator names a directory: open refuses it, so the
    # file named without it is neither replaced nor created, and no
    # report path is printed
    (tmp_path / "f").write_text("kept\n")
    target = str(tmp_path / name) + os.sep
    code, out, err = run_cli(capsys, *argv, "--out", target)
    assert code == 2 and "report:" not in out
    assert err.startswith("corehooks: error: ") and repr(target) in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert (tmp_path / "f").read_text() == "kept\n"


def test_failed_rename_removes_temp_file(capsys, tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    target = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, "series", "--t", "3", "--order", "5", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("corehooks: error: ") and str(target) in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_enum_into_closed_pipe_exits_quietly():
    # enum --n 40 writes about 1.8 MB, far more than a pipe buffers, so the
    # reader's close lands while enum is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "corehooks", "enum", "--n", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[40]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "corehooks", "count", "--t", "4", "--k", "2", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_cold_start_imports_no_introspection_modules():
    # every CLI run pays for what importing corehooks.cli loads; -S leaves
    # out the site hooks, so only what corehooks itself imports is seen
    import corehooks

    root = Path(corehooks.__file__).resolve().parent.parent
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, corehooks.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
