#!/usr/bin/env python3
"""Docs consistency gate (CI `docs` job).

Checks, over every tracked markdown file:

1. Intra-repo markdown links `[text](path)` resolve to a real file
   (relative to the doc, then to the repo root). External URLs and
   pure anchors are ignored.
2. Backticked repo paths (`src/...`, `docs/...`, `tools/...`, top-level
   `*.md`, ...) name files that exist — catches docs drifting behind
   renames. Generated artifacts (`build/`, `results/`, runtime outputs)
   are out of scope.
3. Every `--flag` a doc shows on a `deepstrike` command line exists in
   the CLI. The flag inventory is parsed from tools/deepstrike_cli.cpp
   (the add_option/add_flag registrations that produce --help), so the
   check needs no compiled binary; lines invoking other tools (cmake,
   ctest, git, the bench binaries) are skipped.
4. Every bench EXPERIMENTS.md names (backticked `fig*`/`tab*`/
   `ablation_*`/`ext_*`/`micro_*` tokens) has a source file under
   bench/ — the experiment write-ups can't drift behind bench renames.
5. Every backticked dotted metric name (`serve.queue_depth`,
   `net.frames_sent`, ...) is actually registered somewhere under src/
   via metrics::counter/gauge/histogram. A trailing `.*` wildcard
   (`serve.*`) is accepted when at least one registered metric carries
   that prefix. Only tokens whose first segment is a namespace the code
   registers are policed, so prose like `config.port` stays free.
6. Markdown under perfbench/ documents the end-to-end benchmark, which
   has a flag and name inventory of its own: its `--flag`s are checked
   against perfbench/run.py's add_argument calls and the options
   perfbench/bench.cpp parses (plus the CLI's, which the bench drives),
   and its dotted names against BENCHMARK.json's metric names and the
   bench's span names (plus the registered metrics).
7. The wire message types docs/distributed.md documents (first-column
   backticked tokens of its "Message types" table) match the protocol's
   kMessageTypes table in src/net/protocol.cpp exactly, both ways: a
   type added to the code without a docs row fails, and so does a
   documented type the coordinator would refuse.

Exit code 0 when clean, 1 with a per-file report otherwise.
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
FLAG_RE = re.compile(r"(--[A-Za-z][A-Za-z0-9-]*)")
REGISTRATION_RE = re.compile(r'add_(?:option|flag)\(\s*"([^"]+)"')

# Backticked paths under these roots (or matching these names) must exist.
CHECKED_PATH_PREFIXES = (
    "src/", "docs/", "tools/", "tests/", "examples/", "bench/", ".github/",
)
CHECKED_TOPLEVEL = re.compile(r"^[A-Z][A-Z_]*\.md$")  # README.md, DESIGN.md, ...

# Backticked tokens of this shape in EXPERIMENTS.md name bench binaries;
# each must have a source file under bench/.
BENCH_NAME_RE = re.compile(r"(?:fig|tab)[a-z0-9]*_[a-z0-9_]+|(?:ablation|ext|micro)_[a-z0-9_]+")

# Metric registrations under src/: metrics::counter("name", ...) etc.
METRIC_REGISTRATION_RE = re.compile(
    r'metrics::(?:counter|gauge|histogram)\(\s*"([^"]+)"')
# Trace events share the dotted namespace in docs (`cosim.inference`):
# trace::Span span("name", ...) and trace::instant("name", ...).
TRACE_REGISTRATION_RE = re.compile(
    r'trace::(?:Span\s+\w+|instant)\(\s*"([^"]+)"')
# Docs-side candidate metric tokens: dotted lowercase identifiers, with
# an optional `.*` wildcard tail.
METRIC_TOKEN_RE = re.compile(r"[a-z0-9_]+(?:\.(?:[a-z0-9_]+|\*))+")
# Dotted tokens with these tails are file names, not metrics.
NON_METRIC_SUFFIXES = (
    ".cpp", ".hpp", ".py", ".sh", ".md", ".json", ".jsonl", ".txt",
    ".csv", ".vcd", ".yml", ".yaml",
)

WIRE_TYPES_SOURCE = "src/net/protocol.cpp"
WIRE_TYPES_BEGIN = "// wire-message-types-begin"
WIRE_TYPES_END = "// wire-message-types-end"
WIRE_DOC = "docs/distributed.md"
WIRE_DOC_SECTION = "## Message types"
# First-column backticked token of a markdown table row.
TABLE_TYPE_RE = re.compile(r"^\|\s*`([a-z-]+)`", re.MULTILINE)

# Command lines mentioning these tools use their own flag namespaces.
FOREIGN_COMMAND_WORDS = (
    "cmake", "ctest", "git ", "pip", "python", "perfetto", "gtkwave",
    "micro_primitives", "check_bench_regression", "check_docs",
    "perfbench", "perf-smoke",
)

# The end-to-end benchmark (perfbench/): its docs, flag sources and names.
PERFBENCH_DOCS = "perfbench/"
PERFBENCH_RUNNER = "perfbench/run.py"
PERFBENCH_PROGRAM = "perfbench/bench.cpp"
BENCHMARK_DECLARATION = "BENCHMARK.json"
ARGPARSE_FLAG_RE = re.compile(r'add_argument\(\s*"(--[A-Za-z0-9-]+)"')
PARSED_OPTION_RE = re.compile(r'arg == "(--[A-Za-z0-9-]+)"')
# bench.cpp times each layer call under a span: timed("plan.profile", ...).
BENCH_SPAN_RE = re.compile(r'timed\(\s*"([^"]+)"')


def tracked_markdown():
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=REPO, capture_output=True, text=True,
        check=True)
    return [REPO / line for line in out.stdout.splitlines() if line]


def cli_flags():
    """Flags registered by the deepstrike CLI (what --help would print)."""
    source = (REPO / "tools" / "deepstrike_cli.cpp").read_text()
    flags = {"--" + name for name in REGISTRATION_RE.findall(source)}
    flags.add("--help")
    return flags


def perfbench_flags():
    """Flags of the benchmark runner and of the benchmark program."""
    runner = (REPO / PERFBENCH_RUNNER).read_text()
    program = (REPO / PERFBENCH_PROGRAM).read_text()
    return set(ARGPARSE_FLAG_RE.findall(runner)) | set(PARSED_OPTION_RE.findall(program))


def declared_benchmark_metrics():
    """BENCHMARK.json's end-to-end and per-layer metric names."""
    declaration = json.loads((REPO / BENCHMARK_DECLARATION).read_text())
    return {m["name"] for key in ("end_to_end", "per_layer")
            for m in declaration.get(key, [])}


def perfbench_names():
    """BENCHMARK.json's metric names and the bench program's span names."""
    names = declared_benchmark_metrics()
    program = (REPO / PERFBENCH_PROGRAM).read_text()
    names.update(BENCH_SPAN_RE.findall(program))
    names.update(TRACE_REGISTRATION_RE.findall(program))
    return names


def registered_metrics():
    """Metric and trace-event names registered anywhere under src/."""
    names = set()
    for ext in ("*.cpp", "*.hpp"):
        for path in (REPO / "src").rglob(ext):
            text = path.read_text()
            names.update(METRIC_REGISTRATION_RE.findall(text))
            names.update(TRACE_REGISTRATION_RE.findall(text))
    return names


def wire_message_types():
    """The protocol's kMessageTypes table, parsed from the marked block."""
    source = (REPO / WIRE_TYPES_SOURCE).read_text()
    begin = source.index(WIRE_TYPES_BEGIN)
    end = source.index(WIRE_TYPES_END)
    return set(re.findall(r'"([a-z-]+)"', source[begin:end]))


def strip_code_spans(line):
    """Code spans stay (flags live there), but this hook is where e.g.
    literal regex examples could be masked if docs ever need it."""
    return line


def check_links(doc, text, errors):
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if (doc.parent / path).exists() or (REPO / path).exists():
            continue
        errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")


def check_backticked_paths(doc, text, errors):
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not re.fullmatch(r"[A-Za-z0-9_./-]+", token):
            continue
        is_checked = token.startswith(CHECKED_PATH_PREFIXES) or CHECKED_TOPLEVEL.fullmatch(token)
        if not is_checked:
            continue
        if (REPO / token).exists():
            continue
        # Extensionless tokens name built binaries (`bench/fig6b_dsp_fault_rates`,
        # `examples/quickstart`): accept them when their source file exists.
        last = token.rstrip("/").rsplit("/", 1)[-1]
        if "." not in last and any(
                (REPO / (token + ext)).exists() for ext in (".cpp", ".hpp", ".py")):
            continue
        errors.append(f"{doc.relative_to(REPO)}: referenced path missing -> {token}")


def check_cli_flags(doc, text, flags, errors, inventory="deepstrike --help"):
    for line in text.splitlines():
        lowered = line.lower()
        if any(word in lowered for word in FOREIGN_COMMAND_WORDS):
            continue
        if "--" not in line:
            continue
        # Only police flags on lines that are clearly about the deepstrike
        # CLI: a `deepstrike` invocation or a flag-documentation line that
        # names one of its flags in backticks.
        mentions_cli = "deepstrike" in lowered or BACKTICK_RE.search(line)
        if not mentions_cli:
            continue
        for flag in FLAG_RE.findall(strip_code_spans(line)):
            if flag not in flags:
                errors.append(
                    f"{doc.relative_to(REPO)}: flag not in {inventory} "
                    f"-> {flag} (line: {line.strip()[:80]})")


def check_experiment_benches(doc, text, errors):
    """Every bench EXPERIMENTS.md names must exist as bench/<name>.cpp.

    `ablation_*` glob shorthands (as in README tables) are accepted when
    at least one bench matches the prefix.
    """
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not BENCH_NAME_RE.fullmatch(token):
            continue
        if (REPO / "bench" / (token + ".cpp")).exists():
            continue
        errors.append(
            f"{doc.relative_to(REPO)}: bench named but missing under bench/ "
            f"-> {token}")


def check_metric_names(doc, text, metrics, errors, source="src/"):
    """Backticked dotted tokens in a registered namespace must name a
    registered metric (or be a `ns.*` wildcard with at least one hit)."""
    namespaces = {name.split(".", 1)[0] for name in metrics}
    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if not METRIC_TOKEN_RE.fullmatch(token):
            continue
        if token.endswith(NON_METRIC_SUFFIXES):
            continue
        if token.split(".", 1)[0] not in namespaces:
            continue
        if token in metrics:
            continue
        if token.endswith(".*") and any(
                name.startswith(token[:-1]) for name in metrics):
            continue
        errors.append(
            f"{doc.relative_to(REPO)}: metric not registered under {source} "
            f"-> {token}")


def check_wire_message_docs(doc, text, types, errors):
    """docs/distributed.md's message-type table vs kMessageTypes, both ways."""
    if WIRE_DOC_SECTION not in text:
        errors.append(
            f"{doc.relative_to(REPO)}: no '{WIRE_DOC_SECTION}' section "
            f"(the table checked against {WIRE_TYPES_SOURCE})")
        return
    # Only the table under the "Message types" heading names wire types;
    # the doc's other tables (flags, error codes) use their own columns.
    section = text.split(WIRE_DOC_SECTION, 1)[1]
    section = re.split(r"^#{1,3} ", section, 1, flags=re.MULTILINE)[0]
    documented = set(TABLE_TYPE_RE.findall(section))
    for name in sorted(types - documented):
        errors.append(
            f"{doc.relative_to(REPO)}: wire message type undocumented "
            f"-> {name} (in {WIRE_TYPES_SOURCE} but no table row)")
    for name in sorted(documented - types):
        errors.append(
            f"{doc.relative_to(REPO)}: documented message type unknown to "
            f"the protocol -> {name} (not in {WIRE_TYPES_SOURCE})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    flags = cli_flags()
    metrics = registered_metrics()
    bench_flags = flags | perfbench_flags()
    bench_metrics = metrics | perfbench_names()
    benchmark_metrics = declared_benchmark_metrics()
    wire_types = wire_message_types()
    errors = []
    docs = tracked_markdown()
    for doc in docs:
        text = doc.read_text()
        in_perfbench = str(doc.relative_to(REPO)).startswith(PERFBENCH_DOCS)
        check_links(doc, text, errors)
        check_backticked_paths(doc, text, errors)
        if in_perfbench:
            check_cli_flags(doc, text, bench_flags, errors,
                            inventory="perfbench's or deepstrike's flags")
            check_metric_names(doc, text, bench_metrics, errors,
                               source="src/, BENCHMARK.json or bench spans")
        else:
            check_cli_flags(doc, text, flags, errors)
            # Planning docs (ROADMAP.md, CHANGES.md, ...) quote the
            # benchmark's per-layer ledger, whose names BENCHMARK.json
            # declares: those are real names too.
            check_metric_names(doc, text, metrics | benchmark_metrics, errors,
                               source="src/ or BENCHMARK.json")
        if doc.name == "EXPERIMENTS.md":
            check_experiment_benches(doc, text, errors)
        if str(doc.relative_to(REPO)) == WIRE_DOC:
            check_wire_message_docs(doc, text, wire_types, errors)
    if not any(str(d.relative_to(REPO)) == WIRE_DOC for d in docs):
        errors.append(f"{WIRE_DOC}: missing (the wire protocol reference "
                      f"for {WIRE_TYPES_SOURCE} must exist)")

    if errors:
        print(f"check_docs: {len(errors)} problem(s) in {len(docs)} markdown files:")
        for e in errors:
            print("  " + e)
        return 1
    print(f"check_docs: OK ({len(docs)} markdown files, {len(flags)} CLI "
          f"flags, {len(metrics)} metrics, {len(wire_types)} wire types)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
