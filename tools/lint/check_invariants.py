#!/usr/bin/env python3
"""Project invariant linter (runs as ctest `lint_invariants`).

Checks, each with a stable ID used in failure output:

  FP-UNIQUE   every failpoint site name is declared in exactly one file
              (a file may instrument one name at several code paths, e.g.
              both adaptor kinds' fetch seams)
  FP-NAMING   failpoint site names follow <layer>.<component>.<verb>,
              all lowercase snake segments
  FP-README   the set of site names in code matches the README's
              "Failpoint sites" table exactly
  METRIC-NAME metric names handed to GetCounter/GetGauge/GetHistogram/
              RegisterProvider are subsystem_snake_case: a known
              subsystem prefix, then lowercase [a-z0-9_] segments
  PRAGMA-ONCE every header under src/, tests/, bench/ starts its include
              guard with #pragma once
  RAW-SLEEP   no naked std::this_thread::sleep_for outside the allowlist
              (common/clock.h wraps it; tests use testing_util helpers)
  RAW-MUTEX   src/ never declares std::mutex / std::shared_mutex /
              std::condition_variable outside common/thread_annotations.h
              and the deadlock detector (which cannot instrument itself),
              so every lock is an annotated common::Mutex
  LOCK-RANK   every common::Mutex/SharedMutex construction in src/ names
              a LockRank in its brace initializer
  RANK-README the README "Lock ranking" table lists exactly the ranks in
              src/common/lock_rank.h, with matching numeric values (same
              mechanism as the failpoint-site table)
  RANK-UNUSED every LockRank enumerator except kUnranked is the rank of
              some Mutex/SharedMutex constructed in src/ or tests/ (a
              rank nothing acquires documents an order nothing checks)
  RANK-EXEMPT the lock-free data plane (src/common/mpmc_queue.h) is
              rank-exempt by design — the README "Data plane" section
              must exist and document the exemption, so the rank table's
              completeness claim stays honest
  SPIN-PARK   no raw atomic spin loops outside src/common/mpmc_queue.h:
              std::this_thread::yield and empty-body `while (x.load())`
              busy-waits are banned in src/ — waiters must park on a
              CondVar or the queues' EventCount, not burn a core
  MEM-POOL    every MemPool TryReserve/TryLease call site in src/ must
              consume the returned Status (assign it, test it, or return
              it) — the admission verdict is the whole point of asking
  MEM-README  the README "Memory governance" pool table lists exactly
              the standard pools RegisterPool'd by MemGovernor::Default
              in mem_governor.cc, with matching default capacities

Retired here, now owned by the AST-grade analyzer (tools/analyze, ctest
`analyze_src`/`analyze_fixtures`): MEM-ORDER (token-accurate relaxed-
ordering justifications, including the common::Atomic kRelaxed shim) and
GUARDED-BY (field coverage after a mutex member) — the regex versions
could not see token boundaries or class structure.

Exit status 0 iff no findings. Run directly:  python3 tools/lint/check_invariants.py
"""

import argparse
import re
import sys
from pathlib import Path

FAILPOINT_MACROS = re.compile(
    r'ASTERIX_FAILPOINT(?:_HIT|_THROW|_TRIGGERED)?\s*\(\s*"([^"]+)"')
FAILPOINT_NAME = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

METRIC_CALLS = re.compile(
    r'(?:GetCounter|GetGauge|GetHistogram|RegisterProvider)\s*\(\s*"([^"]+)"')
METRIC_PREFIXES = ("feed_", "lsm_", "wal_", "hyracks_", "storage_", "common_")
METRIC_NAME = re.compile(r"^[a-z][a-z0-9]*(_[a-z0-9]+)+$")

SLEEP_ALLOWLIST = {"src/common/clock.h"}

RAW_SYNC = re.compile(r"std::(mutex|shared_mutex|condition_variable\w*)\b")

# The runtime lock-order checker must use a raw std::mutex internally:
# instrumenting its own lock would recurse. Same for the model checker's
# engine, whose scheduler is the thing the wrappers park on.
RAW_SYNC_ALLOWLIST = {"thread_annotations.h", "deadlock_detector.h",
                      "deadlock_detector.cc", "model_check.h",
                      "model_check.cc"}

# A Mutex/SharedMutex member or global declaration with an optional brace
# initializer (which may span lines — [^}] matches newlines inside a
# character class).
MUTEX_DECL = re.compile(
    r"(?:mutable\s+)?(?:common::)?\b(?:Shared)?Mutex\s+(\w+)\s*"
    r"(\{[^}]*\})?\s*;")

# The rank a Mutex/SharedMutex construction names, brace- or paren-
# initialized (tests construct local mutexes with parentheses).
RANKED_MUTEX = re.compile(
    r"\b(?:Shared)?Mutex\s+\w+\s*[({]\s*(?:common::)?LockRank::(k\w+)")

LOCK_RANK_ENTRY = re.compile(r"^\s*k(\w+)\s*=\s*(\d+),")

# The one place raw spin loops are legitimate: the lock-free queues, whose
# bounded spins always fall back to EventCount parking — plus the model
# build's SpinWaitWhile shim, which routes the same spin to the checker.
SPIN_ALLOWLIST = {
    "src/common/mpmc_queue.h",
    "src/common/atomic_shim.h",
}

def find_repo_root(start: Path) -> Path:
    p = start.resolve()
    while p != p.parent:
        if (p / "CMakeLists.txt").exists() and (p / "src").is_dir():
            return p
        p = p.parent
    raise SystemExit("cannot locate repo root (no CMakeLists.txt + src/)")


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings = []

    def fail(self, check: str, where: str, message: str):
        self.findings.append(f"[{check}] {where}: {message}")

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    # --- failpoints --------------------------------------------------------
    def check_failpoints(self):
        sites = {}  # name -> set of files
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if path.name == "failpoint.h":
                continue
            text = path.read_text()
            for name in FAILPOINT_MACROS.findall(text):
                sites.setdefault(name, set()).add(self.rel(path))
        for name, files in sorted(sites.items()):
            if not FAILPOINT_NAME.match(name):
                self.fail("FP-NAMING", sorted(files)[0],
                          f"site '{name}' is not <layer>.<component>.<verb>")
            if len(files) > 1:
                self.fail("FP-UNIQUE", ", ".join(sorted(files)),
                          f"site '{name}' is declared in more than one file")

        readme = self.root / "README.md"
        table = set()
        in_table = False
        for line in readme.read_text().splitlines():
            if line.strip().startswith("| Site") and "`" not in line:
                in_table = True
                continue
            if in_table:
                m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
                if m:
                    table.add(m.group(1))
                elif line.strip().startswith("|---") or line.strip().startswith("| ---"):
                    continue
                else:
                    in_table = False
        code = set(sites)
        for name in sorted(code - table):
            self.fail("FP-README", "README.md",
                      f"site '{name}' is in code but missing from the "
                      "README failpoint table")
        for name in sorted(table - code):
            self.fail("FP-README", "README.md",
                      f"site '{name}' is in the README failpoint table but "
                      "not in code")

    # --- metrics -----------------------------------------------------------
    def check_metric_names(self):
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            for name in METRIC_CALLS.findall(path.read_text()):
                if not METRIC_NAME.match(name):
                    self.fail("METRIC-NAME", self.rel(path),
                              f"metric '{name}' is not snake_case")
                elif not name.startswith(METRIC_PREFIXES):
                    self.fail("METRIC-NAME", self.rel(path),
                              f"metric '{name}' lacks a known subsystem "
                              f"prefix {METRIC_PREFIXES}")

    # --- headers -----------------------------------------------------------
    def check_pragma_once(self):
        for sub in ("src", "tests", "bench"):
            for path in sorted((self.root / sub).rglob("*.h")):
                text = path.read_text()
                if "#pragma once" not in text.split("\n\n")[0] \
                        and "#pragma once" not in text[:2000]:
                    self.fail("PRAGMA-ONCE", self.rel(path),
                              "header lacks #pragma once")

    # --- sleeps ------------------------------------------------------------
    def check_sleeps(self):
        for sub in ("src", "tests", "bench", "examples"):
            root = self.root / sub
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*")):
                if path.suffix not in (".h", ".cc"):
                    continue
                rel = self.rel(path)
                if rel in SLEEP_ALLOWLIST or path.name == "testing_util.h":
                    continue
                for i, line in enumerate(path.read_text().splitlines(), 1):
                    if "sleep_for" in line:
                        self.fail("RAW-SLEEP", f"{rel}:{i}",
                                  "naked sleep_for (use common::SleepMillis/"
                                  "SleepMicros or testing_util helpers)")

    # --- raw synchronization primitives ------------------------------------
    def check_raw_mutexes(self):
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if path.name in RAW_SYNC_ALLOWLIST:
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                m = RAW_SYNC.search(line)
                if m:
                    self.fail("RAW-MUTEX", f"{self.rel(path)}:{i}",
                              f"raw std::{m.group(1)} (use the annotated "
                              "common:: wrappers)")

    # --- spin loops ---------------------------------------------------------
    def check_spin_park(self):
        """Raw busy-wait loops are confined to the lock-free queue header
        (whose spins are bounded and fall back to EventCount parking).
        Heuristics: any std::this_thread::yield — the signature of a
        spin-wait — and any empty-body `while (<atomic>.load...)`."""
        empty_spin = re.compile(r"while\s*\([^)]*\.load\([^)]*\)[^)]*\)\s*"
                                r"(?:;|\{\s*\})\s*$")
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if self.rel(path) in SPIN_ALLOWLIST:
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                code = re.sub(r"//.*", "", line)
                if "std::this_thread::yield" in code:
                    self.fail("SPIN-PARK", f"{self.rel(path)}:{i}",
                              "raw spin loop (yield busy-wait): park on a "
                              "CondVar or common::EventCount instead — spin "
                              "loops live only in common/mpmc_queue.h")
                elif empty_spin.search(code.strip()):
                    self.fail("SPIN-PARK", f"{self.rel(path)}:{i}",
                              "empty-body atomic busy-wait: park on a "
                              "CondVar or common::EventCount instead")

        # The rank exemption the spin allowlist leans on must be documented:
        # README "Data plane" section names the header and says rank-exempt.
        readme = (self.root / "README.md").read_text()
        m = re.search(r"^## Data plane$(.*?)(?=^## )", readme,
                      re.MULTILINE | re.DOTALL)
        if not m:
            self.fail("RANK-EXEMPT", "README.md",
                      "no '## Data plane' section documenting the lock-free "
                      "queues' rank exemption")
        else:
            section = m.group(1)
            if "rank-exempt" not in section or \
                    "src/common/mpmc_queue.h" not in section:
                self.fail("RANK-EXEMPT", "README.md",
                          "the 'Data plane' section must name "
                          "src/common/mpmc_queue.h and the word "
                          "'rank-exempt' (keep the exemption documented)")

    # --- lock ranks ---------------------------------------------------------
    def check_lock_ranks(self):
        """Every Mutex/SharedMutex construction in src/ must name its
        LockRank inline (LOCK-RANK), the README table must match the enum
        (RANK-README), and every rank must be some mutex's (RANK-UNUSED)."""
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if path.name in ("thread_annotations.h", "lock_rank.h",
                             "deadlock_detector.h", "deadlock_detector.cc"):
                continue
            text = path.read_text()
            for m in MUTEX_DECL.finditer(text):
                init = m.group(2) or ""
                if "LockRank" in init:
                    continue
                line_no = text.count("\n", 0, m.start()) + 1
                self.fail(
                    "LOCK-RANK", f"{self.rel(path)}:{line_no}",
                    f"mutex '{m.group(1)}' constructed without a LockRank "
                    "(brace-initialize with common::LockRank::k...)")

        # README rank table <-> enum lockstep.
        enum = {}
        for line in (self.root / "src/common/lock_rank.h").read_text() \
                .splitlines():
            m = LOCK_RANK_ENTRY.match(line)
            if m:
                enum["k" + m.group(1)] = int(m.group(2))
        table = {}
        in_table = False
        for line in (self.root / "README.md").read_text().splitlines():
            if line.strip().startswith("| Rank") and "`" not in line:
                in_table = True
                continue
            if in_table:
                m = re.match(r"\|\s*`(k\w+)`\s*\|\s*(\d+)\s*\|", line)
                if m:
                    table[m.group(1)] = int(m.group(2))
                elif line.strip().startswith("|--") or \
                        line.strip().startswith("| --"):
                    continue
                else:
                    in_table = False
        for name in sorted(set(enum) - set(table)):
            self.fail("RANK-README", "README.md",
                      f"rank '{name}' is in lock_rank.h but missing from "
                      "the README rank table")
        for name in sorted(set(table) - set(enum)):
            self.fail("RANK-README", "README.md",
                      f"rank '{name}' is in the README rank table but not "
                      "in lock_rank.h")
        for name in sorted(set(enum) & set(table)):
            if enum[name] != table[name]:
                self.fail("RANK-README", "README.md",
                          f"rank '{name}' is {enum[name]} in lock_rank.h "
                          f"but {table[name]} in the README table")

        # Every rank but the opt-out is some mutex's rank.
        named = set()
        for sub in ("src", "tests"):
            for path in sorted((self.root / sub).rglob("*")):
                if path.suffix in (".h", ".cc"):
                    named.update(RANKED_MUTEX.findall(path.read_text()))
        for name in sorted(set(enum) - named - {"kUnranked"}):
            self.fail("RANK-UNUSED", "src/common/lock_rank.h",
                      f"rank '{name}' is declared but no mutex in src/ or "
                      "tests/ is constructed with it (delete the rank, or "
                      "give it to the mutex it was meant for)")

    # --- memory pools --------------------------------------------------------
    def check_mem_pools(self):
        """MEM-POOL: a `TryReserve`/`TryLease` whose Status is discarded is
        a budget leak waiting to happen — the reservation may have been
        *refused* and the caller proceeds as if admitted. Heuristic: the
        enclosing statement must contain an `=`, an `if`, a `return`, a
        `.ok(` test, or a CHECK macro. MEM-README: pool table lockstep,
        same mechanism as the failpoint and rank tables."""
        call = re.compile(r"\b(?:TryReserve|TryLease)\s*\(")
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            if path.name in ("mem_governor.h", "mem_governor.cc"):
                continue  # the implementation itself (decls + internals)
            code = re.sub(r"//[^\n]*", "", path.read_text())
            for m in call.finditer(code):
                start = max(code.rfind(c, 0, m.start()) for c in ";{}") + 1
                end = code.find(";", m.end())
                stmt = code[start:end if end != -1 else len(code)]
                if not re.search(r"=|\bif\b|\breturn\b|\.ok\s*\(|CHECK",
                                 stmt):
                    line_no = code.count("\n", 0, m.start()) + 1
                    self.fail(
                        "MEM-POOL", f"{self.rel(path)}:{line_no}",
                        "TryReserve/TryLease verdict discarded — assign "
                        "the Status, branch on it, or return it (a refused "
                        "reservation must not be treated as admitted)")

        # README pool table <-> MemGovernor::Default() RegisterPool lockstep.
        header = (self.root / "src/common/mem_governor.h").read_text()
        source = (self.root / "src/common/mem_governor.cc").read_text()
        pool_names = dict(re.findall(
            r'(k\w+Pool)\s*=\s*"([a-z0-9_]+)"', header))
        byte_consts = {
            name: int(num) << int(shift)
            for name, num, shift in re.findall(
                r"constexpr int64_t\s+(kDefault\w+Bytes)\s*=\s*"
                r"(\d+)LL\s*<<\s*(\d+)\s*;", source)}

        def human(b):
            return (f"{b >> 30} GiB" if b >= (1 << 30) and b % (1 << 30) == 0
                    else f"{b >> 20} MiB")

        registered = {}  # pool name -> "256 MiB"
        for const, byte_const in re.findall(
                r"RegisterPool\(\s*(k\w+Pool)\s*,\s*(kDefault\w+Bytes)\s*\)",
                source):
            if const in pool_names and byte_const in byte_consts:
                registered[pool_names[const]] = human(byte_consts[byte_const])

        table = {}
        in_section = in_table = False
        for line in (self.root / "README.md").read_text().splitlines():
            if line.startswith("## "):
                in_section = line.strip() == "## Memory governance"
                in_table = False
                continue
            if not in_section:
                continue
            if line.strip().startswith("| Pool") and "`" not in line:
                in_table = True
                continue
            if in_table:
                m = re.match(r"\|\s*`([^`]+)`\s*\|\s*([^|]+?)\s*\|", line)
                if m:
                    table[m.group(1)] = m.group(2)
                elif not line.strip().startswith("|--") and \
                        not line.strip().startswith("| --"):
                    in_table = False
        if not registered:
            self.fail("MEM-README", "src/common/mem_governor.cc",
                      "could not parse the Default() RegisterPool calls "
                      "(did the literal form change? update this check)")
        for name in sorted(set(registered) - set(table)):
            self.fail("MEM-README", "README.md",
                      f"pool '{name}' is registered in mem_governor.cc but "
                      "missing from the README pool table")
        for name in sorted(set(table) - set(registered)):
            self.fail("MEM-README", "README.md",
                      f"pool '{name}' is in the README pool table but not "
                      "registered by MemGovernor::Default()")
        for name in sorted(set(registered) & set(table)):
            if registered[name] != table[name]:
                self.fail("MEM-README", "README.md",
                          f"pool '{name}' default capacity is "
                          f"{registered[name]} in mem_governor.cc but "
                          f"'{table[name]}' in the README table")

    # MEM-ORDER and GUARDED-BY used to live here as regex heuristics.
    # Both moved to the AST-grade analyzer (tools/analyze/checks.py),
    # which sees token boundaries, the common::Atomic kRelaxed shim, and
    # real class structure; ctest runs it as analyze_src.


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[2])
    args = parser.parse_args()
    root = find_repo_root(args.repo)

    linter = Linter(root)
    linter.check_failpoints()
    linter.check_metric_names()
    linter.check_pragma_once()
    linter.check_sleeps()
    linter.check_raw_mutexes()
    linter.check_spin_park()
    linter.check_mem_pools()
    linter.check_lock_ranks()

    if linter.findings:
        print(f"check_invariants: {len(linter.findings)} finding(s)")
        for f in linter.findings:
            print("  " + f)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
