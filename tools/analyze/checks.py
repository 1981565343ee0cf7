"""The four whole-program checks, over the ir.Program facts.

Each check returns (findings, stats). Checks never print; analyze.py
formats. All policy (roots, allowlists, justifications) lives in
config.py so the checks stay pure graph algorithms.
"""

import re
from dataclasses import dataclass

import config
from cpplex import ID, PUNCT, COMMENT

_WORD = re.compile(r"[A-Za-z_]\w*")


@dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str
    path: tuple = ()

    def render(self, rel):
        out = f"{self.check:<11} {rel(self.file)}:{self.line}  {self.message}"
        if self.path:
            out += "\n" + " " * 12 + "via: " + " -> ".join(self.path)
        return out


def _last_word(expr):
    words = _WORD.findall(expr)
    return words[-1] if words else ""


def _held_at(fn, tok):
    return [a for a in fn.acquisitions if a.tok < tok <= a.end_tok]


def _call_args(fn, call):
    """Top-level argument expressions of a call site, as strings."""
    body = fn.body
    i = call.tok + 1
    if i >= len(body) or body[i].text != "(":
        return []
    depth = 0
    args = [[]]
    while i < len(body):
        t = body[i]
        if t.text == "(":
            depth += 1
            if depth > 1:
                args[-1].append(t.text)
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                break
            args[-1].append(t.text)
        elif t.text == "," and depth == 1:
            args.append([])
        elif depth >= 1:
            args[-1].append(t.text)
        i += 1
    return ["".join(a) for a in args if a]


def _suffix_lookup(table, qname):
    parts = qname.split("::")
    for suffix, reason in table.items():
        if qname == suffix or qname.endswith("::" + suffix) \
                or ("::" not in suffix and suffix in parts) \
                or ("::" in suffix and qname.endswith(suffix)):
            return reason
    return None


# ==========================================================================
# Check 1: GUARDED-BY
# ==========================================================================

def check_guarded_by(program, opts):
    """Fields declared after a mutex member in a header class body must be
    GUARDED_BY-annotated, inherently synchronized, const, or carry a
    declaration comment (the documented single-writer opt-out)."""
    findings = []
    for m in program.mutexes:
        if not m.cls or not m.file.endswith(".h"):
            continue
        if m.file.endswith("thread_annotations.h"):
            continue
        if "mutex" not in m.name.lower():
            continue
        for f in program.fields.get(m.cls, []):
            if f.file != m.file or f.line <= m.line:
                continue
            t = f.type_str.replace("mutable ", "").strip()
            if (f.guarded_by or f.has_comment
                    or t.startswith("const ") or t.startswith("const<")
                    or "static" in f.type_str or "constexpr" in f.type_str
                    or t.startswith(config.SELF_SYNC_TYPES)
                    or "atomic" in t):
                continue
            findings.append(Finding(
                "GUARDED-BY", f.file, f.line,
                f"field '{f.name}' of {f.cls} is declared after mutex "
                f"'{m.name}' without GUARDED_BY, a self-synchronizing "
                f"type, const, or an explanatory comment"))
    return findings, {}


# ==========================================================================
# Check 2: blocking-under-lock
# ==========================================================================

def check_blocking(program, opts):
    findings = []
    all_fns = [f for fns in program.functions.values() for f in fns]

    def cv_waited_mutex(fn, call):
        """For a condvar Wait/WaitFor, the mutex expression it releases
        (first argument), else None."""
        if call.name not in ("Wait", "WaitFor", "WaitUntil"):
            return None
        if not call.is_member:
            return None
        ftype = program.field_type(fn.cls, call.receiver) if fn.cls else None
        if ftype is not None and "CondVar" not in ftype:
            return None  # typed receiver that is not a condvar (EventCount)
        args = _call_args(fn, call)
        if ftype is None and not args:
            return None
        return _last_word(args[0]) if args else None

    # Direct blocking events per function: (call, kind) where kind is
    # "op" or ("cv", waited_mutex_name)
    def direct_blocking(fn):
        out = []
        for c in fn.calls:
            if c.name not in config.BLOCKING_OPS or c.deferred:
                continue
            waited = cv_waited_mutex(fn, c)
            out.append((c, waited))
        return out

    # Transitive: does fn block at all (any blocking op on any path)?
    # summary: id(fn) -> (op_name, file, line, path) | None
    blocks = {}
    for fn in all_fns:
        if _suffix_lookup(config.BLOCKING_ALLOWLIST, fn.qname):
            blocks[id(fn)] = None
            continue
        db = direct_blocking(fn)
        blocks[id(fn)] = (db[0][0].name, fn.file, db[0][0].line,
                          (fn.qname,)) if db else None
    changed = True
    while changed:
        changed = False
        for fn in all_fns:
            if blocks[id(fn)] is not None:
                continue
            if _suffix_lookup(config.BLOCKING_ALLOWLIST, fn.qname):
                continue
            for c in fn.calls:
                if c.deferred:
                    continue
                for g in program.resolve(fn, c, confident_only=True):
                    if g is fn or blocks[id(g)] is None:
                        continue
                    op, file, line, path = blocks[id(g)]
                    blocks[id(fn)] = (op, file, line, (fn.qname,) + path)
                    changed = True
                    break
                if blocks[id(fn)] is not None:
                    break

    for fn in all_fns:
        allow = _suffix_lookup(config.BLOCKING_ALLOWLIST, fn.qname)
        for c, waited in direct_blocking(fn):
            held = _held_at(fn, c.tok)
            if not held:
                continue
            # wait-protocol exemption: the condvar releases its mutex
            offenders = []
            for b in held:
                if waited is not None and _last_word(b.mutex_expr) == waited:
                    continue
                offenders.append(b)
            if not offenders:
                continue
            if allow:
                continue
            names = ", ".join(f"'{b.mutex_expr}' (line {b.line})"
                              for b in offenders)
            findings.append(Finding(
                "BLOCK-LOCK", fn.file, c.line,
                f"{fn.qname} calls blocking op {c.name}() while holding "
                f"{names}; move the wait outside the critical section or "
                f"allowlist the site with a documented protocol"))
        if allow:
            continue
        for c in fn.calls:
            held = _held_at(fn, c.tok)
            if not held or c.deferred:
                continue
            for g in program.resolve(fn, c, confident_only=True):
                if g is fn or blocks[id(g)] is None:
                    continue
                op, file, line, path = blocks[id(g)]
                names = ", ".join(f"'{b.mutex_expr}'" for b in held)
                findings.append(Finding(
                    "BLOCK-LOCK", fn.file, c.line,
                    f"{fn.qname} holds {names} across a call to "
                    f"{c.name}(), which can block in {op}() at "
                    f"{file}:{line}", path=(fn.qname,) + path))
                break
    return findings, {}


# ==========================================================================
# Check 3: hot-path allocation
# ==========================================================================

def check_hot_alloc(program, opts):
    findings = []
    roots = opts.get("hot_roots", config.HOT_ROOTS)
    all_fns = [f for fns in program.functions.values() for f in fns]

    def pruned(qname):
        return _suffix_lookup(config.HOT_PRUNE, qname) if \
            opts.get("allowlists", True) else None

    def file_allowed(path):
        if not opts.get("allowlists", True):
            return False
        rel = opts["rel"](path)
        return rel in config.HOT_FILE_ALLOWLIST

    # BFS over confident edges from the roots.
    root_fns = []
    for fn in all_fns:
        if any(fn.qname == r or fn.qname.endswith("::" + r)
               or (r.split("::")[-1] == fn.qname.split("::")[-1]
                   and fn.cls.rsplit("::")[-1] == r.split("::")[0])
               for r in roots):
            root_fns.append(fn)
    missing = [r for r in roots
               if not any(fn.qname == r or fn.qname.endswith("::" + r)
                          or (r.split("::")[-1] == fn.qname.split("::")[-1]
                              and fn.cls.rsplit("::")[-1] == r.split("::")[0])
                          for fn in all_fns)]
    for r in missing:
        findings.append(Finding(
            "HOT-ALLOC", config.__file__, 1,
            f"hot-path root '{r}' not found in the analyzed sources — "
            f"update config.HOT_ROOTS to track the rename"))

    seen = {}
    queue = [(fn, (fn.qname,)) for fn in root_fns]
    while queue:
        fn, path = queue.pop(0)
        if id(fn) in seen:
            continue
        seen[id(fn)] = path
        for c in fn.calls:
            if c.deferred or pruned(c.name):
                continue
            for g in program.resolve(fn, c, confident_only=True):
                if id(g) in seen:
                    continue
                if pruned(g.qname) or file_allowed(g.file):
                    continue
                queue.append((g, path + (g.qname,)))

    comment_cache = {}

    def hot_ok(file, line):
        if not opts.get("allowlists", True) and \
                not opts.get("hot_ok_comments", True):
            return False
        if file not in comment_cache:
            import ir
            comment_cache[file] = (
                ir.comment_lines(program, file),
                opts["read_lines"](file))
        comments, lines = comment_cache[file]
        if any("hot-ok:" in c for c in comments.get(line, [])):
            return True
        for j in range(line - 1, max(0, line - 1 - 8), -1):
            if j - 1 < len(lines) and not lines[j - 1].strip():
                break
            if any("hot-ok:" in c for c in comments.get(j, [])):
                return True
        return False

    reached = [f for f in all_fns if id(f) in seen]
    for fn in sorted(reached, key=lambda f: (f.file, f.line)):
        path = seen[id(fn)]
        if file_allowed(fn.file):
            continue
        for ne in fn.news:
            if hot_ok(fn.file, ne.line):
                continue
            findings.append(Finding(
                "HOT-ALLOC", fn.file, ne.line,
                f"`new {ne.what}` reachable from hot root "
                f"{path[0]} — allocate through FramePool/MemPool or mark "
                f"the branch `// hot-ok: <reason>`", path=path))
        for c in fn.calls:
            if c.name not in config.GROWTH_CALLS or c.deferred:
                continue
            # A growth name only counts as a container/string call when
            # it is a member call or std::-qualified; bare names can be
            # local lambdas or project functions (e.g. DeliverLocked's
            # `append` continuation).
            if not c.is_member and not c.qualifier.startswith("std"):
                continue
            if hot_ok(fn.file, c.line):
                continue
            findings.append(Finding(
                "HOT-ALLOC", fn.file, c.line,
                f"{c.name}() (potential allocation/growth) reachable "
                f"from hot root {path[0]} — pre-size, pool, or mark "
                f"`// hot-ok: <reason>`", path=path))

    stats = {"reachable": sorted(f.qname for f in all_fns
                                 if id(f) in seen)}
    return findings, stats


# ==========================================================================
# Check 4: MEM-ORDER, AST grade
# ==========================================================================

def check_mem_order(program, opts):
    findings = []
    relaxed = {"memory_order_relaxed", "kRelaxed"}
    for path, toks in sorted(program.files.items()):
        rel = opts["rel"](path)
        if opts.get("allowlists", True) \
                and rel in config.MEM_ORDER_FILE_ALLOWLIST:
            continue
        comments = {}
        for t in toks:
            if t.kind == COMMENT:
                for off in range(t.text.count("\n") + 1):
                    comments.setdefault(t.line + off, []).append(t.text)
        lines = opts["read_lines"](path)
        code = [t for t in toks if t.kind not in (COMMENT, "pp")]
        for i, t in enumerate(code):
            if t.kind != ID or t.text not in relaxed:
                continue
            if t.text == "kRelaxed" and not _is_order_context(code, i):
                continue
            if any("relaxed:" in c for c in comments.get(t.line, [])):
                continue
            justified = False
            for j in range(t.line - 1,
                           max(0, t.line - 1 - config.MEM_ORDER_LOOKBACK),
                           -1):
                if j - 1 < len(lines) and not lines[j - 1].strip():
                    break
                if any("relaxed:" in c for c in comments.get(j, [])):
                    justified = True
                    break
            if not justified:
                op = _attached_op(code, i)
                what = f"on {op}()" if op else "at this site"
                findings.append(Finding(
                    "MEM-ORDER", path, t.line,
                    f"memory_order_relaxed {what} without a `relaxed:` "
                    f"justification comment (say why no ordering is "
                    f"needed, or use a stronger order)"))
    return findings, {}


def _is_order_context(code, i):
    """kRelaxed only counts when used as a memory-order argument (it is a
    generic-enough name that other enums could use it)."""
    for j in range(max(0, i - 6), i):
        if code[j].kind == ID and code[j].text in (
                "memory_order", "Atomic", "AtomicFence", "load", "store",
                "exchange", "fetch_add", "fetch_sub", "fetch_or",
                "fetch_and", "compare_exchange_weak",
                "compare_exchange_strong"):
            return True
    return False


def _attached_op(code, i):
    """The atomic operation this memory_order argument belongs to: the
    nearest preceding callee name in the same statement."""
    depth = 0
    for j in range(i - 1, max(0, i - 80), -1):
        t = code[j]
        if t.kind == PUNCT:
            if t.text == ")":
                depth += 1
            elif t.text == "(":
                if depth == 0:
                    if j > 0 and code[j - 1].kind == ID:
                        return code[j - 1].text
                    return ""
                depth -= 1
            elif t.text in (";", "{", "}"):
                return ""
    return ""
