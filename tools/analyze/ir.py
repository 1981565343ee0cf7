"""Whole-program IR extraction: the analyzer's shared traversal core.

Turns lexed C++ (cpplex.py) into the program facts every check consumes:

  * Function definitions with qualified names and body token ranges
  * Class regions, field declarations (type + GUARDED_BY presence), and
    Mutex/SharedMutex member declarations
  * Per-function events, in source order: lock acquisitions (RAII guards
    and explicit Lock/Unlock) with their held scopes, call sites with
    receiver hints, new-expressions, and memory_order argument tokens
  * A call-graph resolver (receiver-field typing > same-class > unique
    name), used by the held-set propagation and reachability passes

The extraction is token-based and needs nothing beyond Python. Known
over/under-approximations are documented in DESIGN.md §6.4; the
allowlists in config.py absorb the over-approximations.
"""

import bisect
from dataclasses import dataclass, field
from pathlib import Path

from cpplex import lex, code_tokens, ID, PUNCT, COMMENT

# Identifiers that look like calls but are declaration attributes or
# control flow, never call sites.
ATTR_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED",
    "RELEASE_GENERIC", "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED", "EXCLUDES",
    "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "CAPABILITY", "SCOPED_CAPABILITY",
    "ASTERIX_TSA_ATTR",
    "alignas", "decltype", "noexcept", "static_assert", "__attribute__",
}
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "alignof", "typeid", "co_await", "co_return", "assert",
    "defined", "case",
}
GUARD_TYPES = {"MutexLock": "exclusive", "WriterMutexLock": "exclusive",
               "ReaderMutexLock": "shared"}
NON_FIELD_LEADS = {"friend", "using", "typedef", "enum", "class", "struct",
                   "union", "template", "public", "private", "protected",
                   "operator", "explicit", "virtual", "namespace"}


@dataclass
class CallSite:
    name: str           # last identifier of the callee
    receiver: str       # member/var the call hangs off ("" for free calls)
    qualifier: str      # explicit A::B qualification ("" if none)
    line: int
    tok: int            # index into the function's body token slice
    is_member: bool = False  # true for x.f() / x->f()
    deferred: bool = False   # inside a std::thread/jthread/async argument:
                             # runs on a new thread with an empty lock set


@dataclass
class Acquisition:
    mutex_expr: str     # normalized text of the mutex argument
    kind: str           # "exclusive" | "shared"
    line: int
    tok: int            # body-slice index where the guard takes effect
    end_tok: int        # body-slice index where the guard releases
    via: str            # "MutexLock" | "WriterMutexLock" | ... | "Lock()"
    is_try: bool = False


@dataclass
class AtomicOrderUse:
    order: str          # the memory_order_* identifier as written
    line: int
    op_name: str        # nearest call name the order is an argument of


@dataclass
class NewExpr:
    line: int
    what: str           # first tokens after `new` (for reports)


@dataclass
class Function:
    qname: str          # e.g. "feeds::SubscriberQueue::DeliverLocked"
    cls: str            # enclosing class qname ("" for free functions)
    file: str
    line: int
    body: list = field(default_factory=list)   # code-token slice
    calls: list = field(default_factory=list)
    acquisitions: list = field(default_factory=list)
    orders: list = field(default_factory=list)
    news: list = field(default_factory=list)

    @property
    def name(self):
        return self.qname.rsplit("::", 1)[-1]


@dataclass
class FieldDecl:
    cls: str
    name: str
    type_str: str
    line: int
    file: str
    guarded_by: str     # mutex expr inside GUARDED_BY(...) or ""
    has_comment: bool = False


@dataclass
class MutexDecl:
    cls: str            # "" => namespace scope
    name: str
    file: str
    line: int


@dataclass
class Program:
    functions: dict = field(default_factory=dict)   # qname -> [Function]
    by_name: dict = field(default_factory=dict)     # last name -> [Function]
    fields: dict = field(default_factory=dict)      # cls -> [FieldDecl]
    mutexes: list = field(default_factory=list)     # [MutexDecl]
    classes: set = field(default_factory=set)       # class qnames
    files: dict = field(default_factory=dict)       # path -> all tokens

    def add_function(self, fn):
        self.functions.setdefault(fn.qname, []).append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)

    # ---- call resolution -------------------------------------------------
    def field_type(self, cls, member):
        for f in self.fields.get(cls, []):
            if f.name == member:
                return f.type_str
        return None

    def class_of_type(self, type_str):
        """Best-effort: map a declared field type to a known class qname."""
        if not type_str:
            return None
        core = type_str
        for junk in ("const ", "mutable ", "std::shared_ptr<",
                     "std::unique_ptr<", "std::weak_ptr<"):
            core = core.replace(junk, " ")
        core = core.replace(">", " ").replace("*", " ").replace("&", " ")
        # last A::B::C-ish word, template args stripped. An exact match
        # wins; otherwise the last `::` component decides, because the
        # frontend records classes without their namespace
        # (`storage::Wal journal_` must find class `Wal`).
        best = None
        for word in core.split():
            base = word.split("<")[0].strip(":")
            if not base:
                continue
            if base in self.classes:
                best = base
                continue
            last = base.rsplit("::", 1)[-1]
            for cls in self.classes:
                if cls.rsplit("::", 1)[-1] == last:
                    best = cls
        return best

    def resolve(self, caller, call, confident_only=False):
        """Candidate Function definitions for a call site.

        Resolution ladder (documented in DESIGN.md §6.4):
          1. explicit qualifier  A::b() / A::B::b()
          2. receiver typed by a declared field of the caller's class
          3. unqualified call -> same-class method
          4. unique program-wide name match
          5. (non-confident mode) all name matches  [over-approximation]
        """
        cands = self.by_name.get(call.name, [])
        if not cands:
            return []
        if call.qualifier:
            qual = call.qualifier.rsplit("::")[-1]
            hit = [f for f in cands
                   if f.cls.rsplit("::")[-1] == qual or f.cls == qual]
            if hit:
                return hit
        if call.is_member and call.receiver and caller.cls:
            ftype = self.field_type(caller.cls, call.receiver)
            cls = self.class_of_type(ftype) if ftype else None
            if cls:
                hit = [f for f in cands
                       if f.cls.rsplit("::")[-1] == cls.rsplit("::")[-1]]
                if hit:
                    return hit
                return []  # typed receiver, no definition seen: external
        if not call.is_member and caller.cls:
            hit = [f for f in cands if f.cls == caller.cls]
            if hit:
                return hit
        named = {f.qname for f in cands}
        if len(named) == 1:
            return cands
        if confident_only:
            return []
        return cands


# --------------------------------------------------------------------------
# Structure scan
# --------------------------------------------------------------------------

def _match_brace(toks, open_idx):
    """Index of the `}` matching toks[open_idx] == `{` (or len(toks))."""
    depth = 0
    for i in range(open_idx, len(toks)):
        t = toks[i]
        if t.kind == PUNCT:
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    return i
    return len(toks)


def _top_level_indices(head):
    """(paren+angle) depth per token of a declaration head."""
    depths = []
    pd = ad = 0
    prev = None
    for t in head:
        if t.kind == PUNCT and t.text in (")", ">", ">>"):
            if t.text == ")":
                pd = max(0, pd - 1)
            elif t.text == ">>" and ad > 0:
                # lexed as a shift token, but in a declaration head it is
                # two template closers (C++11 `>>` rule)
                ad = max(0, ad - 2)
            elif t.text == ">" and ad > 0:
                ad -= 1
        depths.append(pd + ad)
        if t.kind == PUNCT:
            if t.text == "(":
                pd += 1
            elif t.text == "<" and prev is not None and (
                    prev.kind == ID or prev.text in (">", "::")):
                ad += 1
        prev = t
    return depths


def _classify_head(head):
    """What does the `{` after `head` open?
    Returns ("ns", name) | ("class", name) | ("enum", None) |
            ("fn", qname) | ("other", None)."""
    if not head:
        return ("other", None)
    texts = [t.text for t in head]
    depths = _top_level_indices(head)

    if "namespace" in texts:
        ns = ""
        take = False
        for t in head:
            if t.text == "namespace":
                take = True
            elif take and t.kind == ID:
                ns = t.text  # inline nested a::b not used in this repo
        return ("ns", ns)

    if head[0].text == "enum" or (len(texts) > 1 and texts[0] == "typedef"
                                  and "enum" in texts):
        return ("enum", None)

    kw = [i for i, t in enumerate(head)
          if t.text in ("class", "struct", "union") and depths[i] == 0]
    if kw:
        # truncate at a top-level lone ':' (base clause)
        end = len(head)
        for i in range(kw[0] + 1, len(head)):
            if head[i].kind == PUNCT and head[i].text == ":" and depths[i] == 0:
                end = i
                break
        name = None
        for i in range(kw[0] + 1, end):
            t = head[i]
            if t.kind == ID and depths[i] == 0 and t.text != "final" \
                    and t.text not in ATTR_MACROS:
                name = t.text
        if name:
            return ("class", name)
        return ("other", None)  # anonymous struct/lambda-ish

    # Function: last top-level '(' whose preceding token names something.
    # Truncate at a ctor-initializer ':' (a top-level lone ':' after ')').
    end = len(head)
    seen_close = False
    for i, t in enumerate(head):
        if t.kind == PUNCT and t.text == ")" :
            seen_close = True
        if t.kind == PUNCT and t.text == ":" and depths[i] == 0 and seen_close:
            end = i
            break
    cand = None
    for i in range(end):
        t = head[i]
        if t.kind == PUNCT and t.text == "(" and depths[i] == 0 and i > 0:
            prev = head[i - 1]
            if prev.kind == ID and prev.text not in ATTR_MACROS \
                    and prev.text not in CONTROL_KEYWORDS:
                cand = i
            elif prev.kind == PUNCT and prev.text == ")" and i >= 3 \
                    and head[i - 3].text == "operator":
                cand = i  # operator()(...)
            elif prev.kind == PUNCT and i >= 2 \
                    and head[i - 2].text == "operator":
                cand = i  # operator<, operator==, ...
    if cand is None:
        return ("other", None)
    # assemble the (possibly qualified) declarator name
    j = cand - 1
    name = head[j].text
    if head[j].kind == PUNCT:
        # operator overload: walk back to the `operator` keyword
        sym = ""
        while j >= 0 and head[j].kind == PUNCT:
            sym = head[j].text + sym
            j -= 1
        if j >= 0 and head[j].text == "operator":
            name = "operator" + sym
        else:
            return ("other", None)
    if j >= 1 and head[j - 1].kind == PUNCT and head[j - 1].text == "~":
        name = "~" + name
        j -= 1
    parts = [name]
    while j >= 2 and head[j - 1].kind == PUNCT and head[j - 1].text == "::" \
            and head[j - 2].kind == ID:
        parts.insert(0, head[j - 2].text)
        j -= 2
    return ("fn", "::".join(parts))


def _strip_attr_calls(seg, depths=None):
    """Segment with attribute-macro calls (GUARDED_BY(...) etc.) removed.
    Returns (stripped_tokens, guards) where guards is the list of
    GUARDED_BY argument strings encountered."""
    out = []
    guards = []
    i = 0
    while i < len(seg):
        t = seg[i]
        if t.kind == ID and t.text in ATTR_MACROS and i + 1 < len(seg) \
                and seg[i + 1].text == "(":
            depth = 0
            j = i + 1
            arg = []
            while j < len(seg):
                if seg[j].text == "(":
                    depth += 1
                elif seg[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth >= 1:
                    arg.append(seg[j].text)
                j += 1
            if t.text == "GUARDED_BY":
                guards.append("".join(arg))
            i = j + 1
            continue
        out.append(t)
        i += 1
    return out, guards


def _parse_field_segment(seg, cls, fname, comments_by_line):
    """A `;`-terminated class/namespace-scope segment -> FieldDecl or
    MutexDecl or None."""
    if not seg:
        return None
    stripped, guards = _strip_attr_calls(seg)
    if not stripped:
        return None
    lead = stripped[0].text
    if lead in NON_FIELD_LEADS or lead == "static_assert":
        return None
    texts = [t.text for t in stripped]
    if "operator" in texts:
        return None
    # Split off any initializer: `= ...` or `{...}` / `(...)` after the name.
    depths = _top_level_indices(stripped)
    name_idx = None
    init_start = None
    for i, t in enumerate(stripped):
        if depths[i] != 0:
            continue
        if t.kind == PUNCT and t.text in ("=", "{"):
            init_start = i
            break
        if t.kind == PUNCT and t.text == "(" and i > 0 \
                and stripped[i - 1].kind == ID:
            # method prototype (or paren-init member — rare; treat as proto
            # unless the preceding type chain names a Mutex)
            init_start = i
            break
        if t.kind == ID:
            name_idx = i
    if name_idx is None or name_idx == 0:
        return None
    name = stripped[name_idx].text
    type_toks = stripped[:name_idx]
    type_str = " ".join(t.text for t in type_toks).replace(" :: ", "::") \
        .replace(" < ", "<").replace(" > ", ">").replace(" , ", ", ")
    line = stripped[name_idx].line

    base_type = type_str.replace("mutable ", "").strip()
    if base_type in ("Mutex", "common::Mutex", "SharedMutex",
                     "common::SharedMutex"):
        return MutexDecl(cls=cls, name=name, file=fname, line=line)

    if init_start is not None and stripped[init_start].text == "(" :
        return None  # method prototype
    has_comment = bool(comments_by_line.get(line)) or \
        bool(comments_by_line.get(line - 1))
    return FieldDecl(cls=cls, name=name, type_str=type_str, line=line,
                     file=fname, guarded_by=guards[0] if guards else "",
                     has_comment=has_comment)


# --------------------------------------------------------------------------
# Function-body extraction
# --------------------------------------------------------------------------

_MEMORY_ORDERS = {
    "memory_order_relaxed", "memory_order_acquire", "memory_order_release",
    "memory_order_acq_rel", "memory_order_seq_cst", "memory_order_consume",
    # common::Atomic shim aliases (atomic_shim.h re-exports the std names)
    "kRelaxed", "kAcquire", "kRelease", "kAcqRel", "kSeqCst",
}


def _receiver_of(body, i):
    """For a call at body[i] (the name token), the receiver chain info:
    (receiver_member, qualifier, is_member)."""
    qual_parts = []
    j = i - 1
    is_member = False
    receiver = ""
    if j >= 0 and body[j].kind == PUNCT and body[j].text in (".", "->"):
        is_member = True
        k = j - 1
        if k >= 0 and body[k].kind == ID:
            receiver = body[k].text
        elif k >= 0 and body[k].text == ")":
            receiver = "<expr>"
        return receiver, "", True
    while j >= 1 and body[j].kind == PUNCT and body[j].text == "::" \
            and body[j - 1].kind == ID:
        qual_parts.insert(0, body[j - 1].text)
        j -= 2
    return receiver, "::".join(qual_parts), is_member


def _extract_body(fn, body):
    """Populate fn.calls / fn.acquisitions / fn.orders / fn.news from the
    function's code-token body slice."""
    n = len(body)
    # Pre-compute matching close brace for each open brace.
    close_of = {}
    stack = []
    for i, t in enumerate(body):
        if t.kind == PUNCT:
            if t.text == "{":
                stack.append(i)
            elif t.text == "}" and stack:
                close_of[stack.pop()] = i
    open_braces = []  # indices of braces currently open at cursor

    # Argument ranges of std::thread / std::jthread / std::async
    # constructions: calls in there execute on the spawned thread, which
    # starts with an empty lock set and is off the caller's fast path.
    deferred_ranges = []
    for i, t in enumerate(body):
        if t.kind == ID and t.text in ("thread", "jthread", "async") \
                and i + 1 < n and body[i + 1].text == "(":
            depth = 0
            for j in range(i + 1, n):
                if body[j].text == "(":
                    depth += 1
                elif body[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        deferred_ranges.append((i + 1, j))
                        break

    def is_deferred(idx):
        return any(lo < idx < hi for lo, hi in deferred_ranges)

    last_call_name = ""
    i = 0
    while i < n:
        t = body[i]
        if t.kind == PUNCT:
            if t.text == "{":
                open_braces.append(i)
            elif t.text == "}" and open_braces:
                open_braces.pop()
            i += 1
            continue
        if t.kind != ID:
            i += 1
            continue

        # `new` expression
        if t.text == "new":
            what = " ".join(x.text for x in body[i + 1:i + 4])
            fn.news.append(NewExpr(line=t.line, what=what))
            i += 1
            continue

        # memory_order argument
        if t.text in _MEMORY_ORDERS or (
                t.text == "memory_order" and i + 2 < n
                and body[i + 1].text == "::"):
            order = t.text
            if t.text == "memory_order":
                order = "memory_order_" + body[i + 2].text
            fn.orders.append(AtomicOrderUse(order=order, line=t.line,
                                            op_name=last_call_name))
            i += 1
            continue

        nxt = body[i + 1] if i + 1 < n else None
        is_call = nxt is not None and nxt.kind == PUNCT and nxt.text == "("

        # RAII guard declaration: [common::] MutexLock name(expr...);
        if t.text in GUARD_TYPES and nxt is not None:
            gi = i + 1
            if body[gi].kind == ID:          # variable name
                gi += 1
            if gi < n and body[gi].text == "(":
                depth = 0
                j = gi
                arg = []
                while j < n:
                    if body[j].text == "(":
                        depth += 1
                    elif body[j].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif depth >= 1:
                        arg.append(body[j].text)
                    j += 1
                end = close_of.get(open_braces[-1], n) if open_braces else n
                fn.acquisitions.append(Acquisition(
                    mutex_expr="".join(arg), kind=GUARD_TYPES[t.text],
                    line=t.line, tok=i, end_tok=end, via=t.text))
                i = j + 1
                continue

        # Explicit x.Lock() / x.LockShared() / x.TryLock()
        if is_call and t.text in ("Lock", "LockShared", "TryLock",
                                  "TryLockShared") and i >= 2 \
                and body[i - 1].text in (".", "->"):
            expr = body[i - 2].text
            kind = "shared" if "Shared" in t.text else "exclusive"
            # Held until the matching Unlock on the same expr, else fn end.
            end = n
            for j in range(i + 1, n):
                if body[j].kind == ID and body[j].text in (
                        "Unlock", "UnlockShared") and j >= 2 \
                        and body[j - 1].text in (".", "->") \
                        and body[j - 2].text == expr:
                    end = j
                    break
            fn.acquisitions.append(Acquisition(
                mutex_expr=expr, kind=kind, line=t.line, tok=i, end_tok=end,
                via="Lock()", is_try=t.text.startswith("Try")))
            last_call_name = t.text
            i += 1
            continue

        if is_call and t.text not in CONTROL_KEYWORDS \
                and t.text not in ATTR_MACROS:
            receiver, qualifier, is_member = _receiver_of(body, i)
            fn.calls.append(CallSite(name=t.text, receiver=receiver,
                                     qualifier=qualifier, line=t.line,
                                     tok=i, is_member=is_member,
                                     deferred=is_deferred(i)))
            last_call_name = t.text
        i += 1


# --------------------------------------------------------------------------
# File + program assembly
# --------------------------------------------------------------------------

def parse_file(path, program, collect_functions=True):
    text = Path(path).read_text(errors="replace")
    all_toks = lex(text)
    program.files[str(path)] = all_toks
    toks = code_tokens(all_toks)
    comments_by_line = {}
    for t in all_toks:
        if t.kind == COMMENT:
            comments_by_line.setdefault(t.line, []).append(t.text)
            for extra in range(t.text.count("\n")):
                comments_by_line.setdefault(t.line + 1 + extra,
                                            []).append(t.text)

    fname = str(path)
    n = len(toks)
    i = 0
    seg_start = 0
    # scope stack entries: (kind, name) with kind in ns|class|enum|fn|other
    scopes = []

    def ns_qname():
        return "::".join(name for kind, name in scopes if kind == "ns" and name)

    def cls_qname():
        parts = [name for kind, name in scopes if kind == "class"]
        return "::".join(parts)

    def in_body():
        return any(kind == "fn" for kind, _ in scopes)

    while i < n:
        t = toks[i]
        if t.kind == PUNCT and t.text == "{":
            head = toks[seg_start:i]
            kind, name = _classify_head(head)
            if kind == "fn" and not in_body():
                cls = cls_qname()
                qname_parts = [p for p in (cls, name) if p]
                qname = "::".join(qname_parts)
                # out-of-line member: name itself may carry Class:: quals
                if "::" in name and not cls:
                    qname = name
                fn = Function(qname=qname,
                              cls="::".join(qname.split("::")[:-1]),
                              file=fname,
                              line=head[0].line if head else t.line)
                end = _match_brace(toks, i)
                fn.body = toks[i:end + 1]
                if collect_functions:
                    _extract_body(fn, fn.body)
                    program.add_function(fn)
                i = end + 1
                seg_start = i
                continue
            if kind == "ns":
                scopes.append(("ns", name))
            elif kind == "class":
                scopes.append(("class", name))
                program.classes.add(name)
            elif kind == "enum":
                i = _match_brace(toks, i) + 1
                seg_start = i
                continue
            else:
                # Unknown head (brace-initialized variable, array init...):
                # swallow the braces into the running segment.
                end = _match_brace(toks, i)
                i = end + 1
                continue
            i += 1
            seg_start = i
            continue
        if t.kind == PUNCT and t.text == "}":
            if scopes:
                scopes.pop()
            i += 1
            seg_start = i
            continue
        if t.kind == PUNCT and t.text == ";":
            seg = toks[seg_start:i]
            if seg and not in_body():
                decl = _parse_field_segment(
                    seg, cls_qname(), fname, comments_by_line)
                if isinstance(decl, MutexDecl):
                    program.mutexes.append(decl)
                elif isinstance(decl, FieldDecl) and decl.cls:
                    program.fields.setdefault(decl.cls, []).append(decl)
            i += 1
            seg_start = i
            continue
        if t.kind == PUNCT and t.text == ":" and not in_body():
            # access specifier => reset segment
            seg = toks[seg_start:i]
            if len(seg) == 1 and seg[0].text in ("public", "private",
                                                 "protected"):
                seg_start = i + 1
        i += 1
    return program


def load_program(paths):
    program = Program()
    for p in sorted(set(str(x) for x in paths)):
        parse_file(p, program)
    return program


def comment_lines(program, path):
    """line -> concatenated comment text for a file (justification checks)."""
    out = {}
    for t in program.files.get(str(path), []):
        if t.kind == COMMENT:
            for off in range(t.text.count("\n") + 1):
                out.setdefault(t.line + off, []).append(t.text)
    return out
