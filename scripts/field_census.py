#!/usr/bin/env python3
"""Field census: list every named struct field under crates/*/src whose only
non-test uses are writes or upkeep.

Usage:  python3 scripts/field_census.py [repo] [Struct::field ...]

Prints one line per listed field; each `Struct::field` argument also prints
every use the script counted for that field, with its file and line.  The
census is lexical, not type-checked: read what it lists before acting on it.

Definitions come from crates/*/src.  Uses are counted in crates/*/src, src/
and examples/ outside `#[cfg(test)]` items; crates/*/tests and tests/ are
test code and never count.  A use of field `f` is

  write   `x.f = ..`, `x.f += ..` (any compound assignment), `&mut x.f`,
          or an assignment through it (`x.f.g += 1`);
  upkeep  a statement that starts with `x.f.<m>(..)` for a mutating
          collection method m (push, insert, drain, retain, ...), whose
          result nothing binds, or a `.len()` / `.is_empty()` guard inside a
          function that also writes or upkeeps `f` (its own pruning code);
  read    anything else, including a call of an accessor — a method whose
          body is `self.f` / `&self.f` — anywhere outside tests.

Struct-literal initialisers are not uses.  A receiver is resolved to a
struct where the script can: `self` by the enclosing `impl`, `self.g` by
g's declared type, `Type::f(..)` by f's return type (or `Type`), and an
identifier by a `name: Type` binding in the enclosing function; an unresolved receiver counts for every struct with a
field (or accessor) of that name, so the census errs towards "read".  A
field whose type is a struct with every field listed is listed too.
"""

import re
import sys
from collections import defaultdict
from pathlib import Path

UPKEEP = {
    "push", "push_back", "push_front", "insert", "extend", "clear",
    "truncate", "retain", "drain", "remove", "pop", "pop_front",
    "pop_back", "entry", "append", "sort", "sort_unstable", "dedup",
}
GUARDS = {"len", "is_empty", "values_mut", "iter_mut"}
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


def strip(src):
    """Blank comments and string/char literals, keeping offsets and lines."""
    out, i, n = list(src), 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif re.match(r'(b?r)(#*)"', src[i:i + 12]) and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            m = re.match(r'(b?r)(#*)"', src[i:])
            end = src.find('"' + m.group(2), i + len(m.group(0)))
            j = end + 1 + len(m.group(2))
            blank(i + 1, j - 1)
            i = j
        elif c == '"':
            j = i + 1
            while src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c == "'":
            m = re.match(r"'(\\.[^']*|[^\\'])'", src[i:])
            if m:
                blank(i + 1, i + len(m.group(0)) - 1)
                i += len(m.group(0))
            else:
                i += 1  # a lifetime
        else:
            i += 1
    return "".join(out)


def match_brace(s, i, pair="{}"):
    """Index just past the block opening at s[i] == pair[0]."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] == pair[0]:
            depth += 1
        elif s[j] == pair[1]:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(s)


def test_spans(s):
    """Spans of items under `#[cfg(test)]`."""
    spans = []
    for m in re.finditer(r"#\[cfg\(test\)\]", s):
        j = m.end()
        semi, brace = s.find(";", j), s.find("{", j)
        if brace < 0 or (0 <= semi < brace):
            spans.append((m.start(), semi + 1))
        else:
            spans.append((m.start(), match_brace(s, brace)))
    return spans


def split_top(body):
    """Split on commas outside brackets (the `>` of `->` closes none)."""
    parts, depth, cur = [], 0, []
    for i, c in enumerate(body):
        if c in "<([{":
            depth += 1
        elif c in ">)]}" and body[i - 1:i + 1] != "->":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


class Source:
    def __init__(self, path, root, defines):
        self.path = path
        self.rel = str(path.relative_to(root))
        self.crate = self.rel.split("/")[1] if self.rel.startswith("crates/") else self.rel
        self.text = strip(path.read_text())
        self.tests = test_spans(self.text)
        self.defines = defines
        self.impls = []  # (start, end, type)
        for m in re.finditer(r"(?<![>:,(]\s)(?<![>:,(])\bimpl\b(\s*<[^{]*?>)?\s+([^{;]*?)\s*(where[^{]*)?\{", self.text):
            head = m.group(2)
            head = head.split(" for ")[-1]
            name = re.match(r"\s*&?\s*(" + IDENT + ")", head)
            if name:
                self.impls.append((m.end() - 1, match_brace(self.text, m.end() - 1), name.group(1)))
        self.fns = []  # (start, body_start, end, name, header)
        for m in re.finditer(r"\bfn\s+(" + IDENT + r")", self.text):
            k = m.end()
            depth = 0
            while k < len(self.text):
                c = self.text[k]
                if self.text.startswith("->", k):
                    k += 2
                    continue
                if c in "(<[":
                    depth += 1
                elif c in ")>]":
                    depth -= 1
                elif c == ";" and depth == 0:
                    k = -1
                    break
                elif c == "{" and depth == 0:
                    break
                k += 1
            if k < 0:
                continue
            self.fns.append((m.start(), k, match_brace(self.text, k), m.group(1), self.text[m.start():k]))

    def is_test(self, pos):
        return any(a <= pos < b for a, b in self.tests)

    def impl_at(self, pos):
        best = None
        for a, b, name in self.impls:
            if a <= pos < b and (best is None or a > best[0]):
                best = (a, name)
        return best and best[1]

    def fn_at(self, pos):
        best = None
        for f in self.fns:
            if f[1] <= pos < f[2] and (best is None or f[1] > best[1]):
                best = f
        return best


def parse_structs(src):
    structs = []
    for m in re.finditer(r"\bstruct\s+(" + IDENT + r")(\s*<[^{;(]*?>)?\s*(where[^{]*)?\{", src.text):
        if src.is_test(m.start()):
            continue
        end = match_brace(src.text, m.end() - 1)
        body = src.text[m.end():end - 1]
        fields = []
        for part in split_top(body):
            part = re.sub(r"#\[[^\]]*\]", "", part).strip()
            fm = re.match(r"(pub(\([^)]*\))?\s+)?(" + IDENT + r")\s*:(.*)$", part, re.S)
            if fm:
                fields.append((fm.group(3), " ".join(fm.group(4).split())))
        structs.append((m.group(1), fields))
    return structs


def type_names(ty, known):
    return [t for t in re.findall(IDENT, ty) if t in known]


def main():
    args = [a for a in sys.argv[1:] if "::" not in a]
    show = [a for a in sys.argv[1:] if "::" in a]
    root = Path(args[0] if args else ".").resolve()
    defs = sorted(root.glob("crates/*/src/**/*.rs"))
    users = defs + sorted(root.glob("src/**/*.rs")) + sorted(root.glob("examples/*.rs"))
    sources = [Source(p, root, p in defs) for p in users]

    fields = {}  # (struct, field) -> type
    by_field = defaultdict(set)
    struct_crate = {}
    for src in sources:
        if not src.defines:
            continue
        for name, fs in parse_structs(src):
            struct_crate[name] = src.crate
            for f, ty in fs:
                fields[(name, f)] = ty
                by_field[f].add(name)
    known = set(struct_crate)

    # Methods per type, their return types, and accessors: methods whose
    # body is the field itself.
    methods = defaultdict(set)  # method name -> {type}
    returns = defaultdict(set)  # method name -> {struct named in the return type}
    accessors = defaultdict(set)  # method name -> {(struct, field)}
    accessor_bodies = set()  # (file, body start)
    for src in sources:
        for start, body, end, name, header in src.fns:
            owner = src.impl_at(start)
            if owner:
                methods[name].add(owner)
            ret = header.split("->", 1)
            if len(ret) == 2:
                returns[name] |= set(type_names(ret[1], known))
            if src.is_test(start) or "self" not in header:
                continue
            inner = " ".join(src.text[body + 1:end - 1].split())
            am = re.fullmatch(r"&?\s*(mut\s+)?self\.(" + IDENT + r")(\.clone\(\))?", inner)
            if am and owner and (owner, am.group(2)) in fields:
                accessors[name].add((owner, am.group(2)))
                accessor_bodies.add((src.rel, body))

    def resolve(src, pos, recv, candidates):
        """Structs among `candidates` the receiver expression may be."""
        recv = " ".join(recv.split()).replace(" .", ".").replace(". ", ".")
        owner = src.impl_at(pos)
        if recv == "self" and owner in candidates:
            return {owner}
        m = re.fullmatch(r"self\.(" + IDENT + ")", recv)
        if m and owner and (owner, m.group(1)) in fields:
            hit = set(type_names(fields[(owner, m.group(1))], known)) & candidates
            if hit:
                return hit
        # `Type::f(..)`: what `f` returns, or `Type` itself (`Self`).
        m = re.match(r"(?:" + IDENT + r"::)*(" + IDENT + r")::(" + IDENT + r")\(", recv)
        if m and recv.endswith(")"):
            ty = owner if m.group(1) == "Self" else m.group(1)
            hit = (returns.get(m.group(2), set()) | {ty}) & candidates
            if hit:
                return hit
        m = re.search(r"\.(" + IDENT + r")\(\)$", recv)
        if m and returns.get(m.group(1)):
            hit = returns[m.group(1)] & candidates
            if hit:
                return hit
        if re.fullmatch(IDENT, recv):
            fn = src.fn_at(pos)
            scope = src.text[fn[0]:pos] if fn else ""
            hits = set()
            for bm in re.finditer(r"(?<![\w.])" + recv + r"\s*:\s*([^=;{]+)", scope):
                hits |= set(type_names(bm.group(1)[:120], known)) & candidates
            # `let recv = <expr>.method(..)` (unwrapping wrappers aside).
            for bm in re.finditer(r"\blet\s+(mut\s+)?" + recv + r"\s*=([^;]*);", scope):
                calls = [c for c in re.findall(r"\.\s*(" + IDENT + r")\s*\(", bm.group(2))
                         if c not in ("expect", "unwrap", "clone", "as_ref", "as_mut", "unwrap_or_default")]
                if calls:
                    hits |= returns.get(calls[-1], set()) & candidates
            if hits:
                return hits
        return set(candidates)

    uses = defaultdict(list)  # (struct, field) -> [(kind, where, fn)]
    index = r"(?:\s*\[[^\[\]]*\])*"
    chain = re.compile(r"(?<![\w.])(" + IDENT + r")((?:" + index + r"\s*\.\s*" + IDENT + r"(?:\s*\(\))?)+)")
    # A chain may also start at a type's function: `Type::f(..).g()`.
    path_call = re.compile(r"(?<![\w.:])((?:" + IDENT + r"\s*::\s*)+" + IDENT + r")\s*(::\s*<[^>]*>\s*)?\(")
    link = re.compile(index + r"\s*\.\s*(" + IDENT + r")(\s*\(\))?")

    def walk(src, start, j):
        """Counts the uses along the links after `t[start:j]`, the receiver."""
        t = src.text
        line = t.count("\n", 0, start) + 1
        where = f"{src.rel}:{line}"
        fn = src.fn_at(start)
        fn_key = (src.rel, fn[1]) if fn else None
        if fn_key in accessor_bodies:
            return  # an accessor's callers are its uses
        recv = t[start:j]
        while True:
            lm = link.match(t, j)
            if not lm:
                break
            name, j = lm.group(1), lm.end()
            called = lm.group(2) or re.match(r"\s*(::\s*<[^>]*>\s*)?\(", t[j:j + 80])
            if called and name in accessors:
                owners = resolve(src, start, recv, methods[name])
                for key in accessors[name]:
                    if key[0] in owners:
                        uses[key].append(("read", where + f" ({name}())", fn_key))
            elif not called and name in by_field:
                kind = classify(t, start, lm.end())
                for s in resolve(src, start, recv, by_field[name]):
                    uses[(s, name)].append((kind, where, fn_key))
            if called and not lm.group(2):
                break  # arguments follow: the chain ends here
            recv = t[start:j]

    for src in sources:
        t = src.text
        for m in chain.finditer(t):
            if not (src.is_test(m.start()) or m.group(1)[0].isupper()):
                walk(src, m.start(), m.end(1))
        for m in path_call.finditer(t):
            types = [p.strip()[0].isupper() for p in m.group(1).split("::")[:-1]]
            if not src.is_test(m.start()) and any(types):
                walk(src, m.start(), match_brace(t, m.end() - 1, "()"))
        # Destructuring patterns: `Name { field, other: x, .. } = / =>`.
        for m in re.finditer(r"(?<![\w:])(" + IDENT + r")\s*\{", t):
            if m.group(1) not in known or src.is_test(m.start()):
                continue
            end = match_brace(t, m.end() - 1)
            body = t[m.end():end - 1]
            before = t[max(0, m.start() - 30):m.start()]
            after = t[end:end + 3].lstrip()
            is_pattern = (
                re.search(r"\blet\s+(&\s*(mut\s+)?)?$", before)
                or re.match(r"(=(?!=)|:|\|)", after)
                or re.search(r"\.\.\s*$", body)
            )
            if not is_pattern or re.search(r"\bstruct\s+$", before):
                continue
            line = t.count("\n", 0, m.start()) + 1
            for part in split_top(body):
                pm = re.match(r"\s*(ref\s+)?(mut\s+)?(" + IDENT + r")\s*(:\s*(\S+))?", part)
                if pm and (m.group(1), pm.group(3)) in fields and pm.group(5) != "_":
                    uses[(m.group(1), pm.group(3))].append(("read", f"{src.rel}:{line} (pattern)", None))

    # Guards in a function that also maintains the field count as upkeep.
    listed = {}
    for key in fields:
        us = uses.get(key, [])
        maint_fns = {f for k, _, f in us if k in ("write", "upkeep")}
        reads = [u for u in us if u[0] == "read" or (u[0] == "guard" and u[2] not in maint_fns)]
        if not reads:
            listed[key] = us

    # A field holding a struct whose fields are all listed is listed too,
    # unless something outside tests reads the whole struct.
    changed = True
    while changed:
        changed = False
        for key, ty in fields.items():
            names = type_names(ty, known)
            if key in listed or len(names) != 1:
                continue
            inner = [k for k in fields if k[0] == names[0]]
            whole = [u for u in uses.get(key, []) if u[0] == "read" and "()" in u[1]]
            if inner and all(k in listed for k in inner) and not whole:
                listed[key] = uses.get(key, [])
                changed = True

    for want in show:
        for kind, where, _ in uses.get(tuple(want.split("::")), []):
            print(f"  {want} {kind} {where}")
    print(f"{len(fields)} named fields in {len(known)} structs; {len(listed)} with no non-test reader")
    for (s, f) in sorted(listed, key=lambda k: (struct_crate[k[0]], k)):
        kinds = defaultdict(int)
        for k, _, _ in listed[(s, f)]:
            kinds["upkeep" if k == "guard" else k] += 1
        summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())) or "no use"
        print(f"{struct_crate[s]:10} {s + '::' + f:44} {summary}")


def classify(t, start, after):
    """write / upkeep / guard / read for the place `t[start:after]`."""
    j = after
    while True:
        m = re.match(r"\s*\.\s*(" + IDENT + r")\b(?!\s*\()", t[j:])
        if m:
            j += m.end()
            continue
        m = re.match(r"\s*\[", t[j:])
        if m:
            depth, k = 0, j + m.end() - 1
            while True:
                depth += {"[": 1, "]": -1}.get(t[k], 0)
                k += 1
                if depth == 0:
                    break
            j = k
            continue
        break
    rest = t[j:j + 80]
    before = t[max(0, start - 40):start]
    if re.match(r"\s*(=(?![=>])|[-+*/%|&^]=|<<=|>>=)", rest):
        return "write"
    if re.search(r"&\s*mut\s*$", before):
        return "read" if re.search(r"[(,]\s*&\s*mut\s*$", before) else "write"
    place = " ".join(t[start:j].split())
    stmt = t[t.rfind(";", 0, start) + 1:start]
    if re.search(re.escape(place) + r"\s*(=(?![=>])|[-+*/%|&^]=)\s*$", " ".join(stmt.split()) + " "):
        return "write"  # `x.f = g(x.f)` only feeds the field itself
    m = re.match(r"\s*\.\s*(" + IDENT + r")\s*\(", rest)
    if m:
        stmt_start = re.search(r"(^|[;{}])\s*$", before) is not None
        if m.group(1) in UPKEEP and stmt_start:
            return "upkeep"
        if m.group(1) in ("values_mut", "iter_mut") and re.search(r"\bin\s*$", before):
            return "upkeep"  # `for v in x.f.values_mut()` rewrites the field in place
        if m.group(1) in GUARDS:
            return "guard"
    return "read"


if __name__ == "__main__":
    main()
