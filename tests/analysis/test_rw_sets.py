"""Read/write set (effects) analysis tests."""

from repro.analysis.connection import ConnectionInfo
from repro.analysis.points_to import analyze_points_to
from repro.analysis.rw_sets import UNKNOWN, EffectsAnalysis, keys_overlap
from repro.frontend.types import FieldPath
from repro.simple import nodes as s
from repro.simple.traversal import basic_defs, basic_uses
from tests.conftest import to_simple

NODE = "struct node { int v; int w; struct node *next; };"


def build(source):
    simple = to_simple(source)
    pts = analyze_points_to(simple)
    effects = EffectsAnalysis(simple, pts)
    return simple, effects, ConnectionInfo(simple, pts, effects)


def find_stmt(func, predicate):
    for stmt in func.body.walk():
        if predicate(stmt):
            return stmt
    raise AssertionError("statement not found")


class TestKeysOverlap:
    def test_equal_keys(self):
        assert keys_overlap(("v",), ("v",))

    def test_distinct_fields(self):
        assert not keys_overlap(("v",), ("w",))

    def test_star_overlaps_everything(self):
        assert keys_overlap(("*",), ("v",))
        assert keys_overlap(("v",), ("*",))

    def test_prefix_nesting(self):
        assert keys_overlap(("a",), ("a", "b"))
        assert keys_overlap(("a", "b"), ("a",))
        assert not keys_overlap(("a", "b"), ("a", "c"))


class TestBasicEffects:
    SRC = NODE + """
        int f(struct node *p, struct node *q) {
            int x;
            x = p->v;
            q->w = x;
            return x;
        }
    """

    def test_read_effect_recorded_with_base(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        read = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                         and isinstance(st.rhs, s.FieldReadRhs))
        recorded = effects.effects(func, read)
        assert any(e.base == "p" and e.key == ("v",)
                   for e in recorded.heap_reads.values())
        assert not recorded.heap_writes

    def test_write_effect_recorded(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        recorded = effects.effects(func, write)
        assert any(e.base == "q" and e.key == ("w",)
                   for e in recorded.heap_writes.values())

    def test_compound_aggregates_children(self):
        simple, effects, _ = build(NODE + """
            int f(struct node *p) {
                int t; t = 0;
                while (p != NULL) { t = t + p->v; p = p->next; }
                return t;
            }
        """)
        func = simple.function("f")
        loop = find_stmt(func, lambda st: isinstance(st, s.WhileStmt))
        recorded = effects.effects(func, loop)
        assert "p" in recorded.var_writes  # p reassigned in the body
        assert any(e.key == ("v",) for e in recorded.heap_reads.values())


class TestRewrittenAssignments:
    """Selection and forwarding rewrite assignments in place while the
    analysis is in use; effects describe a statement as it stands at
    its first query."""

    SRC = NODE + """
        int f(struct node *p) {
            int x;
            p->v = 1;
            x = p->w;
            return x;
        }
    """

    def test_rewritten_before_first_query_uses_new_form(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        store = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        store.lhs = s.VarLV("x")
        recorded = effects.effects(func, store)
        assert recorded.var_writes == {"x"}
        assert not recorded.heap_writes

    def test_unchanged_statement_keeps_built_effects(self):
        simple, effects, _ = build(self.SRC)
        func = simple.function("f")
        load = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                         and isinstance(st.rhs, s.FieldReadRhs))
        first = effects.effects(func, load)
        assert any(e.key == ("w",) for e in first.heap_reads.values())
        assert effects.effects(func, load) is first


class TestSummaries:
    def test_callee_heap_writes_visible_at_call(self):
        simple, effects, _ = build(NODE + """
            int poke(struct node *t) { t->v = 1; return 0; }
            int f(struct node *p) { return poke(p); }
        """)
        func = simple.function("f")
        call = find_stmt(func, lambda st: isinstance(st, s.CallStmt)
                         and st.func == "poke")
        recorded = effects.effects(func, call)
        assert any(e.base is None and e.key == ("v",)
                   for e in recorded.heap_writes.values())

    def test_recursive_summary_converges(self):
        simple, effects, _ = build(NODE + """
            int walk(struct node *t) {
                if (t == NULL) return 0;
                t->v = 1;
                return walk(t->next);
            }
        """)
        summary = effects.summary("walk")
        assert any(e.key == ("v",) for e in summary.heap_writes.values())

    def test_callee_locals_not_in_summary(self):
        simple, effects, _ = build("""
            int g() { int hidden; hidden = 3; return hidden; }
            int f() { return g(); }
        """)
        summary = effects.summary("g")
        assert "hidden" not in summary.var_writes

    def test_global_writes_in_summary(self):
        simple, effects, _ = build("""
            int counter;
            int bump() { counter = counter + 1; return counter; }
            int f() { return bump(); }
        """)
        summary = effects.summary("bump")
        assert "counter" in summary.var_writes


def _naive_own(pts, func, stmt):
    """One basic statement's effects without callee summaries, as
    ``(var_reads, var_writes, heap_reads, heap_writes, shared)`` sets;
    heap records are ``(base, loc, key)``."""
    reads, writes = set(), set()

    def heap(table, base, key):
        for loc in pts.points_to(func.name, base) or [UNKNOWN]:
            table.add((base, loc, key))

    if isinstance(stmt, s.AssignStmt):
        rhs, lhs = stmt.rhs, stmt.lhs
        if isinstance(rhs, s.FieldReadRhs):
            heap(reads, rhs.base, tuple(rhs.path.names))
        elif isinstance(rhs, (s.DerefReadRhs, s.IndexReadRhs)):
            heap(reads, rhs.base, ("*",))
        if isinstance(lhs, s.FieldWriteLV):
            heap(writes, lhs.base, tuple(lhs.path.names))
        elif isinstance(lhs, (s.DerefWriteLV, s.IndexWriteLV)):
            heap(writes, lhs.base, ("*",))
    elif isinstance(stmt, s.BlkmovStmt):
        if stmt.src[0] == "ptr":
            heap(reads, stmt.src[1], ("*",))
        if stmt.dst[0] == "ptr":
            heap(writes, stmt.dst[1], ("*",))
    shared = {stmt.shared_var} if isinstance(stmt, s.SharedOpStmt) \
        else set()
    return (basic_uses(stmt), basic_defs(stmt), reads, writes, shared)


def _naive_import(summary, drop=frozenset()):
    """A callee summary as seen by a caller: locals dropped, heap
    records anonymized."""
    var_reads, var_writes, reads, writes, shared = summary
    anonymize = lambda table: {(None, loc, key) for _, loc, key in table}
    return (var_reads - drop, var_writes - drop, anonymize(reads),
            anonymize(writes), set(shared))


def _union(a, b):
    return tuple(x | y for x, y in zip(a, b))


def _naive_effects(program, pts):
    """Reference: round-robin over all functions, re-deriving every
    statement's effects (callee summaries included) each round until
    no summary grows.  Returns ``(summaries, per-statement effects)``."""
    empty = (set(), set(), set(), set(), set())
    summaries = {name: empty for name in program.functions}

    def stmt_effects(func, stmt):
        own = _naive_own(pts, func, stmt)
        if isinstance(stmt, s.CallStmt) and stmt.func in summaries:
            own = _union(own, _naive_import(summaries[stmt.func]))
        return own

    changed = True
    while changed:
        changed = False
        for name, func in program.functions.items():
            fresh = summaries[name]
            for stmt in func.body.basic_stmts():
                fresh = _union(fresh, _naive_import(
                    stmt_effects(func, stmt), frozenset(func.variables)))
            if fresh != summaries[name]:
                summaries[name] = fresh
                changed = True
    per_stmt = {(name, stmt.label): stmt_effects(func, stmt)
                for name, func in program.functions.items()
                for stmt in func.body.basic_stmts()}
    return summaries, per_stmt


def _as_sets(effects):
    return (effects.var_reads, effects.var_writes,
            {e.ident() for e in effects.heap_reads.values()},
            {e.ident() for e in effects.heap_writes.values()},
            effects.shared_vars)


class TestSummariesMatchNaiveReference:
    """Summaries iterate over call edges only; the result must equal
    re-deriving every statement each round."""

    # Callers come before their callees, so one pass over the
    # functions cannot carry leaf's write up to main.
    SRC = NODE + """
        int seen;
        shared int hits;
        int middle(struct node *q);
        int main() {
            struct node *a;
            a = (struct node *) malloc(sizeof(struct node));
            a->next = NULL;
            printf("%d\\n", middle(a));
            return seen;
        }
        int leaf(struct node *q);
        int odd(struct node *t, int depth);
        int middle(struct node *q) { int k; k = leaf(q); return odd(q, k); }
        int even(struct node *t, int depth) {
            int here;
            if (t == NULL) return leaf(t);
            here = t->v;
            t->w = here + depth;
            seen = seen + 1;
            return odd(t->next, depth + 1);
        }
        int odd(struct node *t, int depth) {
            struct node *n;
            if (t == NULL) return 0;
            n = t->next;
            n->v = num_nodes();
            addto(&hits, 1);
            return even(n, depth + 1) + odd(n, depth);
        }
        int leaf(struct node *q) { q->next = NULL; return my_node(); }
    """

    def test_summaries_and_statement_effects_match(self):
        simple, effects, _ = build(self.SRC)
        pts = effects.pts
        summaries, per_stmt = _naive_effects(simple, pts)
        for name in simple.functions:
            assert _as_sets(effects.summary(name)) == summaries[name], name
        for name, func in simple.functions.items():
            for stmt in func.body.basic_stmts():
                assert _as_sets(effects.effects(func, stmt)) \
                    == per_stmt[(name, stmt.label)], stmt
        # The cases the program is meant to cover really occur.
        assert list(simple.functions)[:2] == ["main", "middle"]
        assert any(e.key == ("next",)
                   for e in effects.summary("main").heap_writes.values())
        assert "hits" in effects.summary("main").shared_vars
        assert "seen" in effects.summary("odd").var_writes


class TestAliasQueries:
    def test_direct_access_is_not_alias(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p) {
                p->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        # via alias: no (anchor handle excludes p itself)
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")
        # directly: yes
        assert conn.accessed_directly(func, "p", FieldPath.single("v"),
                                      write, "write")

    def test_aliased_write_detected(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                q->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert conn.accessed_via_alias(func, "p", FieldPath.single("v"),
                                       write, "write")

    def test_disjoint_objects_not_aliased(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                q->v = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")

    def test_different_field_no_overlap(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p, struct node *q) {
                q->w = 1;
                return p->v;
            }
        """)
        func = simple.function("f")
        write = find_stmt(func, lambda st: isinstance(st, s.AssignStmt)
                          and isinstance(st.lhs, s.FieldWriteLV))
        assert not conn.accessed_via_alias(func, "p",
                                           FieldPath.single("v"),
                                           write, "write")

    def test_blkmov_write_overlaps_all_fields(self):
        simple, effects, conn = build(NODE + """
            int f(struct node *p, struct node *q) {
                struct node buf;
                *q = buf;
                return p->v;
            }
        """)
        func = simple.function("f")
        blk = find_stmt(func, lambda st: isinstance(st, s.BlkmovStmt)
                        and st.dst[0] == "ptr")
        assert conn.accessed_via_alias(func, "p", FieldPath.single("v"),
                                       blk, "write")

    def test_var_written_via_call_on_global(self):
        simple, effects, conn = build("""
            int g;
            int set() { g = 5; return 0; }
            int f() { int t; t = g; set(); return t + g; }
        """)
        func = simple.function("f")
        call = find_stmt(func, lambda st: isinstance(st, s.CallStmt)
                         and st.func == "set")
        assert conn.var_written(func, "g", call)

    def test_connected_relation(self):
        simple, effects, conn = build(NODE + """
            int f() {
                struct node *p; struct node *q; struct node *r;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                r = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        """)
        assert conn.connected("f", "p", "f", "q")
        assert not conn.connected("f", "p", "f", "r")
