// Package rules holds the module's structural rules as one test. Each rule
// names a mechanism the code keeps one of, points at the comment that says
// why, and finds a second one growing back in the files it covers. Each rule
// also carries a seeded violation it must report, so a rule that stops
// catching anything fails too. Comments are not code: no rule reads them.
package rules

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A rule is one structural invariant. in lists globs over slash paths from
// the module root ("**" crosses directories, "!" excludes); the seed is a
// file at the first glob, each "*" read as "x", that breaks the rule.
type rule struct {
	step, why, in string
	check         check
	seed          string
}

// tombstones are the names of deleted mechanisms, with the PR that deleted
// them and the files they must not come back to. Each name is a rule.
var tombstones = []struct {
	step, why, in, names string
	pr                   int
}{
	{"One parallel engine", `"Frontier" in internal/core/explore.go`, "internal/core/*.go", "wsDeque dequeFrontier parallelShards refWorkerShift TryLock parallelism", 42},
	{"One goroutine admits", "explorer.run returns how it ended", "internal/core/explore.go", "firstErr", 47},
	{"One extrapolation", "dbm.ExtraBounds, internal/dbm/extrapolation.go", "**.go", "ExtraLU SetCoarseExtrapolation LowerConsts UpperConsts", 28},
	{"One successor enumerator", "engine.successors, internal/core/succ.go", "**.go", "legacyScan successorsScan delayAllowedScan enabledSyncEdges SetLegacyEnumerator OutEdges outEdges", 31},
	{"One publication cell", "workerCell, internal/core/perworker.go", "internal/**.go", "workerCounts memBudget stealCells", 33},
	{"Waiting states are nodes", `"Frontier" in internal/core/explore.go`, "internal/core/**.go", "restoreZone releaseZone []atomic.Pointer[State]", 34},
	{"One discrete encoding", `"Keys" in internal/core/store.go`, "internal/core/**.go", "internTable", 35},
	{"One discrete encoding", `"Keys" in internal/core/store.go`, core, "discreteHash discreteKey", 49},
	{"One abort signal", "the job type, internal/serve/jobs.go", "internal/serve/jobs.go", "cancelCh cancelOnce time.NewTimer", 50},
	{"One grammar for model text", "ta.ParsePred, internal/ta/pred.go", "internal/core/*.go", "ParsePredicate parseAtom FindClock", 54},
	{"A matrix is recycled with its State", `"Zone ownership" on succCtx, internal/core/succ.go`, "**.go", "dbm.Pool NewPool", 55},
	{"A matrix is recycled with its State", `"Zone ownership" on succCtx, internal/core/succ.go`, "internal/core/*.go", "pool.Put(s.Zone)", 55},
	{"One kernel per packed operation", "the lane kernels, internal/dbm/compact.go", "internal/dbm/*.go", "widen16 widen32", 55},
}

const core, x = "internal/core/*.go !**_test.go", "package x\n\n"

var rules = []rule{
	{"No hand-computed cache-line pads", "slot[T], internal/core/perworker.go", "internal/**.go cmd/**.go !internal/core/perworker.go", code(`(?m)^\s*_\s+\[[0-9]+\](byte|uint64)`), x + "type s struct {\n\tn int\n\t_ [56]byte\n}\n"},
	{"One goroutine admits", "the explorer type, internal/core/explore.go", core, code(`CompareAndSwap`), x + "var f = done.CompareAndSwap\n"},
	{"One goroutine admits", "explorer.run returns how it ended", "internal/core/explore.go", code(`\bstop\s+\*?atomic\.Bool`), x + "var n, stop atomic.Bool\n"},
	{"One allocation path for zones", "dbm.Slabs, internal/dbm/slab.go", "internal/dbm/**.go internal/core/**.go !internal/dbm/slab.go !**_test.go", code(`make\(\s*(\[\](dbm\.)?Bound|(dbm\.)?Compact)\b`), x + "var b = make(\n\t[]Bound, 8)\n"},
	{"One allocation path for zones", "dbm.Carve, internal/dbm/slab.go; newState, internal/core/state.go", core, code(`&(storeEntry|zoneSeg|State)\{|new\(\s*(storeEntry|zoneSeg|logBlock|frontBlock|waiting|State)\)|make\(\s*\[\](zoneRec|uint64|\*?waiting)\b|map\[uint64\]\*storeEntry`), x + "var s = new(State)\n"},
	{"One allocation path for zones", "the slab type, internal/dbm/slab.go", "**.go !internal/dbm/slab_mmap.go", code(`syscall\.(Mmap|Munmap)\b`), x + "var f = syscall.Munmap\n"},
	{"A matrix is recycled with its State", `"Zone ownership" on succCtx, internal/core/succ.go`, "internal/dbm/**.go internal/core/**.go !**_test.go", code(`func\s*\([^)]*\)\s*Put\w*\(\s*\w+\s+\*(dbm\.)?DBM\s*\)|\[\]\*(dbm\.)?DBM\b`), x + "func (s *Slabs) PutMatrix(d *DBM) {}\n"},
	{"One kernel per packed operation", "the lane kernels, internal/dbm/compact.go", "internal/dbm/compact.go", code(`\bu?int(16|32)\(\s*(binary\.LittleEndian|min\()`), x + "func f(p []byte) int16 { return int16(binary.LittleEndian.Uint16(p)) }\n"},
	{"One growth helper", "dbm.Grow, internal/dbm/slab.go", "internal/core/**.go", code(`func\s+grow\s*\[`), x + "func grow[T any](list []T) []T { return list }\n"},
	{"One growth helper", "dbm.Grow, internal/dbm/slab.go", "internal/core/explore.go", count(`(?m)^\s+(\w+\s*,\s*)*dir\b`, map[string]int{"parentLogs": 0}), x + "type parentLogs struct {\n\tdir [4]*logBlock\n}\n"},
	{"One publication cell", "workerCell, internal/core/perworker.go", "internal/**.go", code(`depth\(\)\s*int64|steals\(w\s+int\)`), x + "type c interface{ steals(w int) int64 }\n"},
	{"Waiting states are nodes", `"Frontier" in internal/core/explore.go`, "internal/core/state.go", code(`(?m)^\s+(\w+\s*,\s*)*packed\s`), x + "type State struct {\n\tpacked dbm.Compact\n}\n"},
	{"One discrete encoding", `"Keys" in internal/core/store.go`, "internal/core/**.go", code(`func\s+intern\s*[[(]|intern\[`), x + "func intern[T any](v T) T { return v }\n"},
	{"One discrete encoding", `"Keys" in internal/core/store.go`, "internal/core/store.go", count(`(?m)^\s+(\w+\s*,\s*)*(locs|vrs)\b`, map[string]int{"storeEntry": 0}), x + "type storeEntry struct {\n\tn, vrs []int64\n}\n"},
	{"One discrete encoding", `"Keys" in internal/core/store.go`, "internal/core/state.go", count(`(?m)^\s+(\w+\s*,\s*)*key\b`, map[string]int{"State": 0}), x + "type State struct {\n\tkey []uint64\n}\n"},
	{"An expansion owns its States", `"Frontier" in internal/core/explore.go`, "internal/core/succ.go", count(`(?m)^\s+(\w+\s*,\s*)*(lent|back)\b`, map[string]int{"succCtx": 0}), x + "type succCtx struct {\n\tlent []*State\n}\n"},
	{"An expansion owns its States", `"Frontier" in internal/core/explore.go`, "internal/core/explore.go", count(`(putState|park)\(`, map[string]int{"explorer.run": 0}), x + "func (e *explorer) run() {\n\te.ctx.putState(s)\n}\n"},
	{"One admission loop", `"Lookahead" in internal/core/explore.go`, "internal/core/explore.go", count(`passed\.add\(`, map[string]int{"Checker.explore": 1, "explorer.run": 1, "*": 0}), x + "func (c *Checker) explore() { e.passed.add(i) }\n\nfunc (e *explorer) run() { e.passed.add(s) }\n\nfunc admit() { e.passed.add(s) }\n"},
	{"One way to run a query", "RunQueries, internal/core/queryset.go", "internal/core/**.go", code(`(?m)^func\s*\(\w*\s*\*?Checker\)\s*(CheckSafety|Reachable|SupClock|CheckDeadlockFree|BinarySearchWCRT)\(|^type\s+(Property|SafetyResult|BinarySearchResult)\s`), x + "func (*Checker) SupClock(q Query) {}\n"},
	{"One way to analyze an architecture", "arch.CompileAll, internal/arch/analyze.go", "internal/arch/**.go", code(`(?m)^func\s+(\([^)]*\)\s*)?(Compile|AnalyzeWCRT|AnalyzeAll|WitnessForResult|CheckDeadlockFree|MeetsDeadline)\(|^type\s+DeadlockResult\s`), x + "func (s *CompiledSet) MeetsDeadline() {}\n"},
	{"One way to analyze an architecture", "icrns.Cells, internal/icrns/tables.go", "internal/icrns/**.go", code(`(?m)^func\s+Cell\(`), x + "func Cell() {}\n"},
	{"One conversion of time to model units", "System.Timing, internal/arch/timescale.go", "**.go !internal/arch/** !**_test.go", code(`ToUnits\(|TimeScale\(`), x + "var u = t.ToUnits(ms)\n"},
	{"One conversion of time to model units", "System.Timing, internal/arch/timescale.go", "**.go", code(`,\s*_\s*:?=\s*arch\.`), x + "func f() {\n\tt, _ :=\n\t\tarch.S().Timing()\n}\n"},
	{"One fork on the submission kind", "the kind table, internal/serve/kinds.go", "internal/serve/*.go !internal/serve/kinds.go !**_test.go", code(`(==|!=|\bcase\b|\bswitch\b).*"(arch|ta)"|"(arch|ta)"\s*(==|!=)`), x + "var ta = \"ta\" ==\n\tkind\n"},
	{"No workers knob in the service", "jobManager, internal/serve/jobs.go", "internal/serve/api/api.go", code(`Workers`), x + "type SubmitOptions struct{ Workers int }\n"},
	{"No workers knob in the service", "jobManager, internal/serve/jobs.go", "internal/serve/server.go", count(`Workers`, map[string]int{"jobSpec": 0}), x + "type jobSpec struct{ MaxWorkers int }\n"},
	{"The engine parses no text", "ta.ParsePred, internal/ta/pred.go", core, code(`"strconv"`), x + "import \"strconv\"\n"},
	{"One witness mechanism", "SupClockQuery.Witness, internal/core/queryset.go; CompiledSet.AnalyzeTraced, internal/arch/analyze.go", "internal/arch/**.go", code(`func\s*\(\s*\w*\s*\*?CompiledSet\)\s*Witness\(|\breachSeen\b`), x + "func (cs *CompiledSet) Witness(i int) {}\n"},
	{"One witness mechanism", "a witness job's one traced sweep, bindArch in internal/serve/kinds.go", "internal/serve/**.go", code(`witness unavailable`), x + "var s = \"witness unavailable: \" + err.Error()\n"},
	{"One abort signal", "core.AbortErr, internal/core/explore.go", "internal/core/search.go", count(`(?m)^\s+(\w+\s*,\s*)*(Cancel|Deadline)\b`, map[string]int{"Options": 0}), x + "type Options struct {\n\tCancel, Stop <-chan struct{}\n}\n"},
}

// A file is one parsed Go file; code is its source with every byte of a
// comment but a newline made a blank.
type file struct {
	tf   *token.File
	ast  *ast.File
	code string
}

func parse(fset *token.FileSet, path string, src []byte) (*file, error) {
	a, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &file{fset.File(a.Pos()), a, ""}
	for _, g := range a.Comments {
		for i := f.at(g.Pos()); i < f.at(g.End()); i++ {
			if src[i] != '\n' {
				src[i] = ' '
			}
		}
	}
	f.code = string(src)
	return f, nil
}

func (f *file) at(p token.Pos) int { return f.tf.Offset(p) }

func (f *file) text(n ast.Node) string { return f.code[f.at(n.Pos()):f.at(n.End())] }

// A check calls bad with the offset and a description of each break.
type check func(f *file, bad func(off int, what string))

// code finds each match of re in a file's code.
func code(re string) check {
	r := regexp.MustCompile(re)
	return func(f *file, bad func(int, string)) {
		for _, m := range r.FindAllStringIndex(f.code, -1) {
			bad(m[0], f.code[m[0]:m[1]])
		}
	}
}

// count requires each function (a method is Type.Name) or type named in
// want, which the file must declare, to hold want[name] matches of re in its
// code; "*" is every other function or type.
func count(re string, want map[string]int) check {
	r := regexp.MustCompile(re)
	return func(f *file, bad func(int, string)) {
		seen := map[string]bool{"*": true}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			name, text := "", ""
			switch d := n.(type) {
			case *ast.FuncDecl:
				name, text = d.Name.Name, f.text(d)
				if d.Recv != nil {
					name = strings.TrimPrefix(f.text(d.Recv.List[0].Type), "*") + "." + name
				}
			case *ast.TypeSpec:
				name, text = d.Name.Name, f.text(d)
			}
			w, ok := want[name]
			if seen[name] = true; !ok && name != "" {
				w, ok = want["*"]
			}
			if got := r.FindAllString(text, -1); ok && len(got) != w {
				bad(f.at(n.Pos()), fmt.Sprintf("%s holds %q, want %d of them", name, got, w))
			}
			return true
		})
		for name := range want {
			if !seen[name] {
				bad(0, "no declaration "+name)
			}
		}
	}
}

// in reports whether the slash path p is in the globs of a rule.
func in(globs, p string) (ok bool) {
	for _, g := range strings.Fields(globs) {
		re := strings.NewReplacer(".", `\.`, "**", ".*", "*", "[^/]*").Replace(strings.TrimPrefix(g, "!"))
		m := regexp.MustCompile("^" + re + "$").MatchString(p)
		if m && g[0] == '!' {
			return false
		}
		ok = ok || m
	}
	return ok
}

// module parses every Go file of the module but this package's, which names
// what it forbids, and those under dot directories, which go skips too.
func module(t *testing.T) (root string, files []*file) {
	here, _ := filepath.Abs(".")
	root = filepath.Dir(filepath.Dir(here))
	fset := token.NewFileSet()
	_, err := os.Stat(filepath.Join(root, "go.mod"))
	if err == nil {
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() && (p == here || p != root && d.Name()[0] == '.') {
				return filepath.SkipDir
			} else if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				var f *file
				src, _ := os.ReadFile(p) // a file that cannot be read cannot be parsed
				f, err = parse(fset, filepath.ToSlash(p[len(root)+1:]), src)
				files = append(files, f)
			}
			return err
		})
	}
	if err != nil || len(files) == 0 {
		t.Fatalf("parsing the module at %s: %v (%d files)", root, err, len(files))
	}
	return root, files
}

// TestRules runs each rule on the module, its globs matching some file, and on its seed.
func TestRules(t *testing.T) {
	root, files := module(t)
	all := rules
	for _, ts := range tombstones {
		for _, name := range strings.Fields(ts.names) {
			why := fmt.Sprintf("%s; %s was deleted in PR %d", ts.why, name, ts.pr)
			all = append(all, rule{ts.step, why, ts.in, code(regexp.QuoteMeta(name)), x + "var _ = " + name + "\n"})
		}
	}
	for _, r := range all {
		t.Run(r.step, func(t *testing.T) {
			scoped, caught := 0, 0
			for _, f := range files {
				if in(r.in, f.tf.Name()) {
					scoped++
					r.check(f, func(off int, what string) {
						t.Errorf("%s:%d: %q (%s)", f.tf.Name(), f.tf.Line(f.tf.Pos(off)), what, r.why)
					})
				}
			}
			path := strings.NewReplacer("**", "x", "*", "x").Replace(strings.Fields(r.in)[0])
			seed, err := parse(token.NewFileSet(), path, []byte(r.seed))
			if err == nil {
				r.check(seed, func(int, string) { caught++ })
			}
			if scoped == 0 || !in(r.in, path) || caught == 0 {
				t.Errorf("%d files in %q; the seed at %s (%v) must be reported:\n%s", scoped, r.in, path, err, r.seed)
			}
		})
	}
	ciNamesResolve(t, root, files)
	forksResolve(t, root)
}
