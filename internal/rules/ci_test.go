package rules

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciNamesResolve is the rule for the CI workflow: a -run, -bench or -fuzz
// pattern that matches nothing passes ("no tests to run"), so a renamed test
// would drop out of "Race, repeated" or the bench gate unseen.
func ciNamesResolve(t *testing.T, root string, files []*file) {
	yml, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Recv == nil && strings.HasSuffix(f.tf.Name(), "_test.go") {
				declared = append(declared, d.Name.Name)
			}
		}
	}
	if bad := unresolved(string(yml), declared); len(bad) > 0 {
		t.Errorf("CI names no test function: %q", bad)
	}
	const seed = "run: go test -run 'TestStore|TestRenamedAway' -bench 'Table1$|Table2' ./x/"
	if bad := unresolved(seed, []string{"TestStoreAdds", "BenchmarkTable1_po", "BenchmarkTable2"}); fmt.Sprint(bad) != "[TestRenamedAway Table1]" {
		t.Errorf("seed %q: unresolved %q, want [TestRenamedAway Table1]", seed, bad)
	}
}

// unresolved returns each name in a -run, -bench or -fuzz pattern of a
// workflow, outside its comments, that begins none of the declared
// functions; a -bench name is read after "Benchmark", and a trailing "$"
// asks for the whole name.
func unresolved(yml string, declared []string) (bad []string) {
	yml = regexp.MustCompile(`(?m)^\s*#.*$`).ReplaceAllString(yml, "")
	flag := regexp.MustCompile(`-(run|bench|fuzz) +('[^']*'|"[^"]*"|\S+)`)
	name := regexp.MustCompile(`^\^?(\w+)(\$?)$`)
	for _, m := range flag.FindAllStringSubmatch(yml, -1) {
		for _, alt := range strings.Split(strings.Trim(m[2], `'"`), "|") {
			n := name.FindStringSubmatch(alt)
			if n == nil {
				continue // "^$" or ".": nothing or everything
			}
			want := n[1]
			if m[1] == "bench" {
				want = "Benchmark" + want
			}
			ok := false
			for _, d := range declared {
				ok = ok || d == want || n[2] == "" && strings.HasPrefix(d, want)
			}
			if !ok {
				bad = append(bad, n[1])
			}
		}
	}
	return bad
}
