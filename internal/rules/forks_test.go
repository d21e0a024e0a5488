package rules

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// forksResolve is the rule for the fork census of scripts/traffic.sh. A row
// names its fork by the first line containing stmt at or after the first
// line containing fn in file, as the script's awk finds it; a row that
// resolves to no line fails the script, and one that resolves past the end
// of fn counts another function's statement. So each row must resolve, and
// to a line no top-level declaration separates from fn's.
func forksResolve(t *testing.T, root string) {
	sh, err := os.ReadFile(filepath.Join(root, "scripts", "traffic.sh"))
	if err != nil {
		t.Fatal(err)
	}
	rows := forkRows(string(sh))
	if len(rows) == 0 {
		t.Error("scripts/traffic.sh: no fork table")
	}
	for _, r := range rows {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(r[1])))
		if err != nil {
			t.Errorf("fork %q: %v", r[0], err)
			continue
		}
		if bad := resolveFork(string(src), r[2], r[3]); bad != "" {
			t.Errorf("fork %q: %s", r[0], bad)
		}
	}
	const seed = "forks='found|f.go|func a(|x++\nlost|f.go|func a(|y--\nstrayed|f.go|func a(|z = 0'\n"
	src := "func a() {\n\tx++\n}\n\nfunc b() {\n\tz = 0\n}\n"
	var got []string
	for _, r := range forkRows(seed) {
		if resolveFork(src, r[2], r[3]) != "" {
			got = append(got, r[0])
		}
	}
	if fmt.Sprint(got) != "[lost strayed]" {
		t.Errorf("seed table: reported %q, want [lost strayed]", got)
	}
}

// forkRows returns the rows of the forks='…' table of a script, each split
// into its four '|'-separated fields: name, file, fn, stmt.
func forkRows(sh string) (rows [][]string) {
	_, table, _ := strings.Cut(sh, "forks='")
	table, _, _ = strings.Cut(table, "'")
	for _, line := range strings.Split(table, "\n") {
		if f := strings.SplitN(line, "|", 4); len(f) == 4 {
			rows = append(rows, f)
		}
	}
	return rows
}

// resolveFork describes what is wrong with the anchor (fn, stmt) in src, or
// returns "" when it resolves inside fn.
func resolveFork(src, fn, stmt string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if !strings.Contains(l, fn) {
			continue
		}
		for j := i; j < len(lines); j++ {
			if strings.Contains(lines[j], stmt) {
				return ""
			}
			if j > i && strings.HasPrefix(lines[j], "func ") {
				break
			}
		}
		return fmt.Sprintf("no line of %q matches %q", fn, stmt)
	}
	return fmt.Sprintf("no line matches %q", fn)
}
