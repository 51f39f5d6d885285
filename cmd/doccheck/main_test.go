package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree creates the named files (path -> content) under a fresh root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCheck: documented flags must be defined on the default flag set
// under cmd/ or on a FlagSet under internal/ (test files do not count),
// and code-span paths must exist. The root ISSUE.md is not scanned.
func TestCheck(t *testing.T) {
	sources := map[string]string{
		"ISSUE.md":              "deletes `internal/run/old.go`\n",
		"cmd/tool/main.go":      `var quick = flag.Bool("quick", false, "")` + "\n" + `var _ = flag.StringVar((*string)(&kind), "engine", "", "")`,
		"cmd/tool/main_test.go": `var update = flag.Bool("update", false, "")`,
		"internal/run/flags.go": `func reg(fs *flag.FlagSet) { fs.IntVar(&c.Workers, "workers", c.Workers, ""); fs.String("topology", name, "") }`,
		"internal/run/prof.go":  `func reg(set *flag.FlagSet) { set.String("cpuprofile", "", "") }`,
	}
	for _, c := range []struct {
		name, readme string
		broken       int
		ref          string
	}{
		{"defined flags", "| `-quick` | q |\n| `-engine K` | e |\n| `-workers N` | w |\n| `-topology T` | t |\n| `-cpuprofile F` | c |\n", 0, ""},
		{"undefined flag", "| `-workers N` | w |\n| `-bogus X` | b |\n", 1, `"-bogus"`},
		{"test-only flag", "| `-update` | u |\n", 1, `"-update"`},
		{"existing path", "see `internal/run/flags.go` and `cmd/tool`\n", 0, ""},
		{"dangling internal path", "see `internal/run/gone.go`\n", 1, `"internal/run/gone.go"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			files := map[string]string{"README.md": c.readme}
			for k, v := range sources {
				files[k] = v
			}
			root := writeTree(t, files)
			var out strings.Builder
			n, broken, err := check(root, &out)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 || broken != c.broken || !strings.Contains(out.String(), c.ref) {
				t.Errorf("check = %d files, %d broken, output %q; want 1 file, %d broken naming %s", n, broken, out.String(), c.broken, c.ref)
			}
		})
	}
}
