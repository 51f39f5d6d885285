// Command doccheck fails the build when the repository's Markdown
// documentation references intra-repo files that do not exist — the
// class of rot where DESIGN.md cites a source file that was renamed,
// or a README command names a deleted tool. (EXPERIMENTS.md spent two
// PRs as exactly such a dangling reference before it was written.)
//
// Usage:
//
//	doccheck [-root DIR]
//
// It scans every *.md file under the root (skipping .git, .claude, and
// the root ISSUE.md — the per-PR task sheet, which names files by bare
// basename and names ones the PR is about to create or delete) and
// extracts two kinds of reference:
//
//   - Markdown link targets: [text](path) with a relative, non-URL
//     path, resolved against the Markdown file's directory.
//   - Inline code spans: each whitespace-separated token inside
//     `backticks` that looks like a repo path — it contains a path
//     separator with a known top-level prefix, or carries a checkable
//     file extension (.go, .md, .json, .yml, ...). Tokens are also
//     resolved against the repo root, and trailing :line suffixes
//     (internal/bench/perf.go:86) are stripped.
//
// Anything that resolves to neither an existing file nor an existing
// directory is reported, and the exit status is 1. Exit status 0 means
// every reference resolves.
//
// It additionally cross-checks documented CLI flags: any Markdown table
// row whose first cell is a backtick span beginning with a dash
// (| `-workers N` | ... — the README's flag-reference style) claims a
// flag of that name, and the claim must match a flag definition in a
// non-test Go source under cmd/ or internal/: flag.String("quick", ...)
// et al. on the default flag set, or fs.IntVar(&c.Workers, "workers",
// ...) et al. on a *flag.FlagSet of any name (the run flags the commands
// share, internal/engine, and the profile flags, internal/prof). A
// documented flag no command defines is the same class of rot as a
// dangling path: the reference table outliving a renamed or deleted
// flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// linkRe captures [text](target) link targets.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeRe captures inline `code` spans (single-backtick only; fenced
// blocks are scanned line by line as ordinary text and contribute no
// spans, which keeps shell output samples from being parsed).
var codeRe = regexp.MustCompile("`([^`\n]+)`")

// lineSuffixRe strips a trailing :123 line reference.
var lineSuffixRe = regexp.MustCompile(`:[0-9]+$`)

// pathTokenRe is the charset of a plausible repo path token.
var pathTokenRe = regexp.MustCompile(`^\.?/?[A-Za-z0-9_][A-Za-z0-9_.\-/]*$`)

// flagRowRe captures the flag name of a Markdown table row whose first
// cell is a backtick span starting with a dash — the flag-reference
// table style (| `-workers N` | meaning |).
var flagRowRe = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][A-Za-z0-9_-]*)")

// flagDefRe captures the name of a flag definition on the default flag
// set (flag.X) or on a FlagSet under any variable name (fs.X), with or
// without a leading destination argument (the XVar forms).
var flagDefRe = regexp.MustCompile(`\b[A-Za-z_]\w*\.(?:Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(?:Var)?\(\s*(?:[^,"]+,\s*)?"([^"]+)"`)

// checkedExts are the file extensions worth verifying when a token has
// no directory component ("DESIGN.md", "go.mod"). Dotted Go symbol
// names (core.Config) never match these.
var checkedExts = map[string]bool{
	".go": true, ".md": true, ".json": true, ".yml": true,
	".yaml": true, ".mod": true, ".sum": true, ".sh": true,
}

// topPrefixes are the repo's top-level directories: a slash-separated
// token starting with one of these is a path claim, not prose.
var topPrefixes = []string{
	"internal/", "cmd/", "examples/", "scratchpipe/", ".github/",
}

func main() {
	root := flag.String("root", ".", "repository root to scan")
	flag.Parse()

	files, broken, err := check(*root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	if broken > 0 {
		fmt.Printf("doccheck: %d dangling reference(s)\n", broken)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d Markdown files clean\n", files)
}

// check scans the Markdown files under root, writes one line to out for
// each dangling reference, and returns how many files it scanned and how
// many references it reported.
func check(root string, out io.Writer) (files, broken int, err error) {
	var mdFiles []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") && path != filepath.Join(root, "ISSUE.md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(mdFiles)

	flags := map[string]bool{}
	for _, dir := range []string{"cmd", "internal"} {
		if err := collectFlags(filepath.Join(root, dir), flags); err != nil {
			return 0, 0, err
		}
	}

	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			return 0, 0, err
		}
		text := string(data)
		seen := map[string]bool{}
		report := func(ref, kind string) {
			if seen[ref] {
				return
			}
			seen[ref] = true
			fmt.Fprintf(out, "doccheck: %s: dangling %s reference %q\n", md, kind, ref)
			broken++
		}

		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := strings.Split(m[1], "#")[0]
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if !exists(filepath.Join(filepath.Dir(md), target)) && !exists(filepath.Join(root, target)) {
				report(m[1], "link")
			}
		}

		for _, m := range codeRe.FindAllStringSubmatch(text, -1) {
			for _, tok := range strings.Fields(m[1]) {
				ref, ok := pathClaim(tok)
				if !ok {
					continue
				}
				if !exists(filepath.Join(root, ref)) && !exists(filepath.Join(filepath.Dir(md), ref)) {
					report(tok, "path")
				}
			}
		}

		for _, line := range strings.Split(text, "\n") {
			if m := flagRowRe.FindStringSubmatch(line); m != nil && !flags[m[1]] {
				report("-"+m[1], "flag")
			}
		}
	}
	return len(mdFiles), broken, nil
}

// pathClaim decides whether a code-span token claims to be a repo path
// and returns the cleaned path to check. Flags (-reshard), globs
// (*.md), ellipses (./...), Go symbol paths (core.Config), and bare
// words are not claims.
func pathClaim(tok string) (string, bool) {
	tok = lineSuffixRe.ReplaceAllString(tok, "")
	tok = strings.TrimRight(tok, ".,;:")
	if tok == "" || strings.HasPrefix(tok, "-") || strings.Contains(tok, "...") ||
		strings.Contains(tok, "*") || strings.Contains(tok, "<") {
		return "", false
	}
	if !pathTokenRe.MatchString(tok) {
		return "", false
	}
	clean := strings.TrimPrefix(tok, "./")
	if strings.Contains(clean, "/") {
		matched := false
		for _, p := range topPrefixes {
			if strings.HasPrefix(clean, p) || clean == strings.TrimSuffix(p, "/") {
				matched = true
				break
			}
		}
		if !matched {
			return "", false
		}
		// A dotted last segment with a non-checkable extension is a
		// package-path symbol (internal/cost.Cluster): the claim is the
		// package directory, not a file.
		if ext := filepath.Ext(clean); ext != "" && !checkedExts[ext] {
			clean = strings.TrimSuffix(clean, ext)
		}
		return clean, true
	}
	if checkedExts[filepath.Ext(clean)] && strings.Count(clean, ".") == 1 {
		return clean, true
	}
	return "", false
}

// collectFlags adds to flags every flag name defined by a non-test Go
// source under dir. A missing dir adds nothing (the flag check then
// reports every documented flag, which is the honest answer for a tree
// without commands).
func collectFlags(dir string, flags map[string]bool) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
		return nil
	})
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
