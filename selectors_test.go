package dloop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsNameTests keeps the test selectors of the CI workflow
// honest. go test exits 0 when a -run, -fuzz or -bench pattern matches
// nothing, so a renamed test would silently drop out of CI. Every
// alternative of such a pattern that starts with Test, Fuzz or Benchmark
// must match a function declared in the test files of the step's packages.
func TestCISelectorsNameTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(data), "\\\n", " ") // shell continuations
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		words := shellWords(line)
		for i := range words {
			dir, args, ok := goTestArgs(words[i:])
			if !ok {
				continue
			}
			var pkgs, selectors []string
			for k := 0; k < len(args); k++ {
				a := args[k]
				name, val, hasVal := strings.Cut(strings.TrimPrefix(a, "-"), "=")
				switch {
				case strings.HasPrefix(a, "."):
					pkgs = append(pkgs, filepath.Join(dir, a))
				case name == "run" || name == "fuzz" || name == "bench":
					if !hasVal && k+1 < len(args) {
						k++
						val = args[k]
					}
					selectors = append(selectors, name+" "+val)
				}
			}
			if len(selectors) == 0 {
				continue
			}
			funcs := testFuncs(t, pkgs)
			for _, sel := range selectors {
				flag, pattern, _ := strings.Cut(sel, " ")
				for _, alt := range strings.Split(pattern, "|") {
					if flag == "run" {
						alt, _, _ = strings.Cut(alt, "/") // subtests
					}
					bare := strings.TrimPrefix(alt, "^")
					if !strings.HasPrefix(bare, "Test") && !strings.HasPrefix(bare, "Fuzz") && !strings.HasPrefix(bare, "Benchmark") {
						continue
					}
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml: -%s %q: %v", flag, pattern, err)
						continue
					}
					found := false
					for _, f := range funcs {
						found = found || re.MatchString(f)
					}
					if !found {
						t.Errorf("ci.yml: -%s %q: %s names no function in %v", flag, pattern, alt, pkgs)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: found no test selector to check")
	}
	t.Logf("%d selector alternatives name a function", checked)
}

// TestBenchScriptSelectorsNameBenchmarks does the same for the suite of
// scripts/bench.sh: every package it lists defines a benchmark, and every
// Benchmark alternative of a package's -bench pattern, anchored as the
// pattern anchors it, names a function declared in that package's test files.
func TestBenchScriptSelectorsNameBenchmarks(t *testing.T) {
	data, err := os.ReadFile("scripts/bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, suite, ok := strings.Cut(string(data), "\nsuite='\n")
	suite, _, ok2 := strings.Cut(suite, "\n'\n")
	if !ok || !ok2 {
		t.Fatal("scripts/bench.sh: found no suite='...' block")
	}
	for _, line := range strings.Split(suite, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Errorf("scripts/bench.sh: suite line %q is not a directory and a pattern", line)
			continue
		}
		var benchmarks []string
		for _, fn := range testFuncs(t, []string{f[0]}) {
			if strings.HasPrefix(fn, "Benchmark") {
				benchmarks = append(benchmarks, fn)
			}
		}
		if len(benchmarks) == 0 {
			t.Errorf("scripts/bench.sh: %s defines no benchmark", f[0])
		}
		for _, alt := range strings.Split(strings.TrimSuffix(strings.TrimPrefix(f[1], "^("), ")$"), "|") {
			if !strings.HasPrefix(alt, "Benchmark") {
				continue
			}
			re, err := regexp.Compile("^" + alt + "$")
			if err != nil {
				t.Errorf("scripts/bench.sh: -bench %q: %v", f[1], err)
				continue
			}
			found := false
			for _, fn := range benchmarks {
				found = found || re.MatchString(fn)
			}
			if !found {
				t.Errorf("scripts/bench.sh: -bench %q: %s names no benchmark in %s", f[1], alt, f[0])
			}
		}
	}
}

// goTestArgs recognises "go test ..." and "go -C dir test ..." at the start
// of words and returns the directory the command runs in and its arguments,
// up to the first shell control operator or redirection.
func goTestArgs(words []string) (dir string, args []string, ok bool) {
	if len(words) < 2 || words[0] != "go" {
		return "", nil, false
	}
	dir, rest := ".", words[1:]
	if len(rest) >= 2 && rest[0] == "-C" {
		dir, rest = rest[1], rest[2:]
	}
	if len(rest) == 0 || rest[0] != "test" {
		return "", nil, false
	}
	for _, w := range rest[1:] {
		if w == "&&" || w == "||" || w == "|" || w == ";" || strings.Contains(w, ">") {
			break
		}
		args = append(args, w)
	}
	return dir, args, true
}

// shellWords splits a shell line into words, honouring single and double
// quotes (no escapes or expansions, which the workflow's go test lines do not
// use).
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// testFuncs returns the names of the top-level functions declared in the
// test files of the package directories pkgs; "dir/..." covers every
// directory below dir.
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "...")
		if !recursive {
			dirs = append(dirs, p)
			continue
		}
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
