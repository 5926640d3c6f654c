package dloop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dloop/internal/expt"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// TestExportsHaveReaders keeps the exported surface of internal/ honest:
// every exported top-level func, type, var and const must be named by some
// non-test code of the repository (bench/ and cmd/ included)
// outside its own declaration, or have a row in KNOBS.md's "Exports read
// only by tests" table saying why it stays. A row must name an export that
// exists and that no non-test code reads. Methods are out of scope: a type
// can satisfy an interface without naming the method anywhere.
func TestExportsHaveReaders(t *testing.T) {
	exports, read := exportCensus(t, ".")
	const heading = "## Exports read only by tests"
	listed := map[string]bool{}
	for _, r := range readKnobRows(t, "KNOBS.md")[heading] {
		switch {
		case !exports[r.name]:
			t.Errorf("%s: row names %s, which is not an exported top-level identifier of internal/", heading, r.name)
		case read[r.name]:
			t.Errorf("%s: %s has a non-test reader; drop its row", heading, r.name)
		case listed[r.name]:
			t.Errorf("%s: %s has two rows", heading, r.name)
		case r.verdict == "":
			t.Errorf("%s: %s gives no reason", heading, r.name)
		}
		listed[r.name] = true
	}
	var missing []string
	for name := range exports {
		if !read[name] && !listed[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is read by no non-test code: delete it, or give it a row in KNOBS.md %q", name, heading)
	}
}

// exportCensus parses every non-test Go file under root and returns the
// exported top-level identifiers of the packages under internal/, keyed
// "pkg.Name", and the subset of them that some code names outside the
// identifier's own declaration.
func exportCensus(t *testing.T, root string) (exports, read map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	type file struct {
		ast  *ast.File
		path string // import path of the file's package
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("dloop", filepath.ToSlash(filepath.Dir(p)))
		pkgName[ip] = f.Name.Name
		files = append(files, file{f, ip})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// key names an identifier of an internal package, or "" for any other.
	key := func(importPath, name string) string {
		if !strings.HasPrefix(importPath, "dloop/internal/") || !ast.IsExported(name) {
			return ""
		}
		return pkgName[importPath] + "." + name
	}
	owner := map[string]string{} // package name -> import path, to catch clashes
	for ip, name := range pkgName {
		if key(ip, "X") == "" {
			continue
		}
		if other, dup := owner[name]; dup {
			t.Fatalf("packages %s and %s share the name %s; the census keys by name", other, ip, name)
		}
		owner[name] = ip
	}

	// Declarations, with the span each one's own references are ignored in.
	type span struct{ from, to token.Pos }
	exports = map[string]bool{}
	declared := map[string][]span{}
	declare := func(ip string, id *ast.Ident, n ast.Node) {
		if k := key(ip, id.Name); k != "" {
			exports[k] = true
			declared[k] = append(declared[k], span{n.Pos(), n.End()})
		}
	}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(f.path, d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(f.path, s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(f.path, id, s)
						}
					}
				}
			}
		}
	}

	// References: pkg.Name from an importing file, a bare Name inside the
	// package. Declared names, method receivers, field names and selected
	// members are not references to a top-level identifier.
	read = map[string]bool{}
	use := func(k string, at token.Pos) {
		if k == "" {
			return
		}
		for _, s := range declared[k] {
			if s.from <= at && at < s.to {
				return
			}
		}
		read[k] = true
	}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						use(key(ip, n.Sel.Name), n.Sel.Pos())
						return false
					}
				}
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					use(key(f.path, n.Name), n.Pos())
				}
			}
			return true
		})
	}
	return exports, read
}

// metricRun is one observed run of TestMetricsListed.
type metricRun struct {
	name    string
	cfg     ssd.Config
	profile workload.Profile
	// traced runs with a snapshot interval and a trace-event sink too small
	// for the run, so the series and trace.dropped families are written.
	traced bool
}

// TestMetricsListed keeps KNOBS.md's "Metrics" table in step with the
// families a run's registry holds (what -metrics-out writes). It observes one
// small run of each scheme, DLOOP with the learned translation policy, a
// two-shard DLOOP, a FAST sequential rewrite (the only regime with switch
// merges) and a run with a snapshot interval. Every family must have a row,
// every row must name a family some run registers, and a family that reads
// zero in every run must be marked "zero by construction", and only then.
// Per-shard families ("gc.pause.shard1") are listed once, as
// "gc.pause.shard<i>".
func TestMetricsListed(t *testing.T) {
	geo, err := ssd.ScaledGeometryFor(4, 2, 0.03, 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	fin := workload.Financial1().ScaleFootprint(0.02)
	cfg := func(scheme string) ssd.Config {
		return ssd.Config{FTL: scheme, Geometry: &geo, CMTEntries: 128}
	}
	var runs []metricRun
	for _, scheme := range []string{ssd.SchemeDLOOP, ssd.SchemeDFTL, ssd.SchemeFAST, ssd.SchemePureMap, ssd.SchemePureMapStriped} {
		runs = append(runs, metricRun{name: scheme, cfg: cfg(scheme), profile: fin})
	}
	learned := cfg(ssd.SchemeDLOOP)
	learned.TranslatePolicy = "learned"
	sharded := cfg(ssd.SchemeDLOOP)
	sharded.FTLShards = 2
	runs = append(runs,
		metricRun{name: "DLOOP learned", cfg: learned, profile: fin},
		metricRun{name: "DLOOP 2 shards", cfg: sharded, profile: fin},
		metricRun{name: "FAST sequential rewrite", cfg: cfg(ssd.SchemeFAST), profile: workload.SeqWrite().ScaleFootprint(0.02)},
		metricRun{name: "DLOOP snapshots", cfg: cfg(ssd.SchemeDLOOP), profile: fin, traced: true},
	)

	seen := map[string]bool{}    // family -> registered by some run
	nonZero := map[string]bool{} // family -> non-zero in some run
	shard := regexp.MustCompile(`\.shard[0-9]+$`)
	for _, run := range runs {
		var col *obs.Collector
		_, err := expt.RunObserved(run.cfg, run.profile, 10000, 1, func(c *ssd.Controller) obs.Recorder {
			o := c.ObsOptions()
			if run.traced {
				o.SnapshotInterval = 50 * sim.Millisecond
				o.TraceEvents, o.TraceLimit = io.Discard, 1
			}
			col = obs.NewCollector(o)
			return col
		})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if err := col.Close(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		snap := col.Registry().Snapshot()
		note := func(name string, live bool) {
			name = shard.ReplaceAllString(name, ".shard<i>")
			seen[name] = true
			nonZero[name] = nonZero[name] || live
		}
		for name, v := range snap.Counters {
			note(name, v != 0)
		}
		for name, v := range snap.Gauges {
			note(name, v != 0)
		}
		for name, h := range snap.Histograms {
			note(name, h.N != 0)
		}
		for name, v := range snap.Vectors {
			note(name, slices.ContainsFunc(v.Values, func(x int64) bool { return x != 0 }))
		}
		for name, pts := range snap.Series {
			note(name, len(pts) != 0)
		}
	}

	const heading = "## Metrics"
	const structural = "zero by construction"
	listed := map[string]bool{}
	for _, r := range readKnobRows(t, "KNOBS.md")[heading] {
		zero := strings.HasPrefix(r.verdict, structural)
		switch {
		case !seen[r.name]:
			t.Errorf("%s: row names %s, which no observed run registers", heading, r.name)
		case listed[r.name]:
			t.Errorf("%s: %s has two rows", heading, r.name)
		case zero && nonZero[r.name]:
			t.Errorf("%s: %s is marked %q but reads non-zero", heading, r.name, structural)
		case !zero && !nonZero[r.name]:
			t.Errorf("%s: %s reads 0 in every observed run: delete it, or mark its row %q with the reason", heading, r.name, structural)
		}
		listed[r.name] = true
	}
	var missing []string
	for name := range seen {
		if !listed[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: family %s (non-zero: %v) has no row", heading, name, nonZero[name])
	}
}
