package dloop_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
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
// exists and that no non-test code reads. TestMethodsHaveReaders does the
// same for methods.
func TestExportsHaveReaders(t *testing.T) {
	exports, read := exportCensus(t, loadTree(t))
	checkTestOnlyRows(t, "## Exports read only by tests", "exported top-level identifier of internal/", exports, read)
}

// exportCensus returns the exported top-level identifiers of the packages
// under internal/, keyed "pkg.Name", and the subset of them that some
// non-test code names outside the identifier's own declaration. A method's
// receiver does not name its type.
func exportCensus(t *testing.T, tr *typedTree) (exports, read map[string]bool) {
	t.Helper()
	key := map[types.Object]string{}
	owner := map[string]string{} // package name -> import path, to catch clashes
	for _, p := range tr.pkgs {
		if !strings.HasPrefix(p.path, "dloop/internal/") {
			continue
		}
		name := p.types.Name()
		if other, dup := owner[name]; dup {
			t.Fatalf("packages %s and %s share the name %s; the census keys by name", other, p.path, name)
		}
		owner[name] = p.path
		for _, id := range p.types.Scope().Names() {
			if obj := p.types.Scope().Lookup(id); obj.Exported() {
				key[obj] = name + "." + id
			}
		}
	}

	// The span of each declaration, inside which its own name is no read,
	// and the receiver identifiers of every method.
	type span struct{ from, to token.Pos }
	declared := map[types.Object]span{}
	receiver := map[*ast.Ident]bool{}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declared[p.info.Defs[d.Name]] = span{d.Pos(), d.End()}
						continue
					}
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receiver[id] = true
						}
						return true
					})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declared[p.info.Defs[s.Name]] = span{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declared[p.info.Defs[id]] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	exports, read = map[string]bool{}, map[string]bool{}
	for _, k := range key {
		exports[k] = true
	}
	for _, p := range tr.pkgs {
		for id, obj := range p.info.Uses {
			k := key[obj]
			if k == "" || receiver[id] {
				continue
			}
			if s := declared[obj]; s.from <= id.Pos() && id.Pos() < s.to {
				continue
			}
			read[k] = true
		}
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
		_, err := expt.RunObserved(run.cfg, run.profile, 10000, 1, nil, func(c *ssd.Controller) obs.Recorder {
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

// TestMethodsHaveReaders extends TestExportsHaveReaders to methods: every
// exported method of a package-level type of internal/ must be reached by
// some non-test code of the repository (bench/ and cmd/ included), or have a
// row in KNOBS.md's "Methods read only by tests" table saying why it stays.
// Reached means selected (x.M, T.M, promoted through an embedded field
// included), or called through an interface — named, anonymous, or a type
// parameter's constraint — that the type or a pointer to it implements. The
// interfaces of the standard-library packages the tree imports count as
// called, since the standard library calls them (String, Error).
func TestMethodsHaveReaders(t *testing.T) {
	methods, read := methodCensus(loadTree(t))
	checkTestOnlyRows(t, "## Methods read only by tests", "exported method of a package-level type of internal/", methods, read)
}

// TestFieldsHaveReaders holds every struct field of a non-test package
// (bench/ and cmd/ included) to a reader in non-test code, or to a row in
// KNOBS.md's "Fields read only by tests" table saying why it stays. A store
// is no read: the left side of = or op= (also through an index, x.f[i] = v),
// the operand of ++ or --, and a composite-literal key. Nor is a read inside
// a checkpoint codec of the field's own package (EncodeState, DecodeState
// and their unexported twins), so a value kept only to be checkpointed, and
// checked by its decoder, counts as unread. Blank fields, tagged fields
// (which encoding/json reads) and the fields of structs used as map keys,
// sync.Map's included (compared on every lookup), are exempt. A field of a
// generic type is its origin's.
func TestFieldsHaveReaders(t *testing.T) {
	fields, read := fieldReadCensus(loadTree(t))
	checkTestOnlyRows(t, "## Fields read only by tests", "struct field of a non-test package", fields, read)
}

// TestLibraryLinksNoServer keeps the HTTP server, TLS and the profiler out
// of the simulator library: neither the root package nor a package under
// internal/ may depend on them, so a program that serves no /metrics does
// not link them or pay their package initialisation (DESIGN §3.2, "The
// library links no server"). Only the live exporter and the profiling
// helper, which the commands import under their flags, are exempt.
func TestLibraryLinksNoServer(t *testing.T) {
	forbidden := []string{"net", "net/http", "crypto/tls", "runtime/pprof"}
	exempt := map[string]bool{"dloop/internal/obs/httpexport": true, "dloop/internal/prof": true}
	checked := 0
	for _, p := range loadTree(t).pkgs {
		if (p.path != "dloop" && !strings.HasPrefix(p.path, "dloop/internal/")) || exempt[p.path] {
			continue
		}
		checked++
		for _, dep := range forbidden {
			if slices.Contains(p.deps, dep) {
				t.Errorf("%s depends on %s; take the dependency behind an interface the commands fill", p.path, dep)
			}
		}
	}
	if checked == 0 {
		t.Fatal("go list named no library package")
	}
}

// fieldReadCensus returns the fields of the structs declared in the tree,
// keyed "pkg.Type.Field" ("pkg.file.go:line.Field" for an anonymous struct),
// and the subset non-test code reads (see TestFieldsHaveReaders).
func fieldReadCensus(tr *typedTree) (fields, read map[string]bool) {
	// Fields of map-key structs, compared wholesale by every lookup.
	mapKey := map[*types.Var]bool{}
	var exemptKey func(T types.Type)
	exemptKey = func(T types.Type) {
		if st, ok := T.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !mapKey[f] {
					mapKey[f] = true
					exemptKey(f.Type())
				}
			}
		}
	}
	key := map[*types.Var]string{}
	for _, p := range tr.pkgs {
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				exemptKey(m.Key())
			}
		}
		for _, f := range p.files {
			named := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr: // a sync.Map key
					if se, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 {
						if sel := p.info.Selections[se]; sel != nil && sel.Kind() == types.MethodVal &&
							strings.HasPrefix(sel.Obj().(*types.Func).FullName(), "(*sync.Map).") {
							exemptKey(p.info.TypeOf(n.Args[0]))
						}
					}
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					label, ok := named[n]
					if !ok {
						pos := tr.fset.Position(n.Pos())
						label = fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					}
					st := p.info.Types[n].Type.(*types.Struct)
					for i := 0; i < st.NumFields(); i++ {
						if fv := st.Field(i); fv.Name() != "_" && st.Tag(i) == "" {
							key[fv] = p.types.Name() + "." + label + "." + fv.Name()
						}
					}
				}
				return true
			})
		}
	}

	fields, read = map[string]bool{}, map[string]bool{}
	for fv, k := range key {
		if !mapKey[fv] {
			fields[k] = true
		}
	}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			stored := map[*ast.SelectorExpr]bool{}
			store := func(e ast.Expr) {
				for {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
						continue
					case *ast.IndexExpr:
						e = x.X
						continue
					case *ast.SelectorExpr:
						stored[x] = true
					}
					return
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							store(lhs)
						}
					}
				case *ast.IncDecStmt:
					store(n.X)
				}
				return true
			})
			for _, d := range f.Decls {
				codec := false // EncodeState, decodeState and so on
				if fd, ok := d.(*ast.FuncDecl); ok {
					codec = strings.HasSuffix(fd.Name.Name, "codeState")
				}
				ast.Inspect(d, func(n ast.Node) bool {
					se, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					sel := p.info.Selections[se]
					if sel == nil {
						return true
					}
					// The embedded fields a promoted selection passes through.
					T := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if ptr, ok := T.Underlying().(*types.Pointer); ok {
							T = ptr.Elem()
						}
						fv := T.Underlying().(*types.Struct).Field(i)
						read[key[fv.Origin()]] = true
						T = fv.Type()
					}
					if sel.Kind() != types.FieldVal || stored[se] {
						return true
					}
					fv := sel.Obj().(*types.Var).Origin()
					if codec && fv.Pkg() == p.types {
						return true
					}
					read[key[fv]] = true
					return true
				})
			}
		}
	}
	delete(read, "")
	return fields, read
}

// checkTestOnlyRows holds a KNOBS.md table of identifiers only tests read to
// a census: a row must name an identifier of the census that no non-test
// code reads, once, with a reason, and every such identifier needs a row.
func checkTestOnlyRows(t *testing.T, heading, what string, all, read map[string]bool) {
	t.Helper()
	listed := map[string]bool{}
	for _, r := range readKnobRows(t, "KNOBS.md")[heading] {
		switch {
		case !all[r.name]:
			t.Errorf("%s: row names %s, which is not an %s", heading, r.name, what)
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
	for name := range all {
		if !read[name] && !listed[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is read by no non-test code: delete it, or give it a row in KNOBS.md %q", name, heading)
	}
}

// methodCensus returns the exported methods of the package-level types of
// internal/, keyed "pkg.Type.Method", and the subset non-test code reaches
// (see TestMethodsHaveReaders).
func methodCensus(tr *typedTree) (methods, read map[string]bool) {
	key := map[*types.Func]string{}
	owner := map[*types.Func]*types.Named{}
	for _, p := range tr.pkgs {
		if !strings.HasPrefix(p.path, "dloop/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					key[m] = p.types.Name() + "." + name + "." + m.Name()
					owner[m] = named
				}
			}
		}
	}

	selected := map[*types.Func]bool{}
	called := map[string][]*types.Interface{} // method name -> interfaces it is called through
	callAll := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			called[name] = append(called[name], iface)
		}
	}
	// The standard library calls the methods of its own interfaces
	// dynamically (fmt.Stringer's String, error's Error), so every interface
	// of a standard-library package the tree imports counts as called.
	callAll(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std := map[string]*types.Package{}
	for _, p := range tr.pkgs {
		for _, dep := range p.types.Imports() {
			std[dep.Path()] = dep
		}
	}
	for _, p := range tr.pkgs {
		delete(std, p.path)
	}
	for _, dep := range std {
		for _, name := range dep.Scope().Names() {
			if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					callAll(iface)
				}
			}
		}
	}
	for _, p := range tr.pkgs {
		for _, sel := range p.info.Selections {
			if sel.Kind() == types.FieldVal {
				continue
			}
			f := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				called[f.Name()] = append(called[f.Name()], iface)
				continue
			}
			selected[f.Origin()] = true
		}
	}

	methods, read = map[string]bool{}, map[string]bool{}
	for m, k := range key {
		methods[k] = true
		if selected[m] {
			read[k] = true
			continue
		}
		T := owner[m]
		if T.TypeParams().Len() > 0 {
			continue // an uninstantiated generic type implements nothing
		}
		for _, iface := range called[m.Name()] {
			if types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface) {
				read[k] = true
				break
			}
		}
	}
	return methods, read
}

// typedTree is every non-test package of the repository, bench/ included,
// type-checked from source.
type typedTree struct {
	pkgs []*typedPkg // in go list order
	fset *token.FileSet
}

// typedPkg is one type-checked package.
type typedPkg struct {
	path  string   // import path
	deps  []string // every package it depends on, transitively (go list's Deps)
	types *types.Package
	files []*ast.File
	info  *types.Info
}

var (
	treeOnce sync.Once
	tree     *typedTree
	treeErr  error
)

// loadTree type-checks the tree once per test binary: the root module and
// the benchmark's module in bench/.
func loadTree(t *testing.T) *typedTree {
	t.Helper()
	treeOnce.Do(func() { tree, treeErr = typeCheckTree(".", "bench") })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheckTree lists the packages of the modules rooted at dirs with go
// list and type-checks their non-test files from source, in dependency
// order; other imports (the standard library) come from importer.Default.
func typeCheckTree(dirs ...string) (*typedTree, error) {
	type listed struct {
		ImportPath, Dir string
		GoFiles, Deps   []string
	}
	meta := map[string]listed{}
	var order []string
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listed
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %w", dir, err)
			}
			if _, dup := meta[p.ImportPath]; !dup {
				order = append(order, p.ImportPath)
			}
			meta[p.ImportPath] = p
		}
	}

	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*typedPkg{} // nil while a package is being checked
	var check func(ip string) (*typedPkg, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if _, ok := meta[ip]; !ok {
			return std.Import(ip)
		}
		p, err := check(ip)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})
	check = func(ip string) (*typedPkg, error) {
		if p, seen := checked[ip]; seen {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", ip)
			}
			return p, nil
		}
		checked[ip] = nil
		m := meta[ip]
		p := &typedPkg{path: ip, deps: m.Deps, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		var err error
		if p.types, err = (&types.Config{Importer: imp}).Check(ip, fset, p.files, p.info); err != nil {
			return nil, err
		}
		checked[ip] = p
		return p, nil
	}
	tr := &typedTree{fset: fset}
	for _, ip := range order {
		p, err := check(ip)
		if err != nil {
			return nil, err
		}
		tr.pkgs = append(tr.pkgs, p)
	}
	return tr, nil
}
