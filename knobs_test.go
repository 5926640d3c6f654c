package dloop_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagSections maps each CLI's KNOBS.md heading to the file defining its
// flags.
var flagSections = []struct{ heading, file string }{
	{"## `cmd/dloopsim` flags", "cmd/dloopsim/main.go"},
	{"## `cmd/experiments` flags", "cmd/experiments/main.go"},
	{"## `cmd/tracegen` flags", "cmd/tracegen/main.go"},
	{"## `cmd/benchcmp` flags", "cmd/benchcmp/main.go"},
}

// structSections maps the option structs with a KNOBS.md table of their own
// to its heading; their rows name bare fields. The fields of every other
// Config, Options and Layout struct of internal/ are listed in
// otherFieldsHeading's table as "pkg.Struct.Field".
var structSections = map[string]string{
	"ssd.Config":   "## `ssd.Config` fields",
	"expt.Options": "## `expt.Options` fields",
}

const otherFieldsHeading = "## Fields of the other `internal/` Config, Options and Layout structs"

// testsOnly opens the verdict of a field that no non-test code sets.
const testsOnly = "tests only"

// knobRow is one table row: the setting it names, the value when the row is
// about one value of a flag ("-ftl BAST"), and its verdict.
type knobRow struct {
	name, value, verdict string
}

// setting is one flag or struct field a KNOBS.md table must list.
type setting struct {
	qualified string // "ssd.Config.FTL"; the row name for a flag
	set       bool   // some non-test code sets it (always, for a flag)
}

// TestKnobsListed keeps KNOBS.md in step with the code: every flag of the
// four CLIs and every exported field of every Config, Options and Layout
// struct of internal/ has a live row, every live row names a setting that
// exists, and every row marked deleted names a setting that is gone. A field
// that no non-test code sets must be deleted, or its verdict must start
// "tests only" and give the reason; only such a field may be marked so.
func TestKnobsListed(t *testing.T) {
	rows := readKnobRows(t, "KNOBS.md")
	sections := map[string]map[string]setting{}
	for _, sec := range flagSections {
		sections[sec.heading] = map[string]setting{}
		for name := range flagsIn(t, sec.file) {
			sections[sec.heading][name] = setting{qualified: name, set: true}
		}
	}
	structs, set := fieldCensus(loadTree(t))
	for st, fields := range structs {
		heading, own := structSections[st]
		if !own {
			heading = otherFieldsHeading
		}
		if sections[heading] == nil {
			sections[heading] = map[string]setting{}
		}
		for _, f := range fields {
			s := setting{qualified: st + "." + f.Name(), set: set[f]}
			name := s.qualified
			if own {
				name = f.Name()
			}
			sections[heading][name] = s
		}
	}
	for heading, have := range sections {
		if _, ok := rows[heading]; !ok {
			t.Errorf("KNOBS.md has no %q table", heading)
		}
		listed := map[string]bool{}
		for _, r := range rows[heading] {
			s, exists := have[r.name]
			deleted := strings.HasPrefix(r.verdict, "deleted")
			switch {
			case r.value != "" && !exists:
				t.Errorf("%s: row %q names %s, which does not exist", heading, r.name+" "+r.value, r.name)
			case r.value != "":
			case deleted && exists:
				t.Errorf("%s: %s is marked %q but still exists", heading, r.name, r.verdict)
			case deleted:
			case !exists:
				t.Errorf("%s: row names %s, which does not exist", heading, r.name)
			case listed[r.name]:
				t.Errorf("%s: %s has two rows", heading, r.name)
			default:
				listed[r.name] = true
				switch only := strings.HasPrefix(r.verdict, testsOnly); {
				case !s.set && !only:
					t.Errorf("%s: %s is set by no non-test code: delete it, or start its verdict %q with the reason", heading, s.qualified, testsOnly)
				case s.set && only:
					t.Errorf("%s: %s is marked %q but non-test code sets it", heading, s.qualified, testsOnly)
				}
			}
		}
		var missing []string
		for name, s := range have {
			switch {
			case listed[name]:
			case s.set:
				missing = append(missing, s.qualified)
			default:
				missing = append(missing, s.qualified+" (set by no non-test code)")
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			t.Errorf("%s: %s has no KNOBS.md row", heading, name)
		}
	}
}

// fieldCensus returns the exported fields of every package-level struct
// named Config, Options or Layout in internal/, keyed "pkg.Struct", and the
// fields of them that non-test code sets: as a key of a composite literal
// (every field, for an unkeyed one), on the left of an assignment or ++/--,
// or by taking the field's address.
func fieldCensus(tr *typedTree) (structs map[string][]*types.Var, set map[*types.Var]bool) {
	structs = map[string][]*types.Var{}
	for _, p := range tr.pkgs {
		if !strings.HasPrefix(p.path, "dloop/internal/") {
			continue
		}
		for _, name := range []string{"Config", "Options", "Layout"} {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					structs[p.types.Name()+"."+name] = append(structs[p.types.Name()+"."+name], f)
				}
			}
		}
	}

	set = map[*types.Var]bool{}
	for _, p := range tr.pkgs {
		setSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set[s.Obj().(*types.Var)] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						kv, keyed := el.(*ast.KeyValueExpr)
						switch {
						case !keyed:
							set[st.Field(i)] = true
						case p.info.Uses[kv.Key.(*ast.Ident)] != nil:
							set[p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setSel(lhs)
					}
				case *ast.IncDecStmt:
					setSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSel(n.X)
					}
				}
				return true
			})
		}
	}
	return structs, set
}

// readKnobRows returns the rows of every table in a KNOBS.md-style file,
// keyed by the "## " heading above the table.
func readKnobRows(t *testing.T, path string) map[string][]knobRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string][]knobRow{}
	heading := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "## ") {
			heading = line
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 3 {
			t.Fatalf("KNOBS.md: row %q has fewer than three cells", line)
		}
		setting := strings.Fields(strings.Trim(strings.TrimSpace(cells[0]), "`"))
		r := knobRow{name: setting[0], verdict: strings.TrimSpace(cells[len(cells)-1])}
		if len(setting) > 1 {
			r.value = strings.Join(setting[1:], " ")
		}
		rows[heading] = append(rows[heading], r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// flagDefiners maps each flag-defining function of package flag to the
// index of its name argument: the …Var forms take a pointer first.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
	"Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// flagsIn parses a Go file and returns the name of every flag.<Kind>(…)
// definition in it, as "-name".
func flagsIn(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg, defines := flagDefiners[sel.Sel.Name]
		if !defines || len(call.Args) <= arg {
			return true // flag.Parse, flag.Arg and friends
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: flag.%s has a non-literal name", path, sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names["-"+name] = true
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s: found no flags", path)
	}
	return names
}
