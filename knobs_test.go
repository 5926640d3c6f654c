package dloop_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// knobSections maps each KNOBS.md heading to the source of the settings its
// table must list: a CLI's flag definitions, or a struct's exported fields.
var knobSections = []struct {
	heading, file, structName string
}{
	{"## `cmd/dloopsim` flags", "cmd/dloopsim/main.go", ""},
	{"## `cmd/experiments` flags", "cmd/experiments/main.go", ""},
	{"## `cmd/tracegen` flags", "cmd/tracegen/main.go", ""},
	{"## `ssd.Config` fields", "internal/ssd/config.go", "Config"},
	{"## `expt.Options` fields", "internal/expt/expt.go", "Options"},
}

// knobRow is one table row: the setting it names, the value when the row is
// about one value of a flag ("-ftl BAST"), and its verdict.
type knobRow struct {
	name, value, verdict string
}

// TestKnobsListed keeps KNOBS.md in step with the code: every flag of the
// three CLIs and every exported field of ssd.Config and expt.Options has a
// live row, every live row names a setting that exists, and every row
// marked deleted names a setting that is gone.
func TestKnobsListed(t *testing.T) {
	rows := readKnobRows(t, "KNOBS.md")
	for _, sec := range knobSections {
		have := settingsIn(t, sec.file, sec.structName)
		table, ok := rows[sec.heading]
		if !ok {
			t.Errorf("KNOBS.md has no %q table", sec.heading)
			continue
		}
		listed := map[string]bool{}
		for _, r := range table {
			deleted := strings.HasPrefix(r.verdict, "deleted")
			switch {
			case r.value != "" && !have[r.name]:
				t.Errorf("%s: row %q names %s, which does not exist", sec.heading, r.name+" "+r.value, r.name)
			case r.value != "":
			case deleted && have[r.name]:
				t.Errorf("%s: %s is marked %q but still exists", sec.heading, r.name, r.verdict)
			case deleted:
			case !have[r.name]:
				t.Errorf("%s: row names %s, which does not exist", sec.heading, r.name)
			case listed[r.name]:
				t.Errorf("%s: %s has two rows", sec.heading, r.name)
			default:
				listed[r.name] = true
			}
		}
		for name := range have {
			if !listed[name] {
				t.Errorf("%s: %s (%s) has no KNOBS.md row", sec.heading, name, sec.file)
			}
		}
	}
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

// settingsIn parses a Go file and returns its settings: with an empty
// structName, the name of every flag.<Kind>(…) definition as "-name";
// otherwise the exported fields of the named struct type.
func settingsIn(t *testing.T, path, structName string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if structName != "" {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != structName {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				t.Fatalf("%s: %s is not a struct", path, structName)
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						names[id.Name] = true
					}
				}
			}
			return false
		}
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
		t.Fatalf("%s: found no settings", path)
	}
	return names
}
