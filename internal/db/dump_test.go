package db

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
	"time"
)

// everySignalSet is m with every Signals field set to a distinct non-zero
// value, so no row can hide behind a zero or borrow another row's number.
func everySignalSet(m Metrics) Metrics {
	mv := reflect.ValueOf(&m).Elem()
	for i, s := range Signals {
		f := mv.FieldByIndex(s.index)
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(int64(i+1) * int64(time.Second))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(i+1) * 1000)
		default:
			f.SetInt(int64(i+1)*1000 + int64(i))
		}
	}
	return m
}

// TestDumpStatsPrintsEverySignal renders a snapshot with every signal
// non-zero and finds each row on its line with its label and value. The
// ReadAmp rows are ReadAmp.Render's, so the Read Path section covers them.
func TestDumpStatsPrintsEverySignal(t *testing.T) {
	d, err := OpenAt(t.TempDir(), testOptions(PolicyMash))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := everySignalSet(d.Metrics())
	rep := d.renderStats(m, Metrics{}, d.openedAt, time.Now())
	lines := strings.Split(rep, "\n")
	for _, s := range Signals {
		if s.line == "" {
			if !strings.HasPrefix(s.Field, "ReadAmp.") || !strings.Contains(rep, "\n** Read Path **\n") {
				t.Errorf("%s: no DumpStats line, and not a ReadAmp row the Read Path section renders", s.Name)
			}
			continue
		}
		item := s.label + " " + s.dumpValue(&m, &Metrics{})
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, s.line+": ") && strings.Contains(l, item) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: DumpStats has no %q line holding %q", s.Name, s.line, item)
		}
	}
	if t.Failed() {
		t.Log(rep)
	}
}

// TestRenderStatsNamesNoSignal: renderStats prints every scalar through
// the table, so it may not name a Metrics field that has a row.
func TestRenderStatsNamesNoSignal(t *testing.T) {
	rows := map[string]bool{}
	for _, s := range Signals {
		rows[s.Field] = true
	}
	f, err := parser.ParseFile(token.NewFileSet(), "dump.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "renderStats" {
			continue
		}
		found = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// The path below the snapshot parameters: m.ReadAmp.Tables is
			// "ReadAmp.Tables".
			var path []string
			x := ast.Expr(sel)
			for {
				s, ok := x.(*ast.SelectorExpr)
				if !ok {
					break
				}
				path, x = append([]string{s.Sel.Name}, path...), s.X
			}
			if id, ok := x.(*ast.Ident); ok && (id.Name == "m" || id.Name == "prev") {
				if p := strings.Join(path, "."); rows[p] {
					t.Errorf("renderStats names %s.%s, which has a Signals row", id.Name, p)
				}
			}
			return false
		})
	}
	if !found {
		t.Fatal("dump.go declares no renderStats")
	}
}
