package seedscan

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAPI pins the exported surface of internal/: every exported
// package-level func, type, const and var, every exported method of an
// exported type, and every exported field or embedded type of an exported
// struct or interface, one per line of api.txt, as Go's own api/ check
// does. It reads the non-test files only, so test helpers are not part of
// the surface. A change that adds or removes a name fails here with the
// lines to add to or delete from api.txt; edit the file to match, so the
// change shows up in review as a diff of api.txt.
func TestAPI(t *testing.T) {
	got, err := apiLines("internal")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	added, removed := lineDiff(want, got)
	if len(added)+len(removed) == 0 {
		return
	}
	var msg strings.Builder
	msg.WriteString("the exported surface of internal/ differs from api.txt")
	for _, l := range added {
		msg.WriteString("\n+" + l)
	}
	for _, l := range removed {
		msg.WriteString("\n-" + l)
	}
	t.Error(msg.String())
}

// lineDiff returns the lines of got missing from want and the lines of
// want missing from got, each in order.
func lineDiff(want, got []string) (added, removed []string) {
	for _, l := range got {
		if !slices.Contains(want, l) {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			removed = append(removed, l)
		}
	}
	return added, removed
}

// apiLines lists the exported surface of every package under root,
// sorted.
func apiLines(root string) ([]string, error) {
	fset := token.NewFileSet()
	var lines []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "pkg seedscan/" + filepath.ToSlash(filepath.Dir(path)) + ", "
		for _, decl := range f.Decls {
			for _, l := range declLines(fset, decl) {
				lines = append(lines, pkg+l)
			}
		}
		return nil
	})
	slices.Sort(lines)
	return lines, err
}

// declLines lists the exported names one declaration contributes.
func declLines(fset *token.FileSet, decl ast.Decl) []string {
	src := func(n ast.Node) string {
		var buf bytes.Buffer
		printer.Fprint(&buf, fset, n)
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		sig := funcSig(src, d.Type)
		if d.Recv == nil {
			return []string{"func " + d.Name.Name + typeParams(src, d.Type.TypeParams) + sig}
		}
		recv := d.Recv.List[0].Type
		if !ast.IsExported(baseName(recv)) {
			return nil
		}
		return []string{"method (" + src(recv) + ") " + d.Name.Name + sig}
	case *ast.GenDecl:
		var prevType ast.Expr // a const spec without type or values repeats the previous one's
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				head := "type " + s.Name.Name + typeParams(src, s.TypeParams)
				switch tt := s.Type.(type) {
				case *ast.StructType:
					out = append(out, head+" struct")
					out = append(out, fieldLines(src, head+" struct, ", tt.Fields, false)...)
				case *ast.InterfaceType:
					out = append(out, head+" interface")
					out = append(out, fieldLines(src, head+" interface, ", tt.Methods, true)...)
				default:
					if s.Assign.IsValid() {
						head += " ="
					}
					out = append(out, head+" "+src(s.Type))
				}
			case *ast.ValueSpec:
				typ := s.Type
				if d.Tok == token.CONST && typ == nil && s.Values == nil {
					typ = prevType
				}
				prevType = typ
				for _, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					l := strings.ToLower(d.Tok.String()) + " " + n.Name
					if typ != nil {
						l += " " + src(typ)
					}
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// fieldLines lists the exported fields, embedded types and (for an
// interface) methods of a struct or interface type, each after head.
func fieldLines(src func(ast.Node) string, head string, fields *ast.FieldList, iface bool) []string {
	var out []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if ast.IsExported(baseName(f.Type)) {
				out = append(out, head+"embedded "+src(f.Type))
			}
			continue
		}
		for _, n := range f.Names {
			if !n.IsExported() {
				continue
			}
			if ft, ok := f.Type.(*ast.FuncType); ok && iface {
				out = append(out, head+n.Name+funcSig(src, ft))
			} else {
				out = append(out, head+n.Name+" "+src(f.Type))
			}
		}
	}
	return out
}

// funcSig renders a signature's parameter and result types without
// their names, so renaming a parameter changes no line.
func funcSig(src func(ast.Node) string, ft *ast.FuncType) string {
	types := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for range max(len(f.Names), 1) {
				out = append(out, src(f.Type))
			}
		}
		return out
	}
	sig := "(" + strings.Join(types(ft.Params), ", ") + ")"
	switch res := types(ft.Results); len(res) {
	case 0:
	case 1:
		sig += " " + res[0]
	default:
		sig += " (" + strings.Join(res, ", ") + ")"
	}
	return sig
}

// typeParams renders a type parameter list, or "" without one.
func typeParams(src func(ast.Node) string, tp *ast.FieldList) string {
	if tp == nil {
		return ""
	}
	var ps []string
	for _, f := range tp.List {
		var names []string
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		ps = append(ps, strings.Join(names, ", ")+" "+src(f.Type))
	}
	return "[" + strings.Join(ps, ", ") + "]"
}

// baseName is the type name under pointers, package qualifiers and type
// arguments: T for *T, pkg.T and T[K].
func baseName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
