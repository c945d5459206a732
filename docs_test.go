package ascc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references TestDocReferences
// checks.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// docRef matches a qualified Go name inside a code span: a lower-case
// package name and one or two exported-or-not identifiers, as in
// `cachesim.Line` or `cachesim.Cache.Access`.
var docRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// fileExt are the extensions that make a docRef match a file name, as in
// `cachesim.go`, rather than a qualified Go name.
var fileExt = map[string]bool{"go": true, "md": true, "sh": true, "json": true, "csv": true}

// codeSpan matches one backticked span of a Markdown line.
var codeSpan = regexp.MustCompile("`[^`]+`")

// TestDocReferences fails when a backticked `pkg.Name` in DESIGN.md,
// README.md or EXPERIMENTS.md names no declaration: pkg is the name of a
// package in this tree (both modules, tests included, parsed as
// TestNoTestOnlyExports parses them), and Name must be a top-level
// function, type, variable or constant of it. A `pkg.Type.Member` must
// also name a method or field of that type. Qualified names whose first
// part is no package of this tree (`bits.TrailingZeros64`, a receiver
// variable), file names (`cachesim.go`) and perfbench's snake_case
// metric names (`cachesim.dir_probe_ns_4c`) are not checked. Prose that
// names a deleted declaration therefore fails here until it is reworded.
func TestDocReferences(t *testing.T) {
	// decls: package name -> top-level names; members: "pkg.Type" -> its
	// methods and fields.
	decls := map[string]map[string]bool{}
	members := map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			pkg = filepath.Base(filepath.Dir(p))
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(decls, pkg, d.Name.Name)
					continue
				}
				typ := d.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok { // generic receiver
					typ = ix.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					add(members, pkg+"."+id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(decls, pkg, sp.Name.Name)
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, fl := range st.Fields.List {
								for _, n := range fl.Names {
									add(members, pkg+"."+sp.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							add(decls, pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls["cachesim"]) == 0 {
		t.Fatal("no declarations found for package cachesim: wrong working directory?")
	}
	var bad []string
	for _, doc := range docFiles {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for ln, line := range strings.Split(string(src), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range docRef.FindAllStringSubmatch(span, -1) {
					pkg, name, member := m[1], m[2], m[3]
					names, ok := decls[pkg]
					if !ok || fileExt[name] || strings.Contains(name, "_") {
						continue
					}
					switch {
					case !names[name]:
						bad = append(bad, doc+":"+strconv.Itoa(ln+1)+": "+m[0]+": package "+pkg+" declares no "+name)
					case member != "" && !members[pkg+"."+name][member]:
						bad = append(bad, doc+":"+strconv.Itoa(ln+1)+": "+m[0]+": "+pkg+"."+name+" has no method or field "+member)
					}
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
