package ascc_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal functions and methods that
// only tests, reflection or the frozen oracles reach, each with the reason
// it stays.
var exportAllowlist = map[string]string{
	"ValidLines":       "kernel oracle API: the differential tests compare the packed kernel's residency against refmodel",
	"Victim":           "kernel oracle API: the differential tests compare victim choice against refmodel",
	"Totals":           "kernel oracle API: lifetime access and miss totals the kernel differentials compare",
	"RecencyStack":     "kernel oracle API: the differential tests compare recency order against refmodel",
	"FilterView":       "sampled oracle arm: the reference filter the sampled view is diffed against",
	"UnrewriteBlock":   "sampled oracle arm: maps a sampled block back to its full-geometry address",
	"Keep":             "sampled oracle arm: the per-reference residue test of the reference filter",
	"OrigL1Set":        "sampled oracle arm: maps a sampled L1 set back to its full-geometry index",
	"Build":            "harness.Runner.Build: the benchmarks and allocation tests build systems without running them",
	"MissIncrement":    "ssl.Bank.MissIncrement: the only view the policies QoS tests have of QoSRatio",
	"MaxBytes":         "trace.ArenaCache.MaxBytes: the harness budget-union test reads the resolved budget",
	"DirectoryEnabled": "cachesim.CacheGroup.DirectoryEnabled: the cmp tests assert the directory is on",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in internal/ is named nowhere in non-test code but its own declarations:
// an API that only tests call is code the simulator does not run. Names are
// matched as identifier tokens across the root and perfbench modules, so a
// mention in a comment never counts as a use. A token counts only in a file
// that can reach the declaration: one in the declaring package, or one that
// imports that package or a package re-exporting its types by alias (the
// root ascc package); a method is also reached by a file that imports an
// interface declaring its name (cmp calls the policies through
// coop.Policy). So a same-named method of an unrelated type keeps nothing
// alive. The frozen refmodel oracle is not checked; it imports the kernel,
// so its tokens still count as uses of the names it shares with the kernel.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		name, pkg string
		method    bool
	}
	type file struct {
		pkg     string
		imports map[string]bool
		net     map[string]int // identifier tokens minus function declarations, by name
	}
	declared := map[decl]string{}              // checked declaration -> its file
	aliased := map[string]map[string]bool{}    // package -> packages whose types it aliases
	ifaceMeths := map[string]map[string]bool{} // package -> method names its interfaces declare
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	add(ifaceMeths, "fmt", "String") // fmt.Stringer: the formatting verbs call it
	var files []file
	fset := token.NewFileSet()
	for _, root := range []string{".", "perfbench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case ".git", ".bench_build", "testdata":
					return filepath.SkipDir
				}
				if root == "." && p == "perfbench" {
					return filepath.SkipDir // its own module, walked next
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			// Both modules live under the ascc path: perfbench is
			// ascc/perfbench, and it imports the root's packages.
			fl := file{pkg: path.Join("ascc", filepath.ToSlash(filepath.Dir(p))), imports: map[string]bool{}, net: map[string]int{}}
			byName := map[string]string{} // import name -> path
			for _, im := range f.Imports {
				ip := strings.Trim(im.Path.Value, `"`)
				fl.imports[ip] = true
				byName[path.Base(ip)] = ip
				if im.Name != nil {
					byName[im.Name.Name] = ip
				}
			}
			checked := strings.HasPrefix(p, "internal/") &&
				!strings.HasPrefix(p, "internal/cachesim/refmodel/")
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, sp := range gd.Specs {
						ts := sp.(*ast.TypeSpec)
						if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
							if x, ok := sel.X.(*ast.Ident); ok && byName[x.Name] != "" {
								add(aliased, fl.pkg, byName[x.Name])
							}
						}
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									add(ifaceMeths, fl.pkg, n.Name)
								}
							}
						}
					}
				}
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fl.net[fn.Name.Name]--
				if checked && fn.Name.IsExported() {
					declared[decl{fn.Name.Name, fl.pkg, fn.Recv != nil}] = p
				}
			}
			var sc scanner.Scanner
			sc.Init(fset.AddFile(p, -1, len(src)), src, nil, 0)
			for {
				_, tok, lit := sc.Scan()
				if tok == token.EOF {
					break
				}
				if tok == token.IDENT {
					fl.net[lit]++
				}
			}
			files = append(files, fl)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported declarations found under internal/: wrong working directory?")
	}
	reaches := func(f file, d decl) bool {
		if f.pkg == d.pkg || d.method && ifaceMeths[f.pkg][d.name] {
			return true
		}
		for ip := range f.imports {
			if ip == d.pkg || aliased[ip][d.pkg] || d.method && ifaceMeths[ip][d.name] {
				return true
			}
		}
		return false
	}
	used := func(d decl) bool {
		n := 0
		for _, f := range files {
			if reaches(f, d) {
				n += f.net[d.name]
			}
		}
		return n > 0
	}
	var unused []string
	unusedNames := map[string]bool{}
	for d, p := range declared {
		if used(d) {
			continue
		}
		unusedNames[d.name] = true
		if _, ok := exportAllowlist[d.name]; !ok {
			unused = append(unused, d.name+" ("+p+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s is called only from tests: delete it, or move it into a _test.go file", u)
	}
	for name := range exportAllowlist {
		if !unusedNames[name] {
			t.Errorf("allowlist entry %s names no exported internal function or method without a non-test use: drop it from the allowlist", name)
		}
	}
}
