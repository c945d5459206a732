package ascc_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
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
// mention in a comment never counts as a use. The frozen refmodel oracle is
// not checked; its declarations still count as uses of the names it shares
// with the kernel.
func TestNoTestOnlyExports(t *testing.T) {
	declared := map[string]string{} // checked name -> one declaring file
	decls := map[string]int{}       // name -> declarations in scanned files
	uses := map[string]int{}        // name -> identifier tokens in scanned files
	fset := token.NewFileSet()
	for _, root := range []string{".", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case ".git", ".bench_build", "testdata":
					return filepath.SkipDir
				}
				if root == "." && path == "perfbench" {
					return filepath.SkipDir // its own module, walked next
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			checked := strings.HasPrefix(path, "internal/") &&
				!strings.HasPrefix(path, "internal/cachesim/refmodel/")
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fn.Name.Name]++
				if checked && fn.Name.IsExported() {
					declared[fn.Name.Name] = path
				}
			}
			var sc scanner.Scanner
			sc.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
			for {
				_, tok, lit := sc.Scan()
				if tok == token.EOF {
					break
				}
				if tok == token.IDENT {
					uses[lit]++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported declarations found under internal/: wrong working directory?")
	}
	var unused []string
	for name, path := range declared {
		if uses[name] > decls[name] {
			continue
		}
		if _, ok := exportAllowlist[name]; ok {
			continue
		}
		unused = append(unused, name+" ("+path+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s is called only from tests: delete it, or move it into a _test.go file", u)
	}
	for name := range exportAllowlist {
		if _, ok := declared[name]; !ok {
			t.Errorf("allowlist entry %s names no exported internal function or method", name)
		} else if uses[name] > decls[name] {
			t.Errorf("allowlist entry %s now has a non-test use: drop it from the allowlist", name)
		}
	}
}
