package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods that production
// code does not reference but that stay exported, each with the reason. An
// entry is "<package dir> <Name>" or "<package dir> <Recv>.<Name>". Keep it
// at ten entries or fewer: an export that only tests call belongs in its
// package's _test.go files.
var exportAllowlist = map[string]string{
	"internal/linalg Cholesky.Jitter": "internal/core's synopsis oracle bounds its LLᵀ = Σ check by the jitter the factorization added",
	"internal/linalg Cholesky.LAt":    "internal/core's synopsis oracle compares maintained factors with fresh ones entry by entry",
}

// dispatched names the methods the standard library calls through an
// interface (fmt, errors, sort, container/heap, io, encoding/json,
// net/http): a method with one of these names is live without any reference
// to it by name.
var dispatched = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
}

// TestNoTestOnlyExports fails on an exported top-level function or method,
// declared in non-test code under internal/, cmd/ or examples/, whose name no
// non-test .go file in the repository references; the serving benchmark in
// bench/ counts as a caller. Matching is by bare identifier, so a name that
// another declaration, field or interface method shares counts as referenced,
// and a method the standard library dispatches to is skipped: the check can
// miss a dead export but never flags a live one. It also fails
// on an allowlist entry that no longer names a declaration, or whose name has
// gained a caller.
func TestNoTestOnlyExports(t *testing.T) {
	if len(exportAllowlist) > 10 {
		t.Errorf("export allowlist has %d entries, want at most 10", len(exportAllowlist))
	}
	fset := token.NewFileSet()
	uses := map[string]int{}      // identifier -> occurrences in non-test files
	declared := map[string]bool{} // "<dir> [Recv.]Name" of exported declarations
	declNames := map[string]int{} // exported name -> declarations of it
	var dead []string
	type decl struct{ key, name string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") && !strings.HasPrefix(dir, "examples/") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := dir + " " + fd.Name.Name
			if fd.Recv != nil {
				if dispatched[fd.Name.Name] {
					continue
				}
				key = dir + " " + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name})
			declNames[fd.Name.Name]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		declared[d.key] = true
		// Each declaration's own name is one occurrence; any other is a use.
		referenced := uses[d.name] > declNames[d.name]
		_, allowed := exportAllowlist[d.key]
		switch {
		case !referenced && !allowed:
			dead = append(dead, d.key)
		case referenced && allowed:
			t.Errorf("allowlist entry %q is stale: production code now references %s", d.key, d.name)
		}
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %q is stale: no such exported declaration", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test code references it: unexport it into a _test.go file or delete it", key)
	}
}

// recvName is the base type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
