package core

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// TestOneDefaultAlgorithm: the checksum algorithm is decided in one place.
// The source puts checksum.Default in its hello, the checkpoint store keys
// pages by it, and nothing quietly speaks the paper's MD5 any more: outside
// the checksum package itself, the paper-constant models and the frozen
// benchmark, no non-test source spells checksum.MD5. In the layers a migration
// runs through (internal/core, internal/sched, internal/vm, cmd/), no non-test
// source declares a checksum.Algorithm field or parameter, or names an
// algorithm other than checksum.Default — save the vm oracle the digest table
// is verified against (PageSum, RangeSums, Fingerprint64).
func TestOneDefaultAlgorithm(t *testing.T) {
	if checkpoint.ObjectAlgorithm != checksum.Default {
		t.Errorf("store keys pages by %v, default is %v", checkpoint.ObjectAlgorithm, checksum.Default)
	}

	// helloAlg runs a source against a destination that reads the hello and
	// turns the migration down.
	helloAlg := func(name string, source func(conn net.Conn, v *vm.VM) error) {
		t.Helper()
		v, err := vm.New(vm.Config{Name: "vm0", MemBytes: 4 * vm.PageSize, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sc, dc := net.Pipe()
		defer sc.Close()
		defer dc.Close()
		done := make(chan error, 1) // the one send below
		go func() { done <- source(sc, v) }()
		s, err := Accept(context.Background(), dc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := checksum.Algorithm(s.h.Alg); got != checksum.Default {
			t.Errorf("%s announces %v, want %v", name, got, checksum.Default)
		}
		_ = s.Reject("only here for the hello") // the source's error is the point
		if err := <-done; err == nil {
			t.Errorf("%s: rejected migration reported success", name)
		}
	}
	helloAlg("pre-copy", func(conn net.Conn, v *vm.VM) error {
		_, err := MigrateSource(context.Background(), conn, v, SourceOptions{})
		return err
	})

	root := filepath.Join("..", "..")
	exempt := []string{ // the algorithm's home, and the models of the paper's own constants
		filepath.Join("internal", "checksum"),
		filepath.Join("internal", "experiments"),
		filepath.Join("internal", "migsim"),
		"bench", // the frozen benchmark replays a layer under MD5 on purpose
	}
	guarded := []string{
		filepath.Join("internal", "core"),
		filepath.Join("internal", "sched"),
		filepath.Join("internal", "vm"),
		"cmd",
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			for _, e := range exempt {
				if rel == e {
					return filepath.SkipDir
				}
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
		if strings.Contains(string(src), "checksum.MD5") {
			t.Errorf("%s spells checksum.MD5: name checksum.Default", rel)
		}
		for _, g := range guarded {
			if strings.HasPrefix(rel, g+string(filepath.Separator)) {
				for _, msg := range algorithmChoices(t, path, src) {
					t.Errorf("%s: %s", rel, msg)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// vmOracle names the vm methods that digest under any algorithm the caller
// names: the independent reference the digest table is verified against.
var vmOracle = map[string]bool{"PageSum": true, "RangeSums": true, "Fingerprint64": true}

// algorithmChoices parses one source file and reports every place it could
// choose a checksum algorithm: a checksum.Algorithm field or parameter, or a
// named algorithm other than checksum.Default — outside the vm oracle.
func algorithmChoices(t *testing.T, path string, src []byte) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	isAlgorithm := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "checksum" && sel.Sel.Name == "Algorithm"
	}
	var out []string
	fields := func(list *ast.FieldList, what string) {
		if list == nil {
			return
		}
		for _, f := range list.List {
			if isAlgorithm(f.Type) {
				out = append(out, fmt.Sprintf("line %d: a checksum.Algorithm %s", fset.Position(f.Pos()).Line, what))
			}
		}
	}
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && file.Name.Name == "vm" && fn.Recv != nil && vmOracle[fn.Name.Name] {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				fields(n.Fields, "field")
			case *ast.FuncType:
				fields(n.Params, "parameter")
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "checksum" {
					switch n.Sel.Name {
					case "MD5", "SHA256", "FNV", "FAST64":
						out = append(out, fmt.Sprintf("line %d: names checksum.%s, not checksum.Default", fset.Position(n.Pos()).Line, n.Sel.Name))
					}
				}
			}
			return true
		})
	}
	return out
}
