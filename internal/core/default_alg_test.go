package core

import (
	"context"
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

// TestOneDefaultAlgorithm: every place that picks a checksum algorithm when
// none is named picks checksum.Default — a pre-copy source with zero options,
// a post-copy source with zero options (both read off the hello they put on
// the wire) and the checkpoint store's object keys — so the wire checksum and
// the store key are the same digest. And nothing quietly defaults to the
// paper's MD5 any more: outside the checksum package itself and the
// paper-constant models, no non-test source spells checksum.MD5. (The CLI's
// empty -checksum is covered next to the flag, cmd/vecycle.)
func TestOneDefaultAlgorithm(t *testing.T) {
	if checkpoint.ObjectAlgorithm != checksum.Default {
		t.Errorf("store keys pages by %v, default is %v", checkpoint.ObjectAlgorithm, checksum.Default)
	}
	if !checksum.Default.Strong() {
		t.Errorf("default algorithm %v is not collision resistant", checksum.Default)
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
		if s.h.Alg != checksum.Default {
			t.Errorf("%s with zero options announces %v, want %v", name, s.h.Alg, checksum.Default)
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
	helloAlg("post-copy", func(conn net.Conn, v *vm.VM) error {
		_, err := PostCopySource(context.Background(), conn, v, PostCopySourceOptions{})
		return err
	})

	root := filepath.Join("..", "..")
	exempt := []string{ // the algorithm's home, and the models of the paper's own constants
		filepath.Join("internal", "checksum"),
		filepath.Join("internal", "experiments"),
		filepath.Join("internal", "migsim"),
		"bench", // the frozen benchmark replays a layer under MD5 on purpose
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
			t.Errorf("%s spells checksum.MD5: name checksum.Default, or take the algorithm from the caller", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
