package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestNewStoreRejectsV2Manifest: manifests of version 2 (whole-file segment
// digests) and version 3 (head-first segments) describe files this store no
// longer reads; opening one fails with a version error instead of
// quarantining every segment.
func TestNewStoreRejectsV2Manifest(t *testing.T) {
	for _, version := range []int{2, 3} {
		dir := filepath.Join(t.TempDir(), "s")
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(filledVM(t, "a", 4, 1)); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(s.manifestPath())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		m["version"] = version
		if raw, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.manifestPath(), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("manifest version %d, want 4", version)
		if _, err := NewStore(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewStore over a v%d manifest: %v, want %q", version, err, want)
		}
	}
}

// FuzzParseManifest drives the store-manifest parser, whose records recovery
// renames, unlinks and quarantines by, with mutated manifests. It must reject
// rather than panic, every segment it accepts must name a file inside the
// store directory, and whatever it accepts must survive a write and re-read
// unchanged.
func FuzzParseManifest(f *testing.F) {
	// A real manifest, byte for byte what a store commits: complete, partial
	// and quarantined entries over several segments.
	dir := filepath.Join(f.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		v, verr := filledSeedVM(name, int64(i+1))
		if verr != nil {
			f.Fatal(verr)
		}
		if name == "b" {
			err = s.SaveSalvage(v)
		} else {
			err = s.Save(v)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Quarantine("c", "seed"); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(s.manifestPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(bytes.Replace(real, []byte(`"version": 3`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(real, []byte("seg-00000001.seg"), []byte("../../x.seg"), 1))
	f.Add([]byte(`{"version":3,"entries":{}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := parseManifest(raw)
		if err != nil {
			return
		}
		for name := range m.Segments {
			if filepath.Base(name) != name || !strings.HasSuffix(name, segmentSuffix) {
				t.Fatalf("accepted segment name %q", name)
			}
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		m2, err := parseManifest(again)
		if err != nil {
			t.Fatalf("rewritten manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest changed across a rewrite: %+v -> %+v", m, m2)
		}
	})
}
