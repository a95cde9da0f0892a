package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/bench/golden"
)

var update = flag.Bool("update", false, "rewrite bench/golden from the library path")

// TestGoldens regenerates every golden through the library path and fails
// when the embedded files differ: a model change must come with new goldens
// (go test ./ledger -run TestGoldens -update), and a stale golden would make
// every op of a correct build fail.
func TestGoldens(t *testing.T) {
	nets, fab, sv, err := computeGoldens(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name     string
		v        any
		embedded []byte
	}{
		{"networks.json", nets, golden.Networks},
		{"fabric.json", fab, golden.Fabric},
		{"serve.json", sv, golden.Serve},
	} {
		b, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, '\n')
		if *update {
			if err := os.WriteFile(filepath.Join("..", "golden", f.name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !bytes.Equal(b, f.embedded) {
			t.Errorf("golden/%s is stale; regenerate with go test ./ledger -run TestGoldens -update", f.name)
		}
	}
	if !*update {
		if _, _, _, err := loadGoldens(); err != nil {
			t.Fatal(err)
		}
	}
}
