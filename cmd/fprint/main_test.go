package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/base.golden with the current base-matrix output")

const goldenPath = "testdata/base.golden"

// TestBaseMatrixGolden pins simulated behaviour bit for bit: the base
// matrix (every CCA × seed on the plain dumbbell) must print exactly
// the committed golden. A hot-path optimisation that shifts one event,
// one drop or one float bit fails here. A change that is meant to alter
// behaviour regenerates the golden with
// `go test ./cmd/fprint -run TestBaseMatrixGolden -update` and says why.
//
// The golden is amd64 output: arm64 fuses multiply-add, which moves the
// last bits of the float columns, so other architectures skip.
func TestBaseMatrixGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is amd64 output; %s may fuse multiply-add", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs 15 simulations")
	}
	var buf bytes.Buffer
	baseMatrix(&buf, nil, false)
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s updated (%d lines)", goldenPath, bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	diffGolden(t, got, want)
}

// TestViaScenarioMatchesGolden proves the declarative path adds no
// drift: the base matrix rebuilt through scenario documents prints the
// same golden.
func TestViaScenarioMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is amd64 output; %s may fuse multiply-add", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("runs 15 simulations")
	}
	var buf bytes.Buffer
	baseMatrix(&buf, nil, true)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	diffGolden(t, buf.Bytes(), want)
}

// diffGolden fails at the first line where got and want differ.
func diffGolden(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("base matrix diverges from %s at line %d:\n golden: %s\n    got: %s", goldenPath, i+1, w, g)
		}
	}
}
