package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mmconf/internal/workload"
)

// opStream draws the first n operations of a driver's stream.
func opStream(seed int64, driver int, writeShare float64, layers, n int) []fetchOp {
	readable := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g := newFetchGen(seed, driver, readable, readable[:4], writeShare, layers)
	ops := make([]fetchOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSeedDrivesOperationStreams(t *testing.T) {
	for _, tc := range []struct {
		name       string
		writeShare float64
		layers     int
	}{
		{"balanced read-only", 0, 0},
		{"balanced layered", 0, maxStreamLayers},
		{"independent with writes", coldWriteShare, 0},
	} {
		a := opStream(1, 0, tc.writeShare, tc.layers, 1000)
		if b := opStream(1, 0, tc.writeShare, tc.layers, 1000); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different operation streams", tc.name)
		}
		if b := opStream(2, 0, tc.writeShare, tc.layers, 1000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same operation stream", tc.name)
		}
		if b := opStream(1, 1, tc.writeShare, tc.layers, 1000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: drivers 0 and 1 share an operation stream", tc.name)
		}
	}
}

func TestBalancedStreamVisitsEveryCombinationPerCycle(t *testing.T) {
	ops := opStream(7, 0, 0, maxStreamLayers, 8*maxStreamLayers*3)
	for c := 0; c < 3; c++ {
		seen := make(map[fetchOp]bool)
		for _, op := range ops[c*24 : (c+1)*24] {
			seen[op] = true
		}
		if len(seen) != 24 {
			t.Fatalf("cycle %d visits %d of 24 (object, layers) combinations", c, len(seen))
		}
	}
}

func TestSeedDrivesScriptsAndContents(t *testing.T) {
	doc, err := workload.MedicalRecord("p0", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := choiceScript(doc, "dr0", 1, 0)
	if b := choiceScript(doc, "dr0", 1, 0); !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different choice scripts")
	}
	if b := choiceScript(doc, "dr0", 2, 0); reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 gave the same choice script")
	}
	if b := choiceScript(doc, "dr0", 1, 1); reflect.DeepEqual(a, b) {
		t.Error("drivers 0 and 1 share a choice script")
	}
	noise := func(seed int64) []byte {
		return noiseRaster(rand.New(rand.NewSource(subSeed(seed, "noise", 0))), 32, 32)
	}
	if !bytes.Equal(noise(1), noise(1)) {
		t.Error("equal seeds gave different object contents")
	}
	if bytes.Equal(noise(1), noise(2)) {
		t.Error("seeds 1 and 2 gave the same object contents")
	}
}
