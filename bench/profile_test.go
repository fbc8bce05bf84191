package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"os"
	"reflect"
	"testing"
)

var updateFixture = flag.Bool("update-fixture", false, "rewrite testdata/layers.pprof")

// fixtureFunctions name the fixture's functions by id.
var fixtureFunctions = []string{
	1:  "runtime.mallocgc",
	2:  "alm/internal/fairshare.(*System).allocate",
	3:  "internal/bytealg.cmpbody",
	4:  "sort.Slice",
	5:  "alm/internal/trace.(*Collector).Emit",
	6:  "alm/internal/engine.(*Job).finish",
	7:  "alm/internal/sim.(*Engine).Run",
	8:  "main.(*rep).job",
	9:  "runtime.gcBgMarkWorker",
	10: "alm/internal/topology.(*Topology).Node",
	11: "alm.RunExperiment",
	12: "alm/internal/metrics/lint.Check",
}

// fixtureLocations list each location's functions, innermost first:
// location 5 is Emit inlined into finish.
var fixtureLocations = [][]uint64{
	1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5, 6}, 6: {7}, 7: {8}, 8: {9}, 9: {10}, 10: {11}, 11: {12},
}

// fixtureSamples are stacks, leaf first, with their CPU nanoseconds.
var fixtureSamples = []struct {
	stack  []uint64
	ns     int64
	packed bool
}{
	{[]uint64{1, 2, 6}, 10e6, true},    // runtime code under fairshare: fairshare
	{[]uint64{3, 4, 2, 6}, 20e6, true}, // cmpbody and sort under fairshare: fairshare
	{[]uint64{5, 6}, 30e6, true},       // inlined Emit is innermost: trace
	{[]uint64{8}, 40e6, true},          // no simulator frame: runtime
	{[]uint64{1, 7}, 50e6, true},       // the benchmark's own code: bench
	{[]uint64{9, 5, 6}, 60e6, true},    // an unlisted simulator package: other
	{[]uint64{10, 7}, 70e6, true},      // the alm facade: other
	{[]uint64{6}, 80e6, true},          // sim
	{[]uint64{11, 6}, 5e6, false},      // sub-package, unpacked encoding: metrics
}

var fixtureLayers = layerTable{
	"fairshare": 30e6, "trace": 30e6, "runtime": 40e6, "bench": 50e6,
	"other": 130e6, "sim": 80e6, "metrics": 5e6,
}

// The reduction of the checked-in fixture profile must give the layer
// table its stacks were built to produce.
func TestReduceFixtureProfile(t *testing.T) {
	if *updateFixture {
		if err := os.WriteFile("testdata/layers.pprof", encodeFixture(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gz, err := os.ReadFile("testdata/layers.pprof")
	if err != nil {
		t.Fatal(err)
	}
	got, err := reduceProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fixtureLayers) {
		t.Errorf("layers = %v, want %v", got, fixtureLayers)
	}
}

func TestReduceProfileRejectsGarbage(t *testing.T) {
	if _, err := reduceProfile([]byte("not a profile")); err == nil {
		t.Error("reduced a non-gzip profile")
	}
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write([]byte{0x0a, 0x7f}) // a length past the end
	zw.Close()
	if _, err := reduceProfile(b.Bytes()); err == nil {
		t.Error("reduced a truncated profile")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"alm/internal/fairshare.(*System).allocate": "fairshare",
		"alm/internal/engine.Run.func1":             "engine",
		"alm/internal/sweep.Do[...]":                "other",
		"alm.Run":                                   "other",
		"main.main":                                 "bench",
		"runtime.mallocgc":                          "",
		"sort.Slice":                                "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// encodeFixture writes the fixture as a gzipped profile.proto message.
func encodeFixture() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2)) // samples/count
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	for _, s := range fixtureSamples {
		var m []byte
		if s.packed {
			m = pbPacked(m, 1, s.stack)
			m = pbPacked(m, 2, []uint64{1, uint64(s.ns)})
		} else {
			for _, l := range s.stack {
				m = pbVarint(m, 1, l)
			}
			m = pbVarint(pbVarint(m, 2, 1), 2, uint64(s.ns))
		}
		p = pbBytes(p, 2, m)
	}
	for id, fns := range fixtureLocations {
		if fns == nil {
			continue
		}
		m := pbVarint(nil, 1, uint64(id))
		for _, fn := range fns {
			m = pbBytes(m, 4, pbVarint(pbVarint(nil, 1, fn), 2, 42))
		}
		p = pbBytes(p, 4, m)
	}
	for id, name := range fixtureFunctions {
		if name != "" {
			p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, uint64(id)), 2, str(name)))
		}
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write(p)
	zw.Close()
	return b.Bytes()
}

func pbVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, field int, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func pbPacked(b []byte, field int, vs []uint64) []byte {
	var m []byte
	for _, v := range vs {
		m = binary.AppendUvarint(m, v)
	}
	return pbBytes(b, field, m)
}
