package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's packages a CPU sample can be charged to, in
// report order. "runtime" takes samples with no frame in the simulator or
// the benchmark (the Go runtime and GC); "other" takes frames in
// simulator packages that are not listed here.
var layers = []string{
	"fairshare", "engine", "sim", "cluster", "simnet", "simdisk", "core",
	"merge", "mr", "dfs", "workloads", "shuffletier", "trace", "metrics",
	"experiments", "chaos", "runtime", "bench", "other",
}

// layerOf names the layer a function belongs to, or "" when the function
// lies outside the simulator and the benchmark (runtime and standard
// library code, which is charged to its innermost simulator caller).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "alm/internal/"):
		pkg := fn[len("alm/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "alm.") || strings.HasPrefix(fn, "alm/"):
		return "other"
	}
	return ""
}

// layerTable is CPU time per layer, in nanoseconds.
type layerTable map[string]int64

func (t layerTable) total() int64 {
	var n int64
	for _, v := range t {
		n += v
	}
	return n
}

// reduceProfile charges every sample of a gzipped pprof CPU profile to
// the innermost frame that belongs to a layer (inlined frames count as
// their own functions), or to "runtime" when no frame does.
func reduceProfile(gz []byte) (layerTable, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	vi := len(p.sampleTypes) - 1
	for i, st := range p.sampleTypes {
		if st == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no sample types")
	}
	table := layerTable{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("sample has fewer values than sample types")
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.functions[fn]); l != "" {
					layer = l
					break stack
				}
			}
		}
		table[layer] += s.values[vi]
	}
	return table, nil
}

// profile is the part of profile.proto the reduction reads.
type profile struct {
	sampleTypes []string // unit of each sample value
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a gzipped profile.proto message
// (github.com/google/pprof/proto/profile.proto) with the standard
// library only.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var unitIdx []uint64
	funcName := map[uint64]uint64{} // function id -> string index
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 2 {
					unitIdx = append(unitIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, u := range unitIdx {
		s, err := str(u)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, si := range funcName {
		if p.functions[id], err = str(si); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v is the value of
// a varint or fixed-width field, b the payload of a length-delimited one
// (nil otherwise).
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed feeds a repeated varint field to add, whether it was encoded
// packed (b holds the varints) or as one unpacked element (v).
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
