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

// selfByModule decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and returns each module's share of self time: the leaf
// frame of every sample, attributed to the package that defines its
// function. Modules are the repository's internal packages by directory
// name, "runtime" (runtime and internal/runtime), "stdlib" (the rest of
// the standard library) and "other" (the root package, this benchmark,
// anything else).
func selfByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		valueIdx = -1
		typeIdx  []int64 // sample_type[i].type string index
		samples  [][2][]uint64
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → name string index
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var t int64
			fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s [2][]uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				if n == 1 || n == 2 {
					vals, err := packed(v, d)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id, fn uint64
			fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if fn == 0 {
						fields(d, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	self := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s[0]) == 0 || valueIdx >= len(s[1]) {
			continue
		}
		name := ""
		if fn, ok := locFunc[s[0][0]]; ok {
			if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
				name = strs[idx]
			}
		}
		v := float64(s[1][valueIdx])
		self[moduleOf(name)] += v
		total += v
	}
	for k := range self {
		self[k] /= total
	}
	return self, nil
}

// moduleOf maps a symbol such as "repro/internal/sim.(*Engine).Run" to
// its module bucket.
func moduleOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	pkg := sym
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		return mod
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && pkg != "main" && pkg != "repro":
		return "stdlib"
	default:
		return "other"
	}
}

// fields walks one protobuf message, calling fn with each field number,
// its varint value (varint and fixed types) and its payload
// (length-delimited type).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed returns a repeated varint field's values: one unpacked value
// (data nil) or a packed run.
func packed(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
