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

// sample is one CPU-profile stack: function names innermost first
// (inlined frames expanded) and the CPU time it was charged.
type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes the gzipped protobuf profile runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto) far enough to recover
// sample stacks. Only the standard library is available here, so the
// handful of fields needed are decoded by hand.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeNames []int64              // sample_type[i].type as string indexes
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		raws      []rawSample
	)
	err = eachField(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, p)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, p); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(p, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// A CPU profile carries [samples/count, cpu/nanoseconds]; charge the
	// nanoseconds.
	vi := len(typeNames) - 1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if vi < 0 || vi >= len(r.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: r.values[vi]}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every top-level field of one protobuf message:
// the varint value for wire type 0, the payload for wire type 2. Fixed
// 32- and 64-bit fields are skipped; none of the fields read here use
// them.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which runtime/pprof
// writes packed (payload) or as single values (v) depending on length.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}

// entryRule names a layer's public entry points: functions of pkg whose
// symbol equals one of syms, or ends with it when it starts with "."; an
// empty syms matches every function of pkg. Closures count as their
// enclosing function.
type entryRule struct {
	layer string
	pkg   string
	syms  []string
}

// entryRules are tried in order on every frame; a sample is charged to
// the innermost frame any rule matches, so each layer's figure is the
// CPU under its entry points minus the nested ones — its self time.
// "simtest" and "bench" are the armed checkers and the benchmark's own
// observer: they are separated out so that neither inflates a layer of
// the program.
var entryRules = []entryRule{
	{"workload.generate_s", "dilu/internal/workload", []string{".Generate"}},
	{"core.deploy_s", "dilu/internal/core", []string{"(*System).DeployInference", "(*System).DeployTraining"}},
	{"core.submit_s", "dilu/internal/core", []string{"(*System).Submit", "(*System).submit"}},
	{"core.run_s", "dilu/internal/core", []string{"(*System).Run"}},
	{"sched.schedule_s", "dilu/internal/sched", []string{".Schedule"}},
	{"gpu.eff_s", "dilu/internal/gpu", []string{"Eff", "EffInv"}},
	{"gpu.execute_s", "dilu/internal/gpu", []string{"(*Device).ExecuteTick"}},
	{"rckm.issue_s", "dilu/internal/rckm", []string{"(*Manager).Issue"}},
	{"instance.step_s", "dilu/internal/instance", []string{
		"(*Inference).PreTick", "(*Inference).PostTick", "(*Inference).Enqueue",
		"(*LLM).PreTick", "(*LLM).PostTick", "(*LLM).Enqueue"}},
	{"simtest", "dilu/internal/simtest", nil},
	{"simtest", "main", []string{"(*checkTimer).check"}},
	{"bench", "main", []string{"(*sysStat).check", "(*observer).harvest"}},
}

// selfLayers charge a sample whose innermost program frame lies in the
// package (library and runtime frames below it included) to the layer,
// before any enclosing entry point can claim it.
var selfLayers = map[string]string{
	"dilu/internal/cluster": "cluster.index_s",
	"dilu/internal/sim":     "sim.engine_s",
	"dilu/internal/metrics": "metrics.record_s",
}

// attribution is a profile split by layer; total includes samples no
// layer claimed.
type attribution struct {
	layers map[string]float64 // seconds
	total  float64            // seconds
}

func attribute(samples []sample) attribution {
	a := attribution{layers: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		a.total += sec
		if l := layerOf(s.stack); l != "" {
			a.layers[l] += sec
		}
	}
	return a
}

// layerOf returns the layer a stack (innermost first) is charged to, or
// "" when none claims it.
func layerOf(stack []string) string {
	innermost := true
	for _, fn := range stack {
		pkg, sym := splitFunc(fn)
		if !programFrame(pkg) || isRNG(pkg, sym) {
			continue
		}
		if innermost {
			innermost = false
			if l, ok := selfLayers[pkg]; ok {
				return l
			}
		}
		for _, r := range entryRules {
			if r.pkg == pkg && r.matches(sym) {
				return r.layer
			}
		}
	}
	return ""
}

func (r entryRule) matches(sym string) bool {
	if len(r.syms) == 0 {
		return true
	}
	sym = stripClosures(sym)
	for _, want := range r.syms {
		if sym == want || (strings.HasPrefix(want, ".") && strings.HasSuffix(sym, want)) {
			return true
		}
	}
	return false
}

// splitFunc splits "dilu/internal/gpu.(*Device).ExecuteTick" into its
// package path and symbol.
func splitFunc(fn string) (pkg, sym string) {
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+dot], fn[slash+dot+1:]
}

// stripClosures maps "Bursty.Generate.func1.2" to "Bursty.Generate".
func stripClosures(sym string) string {
	for {
		i := strings.LastIndexByte(sym, '.')
		if i < 0 {
			return sym
		}
		tail := sym[i+1:]
		if isDigits(strings.TrimPrefix(strings.TrimPrefix(tail, "func"), "gowrap")) {
			sym = sym[:i]
			continue
		}
		return sym
	}
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// programFrame reports whether a frame belongs to the simulator or the
// benchmark rather than the Go runtime or standard library.
func programFrame(pkg string) bool { return pkg == "main" || strings.HasPrefix(pkg, "dilu/") }

// isRNG reports whether a frame is the sim package's random source,
// which the sim.engine_s layer excludes: RNG draws are charged to the
// layer that asked for them.
func isRNG(pkg, sym string) bool {
	return pkg == "dilu/internal/sim" && (strings.HasPrefix(sym, "(*RNG).") || sym == "NewRNG")
}
