package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the external-input parsers. Each is seeded from the
// committed sample files under testdata plus the inputs that once slipped
// through (non-finite and out-of-range seconds, non-finite factors). The
// properties hold for every input the parser accepts: no panic, no
// negative timestamp, and the output ordering the replay paths rely on.

func addSeedFiles(f *testing.F, pattern string) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed files match %s: %v", pattern, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

func checkTrace(t *testing.T, tr *Trace) {
	for i, e := range tr.Events {
		if e.At < 0 {
			t.Fatalf("event %d accepted at negative time %v", i, e.At)
		}
		if e.Func == "" {
			t.Fatalf("event %d accepted without a function", i)
		}
		if i > 0 {
			p := tr.Events[i-1]
			if p.At > e.At || (p.At == e.At && p.Func > e.Func) {
				t.Fatalf("events %d and %d out of (At, Func) order: %+v, %+v", i-1, i, p, e)
			}
		}
	}
}

func FuzzParseTraceCSV(f *testing.F) {
	addSeedFiles(f, "traces/*.csv")
	f.Add([]byte("nan,alpha\n"))
	f.Add([]byte("seconds,function\n1e300,beta\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ParseTraceCSV("fuzz", bytes.NewReader(in))
		if err != nil {
			return
		}
		checkTrace(t, tr)
	})
}

func FuzzParseTraceJSON(f *testing.F) {
	addSeedFiles(f, "traces/*.json")
	f.Add([]byte(`{"events":[{"t":1e300,"func":"a"}]}`))
	f.Add([]byte(`{"events":[{"t":-0.5,"func":"a"},{"t":2,"func":""}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ParseTraceJSON("fuzz", bytes.NewReader(in))
		if err != nil {
			return
		}
		checkTrace(t, tr)
	})
}

func FuzzParseChurnCSV(f *testing.F) {
	addSeedFiles(f, "schedules/churn.csv")
	f.Add([]byte("nan,fail,0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := ParseChurnCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range evs {
			if e.At < 0 {
				t.Fatalf("event %d accepted at negative time %v", i, e.At)
			}
			if i > 0 && evs[i-1].At > e.At {
				t.Fatalf("events %d and %d out of time order", i-1, i)
			}
		}
	})
}

func FuzzParseFaultCSV(f *testing.F) {
	addSeedFiles(f, "schedules/faults.csv")
	f.Add([]byte("nan,slow,0,0,2\n"))
	f.Add([]byte("1e300,error,0,*\n"))
	f.Add([]byte("1,slow,0,0,inf\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := ParseFaultCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range evs {
			if e.At < 0 {
				t.Fatalf("event %d accepted at negative time %v", i, e.At)
			}
			if i > 0 && evs[i-1].At > e.At {
				t.Fatalf("events %d and %d out of time order", i-1, i)
			}
			if e.Kind == FaultSlow && (math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor < 1) {
				t.Fatalf("slow event %d accepted with factor %v", i, e.Factor)
			}
		}
	})
}
