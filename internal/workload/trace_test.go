package workload

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dilu/internal/sim"
)

func TestParseTraceCSV(t *testing.T) {
	in := `# a comment
seconds,function
0.5,beta
0.25,alpha

1.75,alpha
`
	tr, err := ParseTraceCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 3 {
		t.Fatalf("count = %d, want 3", tr.Count())
	}
	// Events sorted by (time, func) regardless of file order.
	want := []TraceEvent{
		{sim.FromSeconds(0.25), "alpha"},
		{sim.FromSeconds(0.5), "beta"},
		{sim.FromSeconds(1.75), "alpha"},
	}
	for i, e := range tr.Events {
		if e != want[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, e, want[i])
		}
	}
	if got := tr.Functions(); !slices.Equal(got, []string{"alpha", "beta"}) {
		t.Fatalf("functions = %v", got)
	}
	if d := tr.Duration(); d != sim.FromSeconds(1.75) {
		t.Fatalf("duration = %v", d)
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := []string{
		"0.5",              // no function column
		"0.5,alpha\nx,b",   // bad timestamp past the header position
		"-1,alpha",         // negative timestamp
		"0.5,",             // empty function
		"0..5,alpha\n1,b",  // malformed first timestamp is NOT a header
		"1e,alpha\n1,beta", // digits present: must error, not skip
	}
	for _, in := range cases {
		if _, err := ParseTraceCSV("bad", strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
	// A digitless first row is the documented optional header.
	tr, err := ParseTraceCSV("hdr", strings.NewReader("time,fn\n0.5,alpha\n"))
	if err != nil || tr.Count() != 1 {
		t.Fatalf("header skip broken: %v %+v", err, tr)
	}
}

func TestParseTraceJSON(t *testing.T) {
	in := `{"name": "prod", "events": [{"t": 1.5, "func": "b"}, {"t": 0.5, "func": "a"}]}`
	tr, err := ParseTraceJSON("fallback", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != "prod" {
		t.Fatalf("label = %q, want document name", tr.Label)
	}
	if tr.Count() != 2 || tr.Events[0].Func != "a" {
		t.Fatalf("events = %+v", tr.Events)
	}
	if _, err := ParseTraceJSON("bad", strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestLoadTraceDispatchesOnExtension(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "a.csv")
	if err := os.WriteFile(csvPath, []byte("0.5,fn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != "a" || tr.Count() != 1 {
		t.Fatalf("csv load: %+v", tr)
	}
	jsonPath := filepath.Join(dir, "b.json")
	if err := os.WriteFile(jsonPath, []byte(`{"events":[{"t":0.1,"func":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err = LoadTrace(jsonPath); err != nil || tr.Count() != 1 {
		t.Fatalf("json load: %v %+v", err, tr)
	}
	if _, err := LoadTrace(filepath.Join(dir, "c.txt")); err == nil {
		t.Fatal("unknown extension accepted")
	}
	if _, err := LoadTrace(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTraceCompileAndArrivals(t *testing.T) {
	tr := &Trace{Events: []TraceEvent{
		{sim.Second, "a"}, {2 * sim.Second, "b"}, {3 * sim.Second, "a"},
	}}
	times := tr.Compile("a")
	if !slices.Equal(times, []sim.Time{sim.Second, 3 * sim.Second}) {
		t.Fatalf("compile = %v", times)
	}
	arr := tr.Arrivals("a")
	// Replay is exact and horizon-clipped; the RNG is ignored.
	got := Take(arr, nil, 2500*sim.Millisecond)
	if !slices.Equal(got, []sim.Time{sim.Second}) {
		t.Fatalf("clipped replay = %v", got)
	}
	if got := Take(arr, nil, sim.Minute); !slices.Equal(got, times) {
		t.Fatalf("full replay = %v", got)
	}
}

func TestSampleTracesCommitted(t *testing.T) {
	names := SampleTraceNames()
	if !slices.Contains(names, "sample_mix") || !slices.Contains(names, "sample_small") {
		t.Fatalf("sample traces missing: %v", names)
	}
	mix := MustSampleTrace("sample_mix")
	if mix.Count() < 1000 {
		t.Fatalf("sample_mix degenerate: %d events", mix.Count())
	}
	if got := mix.Functions(); !slices.Equal(got, []string{"bert", "roberta", "vgg"}) {
		t.Fatalf("sample_mix functions = %v", got)
	}
	if d := mix.Duration(); d <= 60*sim.Second || d > 120*sim.Second {
		t.Fatalf("sample_mix duration = %v, want ~120 s", d)
	}
	small := MustSampleTrace("sample_small")
	if small.Count() != 8 {
		t.Fatalf("sample_small = %d events", small.Count())
	}
	if _, err := SampleTrace("nope"); err == nil {
		t.Fatal("unknown sample accepted")
	}
}

func TestSampleTraceReplayDeterministic(t *testing.T) {
	// Two independent loads compile to identical series — the property
	// the trace_replay golden manifest rests on.
	a := MustSampleTrace("sample_mix")
	b := MustSampleTrace("sample_mix")
	for _, fn := range a.Functions() {
		if !slices.Equal(a.Compile(fn), b.Compile(fn)) {
			t.Fatalf("%s: replay differs between loads", fn)
		}
	}
}
