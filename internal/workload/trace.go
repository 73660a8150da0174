package workload

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dilu/internal/sim"
)

// TraceEvent is one recorded request arrival: a virtual timestamp and the
// function it invokes.
type TraceEvent struct {
	At   sim.Time
	Func string
}

// Trace is an external arrival recording replayed against the system —
// the production counterpart of the synthetic generators. Events are
// sorted by (At, Func); per-function subsequences compile down to plain
// []sim.Time slices, so replay rides the pointer-free
// sim.Engine.ScheduleSeries cursor exactly like generated workloads.
type Trace struct {
	Label  string
	Events []TraceEvent
}

// normalize sorts events and checks every event names a function (the
// parsers have already validated timestamps row by row).
func (t *Trace) normalize() error {
	for _, e := range t.Events {
		if e.Func == "" {
			return fmt.Errorf("workload: trace %q has an event without a function", t.Label)
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].At != t.Events[j].At {
			return t.Events[i].At < t.Events[j].At
		}
		return t.Events[i].Func < t.Events[j].Func
	})
	return nil
}

// Count returns the number of events.
func (t *Trace) Count() int { return len(t.Events) }

// Duration returns the timestamp of the last event — the natural replay
// horizon.
func (t *Trace) Duration() sim.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// Functions returns the distinct function names of the trace, sorted.
func (t *Trace) Functions() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range t.Events {
		if !seen[e.Func] {
			seen[e.Func] = true
			out = append(out, e.Func)
		}
	}
	slices.Sort(out)
	return out
}

// Compile extracts the function's arrival times as a fresh, sorted
// []sim.Time — the exact shape sim.Engine.ScheduleSeries consumes.
func (t *Trace) Compile(fn string) []sim.Time {
	var out []sim.Time
	for _, e := range t.Events {
		if e.Func == fn {
			out = append(out, e.At)
		}
	}
	return out
}

// Arrivals returns a replay source for one function of the trace,
// satisfying the same interface as the synthetic generators. The returned
// source ignores the RNG: replay is exact.
func (t *Trace) Arrivals(fn string) Arrivals {
	return Times{Label: t.Label + "/" + fn, T: t.Compile(fn)}
}

// Times is a pre-materialized arrival sequence wrapped as an Arrivals
// source (trace replay, tenant-mix splits). Generate ignores the RNG and
// returns a copy of the prefix inside the horizon, so one Times value can
// feed engines running in parallel.
type Times struct {
	Label string
	T     []sim.Time
}

// Name implements Arrivals.
func (ts Times) Name() string { return ts.Label }

// Generate implements Arrivals.
func (ts Times) Generate(_ *sim.RNG, dur sim.Duration) []sim.Time {
	n := sort.Search(len(ts.T), func(i int) bool { return ts.T[i] >= dur })
	if n == 0 {
		return nil
	}
	out := make([]sim.Time, n)
	copy(out, ts.T[:n])
	return out
}

// ---------------------------------------------------------------------------
// Parsing.

// parseSeconds parses a timestamp field of fractional seconds into
// virtual time for the CSV parsers. On a syntax error, header reports
// whether the field holds no digits at all — the shape of a column
// name, which a parser may skip on its first data row; "nan" and "inf"
// parse as numbers, so they are rejected rather than skipped. Errors
// carry no position: callers prefix their row.
func parseSeconds(field string) (at sim.Time, header bool, err error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, !strings.ContainsAny(field, "0123456789"), fmt.Errorf("bad timestamp %q", field)
	}
	at, err = secondsToTime(v)
	return at, false, err
}

// secondsToTime converts seconds to virtual time, rejecting NaN, ±Inf,
// negative values and values of 2⁶³ µs or more (past the largest
// sim.Time): Go leaves float→int conversion of those
// implementation-defined (amd64 yields math.MinInt64, which then sorts
// first instead of failing).
func secondsToTime(v float64) (sim.Time, error) {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return 0, fmt.Errorf("timestamp \"%v\" is not finite", v)
	case v < 0:
		return 0, fmt.Errorf("negative timestamp \"%v\"", v)
	case v*float64(sim.Second) >= math.MaxInt64:
		return 0, fmt.Errorf("timestamp \"%v\" exceeds the largest virtual time", v)
	}
	return sim.FromSeconds(v), nil
}

// ParseTraceCSV reads the simple CSV trace format:
//
//	# comment lines and blank lines are skipped
//	seconds,function
//	0.125,roberta
//	0.250,bert
//
// A leading "seconds,function"-style header row is skipped when present.
// Timestamps are fractional seconds of virtual time, non-negative, in any
// order (events are sorted on load).
func ParseTraceCSV(label string, r io.Reader) (*Trace, error) {
	tr := &Trace{Label: label}
	sc := bufio.NewScanner(r)
	line, dataRows := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sec, fn, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("workload: %s:%d: want \"seconds,function\", got %q", label, line, text)
		}
		dataRows++
		sec, fn = strings.TrimSpace(sec), strings.TrimSpace(fn)
		at, header, err := parseSeconds(sec)
		if err != nil {
			// A first row that fails to parse is the optional header only
			// if it looks like one ("seconds"). A malformed timestamp
			// ("0..5") must error, not vanish.
			if dataRows == 1 && header {
				continue
			}
			return nil, fmt.Errorf("workload: %s:%d: %v", label, line, err)
		}
		tr.Events = append(tr.Events, TraceEvent{At: at, Func: fn})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %v", label, err)
	}
	if err := tr.normalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// jsonTrace is the JSON trace document shape.
type jsonTrace struct {
	Name   string `json:"name"`
	Events []struct {
		T    float64 `json:"t"`
		Func string  `json:"func"`
	} `json:"events"`
}

// ParseTraceJSON reads the JSON trace format:
//
//	{"name": "prod-slice", "events": [{"t": 0.125, "func": "roberta"}, ...]}
//
// The document name overrides label when present.
func ParseTraceJSON(label string, r io.Reader) (*Trace, error) {
	var doc jsonTrace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("workload: %s: bad JSON trace: %v", label, err)
	}
	if doc.Name != "" {
		label = doc.Name
	}
	tr := &Trace{Label: label}
	for i, e := range doc.Events {
		at, err := secondsToTime(e.T)
		if err != nil {
			return nil, fmt.Errorf("workload: %s: event %d: %v", label, i+1, err)
		}
		tr.Events = append(tr.Events, TraceEvent{At: at, Func: e.Func})
	}
	if err := tr.normalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// LoadTrace reads a trace file, dispatching on extension (.csv or .json).
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	defer f.Close()
	label := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		return ParseTraceCSV(label, f)
	case ".json":
		return ParseTraceJSON(label, f)
	default:
		return nil, fmt.Errorf("workload: %s: unknown trace extension %q (want .csv or .json)", path, ext)
	}
}

// ---------------------------------------------------------------------------
// Committed sample traces.

//go:embed testdata/traces
var sampleTraceFS embed.FS

// SampleTraceNames lists the committed sample traces (base names without
// extension), sorted.
func SampleTraceNames() []string {
	entries, err := fs.ReadDir(sampleTraceFS, "testdata/traces")
	if err != nil {
		panic(err) // embedded directory always present
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		out = append(out, strings.TrimSuffix(name, filepath.Ext(name)))
	}
	slices.Sort(out)
	return out
}

// SampleTrace loads a committed sample trace by base name. The samples
// are embedded, so experiment drivers replay them identically regardless
// of working directory.
func SampleTrace(name string) (*Trace, error) {
	for _, ext := range []string{".csv", ".json"} {
		b, err := sampleTraceFS.ReadFile("testdata/traces/" + name + ext)
		if err != nil {
			continue
		}
		if ext == ".csv" {
			return ParseTraceCSV(name, strings.NewReader(string(b)))
		}
		return ParseTraceJSON(name, strings.NewReader(string(b)))
	}
	return nil, fmt.Errorf("workload: unknown sample trace %q (have %v)", name, SampleTraceNames())
}

// MustSampleTrace is SampleTrace that panics on error.
func MustSampleTrace(name string) *Trace {
	tr, err := SampleTrace(name)
	if err != nil {
		panic(err)
	}
	return tr
}
