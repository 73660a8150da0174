package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dilu/internal/metrics"
)

// RunStatus is the outcome of one harness run.
type RunStatus string

const (
	RunOK      RunStatus = "ok"
	RunFailed  RunStatus = "failed"
	RunTimeout RunStatus = "timeout"
	RunSkipped RunStatus = "skipped" // cancelled by fail-fast before starting
)

// RunRecord summarizes one experiment run inside a suite manifest.
//
// Wall-clock fields carry json:"-" on purpose: the manifest is the
// seed-reproducible record of WHAT a suite produced, so its serialized
// bytes must be identical across machines, worker counts, and completion
// orders. Timing lives alongside in memory for progress lines and the
// timing table, and is exported separately (see Manifest.TimingTable).
type RunRecord struct {
	Driver string  `json:"driver"`
	Paper  string  `json:"paper,omitempty"`
	Tier   string  `json:"tier,omitempty"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`

	Status RunStatus `json:"status"`
	Error  string    `json:"error,omitempty"`

	// Fingerprint is the sha256 of the report's canonical JSON — equal
	// fingerprints mean byte-equal results, the reproducibility contract.
	Fingerprint string `json:"fingerprint,omitempty"`
	Tables      int    `json:"tables"`
	Series      int    `json:"series"`

	// VirtualSeconds is the simulated time the run advanced, summed over
	// every engine the driver spun up. Deterministic for a given seed.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Engines is how many independent simulation engines the run used.
	Engines int64 `json:"engines,omitempty"`

	// SLO carries the run's aggregate SLO accounting when the driver
	// tracks it (deterministic for a given seed, like the fingerprint).
	// Absent for drivers without SLO instrumentation, so pre-SLO
	// manifests keep their bytes.
	SLO *SLOBlock `json:"slo,omitempty"`

	// Non-deterministic timing, excluded from manifest bytes.
	WallSeconds float64 `json:"-"`
	// Throughput is virtual seconds simulated per wall second.
	Throughput float64 `json:"-"`
}

// SLOBlock is the compact SLO roll-up a manifest records per run: the
// aggregate side of metrics.SLOSummary without the per-function detail
// (which lives in the report itself, covered by the fingerprint).
type SLOBlock struct {
	Requests            int64   `json:"requests"`
	Violations          int64   `json:"violations"`
	ColdStartViolations int64   `json:"cold_start_violations"`
	GoodputRPS          float64 `json:"goodput_rps"`
	P95Attainment       float64 `json:"p95_attainment"`
	P99Attainment       float64 `json:"p99_attainment"`

	// Gateway is the admission-layer roll-up (per-tenant admitted/shed
	// and goodput); omitted for single-tenant admit-all runs so
	// pre-gateway manifests keep their bytes.
	Gateway *metrics.GatewaySLO `json:"gateway,omitempty"`

	// Resilience is the gray-failure roll-up (fault events and per-cause
	// mitigation attribution); omitted for fault-free runs so pre-fault
	// manifests keep their bytes.
	Resilience *metrics.ResilienceSLO `json:"resilience,omitempty"`

	// ColdStart is the cold-start roll-up (per-stage violation
	// attribution, kernel-cache hits, prewarm launches, cold launches);
	// omitted when all zeros.
	ColdStart *metrics.ColdStartSLO `json:"cold_start,omitempty"`

	// LLM is the token-level serving roll-up (TTFT/TPOT, token
	// throughput, KV-cache peaks and pressure events); omitted for runs
	// without a token-level deployment so prior manifests keep their
	// bytes.
	LLM *metrics.LLMSLO `json:"llm,omitempty"`
}

// SLOBlockOf compresses a summary into the manifest block; nil in, nil out.
func SLOBlockOf(s *metrics.SLOSummary) *SLOBlock {
	if s == nil {
		return nil
	}
	return &SLOBlock{
		Requests:            s.Requests,
		Violations:          s.Violations,
		ColdStartViolations: s.ColdStartViolations,
		GoodputRPS:          s.GoodputRPS,
		P95Attainment:       s.P95Attainment,
		P99Attainment:       s.P99Attainment,
		Gateway:             s.Gateway,
		Resilience:          s.Resilience,
		ColdStart:           s.ColdStart,
		LLM:                 s.LLM,
	}
}

// RunKey is the canonical identity of a run inside a suite: driver ×
// seed × scale. The harness keys its jobs with the same helper so
// manifest lookups by job key can never drift out of sync.
func RunKey(driver string, seed int64, scale float64) string {
	return fmt.Sprintf("%s/seed=%d/scale=%g", driver, seed, scale)
}

// Key identifies a run inside a suite: driver × seed × scale.
func (r RunRecord) Key() string { return RunKey(r.Driver, r.Seed, r.Scale) }

// Totals aggregates a manifest's deterministic counters.
type Totals struct {
	Runs           int     `json:"runs"`
	OK             int     `json:"ok"`
	Failed         int     `json:"failed"`
	Timeout        int     `json:"timeout"`
	Skipped        int     `json:"skipped"`
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// Manifest is the deterministic record of one harness suite invocation:
// which runs executed, what they produced (fingerprints), and how much
// virtual time was simulated. Two invocations with the same drivers,
// seeds, and scale produce byte-identical manifests regardless of worker
// count or completion order.
type Manifest struct {
	Suite  string      `json:"suite"`
	Runs   []RunRecord `json:"runs"`
	Totals Totals      `json:"totals"`
}

// NewManifest creates an empty manifest.
func NewManifest(suite string) *Manifest { return &Manifest{Suite: suite} }

// Add appends a run record.
func (m *Manifest) Add(r RunRecord) { m.Runs = append(m.Runs, r) }

// Find returns the record with the given key, or nil.
func (m *Manifest) Find(key string) *RunRecord {
	for i := range m.Runs {
		if m.Runs[i].Key() == key {
			return &m.Runs[i]
		}
	}
	return nil
}

// Normalize sorts runs by key and recomputes totals, making the manifest
// independent of completion order. WriteJSON calls it implicitly.
func (m *Manifest) Normalize() {
	sort.SliceStable(m.Runs, func(i, j int) bool { return m.Runs[i].Key() < m.Runs[j].Key() })
	t := Totals{Runs: len(m.Runs)}
	for _, r := range m.Runs {
		switch r.Status {
		case RunOK:
			t.OK++
		case RunFailed:
			t.Failed++
		case RunTimeout:
			t.Timeout++
		case RunSkipped:
			t.Skipped++
		}
		t.VirtualSeconds += r.VirtualSeconds
	}
	m.Totals = t
}

// WriteJSON emits the canonical manifest: runs sorted by key, totals
// recomputed, two-space indent. The bytes are deterministic for a given
// set of runs.
func (m *Manifest) WriteJSON(w io.Writer) error {
	m.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// JSON renders the canonical manifest as a string.
func (m *Manifest) JSON() string {
	var b strings.Builder
	_ = m.WriteJSON(&b)
	return b.String()
}

// TimingTable renders the non-deterministic side of the suite — wall
// seconds and virtual-per-wall throughput per run — as a report table,
// sorted by descending wall time so the expensive drivers lead.
func (m *Manifest) TimingTable() *Table {
	t := NewTable("Suite timing (wall-clock, excluded from the manifest)",
		"run", "status", "wall s", "virtual s", "virtual/wall")
	runs := append([]RunRecord(nil), m.Runs...)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].WallSeconds > runs[j].WallSeconds })
	for _, r := range runs {
		t.AddRow(r.Key(), string(r.Status), r.WallSeconds, r.VirtualSeconds, r.Throughput)
	}
	return t
}

// ReadManifest parses a manifest previously written by WriteJSON.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("report: bad manifest: %w", err)
	}
	return &m, nil
}

// Fingerprint hashes the report's canonical JSON; equal fingerprints mean
// byte-equal reports.
func Fingerprint(r *Report) string {
	if r == nil {
		return ""
	}
	h := sha256.Sum256([]byte(r.JSON()))
	return hex.EncodeToString(h[:])
}
