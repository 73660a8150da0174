package report

import (
	"strings"
	"testing"
)

func record(driver string, seed int64, status RunStatus, fp string) RunRecord {
	return RunRecord{
		Driver: driver, Seed: seed, Scale: 1, Status: status,
		Fingerprint: fp, VirtualSeconds: 60, WallSeconds: 1.5, Throughput: 40,
	}
}

func TestManifestJSONOrderIndependent(t *testing.T) {
	a := NewManifest("suite")
	a.Add(record("figure9", 1, RunOK, "aaa"))
	a.Add(record("figure2", 2, RunOK, "bbb"))
	a.Add(record("figure2", 1, RunOK, "ccc"))

	b := NewManifest("suite")
	b.Add(record("figure2", 1, RunOK, "ccc"))
	b.Add(record("figure9", 1, RunOK, "aaa"))
	b.Add(record("figure2", 2, RunOK, "bbb"))

	if a.JSON() != b.JSON() {
		t.Fatalf("manifest bytes depend on insertion order:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
	if strings.Contains(a.JSON(), "wall") {
		t.Fatal("wall-clock timing leaked into manifest bytes")
	}
}

func TestManifestTotals(t *testing.T) {
	m := NewManifest("s")
	m.Add(record("a", 1, RunOK, "x"))
	m.Add(record("b", 1, RunFailed, ""))
	m.Add(record("c", 1, RunTimeout, ""))
	m.Add(record("d", 1, RunSkipped, ""))
	_ = m.JSON()
	want := Totals{Runs: 4, OK: 1, Failed: 1, Timeout: 1, Skipped: 1, VirtualSeconds: 240}
	if m.Totals != want {
		t.Fatalf("totals = %+v, want %+v", m.Totals, want)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("suite")
	m.Add(record("figure9", 1, RunOK, "aaa"))
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "suite" || len(got.Runs) != 1 || got.Runs[0].Key() != "figure9/seed=1/scale=1" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadManifest(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad manifest accepted")
	}
}

func TestFingerprintDistinguishesReports(t *testing.T) {
	r1 := New("figure9", "t")
	r1.AddTable(NewTable("cap", "a")).AddRow("1")
	r2 := New("figure9", "t")
	r2.AddTable(NewTable("cap", "a")).AddRow("2")
	if Fingerprint(r1) == Fingerprint(r2) {
		t.Fatal("different reports share a fingerprint")
	}
	if Fingerprint(r1) != Fingerprint(r1) {
		t.Fatal("fingerprint unstable")
	}
	if Fingerprint(nil) != "" {
		t.Fatal("nil report should have empty fingerprint")
	}
}
