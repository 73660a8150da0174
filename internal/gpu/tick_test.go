package gpu

import "testing"

// TestDetachClearsVacatedSlot checks that Detach leaves no pointer to
// the detached resident in the spare capacity of the resident slice,
// where it would stay reachable for as long as the device lives.
func TestDetachClearsVacatedSlot(t *testing.T) {
	d := NewDevice("g")
	var rs []*Resident
	for _, id := range []string{"a", "b", "c"} {
		r, err := d.Attach(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	d.Detach(rs[1])
	if got := d.residents[:3][2]; got != nil {
		t.Fatalf("vacated slot holds %q after detaching from the middle", got.ID)
	}
	d.Detach(rs[2])
	if got := d.residents[:2][1]; got != nil {
		t.Fatalf("vacated slot holds %q after detaching the last resident", got.ID)
	}
	if d.ResidentCount() != 1 || d.Residents()[0] != rs[0] {
		t.Fatalf("residents after detach: %v", d.Residents())
	}
}

// tickFixture returns a device with four saturating residents whose
// grants repeat every tick, as RCKM's do in steady state. Contended
// grants ask for twice the device's SMs; uncontended ones for 80%.
func tickFixture(contended bool) (*Device, []*Resident) {
	d := NewDevice("g")
	share := 0.2
	if contended {
		share = 0.5
	}
	var rs []*Resident
	for i, knee := range []float64{0.2, 0.35, 0.5, 0.7} {
		r, _ := d.Attach(string(rune('a'+i)), 1)
		r.SatK = KneeForEff(knee, 0.95)
		r.SetGrant(share * d.Capacity)
		r.AddWork(1e12)
		rs = append(rs, r)
	}
	d.ExecuteTick()
	return d, rs
}

func TestExecuteTickDoesNotAllocate(t *testing.T) {
	for _, contended := range []bool{false, true} {
		d, _ := tickFixture(contended)
		if allocs := testing.AllocsPerRun(100, d.ExecuteTick); allocs != 0 {
			t.Errorf("contended=%v: warmed-up ExecuteTick allocates %v times per tick", contended, allocs)
		}
		if got := d.LastOccupancy() > 0.999; got != contended {
			t.Errorf("contended=%v: fixture occupancy %v", contended, d.LastOccupancy())
		}
	}
}

func BenchmarkExecuteTick(b *testing.B) {
	for _, c := range []struct {
		name      string
		contended bool
	}{{"uncontended", false}, {"contended", true}} {
		b.Run(c.name, func(b *testing.B) {
			d, _ := tickFixture(c.contended)
			b.ReportAllocs()
			for b.Loop() {
				d.ExecuteTick()
			}
		})
	}
}
