package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineEventOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*Millisecond, func(Time) { got = append(got, 3) })
	e.Schedule(1*Millisecond, func(Time) { got = append(got, 1) })
	e.Schedule(2*Millisecond, func(Time) { got = append(got, 2) })
	e.Run(10 * Millisecond)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Millisecond, func(Time) { got = append(got, i) })
	}
	e.Run(2 * Millisecond)
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestEngineTicksFireAtPeriod(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.SetTick(func(now Time) { times = append(times, now) })
	e.Run(20 * Millisecond)
	if len(times) != 4 {
		t.Fatalf("got %d ticks, want 4 (at 5,10,15,20ms): %v", len(times), times)
	}
	for i, ts := range times {
		want := Time(i+1) * TickPeriod
		if ts != want {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestEngineEventsBeforeTickBoundary(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5*Millisecond, func(Time) { order = append(order, "event") })
	e.SetTick(func(now Time) {
		if now == 5*Millisecond {
			order = append(order, "tick")
		}
	})
	e.Run(5 * Millisecond)
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestEngineScheduleInPastRunsNow(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(10*Millisecond, func(now Time) {
		e.Schedule(now-5*Millisecond, func(Time) { ran = true })
	})
	e.Run(11 * Millisecond)
	if !ran {
		t.Fatal("past-scheduled event did not run")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule func(Time)
	reschedule = func(Time) {
		count++
		if count < 100 {
			e.After(Millisecond, reschedule)
		}
	}
	e.After(Millisecond, reschedule)
	e.Run(Second)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	now := e.Step()
	if now != TickPeriod {
		t.Fatalf("Step = %v, want %v", now, TickPeriod)
	}
	if e.Now() != TickPeriod {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatal("FromSeconds")
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Fatal("FromMillis")
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3.0 {
		t.Fatalf("Millis = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(42).Fork(1)
	b := NewRNG(42).Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("forked streams too correlated: %d/100 equal", same)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(4.0)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp(4) mean = %v, want ~0.25", mean)
	}
}

func TestRNGGammaMoments(t *testing.T) {
	g := NewRNG(11)
	for _, cv := range []float64{0.5, 1, 2, 4} {
		meanGap := 0.1
		var sum, sumSq float64
		n := 40000
		for i := 0; i < n; i++ {
			x := g.GammaInterArrival(meanGap, cv)
			sum += x
			sumSq += x * x
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		gotCV := math.Sqrt(variance) / mean
		if math.Abs(mean-meanGap)/meanGap > 0.05 {
			t.Fatalf("cv=%v: mean = %v, want ~%v", cv, mean, meanGap)
		}
		if math.Abs(gotCV-cv)/cv > 0.1 {
			t.Fatalf("cv=%v: measured CV = %v", cv, gotCV)
		}
	}
}

func TestRNGGammaDegenerate(t *testing.T) {
	g := NewRNG(1)
	if got := g.GammaInterArrival(0.5, 0.0005); got != 0.5 {
		t.Fatalf("CV→0 should be deterministic, got %v", got)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, lambda := range []float64{0.5, 5, 200} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

// Property: Gamma samples are always non-negative and finite for valid params.
func TestRNGGammaNonNegativeProperty(t *testing.T) {
	g := NewRNG(99)
	f := func(shapeSeed, scaleSeed uint8) bool {
		shape := 0.05 + float64(shapeSeed)/16.0
		scale := 0.05 + float64(scaleSeed)/16.0
		x := g.Gamma(shape, scale)
		return x >= 0 && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: engine time is monotonically non-decreasing across arbitrary
// event schedules.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d)*Millisecond, func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run(70 * Second)
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterObservesRun(t *testing.T) {
	var m Meter
	e := NewEngine()
	e.SetMeter(&m)
	ticks := 0
	e.SetTick(func(Time) { ticks++ })
	e.Run(1 * Second)
	if got := m.Virtual(); got != 1*Second {
		t.Fatalf("virtual = %v, want 1s", got)
	}
	if m.Ticks() != int64(ticks) || ticks == 0 {
		t.Fatalf("meter ticks %d, engine ticks %d", m.Ticks(), ticks)
	}
	if m.Engines() != 1 {
		t.Fatalf("engines = %d", m.Engines())
	}
	// Second engine on the same meter accumulates.
	e2 := NewEngine()
	e2.SetMeter(&m)
	e2.Run(500 * Millisecond)
	if got := m.Virtual(); got != 1500*Millisecond {
		t.Fatalf("accumulated virtual = %v, want 1.5s", got)
	}
	if m.Engines() != 2 {
		t.Fatalf("engines = %d", m.Engines())
	}
}

func TestUnmeteredEngineRuns(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(10*Millisecond, func(Time) { fired = true })
	e.Run(20 * Millisecond)
	if !fired {
		t.Fatal("event did not fire without a meter")
	}
}
