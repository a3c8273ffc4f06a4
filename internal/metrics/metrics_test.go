package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	cv := r.NewCounterVec("by_kind_total", "Requests by kind and status.", "kind", "status")
	c.Inc()
	c.Add(2)
	cv.With("repair", "ok").Add(5)
	cv.With("update", "error").Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		"requests_total 3",
		`by_kind_total{kind="repair",status="ok"} 5`,
		`by_kind_total{kind="update",status="error"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // le=0.01
	h.Observe(0.05)  // le=0.1
	h.Observe(0.5)   // le=1
	h.Observe(5)     // +Inf
	h.Observe(0.1)   // boundary lands in le=0.1

	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 3`,
		`latency_seconds_bucket{le="1"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.count.Load() != 5 {
		t.Errorf("Count = %d, want 5", h.count.Load())
	}
	if !strings.Contains(out, "latency_seconds_sum 5.65") {
		t.Errorf("sum not rendered: %s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 0.0
	r.NewGaugeFunc("sessions", "Live sessions.", func() float64 { return v })
	v = 42
	if out := render(t, r); !strings.Contains(out, "sessions 42") {
		t.Errorf("gauge not sampled at scrape: %s", out)
	}
}

func TestObserveSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("d_seconds", "d", []float64{0.5})
	h.ObserveSeconds(100 * time.Millisecond)
	if out := render(t, r); !strings.Contains(out, `d_seconds_bucket{le="0.5"} 1`) {
		t.Errorf("duration observation missing: %s", out)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("x", "x")
}

// TestConcurrentUse drives every mutation path and the renderer from many
// goroutines at once; meaningful under -race.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "c")
	cv := r.NewCounterVec("cv", "cv", "l")
	h := r.NewHistogram("h", "h", nil)
	r.NewGaugeFunc("g", "g", func() float64 { return float64(c.Value()) })

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				cv.With([]string{"a", "b", "c"}[i%3]).Inc()
				h.Observe(float64(j) / 100)
				if j%50 == 0 {
					var b strings.Builder
					r.WriteTo(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Errorf("counter = %d, want 1600", c.Value())
	}
	if h.count.Load() != 1600 {
		t.Errorf("histogram count = %d, want 1600", h.count.Load())
	}
}
