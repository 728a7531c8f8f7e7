package main

import "testing"

// seq returns 1..n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		p       float64
		value   float64
		reportP float64
		lowered bool
	}{
		{n: 1000, p: 0.99, value: 990, reportP: 0.99},
		{n: 1001, p: 0.99, value: 991, reportP: 991.0 / 1001},
		{n: 400, p: 0.99, value: 390, reportP: 0.975, lowered: true},
		{n: 100, p: 0.50, value: 50, reportP: 0.50},
		{n: 15, p: 0.50, value: 5, reportP: 5.0 / 15, lowered: true},
	}
	for _, c := range cases {
		q, ok := Percentile(seq(c.n), c.p)
		if !ok {
			t.Fatalf("n=%d p=%g: not ok", c.n, c.p)
		}
		if q.Value != c.value || q.P != c.reportP || q.Lowered != c.lowered || q.N != c.n {
			t.Fatalf("n=%d p=%g: got %+v, want value %g at p=%g lowered=%t", c.n, c.p, q, c.value, c.reportP, c.lowered)
		}
		if beyond := c.n - int(q.Value); beyond < tailSamples {
			t.Fatalf("n=%d p=%g: only %d samples beyond the reported value", c.n, c.p, beyond)
		}
	}
}

func TestPercentileTooFewSamples(t *testing.T) {
	if q, ok := Percentile(seq(10), 0.5); ok || q.N != 10 {
		t.Fatalf("10 samples: got %+v ok=%t, want not ok with N=10", q, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 4 = %g", m)
	}
}
