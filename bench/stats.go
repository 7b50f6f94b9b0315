package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail with fewer samples is noise, not a measurement.
const minBeyond = 10

// percentile returns the Harrell–Davis estimate of the p-th percentile
// (0 < p < 100) of xs: a Beta-weighted average of the order statistics
// around rank p·n. Unlike the nearest rank it does not jump when that
// rank falls between two clusters of operations (rmo's median sits between
// cells that converge in one round and cells that need two), so a small
// shift in timing moves it a little, not by the width of the gap. It
// refuses, with a reason, when fewer than minBeyond samples lie beyond the
// nearest rank, so callers emit null instead of an estimate of a tail
// they have not seen.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	switch {
	case n == 0:
		return 0, fmt.Errorf("no samples")
	case p <= 0 || p >= 100:
		return 0, fmt.Errorf("p%g is outside (0, 100)", p)
	}
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := p / 100
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * x
		prev = cur
	}
	return est, nil
}

// betaInc is the regularized incomplete beta function I_x(a, b), evaluated
// with the continued fraction of Numerical Recipes §6.4 (modified Lentz).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	// The fraction converges fast below the mean a/(a+b); use the symmetry
	// I_x(a, b) = 1 − I_{1−x}(b, a) above it.
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const (
		tiny = 1e-300
		eps  = 1e-14
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// median is the plain middle value (mean of the two middle values for an
// even count); it is for summarizing a handful of repeated measurements,
// where percentile would refuse.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the same method as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads printed here match the ones computed from the JSON elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio is num/den, or NaN when den is zero (reported as null).
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
