package main

import (
	"fmt"
	"slices"
	"strings"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midMean is the interquartile mean of xs: the mean of what is left
// after the lowest and the highest quarter are dropped (0 for none).
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := len(s) / 4
	sum := 0.0
	for _, x := range s[q : len(s)-q] {
		sum += x
	}
	return sum / float64(len(s)-2*q)
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// median64 is the lower median of xs; xs is not modified.
func median64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}
