package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place; an empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (an idle layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// series is one parsed metrics exposition: series name (with labels, as
// rendered) to value.
type series map[string]float64

// scrape parses a registry's Prometheus-text exposition.
func scrape(reg *metrics.Registry) (series, error) {
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		return nil, err
	}
	out := series{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		out[line[:i]] += v
	}
	return out, nil
}

// sum adds every series of the family name, whatever its labels.
func (s series) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// minus returns s - base per series (a window's delta).
func (s series) minus(base series) series {
	out := series{}
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// scrapeNodes sums the expositions of every node of a cluster.
func scrapeNodes(nodes []*transport.Node) (series, error) {
	out := series{}
	for _, nd := range nodes {
		s, err := scrape(nd.Metrics())
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			out[k] += v
		}
	}
	return out, nil
}

// histQuantile estimates the q-quantile of a cumulative-bucket histogram
// family by linear interpolation inside the bucket that crosses it.
func (s series) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue // the +Inf bucket
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := s[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	want := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= want {
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(want-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return bs[len(bs)-1].le
}
