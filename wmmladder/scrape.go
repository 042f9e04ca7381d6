package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// series is one scraped /metrics sample: family name, label set, value.
type series struct {
	name   string
	labels string
	value  float64
}

// scrape reads a Prometheus text exposition from base+"/metrics".
func scrape(ctx context.Context, base string) ([]series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	var out []series
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		s := series{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			s.name, s.labels = key[:i], key[i:]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels contain all of the
// given label fragments (e.g. `source="memory"`).
func sum(ss []series, name string, frags ...string) float64 {
	var t float64
outer:
	for _, s := range ss {
		if s.name != name {
			continue
		}
		for _, f := range frags {
			if !strings.Contains(s.labels, f) {
				continue outer
			}
		}
		t += s.value
	}
	return t
}

// histQuantile estimates quantile q of histogram family name (summed over
// all label sets) by linear interpolation inside the bucket holding it.
// before, when non-nil, is subtracted first so only the observations made
// between the two scrapes count.
func histQuantile(ss, before []series, name string, q float64) float64 {
	buckets := map[float64]float64{}
	add := func(set []series, sign float64) {
		for _, s := range set {
			if s.name != name+"_bucket" {
				continue
			}
			i := strings.Index(s.labels, `le="`)
			if i < 0 {
				continue
			}
			rest := s.labels[i+4:]
			le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
			if err != nil {
				le = math.Inf(1)
			}
			buckets[le] += sign * s.value
		}
	}
	add(ss, 1)
	add(before, -1)
	les := make([]float64, 0, len(buckets))
	for le := range buckets {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := buckets[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, le := range les {
		n := buckets[le]
		if n >= rank {
			if math.IsInf(le, 1) {
				return prevLe
			}
			if n == prevN {
				return le
			}
			return prevLe + (le-prevLe)*(rank-prevN)/(n-prevN)
		}
		prevLe, prevN = le, n
	}
	return prevLe
}
