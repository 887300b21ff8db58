package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"carriersense/internal/obs"
)

// scrape is one reading of a Prometheus registry, keyed by series
// (name plus labels). Histograms appear as their _bucket, _sum and
// _count series, so a delta of two scrapes carries bucket counts too.
type scrape map[string]float64

// scrapeLocal reads this process's obs.Default registry.
func scrapeLocal() (scrape, error) {
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseScrape(b.String())
}

// scrapeURL reads a worker's /metrics endpoint.
func scrapeURL(ctx context.Context, url string) (scrape, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseScrape(string(body))
}

func parseScrape(text string) (scrape, error) {
	p, err := obs.CheckText(text)
	if err != nil {
		return nil, err
	}
	return scrape(p.Samples), nil
}

// minus returns s − pre per series.
func (s scrape) minus(pre scrape) scrape {
	out := scrape{}
	for k, v := range s {
		if d := v - pre[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// add accumulates d into s.
func (s scrape) add(d scrape) {
	for k, v := range d {
		s[k] += v
	}
}

// sum totals a family across its label sets.
func (s scrape) sum(name string) float64 {
	return obs.SumByPrefix(map[string]float64(s), name)
}

// quantile estimates the q-th quantile of a histogram family from its
// (delta) bucket counts, summed across label sets, interpolating
// linearly inside the bucket the rank falls in — what Prometheus'
// histogram_quantile computes. It returns 0 without observations.
func (s scrape) quantile(family string, q float64) float64 {
	cum := map[float64]float64{}
	prefix := family + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, ok := labelValue(k[len(family+"_bucket"):], "le")
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = inf, nil
		}
		if err != nil {
			continue
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	target := q * cum[bounds[len(bounds)-1]]
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= target {
			if b == inf {
				return prevBound
			}
			if c == prevCum {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCum)/(c-prevCum)
		}
		prevBound, prevCum = b, c
	}
	return prevBound
}

// labelValue extracts one label's value from a `{k="v",...}` suffix.
func labelValue(labels, key string) (string, bool) {
	i := strings.Index(labels, "{"+key+`="`)
	if i < 0 {
		i = strings.Index(labels, ","+key+`="`)
	}
	if i < 0 {
		return "", false
	}
	rest := labels[i+len(key)+3:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
