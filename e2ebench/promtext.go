package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of the server's /metrics page: each sample line
// keyed by its series, name plus label set exactly as exposed.
type scrape map[string]float64

// scrapeMetrics GETs the Prometheus text page under base.
func scrapeMetrics(client *http.Client, base string) (scrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose labels include all of
// the given name="value" pairs.
func (s scrape) sum(family string, labels ...string) float64 {
	var t float64
	for series, v := range s {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// delta is after.sum − before.sum for the same selection.
func delta(before, after scrape, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}
