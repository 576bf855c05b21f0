package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// RequestCounts counts served requests by path and status code. The zero
// value is ready to use.
type RequestCounts struct {
	mu sync.Mutex
	m  map[requestKey]*Counter
}

type requestKey struct {
	path string
	code int
}

// Counter returns the live counter for one (path, code) pair, creating
// it on first use.
func (rc *RequestCounts) Counter(path string, code int) *Counter {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	k := requestKey{path: path, code: code}
	c := rc.m[k]
	if c == nil {
		if rc.m == nil {
			rc.m = make(map[requestKey]*Counter)
		}
		c = &Counter{}
		rc.m[k] = c
	}
	return c
}

// Exposition writes one Prometheus text exposition, family by family;
// every family name is prefixed (fomodeld_, fomodelproxy_). Each writer
// emits a family's # HELP and # TYPE lines and then its samples, so a
// family is declared once and its samples stay together. A short write
// means the scraper went away, so write errors are not reported.
type Exposition struct {
	w      io.Writer
	prefix string
}

// NewExposition returns an exposition writing to w under prefix.
func NewExposition(w io.Writer, prefix string) Exposition {
	return Exposition{w: w, prefix: prefix}
}

// header writes a family's # HELP and # TYPE lines and returns its full
// name.
func (x Exposition) header(name, typ, help string) string {
	name = x.prefix + name
	fmt.Fprintf(x.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return name
}

// Counter writes an unlabeled counter family.
func (x Exposition) Counter(name, help string, v int64) {
	fmt.Fprintf(x.w, "%s %d\n", x.header(name, "counter", help), v)
}

// Gauge writes an unlabeled gauge family.
func (x Exposition) Gauge(name, help string, v int64) {
	fmt.Fprintf(x.w, "%s %d\n", x.header(name, "gauge", help), v)
}

// Uptime writes the uptime_seconds gauge: the time since start, in
// seconds to the millisecond.
func (x Exposition) Uptime(help string, start time.Time) {
	fmt.Fprintf(x.w, "%s %.3f\n", x.header("uptime_seconds", "gauge", help), time.Since(start).Seconds())
}

// Labeled writes a family of type typ with one sample per value of
// label, in the order given; value(i) is the sample of values[i].
func (x Exposition) Labeled(name, typ, help, label string, values []string, value func(i int) int64) {
	name = x.header(name, typ, help)
	for i, v := range values {
		fmt.Fprintf(x.w, "%s{%s=%q} %d\n", name, label, v, value(i))
	}
}

// Requests writes rc as the requests_total counter family, labeled by
// path and code and sorted by both.
func (x Exposition) Requests(rc *RequestCounts) {
	name := x.header("requests_total", "counter", "Requests served, by path and status code.")
	type row struct {
		requestKey
		c *Counter
	}
	rc.mu.Lock()
	rows := make([]row, 0, len(rc.m))
	for k, c := range rc.m {
		rows = append(rows, row{k, c})
	}
	rc.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].path != rows[j].path {
			return rows[i].path < rows[j].path
		}
		return rows[i].code < rows[j].code
	})
	for _, r := range rows {
		fmt.Fprintf(x.w, "%s{path=%q,code=\"%d\"} %d\n", name, r.path, r.code, r.c.Load())
	}
}

// Histogram writes h as a histogram family: one cumulative bucket per
// bound, the +Inf bucket, the sum and the count.
func (x Exposition) Histogram(name, help string, h *Histogram) {
	snap := h.Snapshot()
	name = x.header(name, "histogram", help)
	for i, bound := range snap.Bounds {
		fmt.Fprintf(x.w, "%s_bucket{le=\"%g\"} %d\n", name, bound, snap.Cumulative[i])
	}
	fmt.Fprintf(x.w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(x.w, "%s_sum %.6f\n", name, snap.Sum)
	fmt.Fprintf(x.w, "%s_count %d\n", name, snap.Count)
}
