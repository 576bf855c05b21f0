// Package metricstest checks Prometheus text expositions in tests, so a
// formatting slip in a /metrics handler fails the build instead of
// reaching a scraper.
package metricstest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches `name[{label="value",...}] value`, with label values
// in double quotes and backslash escapes.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?` +
		` (\S+)$`)

// family is what Check knows about one metric family.
type family struct {
	help, typ, histogram bool
	// sampled is set by the family's first sample, and closed when a
	// sample of another family follows it.
	sampled, closed bool
	// inf, sum and count record a histogram's mandatory series.
	inf, sum, count bool
}

// histogramSuffixes are the sample-name suffixes of a histogram family.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// familyOf names the family a sample belongs to: its own name, or, for a
// histogram's series, the histogram's.
func familyOf(families map[string]*family, sample string) string {
	if _, ok := families[sample]; ok {
		return sample
	}
	for _, suffix := range histogramSuffixes {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if f := families[base]; f != nil && f.histogram {
				return base
			}
		}
	}
	return sample
}

// Check reports through tb every line of body that is neither blank, a
// comment, nor a sample whose value parses as a float, and returns the
// number of samples. It also reports
//   - a sample whose family has no `# HELP` and `# TYPE` line before it,
//   - a family declared twice, or whose samples another family's split,
//   - a histogram without a `_bucket{le="+Inf"}`, `_sum` or `_count`
//     sample.
func Check(tb testing.TB, body string) int {
	tb.Helper()
	samples := 0
	families := make(map[string]*family)
	var order []string
	get := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	current := ""
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue
			}
			f := get(fields[2])
			if f.sampled {
				tb.Errorf("line %d declares %s after its samples: %q", i+1, fields[2], line)
			}
			seen := &f.help
			if fields[1] == "TYPE" {
				seen = &f.typ
				f.histogram = len(fields) == 4 && fields[3] == "histogram"
			}
			if *seen {
				tb.Errorf("line %d declares %s a second time: %q", i+1, fields[2], line)
			}
			*seen = true
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			tb.Errorf("line %d is not `name[{labels}] value`: %q", i+1, line)
			continue
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			tb.Errorf("line %d has a non-numeric value: %q", i+1, line)
			continue
		}
		samples++
		name := familyOf(families, m[1])
		f := get(name)
		if !f.sampled && (!f.help || !f.typ) {
			tb.Errorf("line %d is a sample of %s before its # HELP and # TYPE lines: %q", i+1, name, line)
		}
		if name != current {
			if cur := families[current]; cur != nil {
				cur.closed = true
			}
			if f.closed {
				tb.Errorf("line %d splits %s: another family's samples came between: %q", i+1, name, line)
			}
			current = name
		}
		f.sampled = true
		if f.histogram {
			switch strings.TrimPrefix(m[1], name) {
			case "_bucket":
				f.inf = f.inf || strings.Contains(m[2], `le="+Inf"`)
			case "_sum":
				f.sum = true
			case "_count":
				f.count = true
			}
		}
	}
	for _, name := range order {
		f := families[name]
		if !f.histogram {
			continue
		}
		for _, s := range []struct {
			ok     bool
			series string
		}{{f.inf, `_bucket{le="+Inf"}`}, {f.sum, "_sum"}, {f.count, "_count"}} {
			if !s.ok {
				tb.Errorf("histogram %s has no %s%s sample", name, name, s.series)
			}
		}
	}
	return samples
}

// Skeleton returns body with every sample value masked as "_": the HELP
// and TYPE lines, the sample names and their labels, in order. Goldens of
// it pin an exposition's shape while the counts move.
func Skeleton(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i] + " _"
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
